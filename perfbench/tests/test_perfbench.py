"""Tests of the benchmark itself: span arithmetic, metric names, tracing.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import bootstrap  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

bootstrap.import_gossipgn()

from gossipgn.config import config_from_mapping  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b", 8.0, 11.0, 0],  # overlaps its sibling and outlives the parent
    ]
    table = tracing.span_table(spans)
    # root's children cover [1, 4] and [5, 10] (clipped): 8 of its 10 s.
    assert table["root"] == {"calls": 1, "s": 10.0, "self_s": 2.0}
    assert table["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert table["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert table["b"] == {"calls": 2, "s": 7.0, "self_s": 7.0}


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0),
    ]
    table = tracing.span_table(tracer.spans)
    # outer opens at 0 and closes at 5; the inner spans are [1, 2] and [3, 4].
    assert table["outer"]["s"] == 5.0 and table["outer"]["self_s"] == 3.0
    assert table["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_benchmark_json_names_follow_the_grammar():
    spec = metrics.SPEC
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert metrics.UNIT_RE.fullmatch(m["unit"]), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_has_a_source():
    assert set(metrics.PER_LAYER) == set(metrics.PER_LAYER_UNITS)


@pytest.mark.parametrize("bad", ["", "-lead", "has space", "x" * 65, "semi;colon", "ünï"])
def test_name_grammar_rejects(bad):
    assert not metrics.NAME_RE.fullmatch(bad)


def test_a_source_that_never_fires_is_reported():
    table = {"ggn.ggn_run": {"calls": 1}}
    missing = metrics.missing_coverage("ure30_lossy", table, {"ggn.updates": 1})
    assert any(m.startswith("gossip.round.calls") for m in missing)
    assert not any(m.startswith("ggn.updates") for m in missing)


# Small versions of the three workloads: same verbs, same code paths.
SMALL = {
    "cse3_certify": [{"repetitions": 2, "max_updates": 3, "certificate": {"n_samples": 2}}],
    "ure30_lossy": [
        {"sites": 4, "protocol": {"kind": "ure", "beta": 0.5}, "exchanges": {"base": 4},
         "max_updates": 3, "ridge": 1.0e-4, "repetitions": 1},
    ],
    "diffusion900_compare": [
        {"repetitions": 1, "max_updates": 3},
        {"repetitions": 1, "algorithm": "diffusion", "diffusion": {"total_exchanges": 20}},
    ],
}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_call_writes_byte_identical_csvs(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(wl.SPECS[workload], "configs", SMALL[workload])
    configs = [config_from_mapping(m) for m in wl.config_mappings(workload, seed=3)]
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS + [(*tracing.SITE_BUILDER, None)]
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr) for module, attr, _ in targets
    }

    wl.call_verb(workload, configs, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        wl.call_verb(workload, configs, tmp_path / "traced")

    plain = wl.collect_outputs(workload, tmp_path / "plain")
    traced = wl.collect_outputs(workload, tmp_path / "traced")
    assert plain.csv_sha256 and traced.csv_sha256 == plain.csv_sha256
    table = tracing.span_table(tracer.spans)
    assert metrics.missing_coverage(workload, table, tracer.counts) == []
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_reference_comparison_counts_missing_files_and_value_drift():
    outputs = wl.Outputs(
        csv_sha256={"a.csv": "1", "b.csv": "2"}, values={"x": 1.0 + 1e-12, "y": 0.0},
        exchanges_to_2x_floor=3, csv_bytes=10,
    )
    reference = {"csv_sha256": {"a.csv": "1", "c.csv": "3"}, "values": {"x": 1.0, "y": 0.0}}
    share, rel_err = wl.compare_to_reference(outputs, reference)
    assert share == pytest.approx(1 / 3)
    assert rel_err == pytest.approx(1e-12)
