"""Metric sources of the benchmark and the per-layer metrics of a traced call.

Names, units and directions of every metric, and the workload names, are
read from BENCHMARK.json. PER_LAYER adds, for each per-layer metric, where
its value comes from and the workloads whose run_s it should move: on those
workloads its span or counter must fire at least once, or the traced run
fails (a wrapped name that never fires would otherwise read 0).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

CSE3, URE30, DIFF900 = "cse3_certify", "ure30_lossy", "diffusion900_compare"
ALL = (CSE3, URE30, DIFF900)

# name -> ((kind, source), workloads it must fire on)
# kind: "calls"/"s"/"self_s" of a span name, "count" of a counter, or
# "derived" for values computed from several sources (see layer_metrics).
PER_LAYER = {
    "psse.site_eval.calls": (("calls", "psse.site_eval"), (URE30, DIFF900)),
    "psse.site_eval.self_s": (("self_s", "psse.site_eval"), (URE30, DIFF900)),
    "psse.model_eval.calls": (("calls", "psse.model_eval"), (DIFF900,)),
    "psse.model_eval.computed": (("count", "psse.model_eval.computed"), (DIFF900,)),
    "psse.model_eval.hit_ratio": (("derived", "psse.model_eval"), (DIFF900,)),
    "psse.model_eval.self_s": (("self_s", "psse.model_eval"), (DIFF900,)),
    "psse.mse_metrics.s": (("s", "psse.mse_metrics"), (URE30,)),
    "psse.case_parse_s": (("s", "psse.case_parse"), ALL),
    "psse.power_flow_s": (("s", "psse.power_flow"), ALL),
    "core.normal_system.calls": (("calls", "core.normal_system"), (URE30,)),
    "core.normal_system.self_s": (("self_s", "core.normal_system"), (URE30,)),
    "core.solve_normal.calls": (("calls", "core.solve_normal"), (URE30,)),
    "core.solve_normal.s": (("s", "core.solve_normal"), (URE30,)),
    "core.stationarity.s": (("s", "core.stationarity"), (URE30,)),
    "core.estimate_constants.s": (("s", "core.estimate_constants"), (CSE3,)),
    "core.estimate_constants.pairs": (("count", "core.estimate_constants.pairs"), (CSE3,)),
    "core.reference_solve.s": (("s", "core.reference_solve"), (CSE3,)),
    "ggn.local_init_info.calls": (("calls", "ggn.local_init_info"), (URE30,)),
    "ggn.local_init_info.self_s": (("self_s", "ggn.local_init_info"), (URE30,)),
    "ggn.surrogate_solve.calls": (("calls", "ggn.surrogate_solve"), (URE30,)),
    "ggn.surrogate_solve.s": (("s", "ggn.surrogate_solve"), (URE30,)),
    "ggn.descent_discrepancy.s": (("s", "ggn.descent_discrepancy"), (URE30,)),
    "ggn.ggn_run.self_s": (("self_s", "ggn.ggn_run"), (URE30,)),
    "ggn.diffusion_run.self_s": (("self_s", "ggn.diffusion_run"), (DIFF900,)),
    "ggn.updates": (("count", "ggn.updates"), ALL),
    "ggn.exchanges": (("count", "ggn.exchanges"), ALL),
    "ggn.singular_fallbacks": (("count", "ggn.singular_fallbacks"), ()),
    "gossip.round.calls": (("calls", "gossip.round"), (URE30,)),
    "gossip.round.s": (("s", "gossip.round"), (URE30,)),
    "gossip.round.bytes_computed": (("count", "gossip.round.bytes_computed"), (URE30,)),
    "gossip.sample_ure.s": (("s", "gossip.sample_ure"), (URE30,)),
    "gossip.effective_ratio": (("derived", "gossip.round"), (URE30,)),
    "analysis.build_certificate.s": (("s", "analysis.build_certificate"), (CSE3,)),
    "experiments.certificate_for_run.s": (("s", "experiments.certificate_for_run"), (CSE3,)),
    "experiments.write_metrics_csv.s": (("s", "experiments.write_metrics_csv"), (DIFF900,)),
    "experiments.csv_bytes": (("derived", "experiments.write_metrics_csv"), (DIFF900,)),
    "experiments.mean_rows.s": (("s", "experiments.mean_rows"), (DIFF900,)),
    "experiments.run.self_s": (("self_s", "experiments.run"), (DIFF900,)),
    "trace.spans": (("derived", None), ()),
    "trace.overhead_s": (("derived", None), ()),
}


def missing_coverage(workload: str, table: dict, counts: dict) -> list[str]:
    """Per-layer metrics expected to move this workload whose source never fired."""
    missing = []
    for name, ((kind, source), workloads) in PER_LAYER.items():
        if workload not in workloads or source is None:
            continue
        fired = counts.get(source, 0) if kind == "count" else table.get(source, {}).get("calls", 0)
        if fired <= 0:
            missing.append(f"{name} (source {source!r} never fired)")
    return missing


def layer_metrics(
    table: dict, counts: dict, n_spans: int, csv_bytes: int, overhead_s: float,
) -> dict[str, float]:
    """Values of every per-layer metric from a span table and counters."""
    model_calls = table.get("psse.model_eval", {}).get("calls", 0)
    rounds = table.get("gossip.round", {}).get("calls", 0)
    derived = {
        "psse.model_eval.hit_ratio": (
            1.0 - counts.get("psse.model_eval.computed", 0) / model_calls if model_calls else 0.0
        ),
        "gossip.effective_ratio": counts.get("gossip.effective_rounds", 0) / rounds if rounds else 0.0,
        "experiments.csv_bytes": csv_bytes,
        "trace.spans": n_spans,
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name in PER_LAYER_UNITS:
        kind, source = PER_LAYER[name][0]
        if kind == "derived":
            values[name] = derived[name]
        elif kind == "count":
            values[name] = counts.get(source, 0)
        else:
            values[name] = table.get(source, {}).get(kind, 0)
    return values
