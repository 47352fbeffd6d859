import csv
import filecmp
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from gossipgn.cli import main
from gossipgn.config import ExperimentConfig, config_from_mapping, load_config
from gossipgn.errors import ConfigError, InvalidArgumentError
from gossipgn.ggn import DiffusionConfig, ExchangeSchedule, GgnConfig
from gossipgn.gossip import GossipConfig
from gossipgn.experiments import (
    CSV_COLUMNS,
    compare_algorithms,
    mean_rows,
    run_experiment,
    run_failure_sweep,
    write_metrics_csv,
)

from conftest import CASE2_TEXT


def tiny_mapping(**overrides):
    data = {
        "case_path": "case2",
        "algorithm": "ggn",
        "sites": 2,
        "alpha": 0.8,
        "protocol": {"kind": "cse", "beta": 0.4},
        "exchanges": {"kind": "constant", "base": 2},
        "max_updates": 3,
        "sigma2": 1e-6,
        "snapshots": 1,
        "seed": 3,
        "repetitions": 2,
        "certificate": {"n_samples": 6},
    }
    data.update(overrides)
    return data


def write_config(path: Path, mapping: dict) -> str:
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def final_rows(rows: list[dict]) -> list[dict]:
    """The rows of the last snapshot's last update, selected by header name."""
    snapshot = max(int(r["snapshot"]) for r in rows)
    rows = [r for r in rows if int(r["snapshot"]) == snapshot]
    update = max(int(r["update"]) for r in rows)
    return [r for r in rows if int(r["update"]) == update]


def column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


# --- configuration loading ----------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path = write_config(tmp_path / "c.yaml", tiny_mapping(output_dir=str(tmp_path / "o")))
    cfg = load_config(path)
    assert cfg.case_path == "case2"
    assert cfg.sites == 2
    assert cfg.protocol.beta == 0.4
    assert cfg.exchanges.base == 2
    assert cfg.repetitions == 2
    # each section is the type the run consumes
    assert cfg.protocol == GossipConfig(kind="cse", beta=0.4)
    assert cfg.exchanges == ExchangeSchedule(kind="constant", base=2)
    assert cfg.diffusion == DiffusionConfig()
    assert cfg.ggn_config() == GgnConfig(
        alpha=0.8, schedule=cfg.exchanges, max_updates=3, stop_tol=1e-12, ridge=1e-8
    )


def test_float_fields_take_ints_and_optional_fields_take_null():
    cfg = config_from_mapping(
        {"alpha": 1, "protocol": {"link_failure_prob": 0}, "true_state_path": None}
    )
    assert cfg.alpha == 1 and cfg.protocol.link_failure_prob == 0
    assert cfg.true_state_path is None


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == ExperimentConfig()


def test_unknown_top_level_key_named():
    with pytest.raises(ConfigError, match="sitez: unknown key"):
        config_from_mapping({"sitez": 4})


def test_unknown_nested_key_has_field_path():
    with pytest.raises(ConfigError, match=r"protocol\.betta: unknown key"):
        config_from_mapping({"protocol": {"betta": 0.4}})


def test_value_validation_messages():
    with pytest.raises(ConfigError, match="alpha"):
        config_from_mapping({"alpha": 0.0})
    with pytest.raises(ConfigError, match=r"protocol\.kind"):
        config_from_mapping({"protocol": {"kind": "token-ring"}})
    with pytest.raises(ConfigError, match=r"exchanges\.base"):
        config_from_mapping({"exchanges": {"base": 0}})
    with pytest.raises(ConfigError, match="must be a mapping|expected a mapping"):
        config_from_mapping({"protocol": 3})
    with pytest.raises(ConfigError, match="root must be a mapping"):
        config_from_mapping([1, 2])


def test_experiment_config_checks_itself_when_built():
    config = ExperimentConfig()
    with pytest.raises(ConfigError, match="repetitions: must be >= 1"):
        replace(config, repetitions=0)
    with pytest.raises(ConfigError, match="algorithm: must be one of"):
        replace(config, algorithm="newton")
    with pytest.raises(ConfigError, match="alpha"):
        replace(config, alpha=1.5)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    for text, message in (
        ("alpha: [unclosed", None),
        ("sites: 3\nsites: 30\n", r"^sites: duplicate key \(line 2\)"),
        ("protocol: {kind: cse, kind: ure}\n", r"^protocol\.kind: duplicate key \(line 1\)"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)


# --- experiment runner --------------------------------------------------------


def test_run_writes_expected_files(tmp_path):
    cfg = config_from_mapping(tiny_mapping(output_dir=str(tmp_path / "out")))
    result = run_experiment(cfg)
    assert result.output_dir == tmp_path / "out"
    names = sorted(p.name for p in result.output_dir.iterdir())
    assert names == [
        "metrics_mean.csv", "metrics_r000.csv", "metrics_r001.csv", "summary.txt",
    ]
    with open(result.rep_csv_paths[0], newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS
    with open(result.mean_csv_path, newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS[1:]
    summary = result.summary_path.read_text()
    assert "final_val_global_mean=" in summary
    assert "wall_clock_s=" in summary


VERB_CSVS = {
    "run": {"metrics_mean.csv", "metrics_r000.csv", "metrics_r001.csv"},
    "sweep-failures": {"degradation.csv", "p_0/metrics_r000.csv", "p_0.3/metrics_mean.csv"},
    "compare": {"comparison.csv", "ggn/metrics_r000.csv", "diffusion/metrics_mean.csv"},
}


@pytest.mark.parametrize("verb", sorted(VERB_CSVS))
def test_repeated_runs_byte_identical(tmp_path, monkeypatch, verb):
    if verb == "run":
        args = [write_config(tmp_path / "c.yaml", tiny_mapping())]
    elif verb == "sweep-failures":
        args = [write_config(tmp_path / "c.yaml", sweep_mapping(tmp_path)), "--p", "0,0.3"]
    else:
        base = tiny_mapping(repetitions=1)
        diffusion = dict(
            base, algorithm="diffusion", diffusion={"step_scale": 0.3, "total_exchanges": 8}
        )
        args = [
            write_config(tmp_path / "g.yaml", base), write_config(tmp_path / "d.yaml", diffusion)
        ]
    written = []
    for out in (tmp_path / "a", tmp_path / "b"):
        monkeypatch.setenv("GOSSIPGN_OUTPUT_DIR", str(out))
        assert main([verb, *args]) == 0
        written.append(sorted(p.relative_to(out) for p in out.rglob("*.csv")))
    assert written[0] == written[1]
    assert VERB_CSVS[verb] <= {p.as_posix() for p in written[0]}
    for rel in written[0]:
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel


def test_env_dir_overrides_config(tmp_path, monkeypatch):
    cfg = config_from_mapping(tiny_mapping(output_dir=str(tmp_path / "ignored")))
    target = tmp_path / "env_target"
    result = run_experiment(cfg, env_output_dir=str(target))
    assert result.output_dir == target
    assert not (tmp_path / "ignored").exists()


def test_mean_csv_is_arithmetic_mean(tmp_path):
    cfg = config_from_mapping(tiny_mapping(output_dir=str(tmp_path / "out")))
    result = run_experiment(cfg)

    def load(path, skip_run_id):
        table = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["snapshot"], row["update"], row["exchange"], row["agent"])
                table[key] = row
        return table

    reps = [load(p, True) for p in result.rep_csv_paths]
    means = load(result.mean_csv_path, False)
    assert means, "mean table is empty"
    for key, mean_row in means.items():
        for col in ("val", "grad_contrib", "mse_v", "error_to_reference"):
            values = [float(rep[key][col]) for rep in reps]
            assert float(mean_row[col]) == pytest.approx(np.mean(values), rel=1e-12)


def columns_of(rows: list[list]) -> dict[str, np.ndarray]:
    """CSV_COLUMNS from rows laid out in that order."""
    return {name: np.array(cells) for name, cells in zip(CSV_COLUMNS, zip(*rows))}


def test_mean_rows_helper_direct():
    rows = [
        ["r000", 0, 1, 2, 0, 4.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0],
        ["r001", 0, 1, 2, 0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0],
    ]
    out = mean_rows(columns_of(rows))
    assert tuple(out) == CSV_COLUMNS[1:]
    assert all(len(column) == 1 for column in out.values())
    keys = ("snapshot", "update", "exchange", "agent")
    assert [out[name].tolist() for name in keys] == [[0], [1], [2], [0]]
    assert out["val"][0] == pytest.approx(3.0)
    assert out["grad_contrib"][0] == pytest.approx(2.0)
    assert out["error_to_reference"][0] == pytest.approx(3.0)


def test_mean_rows_of_uneven_repetitions():
    # keys (snapshot, update, exchange, agent) and val per repetition; the second
    # repetition runs one update longer, so its later snapshot starts at another exchange
    reps = [
        [((0, 0, 0, 0), 1e16), ((0, 1, 2, 0), 2.0), ((1, 0, 2, 0), 3.0)],
        [((0, 0, 0, 0), 1.0), ((0, 1, 2, 0), 4.0), ((0, 2, 4, 0), 5.0), ((1, 0, 4, 0), 6.0)],
        [((0, 0, 0, 0), -1e16)],
    ]
    rows = [
        [f"r{r:03d}", *key, val, -val, 0.0, 0.0, 0.0, 0.0, 0.0]
        for r, rep in enumerate(reps) for key, val in rep
    ]
    out = mean_rows(columns_of(rows))
    keys = ("snapshot", "update", "exchange", "agent")
    assert list(zip(*(out[name].tolist() for name in keys))) == [
        (0, 0, 0, 0), (0, 1, 2, 0), (1, 0, 2, 0), (0, 2, 4, 0), (1, 0, 4, 0),
    ]
    # sums run in repetition order: (1e16 + 1.0) - 1e16 is 0.0, not 1.0
    assert out["val"].tolist() == [0.0, 3.0, 3.0, 5.0, 6.0]
    assert out["grad_contrib"].tolist() == [0.0, -3.0, -3.0, -5.0, -6.0]


def test_write_metrics_csv_formats_each_column_type(tmp_path):
    path = tmp_path / "t.csv"
    write_metrics_csv(path, {
        "name": np.array(["a", "b"]),
        "count": np.array([3, -4]),
        "value": np.array([0.1, 1e-300]),
        "edge": np.array([-0.0, np.nan]),
        "ok": np.array([True, False]),
    })
    lines = [b"name,count,value,edge,ok", b"a,3,0.1,-0.0,1", b"b,-4,1e-300,nan,0"]
    assert path.read_bytes() == b"\r\n".join(lines) + b"\r\n"


def test_centralized_algorithm_runs(tmp_path):
    cfg = config_from_mapping(
        tiny_mapping(algorithm="centralized", sites=1, output_dir=str(tmp_path / "c"))
    )
    result = run_experiment(cfg, with_certificate=False)
    with open(result.rep_csv_paths[0], newline="") as fh:
        agents = {row["agent"] for row in csv.DictReader(fh)}
    assert agents == {"0"}


def test_centralized_rows_carry_network_totals(tmp_path):
    cfg = config_from_mapping(
        tiny_mapping(
            case_path="case30", algorithm="centralized", sites=3, repetitions=1,
            max_updates=4, output_dir=str(tmp_path / "c"),
        )
    )
    result = run_experiment(cfg, with_certificate=False)
    rep = result.repetitions[0]
    sites = rep.sites_per_snapshot[0]
    iterates = rep.trajectories[0].iterates
    with open(result.rep_csv_paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["update"]) for r in rows] == list(range(iterates.shape[0]))
    assert {r["agent"] for r in rows} == {"0"}
    for row, stack in zip(rows, iterates):
        x = stack[0]
        val = 0.0
        grad = np.zeros(x.size)
        for site in sites:
            res = np.asarray(site.eval_residual(x), dtype=float)
            jac = np.asarray(site.eval_jacobian(x), dtype=float)
            val += float(res @ res)
            grad += jac.T @ res
        assert float(row["val"]) == val
        assert float(row["grad_contrib"]) == float(np.linalg.norm(grad))


@pytest.mark.parametrize("algorithm", ["ggn", "diffusion", "centralized"])
def test_exchange_marks_count_each_algorithm_s_exchanges(tmp_path, algorithm):
    # GGN runs base + k exchanges at update k, diffusion one per update, centralized none;
    # the marks add up over updates and carry over between snapshots
    cfg = config_from_mapping(
        tiny_mapping(
            algorithm=algorithm, exchanges={"kind": "incrementing", "base": 2},
            diffusion={"step_scale": 0.3, "total_exchanges": 5}, snapshots=2, repetitions=1,
            output_dir=str(tmp_path / "o"),
        )
    )
    result = run_experiment(cfg, with_certificate=False)
    exchanges_at = {"ggn": lambda k: 2 + k, "diffusion": lambda k: 1, "centralized": lambda k: 0}
    expected, offset = [], 0
    for traj in result.repetitions[0].trajectories:
        expected += [
            offset + sum(exchanges_at[algorithm](j) for j in range(k))
            for k in range(traj.n_updates + 1)
        ]
        offset = expected[-1]
    rows = [r for r in read_rows(result.rep_csv_paths[0]) if r["agent"] == "0"]
    assert [int(r["exchange"]) for r in rows] == expected
    assert expected[-1] == {"ggn": 2 * (2 + 3 + 4), "diffusion": 10, "centralized": 0}[algorithm]


@pytest.mark.parametrize("repetitions, snapshots", [(2, 1), (1, 2)])
def test_summary_final_values_recomputed_from_csv_columns(tmp_path, repetitions, snapshots):
    cfg = config_from_mapping(
        tiny_mapping(repetitions=repetitions, snapshots=snapshots, output_dir=str(tmp_path / "o"))
    )
    result = run_experiment(cfg, with_certificate=False)
    summary = read_summary(result.summary_path)
    finals = [r for path in result.rep_csv_paths for r in final_rows(read_rows(path))]
    assert len(finals) == repetitions * cfg.sites
    expected = {
        "final_val_global_mean": column(finals, "val").sum() / repetitions,
        "final_grad_global_mean": column(finals, "grad_contrib").sum() / repetitions,
        "final_mse_v_mean": column(finals, "mse_v").mean(),
        "final_mse_theta_mean": column(finals, "mse_theta").mean(),
        "final_max_disagreement_mean": column(finals, "max_disagreement").mean(),
        "final_error_to_reference_mean": column(finals, "error_to_reference").mean(),
    }
    for key, value in expected.items():
        assert float(summary[key]) == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert int(summary["final_update"]) == int(finals[-1]["update"])


# --- failure sweep and comparison ---------------------------------------------


def sweep_mapping(tmp_path, **overrides):
    return tiny_mapping(
        protocol={"kind": "ure", "beta": 0.4},
        repetitions=1,
        output_dir=str(tmp_path / "sweep"),
        **overrides,
    )


def test_failure_sweep_outputs(tmp_path):
    cfg = config_from_mapping(sweep_mapping(tmp_path))
    sweep = run_failure_sweep(cfg, [0.0, 0.5])
    assert sweep.table_path.name == "degradation.csv"
    assert [row["p"] for row in sweep.table_rows] == [0.0, 0.5]
    assert (tmp_path / "sweep" / "p_0" / "metrics_r000.csv").exists()
    assert (tmp_path / "sweep" / "p_0.5" / "metrics_r000.csv").exists()
    for row in sweep.table_rows:
        assert row["n_agents"] == 2
        assert row["all_finite"]
    assert [row["all_finite"] for row in read_rows(sweep.table_path)] == ["1", "1"]


def test_failure_sweep_without_a_p_writes_nothing(tmp_path):
    ure = config_from_mapping(sweep_mapping(tmp_path))
    with pytest.raises(InvalidArgumentError, match="at least one failure probability"):
        run_failure_sweep(ure, [])
    assert not (tmp_path / "sweep").exists()


def test_degradation_row_recomputed_from_csv_columns(tmp_path):
    cfg = config_from_mapping(dict(sweep_mapping(tmp_path), repetitions=2))
    run_failure_sweep(cfg, [0.0, 0.3])
    table = read_rows(tmp_path / "sweep" / "degradation.csv")
    assert [row["p"] for row in table] == ["0.0", "0.3"]
    row = table[1]
    run_dir = tmp_path / "sweep" / "p_0.3"
    # the table describes the last repetition
    finals = final_rows(read_rows(run_dir / "metrics_r001.csv"))
    floor = float(read_summary(run_dir / "summary.txt")["noise_floor"])
    vals, mses = column(finals, "val"), column(finals, "mse_v")
    for key, value in {
        "final_val_max": vals.max(),
        "final_val_mean": vals.mean(),
        "final_mse_v_mean": mses.mean(),
        "final_mse_v_max": mses.max(),
        "max_disagreement_final": column(finals, "max_disagreement").max(),
    }.items():
        assert float(row[key]) == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert int(row["agents_below_100x_floor"]) == int(np.sum(vals < 100.0 * floor))
    assert int(row["n_agents"]) == len(finals) == 2
    assert row["all_finite"] == "1"


def test_failure_sweep_validates(tmp_path):
    cse = config_from_mapping(tiny_mapping(output_dir=str(tmp_path / "x")))
    with pytest.raises(InvalidArgumentError, match="protocol=ure"):
        run_failure_sweep(cse, [0.0])
    ure = config_from_mapping(sweep_mapping(tmp_path))
    with pytest.raises(InvalidArgumentError, match="outside"):
        run_failure_sweep(ure, [1.0])


def test_failure_sweep_checks_every_p_before_the_first_run(tmp_path):
    ure = config_from_mapping(sweep_mapping(tmp_path))
    for p_values, message in (
        ([0.0, 1.5], "1.5 outside"),
        ([0.1234567, 0.1234568], "share the output directory p_0.123457"),
    ):
        with pytest.raises(InvalidArgumentError, match=message):
            run_failure_sweep(ure, p_values)
        assert not list((tmp_path / "sweep").glob("p_*"))


def test_compare_algorithms_outputs(tmp_path):
    base = tiny_mapping(output_dir=str(tmp_path / "cmp"), repetitions=1)
    cfg_g = config_from_mapping(base)
    cfg_d = config_from_mapping(
        dict(base, algorithm="diffusion",
             diffusion={"step_scale": 0.3, "total_exchanges": 8}),
    )
    result = compare_algorithms(cfg_g, cfg_d)
    assert result.table_path.name == "comparison.csv"
    with open(result.table_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    algs = {row["algorithm"] for row in rows}
    assert algs == {"ggn", "diffusion"}
    assert (tmp_path / "cmp" / "ggn" / "summary.txt").exists()
    assert (tmp_path / "cmp" / "diffusion" / "summary.txt").exists()


def test_comparison_sums_recomputed_from_mean_csv_columns(tmp_path):
    base = tiny_mapping(output_dir=str(tmp_path / "cmp"), snapshots=2)
    cfg_g = config_from_mapping(base)
    cfg_d = config_from_mapping(
        dict(base, algorithm="diffusion",
             diffusion={"step_scale": 0.3, "total_exchanges": 8}),
    )
    compare_algorithms(cfg_g, cfg_d)
    table = read_rows(tmp_path / "cmp" / "comparison.csv")
    for label in ("ggn", "diffusion"):
        sums: dict[tuple[int, int], list[float]] = {}
        for r in read_rows(tmp_path / "cmp" / label / "metrics_mean.csv"):
            slot = sums.setdefault((int(r["snapshot"]), int(r["exchange"])), [0.0, 0.0])
            slot[0] += float(r["val"])
            slot[1] += float(r["grad_contrib"])
        got = [r for r in table if r["algorithm"] == label]
        assert [int(r["exchange"]) for r in got] == [e for _, e in sorted(sums)]
        for r, (val, grad) in zip(got, (sums[k] for k in sorted(sums))):
            assert float(r["val"]) == pytest.approx(val, rel=1e-12, abs=0.0)
            assert float(r["grad"]) == pytest.approx(grad, rel=1e-12, abs=0.0)


def test_compare_rejects_mismatched_instances(tmp_path):
    base = tiny_mapping(output_dir=str(tmp_path / "cmp2"), repetitions=1)
    cfg_g = config_from_mapping(base)
    cfg_d = config_from_mapping(dict(base, algorithm="diffusion", seed=99))
    with pytest.raises(InvalidArgumentError, match="seed"):
        compare_algorithms(cfg_g, cfg_d)
    with pytest.raises(InvalidArgumentError, match="one ggn config and one diffusion"):
        compare_algorithms(cfg_g, cfg_g)


@pytest.mark.parametrize(
    "field_name, value",
    [("true_state_path", "truth.csv"), ("theta_max", 1.0), ("v_max", 1.2)],
)
def test_compare_rejects_configs_that_build_different_instances(
    tmp_path, capsys, field_name, value
):
    base = tiny_mapping(output_dir=str(tmp_path / "cmp"), repetitions=1)
    other = dict(base, algorithm="diffusion", **{field_name: value})
    with pytest.raises(InvalidArgumentError, match=f"configs disagree on {field_name}"):
        compare_algorithms(config_from_mapping(base), config_from_mapping(other))
    a = write_config(tmp_path / "a.yaml", base)
    b = write_config(tmp_path / "b.yaml", other)
    assert main(["compare", a, b]) == 1
    assert f"configs disagree on {field_name}" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


# --- command line entry point ---------------------------------------------------


def test_cli_run_ok(tmp_path, capsys, monkeypatch):
    target = tmp_path / "cli_out"
    monkeypatch.setenv("GOSSIPGN_OUTPUT_DIR", str(target))
    path = write_config(tmp_path / "c.yaml", tiny_mapping(repetitions=1))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "summary" in out
    assert (target / "metrics_r000.csv").exists()


def test_cli_exit_config(tmp_path, capsys):
    path = write_config(tmp_path / "c.yaml", {"sitez": 5})
    assert main(["run", path]) == 2
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_config_on_removed_partition_key(tmp_path, capsys):
    # the site partition is always contiguous, so the key no longer exists
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(partition="contiguous", output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 2
    assert "partition: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# values of the wrong type or non-finite, each named by its field path
WRONG_TYPE_PROBES = [
    ("protocol.beta", "abc"),
    ("seed", "abc"),
    ("max_updates", 2.5),
    ("exchanges.base", 2.5),
    ("repetitions", 1.5),
    ("case_path", 5),
    ("true_state_path", 5),
    ("sites", 2.5),
    ("theta_max", math.inf),
    ("v_max", math.inf),
    ("load_scale", math.inf),
    ("sigma2", math.inf),
    ("ridge", math.inf),
    ("stop_tol", math.inf),
    ("repetitions", True),
]


@pytest.mark.parametrize(
    "field_path, value", WRONG_TYPE_PROBES, ids=[f"{p}={v!r}" for p, v in WRONG_TYPE_PROBES]
)
def test_cli_exit_config_on_wrong_type_or_non_finite(tmp_path, capsys, field_path, value):
    mapping = tiny_mapping(output_dir=str(tmp_path / "o"))
    section, _, key = field_path.rpartition(".")
    (mapping[section] if section else mapping)[key] = value
    path = write_config(tmp_path / "c.yaml", mapping)
    assert main(["run", path]) == 2
    assert f"config error: {field_path}: expected" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("protocol", "comm_interval", 1), ("diffusion", "step_kind", "diminishing")],
)
def test_cli_exit_config_on_removed_section_keys(tmp_path, capsys, section, key, value):
    mapping = tiny_mapping(output_dir=str(tmp_path / "o"))
    mapping.setdefault(section, {})[key] = value
    path = write_config(tmp_path / "c.yaml", mapping)
    assert main(["run", path]) == 2
    assert f"config error: {section}.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("algorithm", ["ggn", "diffusion"])
def test_cli_exit_config_on_ure_with_one_site(tmp_path, capsys, monkeypatch, algorithm):
    # a single site leaves URE no partner; the config says so before the case is read
    from gossipgn import experiments

    def no_case(*args, **kwargs):
        raise AssertionError("the case was loaded")

    monkeypatch.setattr(experiments, "load_case", no_case)
    mapping = tiny_mapping(
        algorithm=algorithm, sites=1, protocol={"kind": "ure", "beta": 0.5},
        output_dir=str(tmp_path / "o"),
    )
    with pytest.raises(ConfigError, match="ure needs at least two sites"):
        config_from_mapping(mapping)
    assert main(["run", write_config(tmp_path / "c.yaml", mapping)]) == 2
    assert "config error: protocol.kind: ure needs at least two sites" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the centralized run mixes nothing, so its protocol section does not matter
    assert config_from_mapping(dict(mapping, algorithm="centralized")).sites == 1


def test_cli_exit_case_error(tmp_path, capsys):
    bad_case = tmp_path / "bad.m"
    bad_case.write_text("function mpc = bad\nmpc.baseMVA = 100;\n")
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(case_path=str(bad_case), output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 3
    assert "case error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("0.01 0.1 0.02", "0.01 nan 0.02"),
        ("0.01 0.1 0.02", "0.01 inf 0.02"),
        ("2 1 21.7", "2 1 nan"),
        ("50 -40 1.0 100", "50 -40 0 100"),
    ],
    ids=["x_nan", "x_inf", "pd_nan", "vg_zero"],
)
def test_cli_exit_case_error_on_bad_numbers(tmp_path, capsys, old, new):
    assert old in CASE2_TEXT
    case_path = tmp_path / "bad.m"
    case_path.write_text(CASE2_TEXT.replace(old, new))
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(case_path=str(case_path), output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 3
    assert "case error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_cli_exit_bad_true_state(tmp_path, capsys, bad):
    truth = tmp_path / "truth.csv"
    truth.write_text(f"bus,theta,v\n1,0.0,1.0\n2,{bad},0.98\n")
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(true_state_path=str(truth), output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "true-state line 3" in err
    assert "Traceback" not in err


def test_cli_exit_config_on_a_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {tmp_path}")
    assert "Traceback" not in err


def test_cli_exit_case_error_on_a_case_path_that_is_a_directory(tmp_path, capsys):
    case_dir = tmp_path / "case_dir"
    case_dir.mkdir()
    path = write_config(
        tmp_path / "c.yaml", tiny_mapping(case_path=str(case_dir), output_dir=str(tmp_path / "o"))
    )
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"case error: cannot read case file {case_dir}")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_exit_on_an_unreadable_true_state_path(tmp_path, capsys, kind):
    truth = tmp_path / "truth"
    if kind == "directory":
        truth.mkdir()
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(true_state_path=str(truth), output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read true-state file {truth}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, code, prefix",
    [
        ("config", 2, "config error: config file"),
        ("case_path", 3, "case error: case file"),
        ("true_state_path", 1, "error: true-state file"),
    ],
    ids=["config", "case", "true_state"],
)
def test_cli_exit_on_a_non_utf8_input(tmp_path, capsys, field, code, prefix):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    if field == "config":
        path = str(bad)
    else:
        mapping = tiny_mapping(**{field: str(bad)}, output_dir=str(tmp_path / "o"))
        path = write_config(tmp_path / "c.yaml", mapping)
    assert main(["run", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} {bad} is not UTF-8")
    assert "Traceback" not in err


def test_cli_certify_gives_a_centralized_run_the_single_agent_certificate(tmp_path, capsys):
    # centralized Gauss-Newton gossips nothing, whatever the number of sites
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(algorithm="centralized", sites=2, output_dir=str(tmp_path / "o")),
    )
    assert main(["certify", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in (
        "certificate.applicable=true", "certificate.eta_observed=nan", "certificate.L0=0",
        "certificate.kappa=0.0", "certificate.C=nan", "certificate.lambda_eta_val=nan",
        "certificate.conditional=false",
    ):
        assert line in printed


def test_cli_exit_unsupported(tmp_path, capsys):
    shifted = CASE2_TEXT.replace("130 0 0 1 -360", "130 0 30 1 -360")
    assert shifted != CASE2_TEXT
    case_path = tmp_path / "shift.m"
    case_path.write_text(shifted)
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(case_path=str(case_path), output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 4
    assert "unsupported" in capsys.readouterr().err


def test_cli_exit_numeric(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.yaml",
        tiny_mapping(load_scale=100.0, output_dir=str(tmp_path / "o")),
    )
    assert main(["run", path]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_cli_sweep_and_parse_errors(tmp_path, capsys):
    path = write_config(tmp_path / "s.yaml", sweep_mapping(tmp_path))
    assert main(["sweep-failures", path, "--p", "0,0.4"]) == 0
    out = capsys.readouterr().out
    assert "degradation" in out and "p=0.4" in out
    assert main(["sweep-failures", path, "--p", "zero"]) == 2
    # cse protocol cannot sweep link failures
    cse = write_config(tmp_path / "c.yaml", tiny_mapping(output_dir=str(tmp_path / "o")))
    assert main(["sweep-failures", cse, "--p", "0.1"]) == 1


def test_cli_sweep_rejects_a_bad_p_before_any_run(tmp_path, capsys):
    path = write_config(tmp_path / "s.yaml", sweep_mapping(tmp_path))
    assert main(["sweep-failures", path, "--p", "0,1.5"]) == 1
    assert "1.5 outside" in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "p_0").exists()


def test_cli_certify_prints_certificate(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.yaml", tiny_mapping(output_dir=str(tmp_path / "cert"))
    )
    assert main(["certify", path]) == 0
    out = capsys.readouterr().out
    assert "certificate.T1=" in out
    assert "certificate.rho_min=" in out
    assert "constants.sigma_min=" in out
    # every printed line is the summary.txt line of that key, byte for byte
    written = (tmp_path / "cert" / "summary.txt").read_text().splitlines()
    printed = out.splitlines()
    assert printed == [line for line in written if line.startswith(("certificate.", "constants."))]
    assert "certificate.applicable=true" in printed
    assert any(line in printed for line in ("certificate.radii_defined=false", "certificate.radii_defined=true"))


def test_cli_run_diffusion_skips_certificate(tmp_path, capsys):
    # the diffusion iterates reach the box faces on case30, where the sampled
    # Jacobian is rank deficient; the GGN certificate is not estimated at all
    out_dir = tmp_path / "diff"
    path = write_config(
        tmp_path / "d.yaml",
        {
            "case_path": "case30", "algorithm": "diffusion", "repetitions": 1,
            "diffusion": {"total_exchanges": 10}, "output_dir": str(out_dir),
        },
    )
    assert main(["run", path]) == 0
    summary = read_summary(out_dir / "summary.txt")
    assert summary["certificate.applicable"] == "false"
    assert "diffusion" in summary["certificate.reason"]
    assert not any(key.startswith("constants.") for key in summary)
    capsys.readouterr()
    assert main(["certify", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "certificate.applicable=false" in printed
    written = (out_dir / "summary.txt").read_text().splitlines()
    assert printed == [line for line in written if line.startswith("certificate.")]


def all_fail_mapping(tmp_path, seed):
    """A case2 URE run whose every exchange fails on this seed (eta_observed = 1)."""
    return tiny_mapping(
        protocol={"kind": "ure", "beta": 0.5, "link_failure_prob": 0.95},
        exchanges={"kind": "constant", "base": 1},
        max_updates=2, repetitions=1, seed=seed, output_dir=str(tmp_path / "o"),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_where_no_exchange_mixes_skips_the_certificate(tmp_path, monkeypatch, seed):
    from gossipgn import experiments

    def no_estimate(*args, **kwargs):
        raise AssertionError("constants were estimated")

    monkeypatch.setattr(experiments, "certificate_for_run", no_estimate)
    result = run_experiment(config_from_mapping(all_fail_mapping(tmp_path, seed)))
    assert result.repetitions[0].trajectories[0].eta_observed == 1.0
    summary = read_summary(result.summary_path)
    assert summary["certificate.applicable"] == "false"
    assert "eta_observed=1.0" in summary["certificate.reason"]
    assert not any(key.startswith("constants.") for key in summary)


def test_cli_run_where_no_exchange_mixes_exits_0(tmp_path, capsys):
    path = write_config(tmp_path / "f.yaml", all_fail_mapping(tmp_path, 1))
    assert main(["run", path]) == 0
    summary = read_summary(tmp_path / "o" / "summary.txt")
    assert summary["certificate.applicable"] == "false"
    assert "outside (0, 1)" in summary["certificate.reason"]
    capsys.readouterr()
    assert main(["certify", path]) == 0
    assert "certificate.applicable=false" in capsys.readouterr().out.splitlines()


def rank_deficient_mapping(tmp_path, seed, repetitions=2):
    """A case30 URE run whose certificate samples a rank-deficient Jacobian
    on seeds 1 and 5 (and, with one repetition, on seed 0)."""
    return {
        "case_path": "case30", "sites": 5,
        "protocol": {"kind": "ure", "beta": 0.3, "link_failure_prob": 0.3},
        "exchanges": {"kind": "incrementing", "base": 3},
        "max_updates": 6, "repetitions": repetitions, "seed": seed,
        "output_dir": str(tmp_path / "o"),
    }


CONSTANT_NAMES = (
    "epsilon_max", "epsilon_min", "sigma_min", "sigma_max", "omega",
    "nu_delta", "nu_Delta", "rank_deficient_sample",
)


@pytest.mark.filterwarnings("ignore:sampled Jacobian is rank deficient")
def test_run_with_rank_deficient_certificate_sample_reports_it(tmp_path):
    result = run_experiment(config_from_mapping(rank_deficient_mapping(tmp_path, 1)))
    summary = read_summary(result.summary_path)
    assert summary["certificate.applicable"] == "false"
    assert "rank deficient" in summary["certificate.reason"]
    assert [key for key in summary if key.startswith("constants.")] == [
        f"constants.{name}" for name in CONSTANT_NAMES
    ]
    assert summary["constants.sigma_min"] == "0.0"
    assert summary["constants.rank_deficient_sample"] == "true"
    assert "certificate.T1" not in summary


@pytest.mark.filterwarnings("ignore:sampled Jacobian is rank deficient")
def test_cli_run_and_certify_with_rank_deficient_sample_exit_0(tmp_path, capsys):
    path = write_config(tmp_path / "r.yaml", rank_deficient_mapping(tmp_path, 1))
    assert main(["run", path]) == 0
    summary = read_summary(tmp_path / "o" / "summary.txt")
    assert summary["certificate.applicable"] == "false"
    capsys.readouterr()
    # with one repetition, the certificate samples a rank-deficient Jacobian on seed 0
    path = write_config(tmp_path / "c.yaml", rank_deficient_mapping(tmp_path, 0, repetitions=1))
    assert main(["certify", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "certificate.applicable=false"
    assert printed[1].startswith("certificate.reason=") and "rank deficient" in printed[1]
    assert [line.split("=")[0] for line in printed[2:]] == [
        f"constants.{name}" for name in CONSTANT_NAMES
    ]


@pytest.mark.filterwarnings("ignore:sampled Jacobian is rank deficient")
def test_cli_certify_prints_the_certificate_of_the_run(tmp_path, capsys):
    # certify runs every repetition of the config, so it reports the run's
    # certificate: here the second repetition's sample is rank deficient
    path = write_config(tmp_path / "r.yaml", rank_deficient_mapping(tmp_path, 1))
    assert main(["run", path]) == 0
    written = (tmp_path / "o" / "summary.txt").read_text().splitlines()
    capsys.readouterr()
    assert main(["certify", path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line for line in written if line.startswith(("certificate.", "constants."))]
    assert "certificate.applicable=false" in printed


def test_cli_compare(tmp_path, capsys):
    base = tiny_mapping(output_dir=str(tmp_path / "cmp"), repetitions=1)
    a = write_config(tmp_path / "a.yaml", base)
    b = write_config(
        tmp_path / "b.yaml",
        dict(base, algorithm="diffusion",
             diffusion={"step_scale": 0.3, "total_exchanges": 8}),
    )
    assert main(["compare", a, b]) == 0
    assert "comparison" in capsys.readouterr().out
