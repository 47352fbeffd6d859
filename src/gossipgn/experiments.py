"""Experiment harness: wiring, repetition loop, metric CSVs, summaries.

Each repetition r runs with seed + r and keeps its metrics as columns: one
1-D array per CSV_COLUMNS name, with a row for every (snapshot, update,
agent) in that order, agents fastest. The exchange column carries the
cumulative gossip-exchange count so different algorithms can be laid on a
common communication axis. Every output float is written as its repr, so
identical configs give byte-identical CSV files.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import ConvergenceCertificate, build_certificate
from .config import ExperimentConfig
from .core import (
    BoxSet,
    ProblemConstants,
    SiteModel,
    centralized_gn_solve,
    estimate_constants,
    stationarity_residual,
)
from .errors import ConfigError, GossipGnError, InvalidArgumentError
from .ggn import Trajectory, centralized_run, diffusion_baseline_run, ggn_run
from .gossip import connectivity_interval
from .psse import (
    GridModel,
    PowerState,
    build_grid_model,
    build_nlls_sites,
    flat_start_vector,
    load_case,
    make_box,
    measurement_count,
    mse_metrics,
    newton_power_flow,
    partition_sites,
    streaming_snapshots,
)

# The metric column layout. metrics_<run_id>.csv holds CSV_COLUMNS;
# metrics_mean.csv, averaged over repetitions, MEAN_COLUMNS.
_KEY_COLUMNS = ("snapshot", "update", "exchange", "agent")
_METRIC_COLUMNS = (
    "val", "grad_contrib", "mse_v", "mse_theta", "max_disagreement",
    "descent_discrepancy", "error_to_reference",
)
MEAN_COLUMNS = _KEY_COLUMNS + _METRIC_COLUMNS
CSV_COLUMNS = ("run_id",) + MEAN_COLUMNS

# certificate_for_run samples at most this many recorded points (reference included)
CERTIFICATE_MAX_POINTS = 48

# write_metrics_csv converts this many rows to Python cells at a time: on a
# 20,000-row, 12-column table the traced peak is 0.36 MB, against 8.6 MB for
# the whole table at once, at no resolvable cost in time
CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ProblemSetup:
    grid: GridModel
    true_state: PowerState
    site_rows: tuple[np.ndarray, ...]
    box: BoxSet
    x0: np.ndarray
    noise_floor: float
    m_total: int


def build_problem(config: ExperimentConfig) -> ProblemSetup:
    case = load_case(config.case_path)
    grid = build_grid_model(case)
    if config.sites > grid.n_buses:
        raise ConfigError(f"sites: {config.sites} exceeds the case's {grid.n_buses} buses")
    true_state = newton_power_flow(grid)
    site_rows = partition_sites(grid, config.sites)
    box = make_box(grid.n_buses)
    x0 = flat_start_vector(grid)
    # every repetition reads these
    for arr in (true_state.theta, true_state.v, x0):
        arr.setflags(write=False)
    m_total = measurement_count(grid)
    return ProblemSetup(
        grid=grid, true_state=true_state, site_rows=site_rows, box=box, x0=x0,
        noise_floor=m_total * config.sigma2, m_total=m_total,
    )


def _max_pairwise(iterates: np.ndarray) -> np.ndarray:
    """Each update's largest distance between two agents' iterates, from a
    (K+1, I, N_u) stack: one agent against every later agent at a time, so
    no temporary holds more than (K+1)·I·N_u values."""
    best = np.zeros(iterates.shape[0])
    for i in range(iterates.shape[1] - 1):
        distances = np.linalg.norm(iterates[:, i + 1 :] - iterates[:, i, None], axis=-1)
        np.maximum(best, distances.max(axis=1), out=best)
    return best


def _trajectory_columns(
    run_id: str, snapshot: int, traj: Trajectory, exchange_marks: np.ndarray,
    true_state: PowerState, slack_bus: int, x_ref: np.ndarray,
) -> dict[str, np.ndarray]:
    """A trajectory's columns, laid out as CSV_COLUMNS with one row per
    (update, agent), from its (K+1, I, N_u) iterates and (K+1, I) vals/grads.
    A trajectory without discrepancies (any but GGN's) gives
    descent_discrepancy 0.0."""
    n_updates, n_agents = traj.vals.shape
    n_rows = n_updates * n_agents
    mse_v, mse_theta = mse_metrics(traj.iterates.reshape(n_rows, -1), true_state, slack_bus)
    discrepancies = np.zeros((n_updates, n_agents))
    if traj.discrepancies is not None:
        discrepancies[1:] = traj.discrepancies
    return {
        "run_id": np.full(n_rows, run_id), "snapshot": np.full(n_rows, snapshot),
        "update": np.repeat(np.arange(n_updates), n_agents),
        "exchange": np.repeat(exchange_marks, n_agents),
        "agent": np.tile(np.arange(n_agents), n_updates),
        "val": traj.vals.ravel(), "grad_contrib": traj.grads.ravel(),
        "mse_v": mse_v, "mse_theta": mse_theta,
        "max_disagreement": np.repeat(_max_pairwise(traj.iterates), n_agents),
        "descent_discrepancy": discrepancies.ravel(),
        # one agent at a time: a whole-trajectory difference raises the peak RSS
        "error_to_reference": np.stack(
            [np.linalg.norm(traj.iterates[:, i] - x_ref, axis=-1) for i in range(n_agents)], axis=1
        ).ravel(),
    }


def _concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The parts' columns laid end to end, in the order of parts."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _final_mask(columns: dict[str, np.ndarray], snapshot: int) -> np.ndarray:
    """Which rows belong to the last update of one snapshot."""
    in_snapshot = columns["snapshot"] == snapshot
    return in_snapshot & (columns["update"] == columns["update"][in_snapshot].max())


@dataclass
class RepetitionData:
    """In-memory record of one repetition for downstream analysis."""

    run_id: str
    trajectories: list[Trajectory]  # one per snapshot
    references: list[np.ndarray]
    reference_stationarities: list[float]
    sites: list[SiteModel]  # the last snapshot's
    columns: dict[str, np.ndarray]  # CSV_COLUMNS


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: ProblemSetup
    repetitions: list[RepetitionData]
    output_dir: Path
    rep_csv_paths: list[Path]
    means: dict[str, np.ndarray]  # MEAN_COLUMNS
    mean_csv_path: Path
    summary_path: Path
    summary: dict


def _reference_solution(sites, box, x0) -> tuple[np.ndarray, float]:
    x_ref, stat = centralized_gn_solve(sites, box, x0, alpha=1.0, tol=1e-10, max_iter=80)
    if stat > 1e-8:
        raise GossipGnError(
            f"reference solve did not reach stationarity (residual {stat:.3e})"
        )
    return x_ref, stat


def _run_one_repetition(
    config: ExperimentConfig, problem: ProblemSetup, rep: int
) -> RepetitionData:
    seed_r = config.seed + rep
    run_id = f"r{rep:03d}"
    snapshots = streaming_snapshots(
        problem.grid, problem.true_state, config.sigma2, config.snapshots, seed_r
    )
    slack = problem.grid.slack_bus
    parts = []
    trajectories = []
    references = []
    stationarities = []
    exchange_offset = 0
    x_start: np.ndarray = problem.x0

    for t, z in enumerate(snapshots):
        sites = build_nlls_sites(problem.grid, problem.site_rows, z)
        x_ref, stat = _reference_solution(sites, problem.box, problem.x0)
        references.append(x_ref)
        stationarities.append(stat)

        rng = np.random.default_rng(seed_r * 1000003 + t)
        if config.algorithm == "centralized":
            traj = centralized_run(sites, problem.box, config.ggn_config(), x_start)
        elif config.algorithm == "ggn":
            traj = ggn_run(
                sites, problem.box, config.protocol, config.ggn_config(), x_start, rng=rng
            )
        else:
            traj = diffusion_baseline_run(
                sites, problem.box, config.protocol, config.diffusion, x_start, rng=rng
            )
        marks = exchange_offset + np.concatenate([[0], np.cumsum(traj.exchange_counts)])
        parts.append(_trajectory_columns(run_id, t, traj, marks, problem.true_state, slack, x_ref))
        trajectories.append(traj)
        exchange_offset = int(marks[-1])
        x_start = traj.iterates[-1]

    return RepetitionData(
        run_id=run_id, trajectories=trajectories,
        references=references, reference_stationarities=stationarities,
        sites=sites, columns=_concat(parts),
    )


def write_metrics_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns as CSV rows under a header of their names.

    Cells come from each column's .tolist(), so the csv module writes an int
    with str and a float with repr; a bool column is written as 1 and 0.
    Rows are converted and written CSV_BLOCK_ROWS at a time, so only one
    block's cells exist as Python objects at once; the bytes are those of
    converting the whole table in one go.
    """
    n_rows = len(next(iter(columns.values()), ()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            blocks = (a[start : start + CSV_BLOCK_ROWS] for a in columns.values())
            writer.writerows(zip(*((b.astype(int) if b.dtype == bool else b).tolist() for b in blocks)))


def mean_rows(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Average the metric columns over repetitions, grouped by row key.

    Takes every repetition's CSV_COLUMNS laid end to end, in repetition order;
    returns MEAN_COLUMNS with one row per distinct (snapshot, update, exchange,
    agent), in order of first appearance. Each mean is the sum of its key's
    rows in repetition order, divided by their count.
    """
    keys = np.stack([columns[name] for name in _KEY_COLUMNS], axis=1)
    unique, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group, order = group.ravel(), np.argsort(first)
    counts = np.bincount(group)[order]
    sums = [np.bincount(group, weights=columns[name])[order] for name in _METRIC_COLUMNS]
    return dict(zip(MEAN_COLUMNS, [*unique[order].T, *(total / counts for total in sums)]))


def certificate_for_run(
    sites: list[SiteModel],
    box: BoxSet,
    trajectories: list[Trajectory],
    x_ref: np.ndarray,
    alpha: float,
    schedule_kind: str,
    xi: float,
    n_samples: int,
    rng_seed: int,
    interval: int,
) -> tuple[ProblemConstants, ConvergenceCertificate | None]:
    """Estimate constants over an envelope of the observed iterates.

    The sampling box is the coordinate-wise hull of every iterate and the
    reference point, slightly padded and clipped to the feasible box, so
    the resulting Lipschitz and spectral constants majorize what the
    recorded trajectories actually traversed. Iterates, the reference and
    segment midpoints enter the pairwise Lipschitz sweep directly. The
    certificate covers the last trajectory's agents at its eta_observed and
    connectivity interval, and is None when a sampled Jacobian is rank
    deficient: its recursion constants divide by sigma_min, which is then 0.
    """
    points = [np.asarray(x_ref, dtype=float)]
    for traj in trajectories:
        points.extend(traj.iterates.reshape(-1, traj.iterates.shape[-1]))
    pts = np.stack(points)
    if pts.shape[0] > CERTIFICATE_MAX_POINTS:
        pick = np.linspace(0, pts.shape[0] - 1, CERTIFICATE_MAX_POINTS).astype(int)
        pick[0] = 0  # always keep the reference
        pts = pts[pick[np.diff(pick, prepend=-1) != 0]]  # pick is sorted
    midpoints = 0.5 * (pts + pts[0])
    extra = np.vstack([pts, midpoints])

    span = pts.max(axis=0) - pts.min(axis=0)
    pad = 0.05 * span + 1e-4
    lower = np.clip(pts.min(axis=0) - pad, box.lower, box.upper)
    upper = np.clip(pts.max(axis=0) + pad, box.lower, box.upper)
    env_box = BoxSet(lower=lower, upper=upper)

    pc = estimate_constants(
        sites, env_box, n_samples=n_samples, rng_seed=rng_seed,
        reference_x=np.asarray(x_ref, dtype=float), extra_points=extra,
    )
    if not pc.assumption_holds():
        return pc, None
    last = trajectories[-1]
    cert = build_certificate(
        pc, n_agents=last.n_agents, n_unknowns=box.dim, eta=last.eta_observed, alpha=alpha,
        xi=xi, schedule_kind=schedule_kind, interval=interval,
    )
    return pc, cert


def _summary_trailer(
    config: ExperimentConfig, problem: ProblemSetup, reps: list[RepetitionData],
    columns: dict[str, np.ndarray],
) -> dict:
    """columns: every repetition's CSV_COLUMNS, laid end to end."""
    last = reps[-1]
    final = np.concatenate([_final_mask(rep.columns, config.snapshots - 1) for rep in reps])
    finals = {name: column[final] for name, column in columns.items()}
    sites = last.sites
    mean_final = last.trajectories[-1].iterates[-1].mean(axis=0)
    summary = {
        "algorithm": config.algorithm,
        "case": config.case_path,
        "n_buses": problem.grid.n_buses,
        "n_branches": problem.grid.n_branches,
        "n_sites": config.sites,
        "measurements_total": problem.m_total,
        "noise_floor": problem.noise_floor,
        "repetitions": config.repetitions,
        "seed": config.seed,
        "snapshots": config.snapshots,
        "alpha": config.alpha,
        "sigma2": config.sigma2,
        # the last repetition's final rows come last
        "final_update": int(finals["update"][-1]),
        "final_val_global_mean": float(finals["val"].sum() / len(reps)),
        "final_grad_global_mean": float(finals["grad_contrib"].sum() / len(reps)),
        "final_mse_v_mean": float(finals["mse_v"].mean()),
        "final_mse_theta_mean": float(finals["mse_theta"].mean()),
        "final_max_disagreement_mean": float(finals["max_disagreement"].mean()),
        "final_error_to_reference_mean": float(finals["error_to_reference"].mean()),
        "reference_stationarity_max": float(
            max(max(rep.reference_stationarities) for rep in reps)
        ),
        "final_stationarity": stationarity_residual(sites, mean_final),
    }
    return summary


def _section(prefix: str, record) -> dict:
    """A record's summary lines: prefix.<field> for each field, in field order."""
    return {f"{prefix}.{name}": value for name, value in asdict(record).items()}


def _certificate_summary(
    config: ExperimentConfig, problem: ProblemSetup, reps: list[RepetitionData]
) -> dict:
    if config.algorithm == "diffusion":
        return {
            "certificate.applicable": False,
            "certificate.reason": "the GGN convergence certificate does not cover the diffusion baseline",
        }
    last = reps[-1]
    traj = last.trajectories[-1]
    eta = traj.eta_observed
    # a single agent's certificate has no gossip, so it reads no rate
    interval = 1
    if traj.n_agents > 1:
        if not 0.0 < eta < 1.0:
            return {
                "certificate.applicable": False,
                "certificate.reason": f"eta_observed={eta} is outside (0, 1): "
                "no exchange mixed two agents, so the consensus rate is undefined",
            }
        interval = connectivity_interval(traj.n_agents, traj.exchange_pairs)
        if interval is None:
            return {
                "certificate.applicable": False,
                "certificate.reason": "the run has no connectivity interval: for no window "
                "length B does every aligned window of B exchanges join all agents",
            }
    pc, cert = certificate_for_run(
        last.sites, problem.box, last.trajectories,
        last.references[-1], alpha=config.alpha, schedule_kind=config.exchanges.kind,
        xi=config.certificate.xi, n_samples=config.certificate.n_samples,
        rng_seed=config.seed, interval=interval,
    )
    constants = _section("constants", pc)
    if cert is None:
        return {
            "certificate.applicable": False,
            "certificate.reason": "a sampled Jacobian is rank deficient (sigma_min=0), "
            "so the full-column-rank assumption fails on the iterates' envelope",
            **constants,
        }
    return {"certificate.applicable": True, **_section("certificate", cert), **constants}


def summary_line(key: str, value) -> str:
    """The `key=value` line of summary.txt, as the certify verb also prints it."""
    if isinstance(value, bool):
        return f"{key}={'true' if value else 'false'}"
    if isinstance(value, (str, int, np.integer)):
        return f"{key}={value}"
    return f"{key}={float(value)!r}"


def resolve_output_dir(config: ExperimentConfig, env_override: str | None) -> Path:
    return Path(env_override) if env_override else Path(config.output_dir)


def run_experiment(
    config: ExperimentConfig, env_output_dir: str | None = None,
    with_certificate: bool = True,
) -> ExperimentResult:
    t0 = time.perf_counter()
    problem = build_problem(config)
    out_dir = resolve_output_dir(config, env_output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(
            f"cannot create output directory {out_dir}: {exc.strerror}"
        ) from exc

    reps = [
        _run_one_repetition(config, problem, r) for r in range(config.repetitions)
    ]

    rep_paths = []
    for rep in reps:
        path = out_dir / f"metrics_{rep.run_id}.csv"
        write_metrics_csv(path, rep.columns)
        rep_paths.append(path)

    columns = _concat([rep.columns for rep in reps])
    means = mean_rows(columns)
    mean_path = out_dir / "metrics_mean.csv"
    write_metrics_csv(mean_path, means)

    summary = _summary_trailer(config, problem, reps, columns)
    if with_certificate:
        summary.update(_certificate_summary(config, problem, reps))
    summary["wall_clock_s"] = time.perf_counter() - t0
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("".join(f"{summary_line(k, v)}\n" for k, v in summary.items()))

    return ExperimentResult(
        config=config, problem=problem, repetitions=reps, output_dir=out_dir,
        rep_csv_paths=rep_paths, means=means, mean_csv_path=mean_path,
        summary_path=summary_path, summary=summary,
    )


@dataclass
class SweepResult:
    table_path: Path
    table_rows: list[dict]


def run_failure_sweep(
    config: ExperimentConfig, p_values: list[float], env_output_dir: str | None = None
) -> SweepResult:
    """Repeat the URE experiment across link-failure probabilities."""
    if config.algorithm != "ggn" or config.protocol.kind != "ure":
        raise InvalidArgumentError("failure sweep requires algorithm=ggn, protocol=ure")
    if not p_values:
        raise InvalidArgumentError("failure sweep needs at least one failure probability")
    base_dir = resolve_output_dir(config, env_output_dir)
    # GossipConfig rejects a p outside [0, 1), and two p sharing a directory would
    # overwrite one run with the other: every p is checked before the first run.
    # Adding 0.0 turns -0.0 into 0.0, so 0 and -0 share p_0.
    p_values = [float(p) + 0.0 for p in p_values]
    protocols = [replace(config.protocol, link_failure_prob=p) for p in p_values]
    names = [f"p_{p:g}" for p in p_values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise InvalidArgumentError(
            f"failure probabilities {p_values} share the output directory {shared[0]}"
        )
    table = []
    for p, protocol, name in zip(p_values, protocols, names):
        sub = replace(config, protocol=protocol, output_dir=str(base_dir / name))
        result = run_experiment(sub, with_certificate=False)

        floor = result.problem.noise_floor
        columns = result.repetitions[-1].columns
        final = _final_mask(columns, config.snapshots - 1)
        vals, mses = columns["val"][final], columns["mse_v"][final]
        table.append(
            {
                "p": p,
                "final_val_max": float(vals.max()),
                "final_val_mean": float(vals.mean()),
                "final_mse_v_mean": float(mses.mean()),
                "final_mse_v_max": float(mses.max()),
                "agents_below_100x_floor": int(np.sum(vals < 100.0 * floor)),
                "n_agents": int(vals.size),
                "max_disagreement_final": float(columns["max_disagreement"][final].max()),
                "all_finite": bool(np.all(np.isfinite(vals))),
            }
        )

    table_path = base_dir / "degradation.csv"
    write_metrics_csv(
        table_path, {name: np.array([row[name] for row in table]) for name in table[0]}
    )
    return SweepResult(table_path=table_path, table_rows=table)


@dataclass
class ComparisonResult:
    ggn: ExperimentResult
    diffusion: ExperimentResult
    table_path: Path


def _global_curves(means: dict[str, np.ndarray], algorithm: str) -> dict[str, np.ndarray]:
    """comparison.csv's columns for one algorithm: per (snapshot, exchange) of
    its MEAN_COLUMNS, in that sorted order, the exchange and the sums of val
    and grad_contrib over the rows, taken in row order."""
    pairs, group = np.unique(
        np.stack([means["snapshot"], means["exchange"]], axis=1), axis=0, return_inverse=True
    )
    group = group.ravel()
    return {
        "exchange": pairs[:, 1],
        "algorithm": np.full(len(pairs), algorithm),
        "val": np.bincount(group, weights=means["val"]),
        "grad": np.bincount(group, weights=means["grad_contrib"]),
    }


def compare_algorithms(
    config_ggn: ExperimentConfig, config_diffusion: ExperimentConfig,
    env_output_dir: str | None = None,
) -> ComparisonResult:
    """Run both algorithms on the identical instance; tabulate by exchanges."""
    for field_name in ("case_path", "sigma2", "seed", "sites", "snapshots"):
        a, b = getattr(config_ggn, field_name), getattr(config_diffusion, field_name)
        if a != b:
            raise InvalidArgumentError(
                f"configs disagree on {field_name}: {a!r} vs {b!r}"
            )
    if config_ggn.algorithm != "ggn" or config_diffusion.algorithm != "diffusion":
        raise InvalidArgumentError("expected one ggn config and one diffusion config")

    out_dir = resolve_output_dir(config_ggn, env_output_dir)
    sub_ggn = replace(config_ggn, output_dir=str(out_dir / "ggn"))
    sub_diff = replace(config_diffusion, output_dir=str(out_dir / "diffusion"))
    res_ggn = run_experiment(sub_ggn, with_certificate=False)
    res_diff = run_experiment(sub_diff, with_certificate=False)

    table = _concat(
        [_global_curves(res_ggn.means, "ggn"), _global_curves(res_diff.means, "diffusion")]
    )

    table_path = out_dir / "comparison.csv"
    write_metrics_csv(table_path, table)
    return ComparisonResult(ggn=res_ggn, diffusion=res_diff, table_path=table_path)
