"""Experiment harness: wiring, repetition loop, metric CSVs, summaries.

Each repetition r runs with seed + r. Every output number flows through
repr(float(...)) so identical configs give byte-identical CSV files.
Metric rows exist for every (snapshot, update, agent); the exchange
column carries the cumulative gossip-exchange count so different
algorithms can be laid on a common communication axis.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .analysis import ConvergenceCertificate, build_certificate
from .config import ExperimentConfig
from .core import (
    BoxSet,
    ProblemConstants,
    SiteModel,
    centralized_gn_solve,
    centralized_gn_step,
    estimate_constants,
    objective,
    stationarity_residual,
)
from .errors import GossipGnError, InvalidArgumentError
from .ggn import GgnTrajectory, diffusion_baseline_run, ggn_run
from .psse import (
    GridModel,
    PowerState,
    build_grid_model,
    build_nlls_sites,
    flat_start_vector,
    load_case,
    load_true_state,
    make_box,
    measurement_count,
    mse_metrics,
    newton_power_flow,
    partition_sites,
    scale_loads,
    streaming_snapshots,
)

# The metric row layout. metrics_<run_id>.csv rows are laid out as CSV_COLUMNS;
# metrics_mean.csv rows, averaged over repetitions, as MEAN_COLUMNS.
_KEY_COLUMNS = ["snapshot", "update", "exchange", "agent"]
_METRIC_COLUMNS = [
    "val", "grad_contrib", "mse_v", "mse_theta", "max_disagreement",
    "descent_discrepancy", "error_to_reference",
]
MEAN_COLUMNS = _KEY_COLUMNS + _METRIC_COLUMNS
CSV_COLUMNS = ["run_id"] + MEAN_COLUMNS

# certificate_for_run samples at most this many recorded points (reference included)
CERTIFICATE_MAX_POINTS = 48


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
    if config.load_scale != 1.0:
        case = scale_loads(case, config.load_scale)
    grid = build_grid_model(case)
    if config.true_state_path:
        true_state = load_true_state(config.true_state_path, grid.n_buses)
    else:
        true_state = newton_power_flow(grid)
    site_rows = partition_sites(grid, config.sites)
    box = make_box(grid.n_buses, config.theta_max, config.v_max)
    x0 = flat_start_vector(grid)
    m_total = measurement_count(grid)
    return ProblemSetup(
        grid=grid, true_state=true_state, site_rows=site_rows, box=box, x0=x0,
        noise_floor=m_total * config.sigma2, m_total=m_total,
    )


def _max_pairwise(stack: np.ndarray) -> float:
    n = stack.shape[0]
    if n < 2:
        return 0.0
    best = 0.0
    for i in range(n):
        diffs = stack[i + 1 :] - stack[i]
        if diffs.size:
            best = max(best, float(np.max(np.linalg.norm(diffs, axis=1))))
    return best


def _rows_from_stacks(
    run_id: str,
    snapshot: int,
    traj,
    exchange_marks: np.ndarray,
    true_state: PowerState,
    slack_bus: int,
    x_ref: np.ndarray,
) -> list[list]:
    """One row per (update, agent), laid out as CSV_COLUMNS, from a trajectory's
    (K+1, I, N_u) iterates and (K+1, I) vals/grads."""
    # only GGN has a surrogate direction to set against the exact one
    discrepancies = traj.discrepancies if isinstance(traj, GgnTrajectory) else None
    rows = []
    for k, stack in enumerate(traj.iterates):
        mse_v, mse_th, _, _ = mse_metrics(stack, true_state, slack_bus)
        disagreement = _max_pairwise(stack)
        err_ref = np.linalg.norm(stack - x_ref, axis=1)
        for i in range(stack.shape[0]):
            cells = {
                "run_id": run_id, "snapshot": snapshot, "update": k,
                "exchange": int(exchange_marks[k]), "agent": i,
                "val": float(traj.vals[k][i]), "grad_contrib": float(traj.grads[k][i]),
                "mse_v": float(mse_v[i]), "mse_theta": float(mse_th[i]),
                "max_disagreement": disagreement,
                "descent_discrepancy": (
                    float(discrepancies[k - 1][i]) if discrepancies is not None and k >= 1 else 0.0
                ),
                "error_to_reference": float(err_ref[i]),
            }
            rows.append([cells[name] for name in CSV_COLUMNS])
    return rows


def _column(rows: list[list], name: str) -> np.ndarray:
    """The named column of rows laid out as CSV_COLUMNS."""
    i = CSV_COLUMNS.index(name)
    return np.array([row[i] for row in rows])


def _final_rows(rows: list[list], snapshot: int) -> list[list]:
    """The rows of one snapshot's last update."""
    rows = [r for r, s in zip(rows, _column(rows, "snapshot")) if s == snapshot]
    updates = _column(rows, "update")
    last = updates.max()
    return [r for r, k in zip(rows, updates) if k == last]


@dataclass
class CentralizedTrajectory:
    """Iterates (K+1, 1, N_u) of centralized Gauss-Newton; vals/grads (K+1, 1)
    hold the network totals sum_i ||g_i||^2 and ||sum_i G_i^T g_i|| at each."""

    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray


def _centralized_trajectory(
    sites: list[SiteModel], box: BoxSet, x0: np.ndarray, alpha: float,
    max_updates: int, stop_tol: float,
) -> CentralizedTrajectory:
    """x0 is one vector, or the (1, N_u) final stack of the previous snapshot."""
    iterates, vals, grads = [], [], []

    def record(x):
        # evaluated before the step at x, which then reuses the sites' memo
        iterates.append(x.copy())
        vals.append([objective(sites, x)])
        grads.append([stationarity_residual(sites, x)])

    x = np.asarray(x0, dtype=float).reshape(-1)
    record(x)
    for _ in range(max_updates):
        x_new = centralized_gn_step(sites, x, alpha, box)
        record(x_new)
        if float(np.linalg.norm(x_new - x)) <= stop_tol:
            break
        x = x_new
    return CentralizedTrajectory(np.stack(iterates)[:, None, :], np.asarray(vals), np.asarray(grads))


@dataclass
class RepetitionData:
    """In-memory record of one repetition for downstream analysis."""

    run_id: str
    seed: int
    trajectories: list  # one Ggn/Diffusion/CentralizedTrajectory per snapshot
    references: list[np.ndarray]
    reference_stationarities: list[float]
    sites_per_snapshot: list[list[SiteModel]]
    rows: list[list]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: ProblemSetup
    repetitions: list[RepetitionData]
    output_dir: Path
    rep_csv_paths: list[Path]
    mean_rows: list[list]  # laid out as MEAN_COLUMNS
    mean_csv_path: Path
    summary_path: Path
    summary: dict


def _reference_solution(sites, box, x0) -> tuple[np.ndarray, float]:
    x_ref, converged = centralized_gn_solve(sites, box, x0, alpha=1.0, tol=1e-10, max_iter=80)
    stat = stationarity_residual(sites, x_ref)
    if not converged and stat > 1e-8:
        raise GossipGnError(
            f"reference solve did not reach stationarity (residual {stat:.3e})"
        )
    return x_ref, float(stat)


def _run_one_repetition(
    config: ExperimentConfig, problem: ProblemSetup, rep: int
) -> RepetitionData:
    seed_r = config.seed + rep
    run_id = f"r{rep:03d}"
    snapshots = streaming_snapshots(
        problem.grid, problem.true_state, config.sigma2, config.snapshots, seed_r
    )
    slack = problem.grid.slack_bus
    rows: list[list] = []
    trajectories = []
    references = []
    stationarities = []
    sites_per_snapshot = []
    exchange_offset = 0
    x_start: np.ndarray = problem.x0

    for t, z in enumerate(snapshots):
        sites = build_nlls_sites(problem.grid, problem.site_rows, z)
        sites_per_snapshot.append(sites)
        x_ref, stat = _reference_solution(sites, problem.box, problem.x0)
        references.append(x_ref)
        stationarities.append(stat)

        rng = np.random.default_rng(seed_r * 1000003 + t)
        if config.algorithm == "centralized":
            traj = _centralized_trajectory(
                sites, problem.box, x_start,
                config.alpha, config.max_updates, config.stop_tol,
            )
            marks = np.zeros(traj.iterates.shape[0], dtype=int)
        elif config.algorithm == "ggn":
            traj = ggn_run(
                sites, problem.box, config.protocol, config.ggn_config(), x_start, rng=rng
            )
            marks = np.concatenate([[0], np.cumsum(traj.exchange_counts)])
        elif config.algorithm == "diffusion":
            traj = diffusion_baseline_run(
                sites, problem.box, config.protocol, config.diffusion, x_start, rng=rng
            )
            marks = np.arange(traj.iterates.shape[0])
        else:
            raise InvalidArgumentError(f"unknown algorithm {config.algorithm!r}")
        marks = exchange_offset + marks
        rows += _rows_from_stacks(run_id, t, traj, marks, problem.true_state, slack, x_ref)
        trajectories.append(traj)
        exchange_offset = int(marks[-1])
        x_start = traj.iterates[-1]

    return RepetitionData(
        run_id=run_id, seed=seed_r, trajectories=trajectories,
        references=references, reference_stationarities=stationarities,
        sites_per_snapshot=sites_per_snapshot, rows=rows,
    )


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_metrics_csv(path: Path, rows: list[list], columns: list[str] = CSV_COLUMNS) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def mean_rows(all_rows: list[list]) -> list[list]:
    """Average the metric columns over repetitions, grouped by row key.

    Takes rows laid out as CSV_COLUMNS; returns rows laid out as MEAN_COLUMNS.
    """
    key_of = itemgetter(*map(CSV_COLUMNS.index, _KEY_COLUMNS))
    metrics_of = itemgetter(*map(CSV_COLUMNS.index, _METRIC_COLUMNS))
    groups: dict[tuple, list[tuple]] = {}
    for row in all_rows:
        groups.setdefault(key_of(row), []).append(metrics_of(row))
    return [list(key) + np.mean(vals, axis=0).tolist() for key, vals in groups.items()]


def certificate_for_run(
    sites: list[SiteModel],
    box: BoxSet,
    trajectories: list,
    x_ref: np.ndarray,
    alpha: float,
    eta: float,
    schedule_kind: str,
    xi: float = 0.25,
    n_samples: int = 24,
    rng_seed: int = 0,
) -> tuple[ProblemConstants, ConvergenceCertificate | None]:
    """Estimate constants over an envelope of the observed iterates.

    The sampling box is the coordinate-wise hull of every iterate and the
    reference point, slightly padded and clipped to the feasible box, so
    the resulting Lipschitz and spectral constants majorize what the
    recorded trajectories actually traversed. Iterates, the reference and
    segment midpoints enter the pairwise Lipschitz sweep directly. The
    certificate is None when a sampled Jacobian is rank deficient: its
    recursion constants divide by sigma_min, which is then 0.
    """
    points = [np.asarray(x_ref, dtype=float)]
    for traj in trajectories:
        points.extend(traj.iterates.reshape(-1, traj.iterates.shape[-1]))
    pts = np.stack(points)
    if pts.shape[0] > CERTIFICATE_MAX_POINTS:
        pick = np.linspace(0, pts.shape[0] - 1, CERTIFICATE_MAX_POINTS).astype(int)
        pick[0] = 0  # always keep the reference
        pts = pts[np.unique(pick)]
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
    cert = build_certificate(
        pc, n_agents=len(sites), n_unknowns=box.dim, eta=eta, alpha=alpha,
        xi=xi, schedule_kind=schedule_kind,
    )
    return pc, cert


def _summary_trailer(
    config: ExperimentConfig, problem: ProblemSetup, reps: list[RepetitionData],
) -> dict:
    last = reps[-1]
    finals = [r for rep in reps for r in _final_rows(rep.rows, config.snapshots - 1)]
    sites = last.sites_per_snapshot[-1]
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
        "final_update": int(_column(finals, "update")[-1]),
        "final_val_global_mean": float(_column(finals, "val").sum() / len(reps)),
        "final_grad_global_mean": float(_column(finals, "grad_contrib").sum() / len(reps)),
        "final_mse_v_mean": float(_column(finals, "mse_v").mean()),
        "final_mse_theta_mean": float(_column(finals, "mse_theta").mean()),
        "final_max_disagreement_mean": float(_column(finals, "max_disagreement").mean()),
        "final_error_to_reference_mean": float(_column(finals, "error_to_reference").mean()),
        "reference_stationarity_max": float(
            max(max(rep.reference_stationarities) for rep in reps)
        ),
        "final_stationarity": stationarity_residual(sites, mean_final),
    }
    return summary


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
    eta = getattr(traj, "eta_observed", float("nan"))
    if config.algorithm == "centralized" or config.sites == 1:
        eta_for_cert = 0.5  # placeholder rate; single-agent certificates ignore it
    elif not 0.0 < eta < 1.0:
        return {
            "certificate.applicable": False,
            "certificate.reason": f"eta_observed={eta} is outside (0, 1): "
            "no exchange mixed two agents, so the consensus rate is undefined",
        }
    else:
        eta_for_cert = eta
    pc, cert = certificate_for_run(
        last.sites_per_snapshot[-1], problem.box, last.trajectories,
        last.references[-1], alpha=config.alpha, eta=eta_for_cert,
        schedule_kind=config.exchanges.kind,
        xi=config.certificate.xi, n_samples=config.certificate.n_samples,
        rng_seed=config.seed,
    )
    constants = {
        f"constants.{name}": getattr(pc, name)
        for name in (
            "epsilon_max", "epsilon_min", "sigma_min", "sigma_max", "omega",
            "nu_delta", "nu_Delta", "rank_deficient_sample",
        )
    }
    if cert is None:
        return {
            "certificate.applicable": False,
            "certificate.reason": "a sampled Jacobian is rank deficient (sigma_min=0), "
            "so the full-column-rank assumption fails on the iterates' envelope",
            **constants,
        }
    out = {"certificate.applicable": True, "certificate.eta_observed": eta}
    for name in (
        "T1", "T2", "rho_min", "rho_max", "kappa", "alpha_lower", "C", "C1",
        "C2", "D", "lambda_eta_val", "L0", "ell_min", "lambda_infty", "xi",
        "radii_defined", "conditional", "estimated_constants",
    ):
        out[f"certificate.{name}"] = getattr(cert, name)
    return out | constants


def summary_line(key: str, value) -> str:
    """The `key=value` line of summary.txt, as the certify verb also prints it."""
    if isinstance(value, bool):
        return f"{key}={'true' if value else 'false'}"
    return f"{key}={_format_cell(value)}"


def _write_summary(path: Path, summary: dict) -> None:
    lines = [summary_line(key, value) for key, value in summary.items()]
    path.write_text("\n".join(lines) + "\n")


def resolve_output_dir(config: ExperimentConfig, env_override: str | None) -> Path:
    return Path(env_override) if env_override else Path(config.output_dir)


def run_experiment(
    config: ExperimentConfig, env_output_dir: str | None = None,
    with_certificate: bool = True,
) -> ExperimentResult:
    config.validate()
    t0 = time.perf_counter()
    problem = build_problem(config)
    out_dir = resolve_output_dir(config, env_output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reps = [
        _run_one_repetition(config, problem, r) for r in range(config.repetitions)
    ]

    rep_paths = []
    for rep in reps:
        path = out_dir / f"metrics_{rep.run_id}.csv"
        write_metrics_csv(path, rep.rows)
        rep_paths.append(path)

    means = mean_rows([row for rep in reps for row in rep.rows])
    mean_path = out_dir / "metrics_mean.csv"
    write_metrics_csv(mean_path, means, columns=MEAN_COLUMNS)

    summary = _summary_trailer(config, problem, reps)
    if with_certificate:
        summary.update(_certificate_summary(config, problem, reps))
    summary["wall_clock_s"] = time.perf_counter() - t0
    summary_path = out_dir / "summary.txt"
    _write_summary(summary_path, summary)

    return ExperimentResult(
        config=config, problem=problem, repetitions=reps, output_dir=out_dir,
        rep_csv_paths=rep_paths, mean_rows=means, mean_csv_path=mean_path,
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
    config.validate()
    if config.algorithm != "ggn" or config.protocol.kind != "ure":
        raise InvalidArgumentError("failure sweep requires algorithm=ggn, protocol=ure")
    base_dir = resolve_output_dir(config, env_output_dir)
    # GossipConfig rejects a p outside [0, 1): every p is checked before the first run
    protocols = [replace(config.protocol, link_failure_prob=float(p)) for p in p_values]
    table = []
    for p, protocol in zip(p_values, protocols):
        sub = replace(config, protocol=protocol, output_dir=str(base_dir / f"p_{p:g}"))
        result = run_experiment(sub, with_certificate=False)

        floor = result.problem.noise_floor
        finals = _final_rows(result.repetitions[-1].rows, config.snapshots - 1)
        vals = _column(finals, "val")
        mses = _column(finals, "mse_v")
        table.append(
            {
                "p": float(p),
                "final_val_max": float(vals.max()),
                "final_val_mean": float(vals.mean()),
                "final_mse_v_mean": float(mses.mean()),
                "final_mse_v_max": float(mses.max()),
                "agents_below_100x_floor": int(np.sum(vals < 100.0 * floor)),
                "n_agents": int(vals.size),
                "max_disagreement_final": float(_column(finals, "max_disagreement").max()),
                "all_finite": bool(np.all(np.isfinite(vals))),
            }
        )

    base_dir.mkdir(parents=True, exist_ok=True)
    table_path = base_dir / "degradation.csv"
    write_metrics_csv(
        table_path, [list(row.values()) for row in table], list(table[0]) if table else []
    )
    return SweepResult(table_path=table_path, table_rows=table)


@dataclass
class ComparisonResult:
    ggn: ExperimentResult
    diffusion: ExperimentResult
    table_path: Path
    table_rows: list[dict]


def _global_curves(means: list[list]) -> list[tuple[int, float, float]]:
    """(exchange, sum of val over agents, sum of grad) of MEAN_COLUMNS rows,
    one per (snapshot, exchange) in that order."""
    cells_of = itemgetter(*map(MEAN_COLUMNS.index, ("snapshot", "exchange", "val", "grad_contrib")))
    curves: dict[tuple[int, int], list[float]] = {}
    for snapshot, exchange, val, grad in map(cells_of, means):
        slot = curves.setdefault((snapshot, exchange), [0.0, 0.0])
        slot[0] += val
        slot[1] += grad
    return [(exchange, val, grad) for (_, exchange), (val, grad) in sorted(curves.items())]


def compare_algorithms(
    config_ggn: ExperimentConfig, config_diffusion: ExperimentConfig,
    env_output_dir: str | None = None,
) -> ComparisonResult:
    """Run both algorithms on the identical instance; tabulate by exchanges."""
    for field_name in (
        "case_path", "sigma2", "seed", "sites", "load_scale", "snapshots",
        "true_state_path", "theta_max", "v_max",
    ):
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

    table = [
        {"exchange": exchange, "algorithm": label, "val": val, "grad": grad}
        for label, res in (("ggn", res_ggn), ("diffusion", res_diff))
        for exchange, val, grad in _global_curves(res.mean_rows)
    ]

    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "comparison.csv"
    write_metrics_csv(
        table_path, [list(row.values()) for row in table], ["exchange", "algorithm", "val", "grad"]
    )
    return ComparisonResult(
        ggn=res_ggn, diffusion=res_diff, table_path=table_path, table_rows=table,
    )
