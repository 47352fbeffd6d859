"""Twelve end-to-end acceptance checks at their stated tolerances.

Each test prints one `criterion N: PASS` line with the measured numbers
(visible with -s or in the captured output) and fails loudly otherwise.
The heavier runs are shared through session fixtures.
"""

import filecmp
import math

import numpy as np
import pytest

from gossipgn.config import config_from_mapping
from gossipgn.core import normal_system, solve_normal, project
from gossipgn.experiments import (
    build_problem,
    certificate_for_run,
    run_experiment,
    run_failure_sweep,
)
from gossipgn.ggn import (
    DiffusionConfig,
    ExchangeSchedule,
    GgnConfig,
    diffusion_baseline_run,
    ggn_run,
)
from gossipgn.gossip import (
    CseRound,
    GossipConfig,
    gossip_round,
    log_lambda_eta,
    sample_ure_round,
)
from gossipgn.psse.measurements import (
    build_nlls_sites,
    full_measurement_jacobian,
    line_flows,
    partition_sites,
    power_injections,
    streaming_snapshots,
)

from conftest import (
    check_weight_matrix,
    consensus_envelope_ratios,
    evaluated,
    finite_diff_jacobian,
    oracle_flows,
    oracle_injections,
    random_states,
    state_to_vector,
    terms_at,
    verify_contraction_to_ball,
)

# ---------------------------------------------------------------------------
# shared configurations and runs


def _c6_mapping(outdir, **overrides):
    data = {
        "case_path": "case30",
        "algorithm": "ggn",
        "sites": 3,
        "protocol": {"kind": "cse", "beta": 0.3},
        "alpha": 0.5,
        "exchanges": {"kind": "constant", "base": 3},
        "max_updates": 15,
        "ridge": 1e-8,
        "sigma2": 1e-6,
        "snapshots": 1,
        "seed": 1,
        "repetitions": 20,
        "output_dir": str(outdir),
    }
    data.update(overrides)
    return data


@pytest.fixture(scope="session")
def c6_result(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("c6")
    cfg = config_from_mapping(_c6_mapping(outdir))
    return run_experiment(cfg, with_certificate=False)


@pytest.fixture(scope="session")
def c10_result(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("c10")
    cfg = config_from_mapping(
        _c6_mapping(outdir, snapshots=3, max_updates=12, repetitions=1, seed=7)
    )
    return run_experiment(cfg, with_certificate=False)


def _val_sums(result, rep=0):
    """{(snapshot, update): sum of per-agent squared residual norms}."""
    return _sums_by_update(result.repetitions[rep].columns, "val")


def _grad_sums(result, rep=0):
    return _sums_by_update(result.repetitions[rep].columns, "grad_contrib")


def _sums_by_update(columns, name):
    table = {}
    keys = zip(columns["snapshot"].tolist(), columns["update"].tolist())
    for key, value in zip(keys, columns[name].tolist()):
        table[key] = table.get(key, 0.0) + value
    return table


def _grad_metric(sites, stack):
    """Sum over agents of the local gradient norm at the agent's iterate."""
    total = 0.0
    for i, site in enumerate(sites):
        res, jac = terms_at(site, stack[i])
        total += float(np.linalg.norm(jac.T @ res))
    return total


# ---------------------------------------------------------------------------
# criteria 1-4: measurement functions, jacobians, gossip matrices


def test_c01_measurement_oracle_equivalence(grid30, grid2):
    worst = 0.0
    for grid, seed in ((grid30, 21), (grid2, 22)):
        for state in random_states(grid, 100, seed=seed):
            inj = np.abs(power_injections(grid, state) - oracle_injections(grid, state))
            flow = np.abs(line_flows(grid, state) - oracle_flows(grid, state))
            worst = max(worst, float(inj.max()), float(flow.max(initial=0.0)))
    assert worst <= 1e-10
    print(f"criterion 1: PASS - max deviation {worst:.3e} <= 1e-10 "
          "(100 random states on each grid)")


def test_c02_jacobian_finite_difference(grid30, true30):
    site_rows = partition_sites(grid30, 1)
    z = streaming_snapshots(grid30, true30, 0.0, 1, 0)[0]
    site = build_nlls_sites(grid30, site_rows, z)[0]
    worst = 0.0
    for state in random_states(grid30, 20, seed=5):
        x = state_to_vector(state, grid30.slack_bus)
        analytic = terms_at(site, x)[1]
        fd = finite_diff_jacobian(site, x, 1e-6)
        rel = float(np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic)))
        worst = max(worst, rel)
    assert worst <= 1e-6
    print(f"criterion 2: PASS - max relative jacobian error {worst:.3e} <= 1e-6 "
          "(20 random interior states)")


def test_c03_consensus_conservation():
    rng = np.random.default_rng(33)
    worst_mean_drift = 0.0
    n_checked = 0
    for r in range(10_000):
        n = int(rng.integers(2, 11))
        beta = float(rng.uniform(0.05, 0.95))
        if r % 2 == 0:
            w = CseRound(n, beta)
        else:
            w = sample_ure_round(GossipConfig(kind="ure", beta=beta), n, rng)
        check_weight_matrix(w.entries, tol=1e-12)
        payloads = rng.normal(size=(n, 6))
        mixed = gossip_round(payloads, w)
        drift = float(np.max(np.abs(mixed.mean(axis=0) - payloads.mean(axis=0))))
        worst_mean_drift = max(worst_mean_drift, drift)
        n_checked += 1
    assert n_checked == 10_000
    assert worst_mean_drift <= 1e-12
    print("criterion 3: PASS - 10^4 sampled matrices (CSE and URE rounds alternating, "
          "2..10 agents) doubly stochastic to 1e-12, "
          f"worst mean drift {worst_mean_drift:.3e} <= 1e-12")


def test_c04_consensus_contraction_envelope():
    rng = np.random.default_rng(44)
    worst_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        beta = float(rng.uniform(0.1, 0.9))
        w = CseRound(n, beta)
        max_ratio = float(consensus_envelope_ratios([w] * 50, eta=w.eta, n_agents=n).max())
        assert max_ratio <= 1.0, (n, beta, max_ratio)
        worst_ratio = max(worst_ratio, max_ratio)
    assert worst_ratio <= 1.0
    print(f"criterion 4: PASS - 50 complete-graph CSE chains stay inside the "
          f"geometric envelope for l=1..50 (worst ratio {worst_ratio:.3f})")


# ---------------------------------------------------------------------------
# criterion 5: degeneration to the centralized method


def test_c05_centralized_reduction(grid30, true30):
    from gossipgn.psse.grid import flat_start_vector, make_box

    box = make_box(grid30.n_buses)
    x0 = flat_start_vector(grid30)
    n_updates = 5

    def centralized(sites):
        x = x0.copy()
        path = [x.copy()]
        for _ in range(n_updates):
            a, b = normal_system(sites, *evaluated(sites[0], x))
            x = project(x - solve_normal(a, b, context="exact descent"), box)
            path.append(x.copy())
        return np.stack(path)

    # one agent holding every measurement
    site_rows1 = partition_sites(grid30, 1)
    z1 = streaming_snapshots(grid30, true30, 1e-6, 1, 3)[0]
    sites1 = build_nlls_sites(grid30, site_rows1, z1)
    traj1 = ggn_run(
        sites1, box,
        GossipConfig(kind="cse", beta=0.5),
        GgnConfig(alpha=1.0, schedule=ExchangeSchedule("constant", 1),
                  max_updates=n_updates, stop_tol=1e-16, ridge=0.0),
        x0,
    )
    dev1 = float(np.max(np.abs(traj1.iterates[:, 0, :] - centralized(sites1))))

    # four agents with exact averaging: W = (1/4) 11^T
    site_rows4 = partition_sites(grid30, 4)
    z4 = streaming_snapshots(grid30, true30, 1e-6, 1, 3)[0]
    sites4 = build_nlls_sites(grid30, site_rows4, z4)
    w = CseRound(4, beta=0.75)
    assert np.all(w.entries == 0.25)
    traj4 = ggn_run(
        sites4, box,
        GossipConfig(kind="cse", beta=0.75),
        GgnConfig(alpha=1.0, schedule=ExchangeSchedule("constant", 1),
                  max_updates=n_updates, stop_tol=1e-16, ridge=0.0),
        x0,
    )
    central4 = centralized(sites4)
    dev4 = max(
        float(np.max(np.abs(traj4.iterates[:, i, :] - central4))) for i in range(4)
    )
    assert dev1 <= 1e-12
    assert dev4 <= 1e-12
    print(f"criterion 5: PASS - single-agent deviation {dev1:.1e}, "
          f"perfect-averaging deviation {dev4:.1e}, both <= 1e-12 over "
          f"{n_updates} undamped updates")


# ---------------------------------------------------------------------------
# criteria 6-8: the main IEEE-30 experiment and its certificates


def test_c06_steady_state_and_gradient_drop(c6_result):
    floor = c6_result.problem.noise_floor
    n_reps = len(c6_result.repetitions)
    assert n_reps == 20

    val_final = np.mean([_val_sums(c6_result, r)[(0, 15)] for r in range(n_reps)])
    grad_0 = np.mean([_grad_sums(c6_result, r)[(0, 0)] for r in range(n_reps)])
    grad_final = np.mean([_grad_sums(c6_result, r)[(0, 15)] for r in range(n_reps)])

    assert val_final <= 2.0 * floor, (val_final, floor)
    ratio = grad_0 / grad_final
    assert ratio >= 1e3, ratio
    wall = c6_result.summary["wall_clock_s"]
    assert wall <= 60.0
    print(f"criterion 6: PASS - mean Val at k=15 {val_final:.3e} <= 2x noise floor "
          f"{2 * floor:.3e}; Grad drop {ratio:.0f}x >= 1000x; wall {wall:.1f}s <= 60s")


def test_c07_discrepancy_decay_rate(c6_result):
    problem = c6_result.problem
    sites = c6_result.repetitions[0].sites
    gossip_cfg = GossipConfig(kind="cse", beta=0.3)
    discs = []
    for ell in range(1, 21):
        traj = ggn_run(
            sites, problem.box, gossip_cfg,
            GgnConfig(alpha=0.5, schedule=ExchangeSchedule("constant", ell),
                      max_updates=1, stop_tol=1e-13, ridge=1e-8),
            problem.x0,
        )
        discs.append(float(np.max(traj.discrepancies[0])))
    discs = np.array(discs)
    assert np.all(discs > 0)
    # monotone trend: no step may grow by more than 5%
    assert np.all(discs[1:] <= discs[:-1] * 1.05)
    slope = np.polyfit(np.arange(1, 21), np.log(discs), 1)[0]
    fitted_rate = float(np.exp(slope))
    bound = math.exp(log_lambda_eta(0.15, 3)) + 0.05
    assert fitted_rate <= bound, (fitted_rate, bound)
    print(f"criterion 7: PASS - discrepancy decays monotonically, fitted rate "
          f"{fitted_rate:.4f} <= lambda_eta + 0.05 = {bound:.4f}")


def test_c08_error_recursion_holds(c6_result):
    rep0 = c6_result.repetitions[0]
    sites = rep0.sites
    all_trajs = [rep.trajectories[0] for rep in c6_result.repetitions]
    constants, cert = certificate_for_run(
        sites, c6_result.problem.box, all_trajs, rep0.references[0],
        alpha=0.5, schedule_kind="constant", xi=0.25, n_samples=24, rng_seed=0, interval=1,
    )
    assert constants.sigma_min > 0
    assert cert.eta_observed == 0.15  # the CSE weight beta / (I - 1) of the last trajectory
    violations = 0
    pairs = 0
    for rep in c6_result.repetitions:
        report = verify_contraction_to_ball(
            rep.trajectories[0], rep.references[0], cert, alpha=0.5
        )
        assert report.recursion_check.applicable
        violations += report.n_recursion_violations
        traj = rep.trajectories[0]
        pairs += traj.n_updates * traj.iterates.shape[1]
    assert violations == 0
    print(f"criterion 8: PASS - error recursion satisfied at all {pairs} "
          f"(agent, update) pairs over 20 repetitions (T1={cert.T1:.3g}, "
          f"T2={cert.T2:.3g}, violations=0)")


# ---------------------------------------------------------------------------
# criteria 9-11: baseline comparison, streaming, link failures


def test_c09_outperforms_diffusion_baseline(c6_result):
    problem = c6_result.problem
    sites = c6_result.repetitions[0].sites
    gossip_cfg = GossipConfig(kind="cse", beta=0.3)
    traj = ggn_run(
        sites, problem.box, gossip_cfg,
        GgnConfig(alpha=0.5, schedule=ExchangeSchedule("constant", 3),
                  max_updates=10, stop_tol=1e-13, ridge=1e-8),
        problem.x0,
    )
    assert int(np.sum(traj.exchange_counts)) == 30
    grad_ggn = _grad_metric(sites, traj.iterates[-1])

    grads_diffusion = {}
    for scale in (0.01, 0.3, 0.5, 1.0):
        diff = diffusion_baseline_run(
            sites, problem.box, gossip_cfg, DiffusionConfig(scale, 900),
            problem.x0, rng=np.random.default_rng(0),
        )
        grads_diffusion[scale] = _grad_metric(sites, diff.iterates[-1])
    best_scale, best_grad = min(grads_diffusion.items(), key=lambda kv: kv[1])
    assert grad_ggn * 10.0 <= best_grad, (grad_ggn, grads_diffusion)
    print(f"criterion 9: PASS - Grad {grad_ggn:.3e} at 30 exchanges vs best "
          f"diffusion {best_grad:.3e} (scale {best_scale}/l at 900 exchanges): "
          f"{best_grad / grad_ggn:.0f}x >= 10x")


def test_c10_streaming_reconvergence(c10_result):
    floor = c10_result.problem.noise_floor
    vals = _val_sums(c10_result, rep=0)
    last_update = 12
    spikes = []
    recover = []
    for t in (1, 2):
        steady_prev = vals[(t - 1, last_update)]
        boundary = vals[(t, 0)]
        assert boundary > steady_prev * 1.1, (t, boundary, steady_prev)
        spikes.append(boundary / steady_prev)
        k_ok = next(
            (k for k in range(1, 11) if vals[(t, k)] <= 2.0 * floor), None
        )
        assert k_ok is not None, (t, [vals[(t, k)] for k in range(11)])
        recover.append(k_ok)
    for t in range(3):
        assert vals[(t, last_update)] <= 2.0 * floor
    print(f"criterion 10: PASS - boundary spikes x{spikes[0]:.2f}/x{spikes[1]:.2f} "
          f"over the steady value, re-converged below 2x noise floor within "
          f"{max(recover)} update(s) (<= 10)")


def test_c11_link_failure_robustness(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("c11")
    cfg = config_from_mapping({
        "case_path": "case30",
        "algorithm": "ggn",
        "sites": 30,
        "protocol": {"kind": "ure", "beta": 0.5},
        "alpha": 0.5,
        "exchanges": {"kind": "constant", "base": 30},
        "max_updates": 40,
        "ridge": 1e-4,
        "sigma2": 1e-6,
        "seed": 1,
        "repetitions": 1,
        "output_dir": str(outdir),
    })
    sweep = run_failure_sweep(cfg, [0.0, 0.3])
    by_p = {row["p"]: row for row in sweep.table_rows}

    clean = by_p[0.0]
    assert clean["all_finite"]
    assert clean["agents_below_100x_floor"] == 30

    failed = by_p[0.3]
    assert failed["all_finite"]
    assert failed["agents_below_100x_floor"] >= 27
    assert math.isfinite(failed["max_disagreement_final"])
    print(f"criterion 11: PASS - p=0: 30/30 agents below 100x floor; p=0.3: "
          f"{failed['agents_below_100x_floor']}/30 (>= 27), max disagreement "
          f"{failed['max_disagreement_final']:.3e} finite")


# ---------------------------------------------------------------------------
# criterion 12: determinism


def test_c12_byte_identical_reruns(c6_result, c10_result, tmp_path_factory):
    checked = 0
    for result, label in ((c6_result, "steady"), (c10_result, "streaming")):
        again_dir = tmp_path_factory.mktemp(f"c12_{label}")
        again = run_experiment(
            result.config, env_output_dir=str(again_dir), with_certificate=False
        )
        for old, new in zip(result.rep_csv_paths, again.rep_csv_paths):
            assert filecmp.cmp(old, new, shallow=False), (old, new)
            checked += 1
        assert filecmp.cmp(
            result.mean_csv_path, again.mean_csv_path, shallow=False
        )
        checked += 1
    print(f"criterion 12: PASS - {checked} CSV files byte-identical across "
          "same-seed reruns of two acceptance configurations")
