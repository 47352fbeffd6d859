import math

import numpy as np
import pytest

from gossipgn import core, ggn
from gossipgn.core import (
    COND_CAP,
    MODEL_SLICE,
    BoxSet,
    centralized_gn_solve,
    normal_system,
    solve_normal,
)
from gossipgn.errors import InvalidArgumentError, SingularSystemError
from gossipgn.ggn import (
    DiffusionConfig,
    ExchangeSchedule,
    GgnConfig,
    Trajectory,
    centralized_run,
    descent_discrepancy,
    diffusion_baseline_run,
    ggn_run,
    local_init_info,
    surrogate_descent,
)
from gossipgn.gossip import CseRound, GossipConfig, PairwiseRound, gossip_round

from gossipgn.psse import (
    build_nlls_sites,
    flat_start_vector,
    make_box,
    measurements,
    partition_sites,
    streaming_snapshots,
)

from conftest import evaluated, make_toy_sites, recording_model, sites_from_blocks, terms_at


def _toy_setup(n_sites=3, seed=0):
    sites = make_toy_sites(n_sites=n_sites, seed=seed)
    box = BoxSet.cube(3, 10.0)
    return sites, box, np.zeros(3)


def _psse_setup(grid, true_state, n_sites=3):
    site_rows = partition_sites(grid, n_sites)
    z = streaming_snapshots(grid, true_state, 1e-4, 1, 2)[0]
    return build_nlls_sites(grid, site_rows, z), make_box(grid.n_buses), flat_start_vector(grid)


def _site_metrics(sites, x):
    """Oracle: per-agent objective value and gradient norm, evaluated fresh at x[i]."""
    vals = np.empty(len(sites))
    grads = np.empty(len(sites))
    for i, site in enumerate(sites):
        res, jac = terms_at(site, x[i])
        vals[i] = float(res @ res)
        grads[i] = float(np.linalg.norm(jac.T @ res))
    return vals, grads


def _assert_recorded_metrics(sites, traj):
    assert traj.vals.shape == traj.grads.shape == traj.iterates.shape[:2]
    for k, stack in enumerate(traj.iterates):
        vals, grads = _site_metrics(sites, stack)
        assert np.array_equal(traj.vals[k], vals)
        assert np.array_equal(traj.grads[k], grads)


def test_exchange_schedule():
    const = ExchangeSchedule(kind="constant", base=3)
    assert [const.exchanges_at(k) for k in range(4)] == [3, 3, 3, 3]
    inc = ExchangeSchedule(kind="incrementing", base=2)
    assert [inc.exchanges_at(k) for k in range(4)] == [2, 3, 4, 5]
    with pytest.raises(InvalidArgumentError):
        ExchangeSchedule(kind="constant", base=0)
    with pytest.raises(InvalidArgumentError):
        ExchangeSchedule(kind="quadratic", base=1)


def _payload(h, hm):
    """One payload row in the wire layout [h, vec(H)], H column-major."""
    return np.concatenate([h, np.asarray(hm).reshape(-1, order="F")])


def test_info_vector_payload_roundtrip():
    # local_init_info writes [h, vec(H)] and surrogate_descent reads the same
    # layout back: an asymmetric-looking misread of vec(H) would change d
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        jac = rng.normal(size=(n + 2, n))
        res = rng.normal(size=n + 2)
        (site,) = sites_from_blocks(n, [lambda x, res=res: res], [lambda x, jac=jac: jac])
        row, _ = local_init_info(site, *evaluated(site, np.zeros(n)))
        h, hm = jac.T @ res, jac.T @ jac
        assert row.shape == (n * (n + 1),)
        assert np.array_equal(row[:n], h)
        assert np.array_equal(row[n:].reshape((n, n), order="F"), hm)
        assert np.array_equal(_payload(h, hm), row)
        d = surrogate_descent(row[None], ridge=0.0)
        assert np.allclose(d[0], np.linalg.solve(hm, h), rtol=1e-8, atol=1e-10)


def test_local_init_info_matches_normal_blocks():
    sites, _, _ = _toy_setup()
    x = np.array([0.4, -0.1, 0.2])
    row, val = local_init_info(sites[0], *evaluated(sites[0], x))
    r, j = terms_at(sites[0], x)
    assert row.shape == (3 * 4,)
    assert np.allclose(row[:3], j.T @ r, atol=1e-14)
    assert np.allclose(row[3:].reshape((3, 3), order="F"), j.T @ j, atol=1e-14)
    assert val == float(r @ r)


def test_surrogate_descent_ridge_scaling():
    h = np.array([1.0, 2.0])
    hm = np.diag([4.0, 2.0])
    row = _payload(h, hm)
    d0 = surrogate_descent(row[None], ridge=0.0)
    assert np.allclose(d0, [[0.25, 1.0]], atol=1e-14)
    # effective ridge = ridge * trace/n = 1.0 * 6/2 = 3 for the first row and
    # 1.0 * 4/2 = 2 for the second: one call scales each row by its own trace
    d1 = surrogate_descent(np.stack([row, _payload(h, np.diag([1.0, 3.0]))]), ridge=1.0)
    assert np.allclose(d1[0], [1.0 / 7.0, 2.0 / 5.0], atol=1e-14)
    assert np.allclose(d1[1], [1.0 / 3.0, 2.0 / 5.0], atol=1e-14)


def test_surrogate_descent_resymmetrizes():
    hm = np.array([[4.0, 1.0], [0.0, 2.0]])
    d = surrogate_descent(_payload(np.ones(2), hm)[None], ridge=0.0)
    assert np.allclose(d[0], np.linalg.solve((hm + hm.T) / 2.0, np.ones(2)), atol=1e-14)
    with pytest.raises(InvalidArgumentError):
        surrogate_descent(np.zeros((1, 5)), ridge=0.0)


def test_surrogate_descent_zero_information_stays_put():
    live = _payload(np.ones(3), np.eye(3))
    d = surrogate_descent(np.stack([np.zeros(12), live]), ridge=1e-8)
    assert np.array_equal(d[0], np.zeros(3))
    assert np.all(d[1] > 0.0)


def test_surrogate_descent_leaves_its_payloads_unchanged_and_matches_the_two_temporary_route():
    # H is symmetrized in one new buffer written in place: the caller's stack,
    # here a view into a wider array, must keep its bits, and the step must
    # equal (hm + hm^T) / 2.0 formed in two temporaries, bit for bit
    rng = np.random.default_rng(28)
    for n, count, ridge in ((59, 30, 1e-4), (5, 7, 1e-8), (1, 3, 0.5)):
        rows = []
        for _ in range(count):
            jac = rng.normal(size=(n + 3, n))
            hm = jac.T @ jac + 1e-9 * rng.normal(size=(n, n))  # not exactly symmetric
            rows.append(_payload(jac.T @ rng.normal(size=n + 3), hm))
        rows[count // 2] = np.zeros(n * (n + 1))  # no information: the zero step
        wide = np.zeros((count, n * (n + 1) + 4))
        wide[:, 2:-2] = rows
        payloads = wide[:, 2:-2]
        before = wide.copy()
        got = surrogate_descent(payloads, ridge)
        assert wide.tobytes() == before.tobytes()

        h = payloads[:, :n]
        hm = payloads[:, n:].reshape(count, n, n)
        hm = (hm + hm.transpose(0, 2, 1)) / 2.0
        np.einsum("kii->ki", hm)[...] += ridge * np.trace(hm, axis1=1, axis2=2)[:, None] / n
        hm[~(h.any(axis=1) | hm.any(axis=(1, 2)))] = np.eye(n)
        want = solve_normal(hm, h, context="agent")
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got[count // 2], np.zeros(n))


def test_surrogate_descent_error_names_the_agent():
    rows = np.stack([_payload(np.ones(2), np.eye(2)), _payload(np.ones(2), np.diag([1.0, 0.0]))])
    with pytest.raises(SingularSystemError, match="agent 1"):
        surrogate_descent(rows, ridge=0.0)


def test_ggn_run_projects_onto_tight_box():
    sites, _, x0 = _toy_setup()
    tight = BoxSet.cube(3, 1e-3)
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=1, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, tight, gc, cfg, x0)
    # oracle: the unprojected step after the update's one CSE round
    rows = np.stack([local_init_info(s, *evaluated(s, x0))[0] for s in sites])
    mixed = gossip_round(rows, CseRound(3, 0.4))
    step = x0 - surrogate_descent(mixed, 0.0)
    assert not np.all(np.abs(step) <= 1e-3)  # the projection is active
    assert np.array_equal(traj.iterates[1], np.clip(step, tight.lower, tight.upper))


def test_perfect_mixing_discrepancy_vanishes():
    sites, _, x0 = _toy_setup(n_sites=4)
    rows = np.stack([local_init_info(s, *evaluated(s, x0))[0] for s in sites])
    mixed = surrogate_descent(np.tile(rows.mean(axis=0), (4, 1)), 0.0)
    exact = np.stack([solve_normal(*normal_system(sites, *evaluated(sites[0], x0)))] * 4)
    disc = descent_discrepancy(mixed, exact)
    assert np.all(disc <= 1e-10)


def test_ggn_run_trajectory_invariants():
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=0.8, schedule=ExchangeSchedule(kind="incrementing", base=2),
        max_updates=6, stop_tol=1e-14, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    k = traj.n_updates
    assert traj.iterates.shape == (k + 1, 3, 3)
    assert np.array_equal(traj.exchange_counts, [2, 3, 4, 5, 6, 7][:k])
    assert traj.discrepancies.shape == (k, 3)
    assert all(box.contains(traj.iterates[t][i]) for t in range(k + 1) for i in range(3))


def test_ggn_run_early_stop():
    # a growing exchange budget contracts all the way to the fixed point,
    # so the stop tolerance actually triggers (constant budgets plateau
    # at a persistent disagreement ball instead)
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="incrementing", base=3),
        max_updates=50, stop_tol=1e-10, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    assert traj.n_updates < cfg.max_updates
    last_steps = np.linalg.norm(traj.iterates[-1] - traj.iterates[-2], axis=1)
    assert float(np.max(last_steps)) <= 1e-10


@pytest.mark.parametrize("stop_tol", [1e-15, 1e-6], ids=["full", "early_stopped"])
def test_ggn_run_records_site_metrics(grid30, true30, stop_tol):
    sites, box, x0 = _psse_setup(grid30, true30)
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="incrementing", base=3),
        max_updates=12, stop_tol=stop_tol, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    assert (traj.n_updates < cfg.max_updates) == (stop_tol == 1e-6)
    _assert_recorded_metrics(sites, traj)


def test_diffusion_run_records_site_metrics(grid30, true30):
    sites, box, x0 = _psse_setup(grid30, true30)
    gc = GossipConfig(kind="ure", beta=0.5)
    traj = diffusion_baseline_run(
        sites, box, gc, DiffusionConfig(0.3, 25), x0, rng=np.random.default_rng(4)
    )
    _assert_recorded_metrics(sites, traj)


def test_single_agent_reduces_to_centralized():
    sites, box, x0 = _toy_setup(n_sites=1)
    gc = GossipConfig(kind="cse", beta=0.5)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=5, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    assert np.array_equal(traj.iterates, centralized_run(sites, box, cfg, x0).iterates)


def test_ure_run_deterministic_under_seed():
    sites, box, x0 = _toy_setup(n_sites=3)
    gc = GossipConfig(kind="ure", beta=0.5)
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=4),
        max_updates=5, stop_tol=1e-15, ridge=1e-6,
    )
    t1 = ggn_run(sites, box, gc, cfg, x0, rng=np.random.default_rng(42))
    t2 = ggn_run(sites, box, gc, cfg, x0, rng=np.random.default_rng(42))
    assert np.array_equal(t1.iterates, t2.iterates)
    assert ggn_run(sites, box, gc, cfg, x0, rng=np.random.default_rng(43)) is not None


def test_ggn_run_requires_rng_for_ure():
    sites, box, x0 = _toy_setup(n_sites=3)
    gc = GossipConfig(kind="ure", beta=0.5)
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=2),
        max_updates=2, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)  # rng defaults internally
    assert traj.n_updates >= 1


def test_ure_needs_two_agents():
    # the sites are the agents, so one site leaves URE no partner to draw
    sites, box, x0 = _toy_setup(n_sites=1)
    gc = GossipConfig(kind="ure", beta=0.5)
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=1, stop_tol=1e-12, ridge=0.0,
    )
    with pytest.raises(InvalidArgumentError, match="two agents"):
        ggn_run(sites, box, gc, cfg, x0)
    with pytest.raises(InvalidArgumentError, match="two agents"):
        diffusion_baseline_run(sites, box, gc, DiffusionConfig(0.1, 5), x0)


def test_diffusion_steps_diminish():
    # one agent on a linear residual a x - c: exchange l steps 0.3 / l along a^T (a x - c)
    a = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]])
    c = np.array([1.0, 2.0, 3.0])
    (site,) = sites_from_blocks(2, [lambda x: a @ x - c], [lambda x: a])
    gc = GossipConfig(kind="cse", beta=0.4)
    traj = diffusion_baseline_run(
        [site], BoxSet.cube(2, 10.0), gc, DiffusionConfig(0.3, 6), np.zeros(2)
    )
    x = np.zeros(2)
    for ell in range(1, 7):
        x = x - 0.3 / ell * (a.T @ (a @ x - c))
        np.testing.assert_allclose(traj.iterates[ell][0], x, rtol=1e-14)


def test_diffusion_config_validation():
    with pytest.raises(InvalidArgumentError, match="step_scale"):
        DiffusionConfig(0.0, 6)
    with pytest.raises(InvalidArgumentError, match="total_exchanges"):
        DiffusionConfig(0.3, 0)


def test_diffusion_baseline_run_shapes():
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(kind="cse", beta=0.4)
    traj = diffusion_baseline_run(sites, box, gc, DiffusionConfig(0.1, 20), x0)
    for record, shape in [(traj.iterates, (21, 3, 3)), (traj.vals, (21, 3)), (traj.grads, (21, 3))]:
        assert record.shape == shape
        assert record.dtype == np.float64 and record.flags.c_contiguous
    assert all(box.contains(traj.iterates[t][i]) for t in range(21) for i in range(3))
    # every exchange is one update; only GGN records discrepancies and a rate
    assert traj.n_updates == 20
    assert np.array_equal(traj.exchange_counts, np.ones(20, dtype=int))
    assert traj.discrepancies is None
    assert math.isnan(traj.eta_observed)


def test_diffusion_moves_toward_solution():
    sites, box, x0 = _toy_setup()
    from gossipgn.core import centralized_gn_solve, stationarity_residual

    x_star, _ = centralized_gn_solve(sites, box, x0, tol=1e-12)
    gc = GossipConfig(kind="cse", beta=0.4)
    traj = diffusion_baseline_run(sites, box, gc, DiffusionConfig(0.05, 400), x0)
    start = np.linalg.norm(traj.iterates[0] - x_star, axis=1).max()
    end = np.linalg.norm(traj.iterates[-1] - x_star, axis=1).max()
    assert end < 0.5 * start


def test_per_agent_warm_start_stack():
    sites, box, _ = _toy_setup()
    starts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]])
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=1, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, starts)
    assert np.array_equal(traj.iterates[0], starts)
    with pytest.raises(InvalidArgumentError):
        ggn_run(sites, box, gc, cfg, starts[:2])


def _solve_one(a, b):
    """Oracle: one system, conditioning checked on its spectrum, then solved."""
    eigvals = np.linalg.eigvalsh((a + a.T) / 2.0)
    if eigvals[-1] <= 0.0 or eigvals[0] <= 0.0 or eigvals[-1] / eigvals[0] > COND_CAP:
        raise SingularSystemError("oracle")
    return np.linalg.solve(a, b)


def _discrepancies_per_agent(sites, xs, mixed, ridge):
    """Oracle: each agent's discrepancy from its own surrogate and exact solves."""
    n_u = xs.shape[1]
    out = np.empty(len(xs))
    for i, (x, row) in enumerate(zip(xs, mixed)):
        h = row[:n_u]
        hm = row[n_u:].reshape((n_u, n_u), order="F")
        hm = (hm + hm.T) / 2.0
        r = ridge * float(np.trace(hm)) / n_u
        if r != 0.0:
            hm = hm + r * np.eye(n_u)
        try:
            d_mixed = _solve_one(hm, h)
            a, b = np.zeros((n_u, n_u)), np.zeros(n_u)
            for site in sites:
                res, jac = terms_at(site, x)
                a += jac.T @ jac
                b += jac.T @ res
            d_exact = _solve_one(a, b)
        except SingularSystemError:
            out[i] = np.nan
            continue
        out[i] = float(np.linalg.norm(d_mixed - d_exact))
    return out


def _record_model_stacks(mp, stacks):
    """Record the number of states of every model Jacobian evaluation."""
    evaluate = measurements.full_measurement_jacobian

    def recording(grid, state):
        stacks.append(int(np.prod(state.theta.shape[:-1])))
        return evaluate(grid, state)

    mp.setattr(measurements, "full_measurement_jacobian", recording)


INSTRUMENTED_RUNS = {
    "ure_lossy": dict(
        n_sites=6, protocol="ure", beta=0.5, link_failure_prob=0.3, exchanges=8, updates=5
    ),
    "cse": dict(n_sites=3, protocol="cse", beta=0.4, link_failure_prob=0.0, exchanges=3, updates=6),
}


@pytest.fixture(params=list(INSTRUMENTED_RUNS), scope="module")
def instrumented_run(request, grid30, true30):
    """A case30 run with every gossip round, model evaluation and surrogate
    solve recorded."""
    spec = INSTRUMENTED_RUNS[request.param]
    sites, box, x0 = _psse_setup(grid30, true30, n_sites=spec["n_sites"])
    gc = GossipConfig(
        kind=spec["protocol"], beta=spec["beta"], link_failure_prob=spec["link_failure_prob"]
    )
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=spec["exchanges"]),
        max_updates=spec["updates"], stop_tol=1e-15, ridge=1e-4,
    )
    rounds, counts = [], {"model": [], "surrogate": 0, "solve": 0}

    def recording_round(payloads, weights, out=None):
        # copied before the call: a pairwise round may mix the stack in place
        before = payloads.copy()
        out = gossip_round_orig(payloads, weights, out=out)
        rounds.append((before, out.copy()))
        return out

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    gossip_round_orig = ggn.gossip_round
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggn, "gossip_round", recording_round)
        mp.setattr(ggn, "surrogate_descent", counting("surrogate", ggn.surrogate_descent))
        mp.setattr(ggn, "solve_normal", counting("solve", ggn.solve_normal))
        _record_model_stacks(mp, counts["model"])
        traj = ggn_run(sites, box, gc, cfg, x0, rng=np.random.default_rng(5))
    return sites, cfg, traj, rounds, counts


def _rounds_by_update(traj, rounds):
    ends = np.cumsum(traj.exchange_counts)
    assert ends[-1] == len(rounds)
    return [rounds[end - count:end] for end, count in zip(ends, traj.exchange_counts)]


def test_recorded_discrepancies_equal_separate_solves(instrumented_run):
    sites, cfg, traj, rounds, _ = instrumented_run
    for k, update_rounds in enumerate(_rounds_by_update(traj, rounds)):
        mixed = update_rounds[-1][1]
        oracle = _discrepancies_per_agent(sites, traj.iterates[k], mixed, cfg.ridge)
        assert np.array_equal(traj.discrepancies[k], oracle, equal_nan=True)


def test_mixing_conserves_the_payload_mean(instrumented_run):
    # every exchange matrix is doubly stochastic, so each round of an update
    # keeps the row mean of the payload stack the update started from
    _, _, traj, rounds, _ = instrumented_run
    scale = max(float(np.abs(p).max()) for p, _ in rounds)
    for update_rounds in _rounds_by_update(traj, rounds):
        mean0 = update_rounds[0][0].mean(axis=0)
        for _, out in update_rounds:
            assert float(np.max(np.abs(out.mean(axis=0) - mean0))) <= 1e-12 * scale


def test_one_model_evaluation_and_one_surrogate_solve_per_agent_update(instrumented_run):
    _, _, traj, _, counts = instrumented_run
    n_agents, n_updates = traj.n_agents, traj.n_updates
    # counted in states: a stacked evaluation counts each of its rows
    assert sum(counts["model"]) <= n_agents * (n_updates + 1)
    # each init step evaluates its agents' iterates in one set of slices
    assert len(counts["model"]) <= (n_updates + 1) * math.ceil(n_agents / MODEL_SLICE)
    # every agent's surrogate is solved in one batched call per update, and
    # each update makes one more solve for all exact directions
    assert counts["surrogate"] == n_updates
    assert counts["solve"] == 2 * n_updates


def test_diffusion_evaluates_each_exchange_in_one_set_of_slices(grid30, true30):
    sites, box, x0 = _psse_setup(grid30, true30, n_sites=4)
    cfg = DiffusionConfig(0.3, 6)
    stacks = []
    with pytest.MonkeyPatch.context() as mp:
        _record_model_stacks(mp, stacks)
        traj = diffusion_baseline_run(sites, box, GossipConfig(kind="cse", beta=0.4), cfg, x0)
    n_evaluations = cfg.total_exchanges + 1
    assert sum(stacks) <= len(sites) * n_evaluations
    assert len(stacks) <= n_evaluations * math.ceil(len(sites) / MODEL_SLICE)
    _assert_recorded_metrics(sites, traj)


def test_singular_full_system_records_nan_discrepancy():
    # every site sees only x[0], so the full normal matrix is singular while
    # the ridged surrogates stay solvable: the run goes on, the metric is NaN
    a = np.array([[1.0, 0.0]])
    sites = sites_from_blocks(2, [lambda x, i=i: a @ x - float(i) for i in range(2)], [lambda x: a] * 2)
    gc = GossipConfig(kind="cse", beta=0.5)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=2, stop_tol=1e-15, ridge=1e-3,
    )
    with pytest.raises(SingularSystemError):
        solve_normal(*normal_system(sites, *evaluated(sites[0], np.zeros(2))))
    descents = []

    def recording_descent(payloads, ridge):
        descents.append(surrogate_descent(payloads, ridge))
        return descents[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggn, "surrogate_descent", recording_descent)
        traj = ggn_run(sites, BoxSet.cube(2, 5.0), gc, cfg, np.zeros(2))
    assert traj.n_updates == 2
    assert np.all(np.isnan(traj.discrepancies))
    assert len(descents) == 2
    assert np.all(np.isfinite(descents))


def test_one_singular_full_system_leaves_only_its_agent_nan():
    # site 0 sees x[0], sites 1 and 2 see x[1]^2: the full normal matrix is
    # singular exactly where x[1] = 0, at agent 0's start and at no other
    sites = sites_from_blocks(
        2,
        [lambda x: np.array([x[0] - 1.0]), lambda x: np.array([x[1] ** 2 - 1.0]),
         lambda x: np.array([x[1] ** 2 - 4.0])],
        [lambda x: np.array([[1.0, 0.0]])] + [lambda x: np.array([[0.0, 2.0 * x[1]]])] * 2,
    )
    starts = np.array([[0.0, 0.0], [0.5, 1.5], [0.0, 1.5]])
    gc = GossipConfig(kind="cse", beta=0.5)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=2, stop_tol=1e-15, ridge=1e-3,
    )
    descents = []

    def recording_descent(payloads, ridge):
        descents.append(surrogate_descent(payloads, ridge))
        return descents[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggn, "surrogate_descent", recording_descent)
        traj = ggn_run(sites, BoxSet.cube(2, 5.0), gc, cfg, starts)
    assert np.isnan(traj.discrepancies[0, 0])
    assert np.isfinite(traj.discrepancies[0, 1:]).all()
    assert np.isfinite(traj.discrepancies[1]).all()  # agent 0 has left x[1] = 0
    # every other discrepancy is its agent's own exact solve, bit for bit
    for k, mixed in enumerate(descents):
        for i, x in enumerate(traj.iterates[k]):
            a, b = normal_system(sites, *evaluated(sites[0], x))
            try:
                exact = solve_normal(a, b, context="exact descent")
            except SingularSystemError:
                assert np.isnan(traj.discrepancies[k, i])
                continue
            assert traj.discrepancies[k, i] == float(np.linalg.norm(mixed[i] - exact))


def test_centralized_gauss_newton_assembles_one_normal_system_per_iterate(monkeypatch):
    # and evaluates each iterate once: the run's objective reads the same f
    sites, box, x0 = _toy_setup()
    states, calls = [], []
    sites = recording_model(sites, states)

    def counting_normal_system(sites, f, jac):
        calls.append(np.array(f))
        return normal_system(sites, f, jac)

    monkeypatch.setattr(core, "normal_system", counting_normal_system)
    # a negative tolerance never stops the solve: 4 steps make 5 iterates
    x, _ = centralized_gn_solve(sites, box, x0, tol=-1.0, max_iter=4)
    assert len(calls) == len(states) == 5
    assert np.array_equal(states[-1], x[None])
    assert np.array_equal(calls[-1], evaluated(sites[0], x)[0])

    states.clear()
    calls.clear()
    cfg = GgnConfig(alpha=0.8, schedule=ExchangeSchedule(), max_updates=4, stop_tol=1e-15)
    traj = centralized_run(sites, box, cfg, x0)
    assert traj.n_updates == 4
    assert np.array_equal(np.concatenate(states), traj.iterates[:, 0])
    assert np.array_equal(np.stack(calls), [evaluated(sites[0], x)[0] for x in traj.iterates[:, 0]])
    assert np.array_equal(traj.exchange_counts, np.zeros(4, dtype=int))
    assert traj.discrepancies is None


def _oracle_ure_round(config, n_agents, rng):
    """A URE round drawn as rng.choice draws it: wake-up agent, partner, coin."""
    wake = int(rng.integers(n_agents))
    pick = np.full(n_agents, 1.0 / (n_agents - 1))
    pick[wake] = 0.0
    partner = int(rng.choice(n_agents, p=pick))
    if config.link_failure_prob > 0.0 and rng.random() < config.link_failure_prob:
        return PairwiseRound(n_agents, (), config.beta)
    return PairwiseRound(n_agents, (wake, partner), config.beta)


def _oracle_ggn_run(sites, box, gossip_config, ggn_config, x0, seed):
    """Oracle: the update loop one agent at a time. Each agent's payload row
    and val come from local_init_info and its exact system from its own
    normal_system call, every round mixes into a copy, and URE partners are
    drawn with rng.choice. ggn_run must equal it bit for bit."""
    n_agents, n_u = len(sites), box.dim
    x = np.stack([core.project(row, box) for row in np.broadcast_to(x0, (n_agents, n_u))])
    rng = np.random.default_rng(seed)
    cse = CseRound(n_agents, gossip_config.beta) if gossip_config.kind == "cse" else None
    iterates, vals, grads, discrepancies, counts, eta = [x], [], [], [], [], np.inf

    def init_info(x):
        rows = [local_init_info(site, *evaluated(site, xi)) for site, xi in zip(sites, x)]
        vals.append([val for _, val in rows])
        grads.append([float(np.linalg.norm(row[:n_u])) for row, _ in rows])
        return np.stack([row for row, _ in rows])

    for k in range(ggn_config.max_updates):
        ell = ggn_config.schedule.exchanges_at(k)
        payloads = init_info(x)
        systems = [normal_system(sites, *evaluated(sites[0], xi)) for xi in x]
        exact = solve_normal(np.stack([a for a, _ in systems]), np.stack([b for _, b in systems]))
        for _ in range(ell):
            weights = cse if cse is not None else _oracle_ure_round(gossip_config, n_agents, rng)
            eta = min(eta, weights.eta)
            payloads = gossip_round(payloads, weights)
        descent = surrogate_descent(payloads, ggn_config.ridge)
        discrepancies.append(descent_discrepancy(descent, exact))
        x_new = np.clip(x - ggn_config.alpha * descent, box.lower, box.upper)
        step_max = max(float(np.linalg.norm(step)) for step in x_new - x)
        x = x_new
        iterates.append(x)
        counts.append(ell)
        if step_max <= ggn_config.stop_tol:
            break
    init_info(x)
    return Trajectory(
        np.stack(iterates), np.asarray(vals), np.asarray(grads), np.asarray(counts, dtype=int),
        np.stack(discrepancies), float(eta),
    )


def _assert_same_trajectory(got, want):
    for name in ("iterates", "vals", "grads", "exchange_counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.discrepancies, want.discrepancies, equal_nan=True)
    assert got.eta_observed == want.eta_observed


ORACLE_RUNS = {
    "ure30_lossy": dict(n_sites=30, kind="ure", beta=0.5, fail=0.3, exchanges=30, updates=4),
    "cse3": dict(n_sites=3, kind="cse", beta=0.4, fail=0.0, exchanges=3, updates=6),
}


def _oracle_case(grid, true_state, spec):
    sites, box, x0 = _psse_setup(grid, true_state, n_sites=spec["n_sites"])
    gc = GossipConfig(kind=spec["kind"], beta=spec["beta"], link_failure_prob=spec["fail"])
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=spec["exchanges"]),
        max_updates=spec["updates"], stop_tol=1e-15, ridge=1e-4,
    )
    return sites, box, gc, cfg, x0


@pytest.mark.parametrize("name", list(ORACLE_RUNS))
def test_ggn_run_equals_the_per_agent_oracle(name, grid30, true30):
    sites, box, gc, cfg, x0 = _oracle_case(grid30, true30, ORACLE_RUNS[name])
    want = _oracle_ggn_run(sites, box, gc, cfg, x0, seed=5)
    _assert_same_trajectory(ggn_run(sites, box, gc, cfg, x0, rng=5), want)


def _first_init_step_stacks(mp, stacks):
    """The model evaluations recorded in stacks before the first gossip round."""
    first_step = []

    def marking_round(payloads, weights, out=None):
        if not first_step:
            first_step.append(list(stacks))
        return gossip_round(payloads, weights, out=out)

    mp.setattr(ggn, "gossip_round", marking_round)
    return first_step


@pytest.mark.parametrize("signed_zero", [False, True], ids=["shared_start", "signed_zero"])
def test_first_init_step_evaluates_each_distinct_start_once(signed_zero, grid30, true30):
    # every agent starts at x0, or every other agent at x0 with one +0.0 read
    # as -0.0: equal values, different bytes, so that start is evaluated apart
    sites, box, gc, cfg, x0 = _oracle_case(grid30, true30, ORACLE_RUNS["ure30_lossy"])
    starts = np.tile(x0, (len(sites), 1))
    if signed_zero:
        zero = int(np.flatnonzero(x0 == 0.0)[0])
        starts[1::2, zero] = -0.0
    stacks = []
    with pytest.MonkeyPatch.context() as mp:
        _record_model_stacks(mp, stacks)
        first_step = _first_init_step_stacks(mp, stacks)
        traj = ggn_run(sites, box, gc, cfg, starts, rng=5)
    assert first_step == [[2] if signed_zero else [1]]
    _assert_same_trajectory(traj, _oracle_ggn_run(sites, box, gc, cfg, starts, seed=5))


def test_ure_diffusion_run_unchanged(grid30, true30):
    sites, box, x0 = _psse_setup(grid30, true30, n_sites=6)
    gc = GossipConfig(kind="ure", beta=0.5, link_failure_prob=0.3)
    cfg = DiffusionConfig(0.3, 40)
    got = diffusion_baseline_run(sites, box, gc, cfg, x0, rng=9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggn, "sample_ure_round", _oracle_ure_round)
        want = diffusion_baseline_run(sites, box, gc, cfg, x0, rng=9)
    for name in ("iterates", "vals", "grads", "exchange_counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
