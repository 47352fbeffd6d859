import numpy as np
import pytest

from gossipgn.core import BoxSet, centralized_gn_step, exact_descent
from gossipgn.errors import InvalidArgumentError
from gossipgn.ggn import (
    AgentState,
    ExchangeSchedule,
    GgnConfig,
    InfoVector,
    constant_steps,
    descent_discrepancy,
    diffusion_baseline_run,
    diminishing_steps,
    ggn_run,
    local_init_info,
    local_update,
    surrogate_descent,
)
from gossipgn.gossip import GossipConfig, Topology

from gossipgn.psse import (
    build_nlls_sites,
    flat_start_vector,
    generate_measurements,
    make_box,
    partition_sites,
)

from conftest import make_toy_sites


def _toy_setup(n_sites=3, seed=0):
    sites = make_toy_sites(n_sites=n_sites, seed=seed)
    box = BoxSet.cube(3, 10.0)
    return sites, box, np.zeros(3)


def _psse_setup(grid, true_state, n_sites=3):
    plan = partition_sites(grid, n_sites)
    meas = generate_measurements(grid, true_state, plan, sigma2=1e-4, rng_seed=2)
    return build_nlls_sites(grid, plan, meas), make_box(grid.n_buses), flat_start_vector(grid)


def _site_metrics(sites, x):
    """Oracle: per-agent objective value and gradient norm, evaluated fresh at x[i]."""
    vals = np.empty(len(sites))
    grads = np.empty(len(sites))
    for i, site in enumerate(sites):
        res = np.asarray(site.eval_residual(x[i]), dtype=float)
        jac = np.asarray(site.eval_jacobian(x[i]), dtype=float)
        vals[i] = float(res @ res)
        grads[i] = float(np.linalg.norm(jac.T @ res))
    return vals, grads


def _assert_recorded_metrics(sites, traj):
    assert traj.vals.shape == traj.grads.shape == traj.iterates.shape[:2]
    for k, stack in enumerate(traj.iterates):
        vals, grads = _site_metrics(sites, stack)
        assert np.array_equal(traj.vals[k], vals)
        assert np.array_equal(traj.grads[k], grads)


def test_info_vector_payload_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        h = rng.normal(size=n)
        root = rng.normal(size=(n, n))
        hm = root.T @ root
        info = InfoVector(h=h, H=hm)
        back = InfoVector.from_payload(info.to_payload(), n)
        assert np.array_equal(back.h, info.h)
        assert np.array_equal(back.H, info.H)
        assert info.to_payload().shape == (n * (n + 1),)


def test_info_vector_rejects_asymmetric():
    with pytest.raises(InvalidArgumentError):
        InfoVector(h=np.zeros(2), H=np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_exchange_schedule():
    const = ExchangeSchedule(kind="constant", base=3)
    assert [const.exchanges_at(k) for k in range(4)] == [3, 3, 3, 3]
    inc = ExchangeSchedule(kind="incrementing", base=2)
    assert [inc.exchanges_at(k) for k in range(4)] == [2, 3, 4, 5]
    with pytest.raises(InvalidArgumentError):
        ExchangeSchedule(kind="constant", base=0)
    with pytest.raises(InvalidArgumentError):
        ExchangeSchedule(kind="quadratic", base=1)


def test_local_init_info_matches_normal_blocks():
    sites, _, _ = _toy_setup()
    x = np.array([0.4, -0.1, 0.2])
    info, val = local_init_info(sites[0], x)
    j = sites[0].eval_jacobian(x)
    r = sites[0].eval_residual(x)
    assert np.allclose(info.h, j.T @ r, atol=1e-14)
    assert np.allclose(info.H, j.T @ j, atol=1e-14)
    assert val == float(r @ r)


def test_surrogate_descent_ridge_scaling():
    h = np.array([1.0, 2.0])
    hm = np.diag([4.0, 2.0])
    info = InfoVector(h=h, H=hm)
    d0 = surrogate_descent(info, ridge=0.0, context="t")
    assert np.allclose(d0, [0.25, 1.0], atol=1e-14)
    # effective ridge = ridge * trace/n = 1.0 * 6/2 = 3
    d1 = surrogate_descent(info, ridge=1.0, context="t")
    assert np.allclose(d1, [1.0 / 7.0, 2.0 / 5.0], atol=1e-14)


def test_surrogate_descent_zero_information_stays_put():
    info = InfoVector(h=np.zeros(3), H=np.zeros((3, 3)))
    d = surrogate_descent(info, ridge=1e-8, context="t")
    assert np.array_equal(d, np.zeros(3))


def test_local_update_projects():
    sites, _, _ = _toy_setup()
    x = np.zeros(3)
    info, _ = local_init_info(sites[0], x)
    # site Jacobian is 4x3 full column rank, so the descent is well posed
    tight = BoxSet.cube(3, 1e-3)
    agent = AgentState(agent_id=0, x=x, info=info)
    out = local_update(agent, alpha=1.0, box=tight, ridge=0.0)
    assert tight.contains(out.x)
    assert out.last_descent is not None


def test_perfect_mixing_discrepancy_vanishes():
    sites, box, x0 = _toy_setup(n_sites=4)
    agents = []
    infos = [local_init_info(s, x0)[0] for s in sites]
    mean_h = np.mean([i.h for i in infos], axis=0)
    mean_hm = np.mean([i.H for i in infos], axis=0)
    for i in range(4):
        agents.append(
            AgentState(agent_id=i, x=x0.copy(), info=InfoVector(h=mean_h, H=mean_hm))
        )
    disc = descent_discrepancy(sites, agents, box, ridge=0.0)
    assert np.all(disc <= 1e-10)


def test_ggn_run_trajectory_invariants():
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
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
    assert traj.mean_drift_max <= 1e-12
    assert np.all(traj.union_connected)
    assert len(traj.gossip_err_vec) == k
    # per-update error sequences have one entry per exchange plus the start
    assert [len(e) for e in traj.gossip_err_vec] == [c + 1 for c in traj.exchange_counts]


def test_ggn_run_early_stop():
    # a growing exchange budget contracts all the way to the fixed point,
    # so the stop tolerance actually triggers (constant budgets plateau
    # at a persistent disagreement ball instead)
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="incrementing", base=3),
        max_updates=50, stop_tol=1e-10, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    assert traj.early_stopped
    assert traj.n_updates < 50
    assert float(np.max(traj.step_norms[-1])) <= 1e-10


@pytest.mark.parametrize("stop_tol", [1e-15, 1e-6], ids=["full", "early_stopped"])
def test_ggn_run_records_site_metrics(grid30, true30, stop_tol):
    sites, box, x0 = _psse_setup(grid30, true30)
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="incrementing", base=3),
        max_updates=12, stop_tol=stop_tol, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    assert traj.early_stopped == (stop_tol == 1e-6)
    _assert_recorded_metrics(sites, traj)


def test_diffusion_run_records_site_metrics(grid30, true30):
    sites, box, x0 = _psse_setup(grid30, true30)
    gc = GossipConfig(protocol="ure", n_agents=3, beta=0.5, topology=Topology.full(3))
    traj = diffusion_baseline_run(
        sites, box, gc, diminishing_steps(0.3), 25, x0, rng=np.random.default_rng(4)
    )
    _assert_recorded_metrics(sites, traj)


def test_single_agent_reduces_to_centralized():
    sites, box, x0 = _toy_setup(n_sites=1)
    gc = GossipConfig(protocol="cse", n_agents=1, beta=0.5, topology=Topology.full(1))
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=5, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)
    x = x0.copy()
    for k in range(1, traj.n_updates + 1):
        x = centralized_gn_step(sites, x, 1.0, box)
        assert np.array_equal(traj.iterates[k][0], x)


def test_ure_run_deterministic_under_seed():
    sites, box, x0 = _toy_setup(n_sites=3)
    gc = GossipConfig(protocol="ure", n_agents=3, beta=0.5, topology=Topology.full(3))
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
    gc = GossipConfig(protocol="ure", n_agents=3, beta=0.5, topology=Topology.full(3))
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=2),
        max_updates=2, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, x0)  # rng defaults internally
    assert traj.n_updates >= 1


def test_site_count_must_match_agents():
    sites, box, x0 = _toy_setup(n_sites=2)
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=1, stop_tol=1e-12, ridge=0.0,
    )
    with pytest.raises(InvalidArgumentError):
        ggn_run(sites, box, gc, cfg, x0)


def test_step_schedules():
    dim = diminishing_steps(0.3)
    assert dim(1) == pytest.approx(0.3)
    assert dim(6) == pytest.approx(0.05)
    const = constant_steps(0.2)
    assert const(1) == const(50) == pytest.approx(0.2)


def test_diffusion_baseline_run_shapes():
    sites, box, x0 = _toy_setup()
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    traj = diffusion_baseline_run(sites, box, gc, diminishing_steps(0.1), 20, x0)
    assert traj.iterates.shape == (21, 3, 3)
    assert all(box.contains(traj.iterates[t][i]) for t in range(21) for i in range(3))
    assert traj.step_sizes.shape == (20,)
    assert traj.step_sizes[0] == pytest.approx(0.1)


def test_diffusion_moves_toward_solution():
    sites, box, x0 = _toy_setup()
    from gossipgn.core import centralized_gn_solve, stationarity_residual

    x_star, _ = centralized_gn_solve(sites, box, x0, tol=1e-12)
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    traj = diffusion_baseline_run(sites, box, gc, diminishing_steps(0.05), 400, x0)
    start = np.linalg.norm(traj.iterates[0] - x_star, axis=1).max()
    end = np.linalg.norm(traj.iterates[-1] - x_star, axis=1).max()
    assert end < 0.5 * start


def test_per_agent_warm_start_stack():
    sites, box, _ = _toy_setup()
    starts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]])
    gc = GossipConfig(protocol="cse", n_agents=3, beta=0.4, topology=Topology.full(3))
    cfg = GgnConfig(
        alpha=0.5, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=1, stop_tol=1e-15, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, starts)
    assert np.array_equal(traj.iterates[0], starts)
    with pytest.raises(InvalidArgumentError):
        ggn_run(sites, box, gc, cfg, starts[:2])
