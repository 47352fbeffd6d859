import math

import numpy as np
import pytest

from gossipgn.analysis import (
    build_certificate,
    admissible_alpha,
    equilibrium_radii,
    gossip_error_scale,
    min_exchanges_plan,
    perturbation_bound,
    recursion_constants,
    verify_contraction_to_ball,
)
from gossipgn.core import BoxSet, ProblemConstants, SiteModel, agent_systems, centralized_gn_solve
from gossipgn.errors import InvalidArgumentError
from gossipgn.ggn import ExchangeSchedule, GgnConfig, ggn_run
from gossipgn.gossip import GossipConfig


def make_pc(eps_max=1.0, eps_min=0.1, s_min=1.0, s_max=2.0, omega=1.0):
    return ProblemConstants(
        epsilon_max=eps_max, epsilon_min=eps_min, sigma_min=s_min,
        sigma_max=s_max, omega=omega,
        nu_delta=omega * (eps_max + s_max), nu_Delta=2 * s_max * omega,
    )


def test_t1_formula():
    pc = make_pc(omega=2.0, s_min=1.0)
    t1, _ = recursion_constants(pc, alpha=0.5)
    assert t1 == pytest.approx(0.5)


def test_t2_alpha_one_drops_first_term():
    pc = make_pc(omega=3.0, s_min=2.0, s_max=5.0, eps_min=0.7)
    _, t2 = recursion_constants(pc, alpha=1.0)
    assert t2 == pytest.approx(math.sqrt(2) * 3.0 * 0.7 / 4.0)


def test_t2_zero_residual_quadratic_regime():
    pc = make_pc(eps_min=0.0)
    _, t2 = recursion_constants(pc, alpha=1.0)
    assert t2 == 0.0


def test_recursion_constants_epsilon_override():
    pc = make_pc(eps_min=0.5)
    _, t2a = recursion_constants(pc, alpha=1.0)
    _, t2b = recursion_constants(pc, alpha=1.0, epsilon_min=0.25)
    assert t2b == pytest.approx(t2a / 2)
    with pytest.raises(InvalidArgumentError):
        recursion_constants(pc, alpha=0.0)


def test_admissible_alpha_examples():
    assert admissible_alpha(make_pc(s_min=1.0, s_max=1.0)) == 0.0
    assert admissible_alpha(make_pc(s_min=1.0, s_max=6.0)) == pytest.approx(0.5)
    assert admissible_alpha(make_pc(s_min=1.0, s_max=2.5)) == 0.0


def test_equilibrium_radii_frozen_quadratic():
    r = equilibrium_radii(T1=1.0, T2=0.0, alpha=1.0, kappa=0.09)
    assert r.defined
    assert r.rho_min == pytest.approx(0.1)
    assert r.rho_max == pytest.approx(0.9)
    # fixed-point identity at the smaller root
    assert r.rho_min == pytest.approx(1.0 * r.rho_min**2 + 0.09)


def test_equilibrium_radii_kappa_zero():
    r = equilibrium_radii(T1=2.0, T2=0.5, alpha=1.0, kappa=0.0)
    assert r.defined
    assert r.rho_min == 0.0
    assert r.rho_max == pytest.approx((1 - 0.5) / 2.0)


def test_equilibrium_radii_no_contraction():
    r = equilibrium_radii(T1=1.0, T2=1.2, alpha=1.0, kappa=0.01)
    assert not r.defined
    assert math.isnan(r.rho_min)
    r2 = equilibrium_radii(T1=5.0, T2=0.0, alpha=1.0, kappa=1.0)  # disc < 0
    assert not r2.defined


def test_equilibrium_radii_linear_branch():
    r = equilibrium_radii(T1=0.0, T2=0.5, alpha=1.0, kappa=0.1)
    assert r.defined
    assert r.rho_min == pytest.approx(0.2)
    assert math.isinf(r.rho_max)
    r_bad = equilibrium_radii(T1=0.0, T2=1.0, alpha=1.0, kappa=0.1)
    assert not r_bad.defined


def test_equilibrium_radii_nan_kappa():
    r = equilibrium_radii(T1=1.0, T2=0.0, alpha=1.0, kappa=math.nan)
    assert not r.defined
    assert math.isnan(r.rho_min) and math.isnan(r.rho_max)


def test_gossip_error_scale_direct_evaluation():
    pc = make_pc(eps_max=1.0, s_max=2.0)
    c = gossip_error_scale(pc, n_agents=3, n_unknowns=2, eta=0.15)
    l0 = 2
    expected = (
        2 * 3 * 2.0 * math.sqrt(3 * (1.0**2 + 2 * 2.0**2))
        * (1 + 0.15 ** (-l0)) / (1 - 0.15**l0)
    )
    assert c == pytest.approx(expected, rel=1e-12)


def test_gossip_error_scale_single_agent_undefined():
    assert math.isnan(gossip_error_scale(make_pc(), 1, 2, 0.5))


def test_gossip_error_scale_diverges_near_one():
    pc = make_pc()
    c_far = gossip_error_scale(pc, 3, 2, 0.5)
    c_near = gossip_error_scale(pc, 3, 2, 1 - 1e-9)
    assert c_near > 1e6 * c_far
    with pytest.raises(InvalidArgumentError):
        gossip_error_scale(pc, 3, 2, 1.0)


def test_min_exchanges_lambda_infty_geometric_sum():
    pc = make_pc()
    plan = min_exchanges_plan(
        pc, n_agents=3, gossip_scale=10.0, lambda_eta_val=0.5, xi=0.25,
        schedule_kind="incrementing",
    )
    assert plan.lambda_infty == pytest.approx(2.0)
    assert plan.c1 == pytest.approx(2 * (1 + pc.sigma_max * pc.epsilon_max / pc.sigma_min**2))
    assert plan.c2 == pytest.approx(3 / pc.sigma_min**2)
    assert not plan.divergent


def test_min_exchanges_log_identity():
    # xi chosen as 4 D lambda: the ceiling lands exactly on 1
    pc = make_pc()
    lam = 0.5
    probe = min_exchanges_plan(pc, 3, 10.0, lam, 0.25, "incrementing")
    xi = 4 * probe.d * lam
    if 0 < xi < 0.5:
        plan = min_exchanges_plan(pc, 3, 10.0, lam, xi, "incrementing")
        assert plan.ell_min == 1
    else:
        # rescale the gossip term so the synthetic xi is admissible
        scale = 0.2 / xi * 10.0
        probe = min_exchanges_plan(pc, 3, scale, lam, 0.25, "incrementing")
        xi = 4 * probe.d * lam
        plan = min_exchanges_plan(pc, 3, scale, lam, xi, "incrementing")
        assert plan.ell_min == 1


def test_min_exchanges_constant_schedule_divergent():
    plan = min_exchanges_plan(make_pc(), 3, 10.0, 0.9, 0.25, "constant")
    assert plan.divergent
    assert math.isinf(plan.lambda_infty)
    assert math.isinf(plan.d)
    assert math.isinf(plan.ell_min)


def test_perturbation_bound_frozen():
    assert perturbation_bound(2.0, 10.0, 0.9, 20.0) == pytest.approx(80.0 * 0.9**21)


def test_perturbation_bound_limits():
    assert perturbation_bound(2.0, 10.0, 0.9, 1e6) == pytest.approx(0.0, abs=1e-300)
    # doubling the budget: kappa(2l+1)/kappa(l) = lambda^(l+1)
    lam, ell = 0.8, 7.0
    ratio = perturbation_bound(1.0, 1.0, lam, 2 * ell + 1) / perturbation_bound(1.0, 1.0, lam, ell)
    assert ratio == pytest.approx(lam ** (ell + 1))


def test_kappa_monotone_in_ell_and_radii_monotone_in_kappa():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c1 = float(rng.uniform(0.1, 5.0))
        d = float(rng.uniform(0.1, 50.0))
        lam = float(rng.uniform(0.05, 0.95))
        ells = np.sort(rng.uniform(0, 40, size=3))
        kappas = [perturbation_bound(c1, d, lam, e) for e in ells]
        assert kappas[0] > kappas[1] > kappas[2]

        t1 = float(rng.uniform(0.01, 1.0))
        t2 = float(rng.uniform(0.0, 0.8))
        alpha = float(rng.uniform(0.1, 1.0))
        kap_max = (1 - t2) ** 2 / (4 * t1 * alpha)
        k1, k2 = sorted(rng.uniform(0, kap_max * 0.98, size=2))
        r1 = equilibrium_radii(t1, t2, alpha, k1)
        r2 = equilibrium_radii(t1, t2, alpha, k2)
        if r1.defined and r2.defined:
            assert r1.rho_min <= r2.rho_min + 1e-12
            assert r1.rho_max >= r2.rho_max - 1e-12


def _linear_sites(n_agents=2, n_unknowns=2, seed=0, consistent=True):
    rng = np.random.default_rng(seed)
    sites = []
    x_true = rng.normal(size=n_unknowns)
    for i in range(n_agents):
        a = rng.normal(size=(n_unknowns + 1, n_unknowns))
        b = a @ x_true if consistent else rng.normal(size=n_unknowns + 1)
        sites.append(
            SiteModel(
                site_id=i, n_unknowns=n_unknowns, residual_dim=n_unknowns + 1,
                eval_residual=lambda x, a=a, b=b: a @ x - b,
                eval_jacobian=lambda x, a=a: a,
            )
        )
    return sites, x_true


def surrogate_mismatch(sites, xs):
    """Per agent i of the (I, N_u) iterate stack xs: ||h_bar - b_i / I||,
    ||H_bar - A_i / I||_2 and sum_j ||x_i - x_j||, where (h_bar, H_bar) is
    the network average of the own-site info pairs and (A_i, b_i) the exact
    system at x_i. The Lipschitz envelopes bound the first two by
    nu_delta / I and nu_Delta / I times the third."""
    n_agents = len(sites)
    xs = np.asarray(xs, dtype=float)
    a_full, b_full, hm_own, h_own, _ = agent_systems(sites, xs)
    h_bar = np.mean(h_own, axis=0)
    hm_bar = np.mean(hm_own, axis=0)
    delta = np.array([np.linalg.norm(h_bar - b / n_agents) for b in b_full])
    big_delta = np.array([np.linalg.norm(hm_bar - a / n_agents, ord=2) for a in a_full])
    disagreement = np.array([sum(np.linalg.norm(x - xj) for xj in xs) for x in xs])
    return delta, big_delta, disagreement


def test_surrogate_mismatch_identical_iterates():
    sites, _ = _linear_sites()
    x = np.array([0.3, -0.2])
    delta, big_delta, _ = surrogate_mismatch(sites, np.stack([x, x]))
    assert np.allclose(delta, 0.0, atol=1e-12)
    assert np.allclose(big_delta, 0.0, atol=1e-12)


def test_surrogate_mismatch_linear_closed_form():
    sites, _ = _linear_sites(n_agents=2)
    x1 = np.array([0.5, 0.0])
    x2 = np.array([-0.5, 1.0])
    delta, big_delta, _ = surrogate_mismatch(sites, np.stack([x1, x2]))
    a2 = sites[1].eval_jacobian(x1)
    # delta_0 = hbar - q(x_0) = (1/2) A_2^T A_2 (x_2 - x_1) for linear sites
    expected = 0.5 * a2.T @ a2 @ (x2 - x1)
    assert delta[0] == pytest.approx(np.linalg.norm(expected), rel=1e-10)
    # constant Jacobians: the info-matrix mismatch vanishes identically
    assert np.allclose(big_delta, 0.0, atol=1e-12)


def test_surrogate_mismatch_bounds_hold_on_run(toy_sites, toy_box):
    gc = GossipConfig(kind="cse", beta=0.4)
    cfg = GgnConfig(
        alpha=0.8, schedule=ExchangeSchedule(kind="constant", base=2),
        max_updates=6, stop_tol=1e-14, ridge=0.0,
    )
    from gossipgn.core import estimate_constants

    traj = ggn_run(toy_sites, toy_box, gc, cfg, np.zeros(3))
    # constants measured over the region the iterates actually visited
    pts = traj.iterates.reshape(-1, 3)
    pad = 0.1 * (pts.max(0) - pts.min(0)) + 0.1
    box = BoxSet(pts.min(0) - pad, pts.max(0) + pad)
    pc = estimate_constants(toy_sites, box, n_samples=40, rng_seed=0, extra_points=pts)
    n_agents = len(toy_sites)
    for k in (0, traj.n_updates - 1):
        delta, big_delta, disagreement = surrogate_mismatch(toy_sites, traj.iterates[k])
        assert np.all(delta <= pc.nu_delta / n_agents * disagreement + 1e-12)
        assert np.all(big_delta <= pc.nu_Delta / n_agents * disagreement + 1e-12)


def test_verify_contraction_linear_centralized():
    sites, x_true = _linear_sites(n_agents=1, consistent=True)
    box = BoxSet.cube(2, 10.0)
    from gossipgn.core import estimate_constants

    gc = GossipConfig(kind="cse", beta=0.5)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=4, stop_tol=1e-14, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, np.zeros(2))
    x_ref, _ = centralized_gn_solve(sites, box, np.zeros(2), tol=1e-12)
    pc = estimate_constants(sites, box, n_samples=10, rng_seed=1, reference_x=x_ref)
    cert = build_certificate(
        pc, n_agents=1, n_unknowns=2, eta=0.5, alpha=1.0, xi=0.25, schedule_kind="constant",
    )
    assert cert.kappa == 0.0
    rep = verify_contraction_to_ball(traj, x_ref, cert, alpha=1.0)
    assert rep.all_satisfied
    assert rep.n_recursion_violations == 0
    # linear problem: one exact step to the solution
    assert np.linalg.norm(traj.iterates[1][0] - x_true) <= 1e-9


def test_verify_contraction_precondition_unmet():
    sites, _ = _linear_sites(n_agents=1)
    box = BoxSet.cube(2, 10.0)
    gc = GossipConfig(kind="cse", beta=0.5)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule(kind="constant", base=1),
        max_updates=2, stop_tol=1e-14, ridge=0.0,
    )
    traj = ggn_run(sites, box, gc, cfg, np.full(2, 9.0))
    x_ref, _ = centralized_gn_solve(sites, box, np.zeros(2), tol=1e-12)
    cert = build_certificate(
        make_pc(), n_agents=1, n_unknowns=2, eta=0.5, alpha=1.0, xi=0.25,
        schedule_kind="constant",
    )
    # shrink the region artificially so the start lies outside it
    small = equilibrium_radii(cert.T1, cert.T2, 1.0, cert.kappa)
    if not small.defined or small.rho_max > 1.0:
        import dataclasses

        cert = dataclasses.replace(cert, rho_max=0.5, rho_min=0.01, radii_defined=True)
    rep = verify_contraction_to_ball(traj, x_ref, cert, alpha=1.0)
    assert not rep.initial_check.satisfied
    assert "precondition" in rep.initial_check.reason
    assert not rep.limsup_check.applicable
    assert "no tail claim" in rep.limsup_check.reason


def test_build_certificate_single_agent_degenerates():
    cert = build_certificate(
        make_pc(), n_agents=1, n_unknowns=3, eta=0.5, alpha=1.0, xi=0.25,
        schedule_kind="incrementing",
    )
    assert cert.kappa == 0.0
    assert math.isnan(cert.C)
    assert cert.ell_min == 0.0
    assert not cert.conditional


def test_build_certificate_multi_agent_pipeline():
    pc = make_pc(eps_max=0.2, eps_min=0.01, s_min=1.5, s_max=2.0, omega=0.1)
    cert = build_certificate(
        pc, n_agents=3, n_unknowns=2, eta=0.3, alpha=0.9, xi=0.25,
        schedule_kind="incrementing",
    )
    assert cert.T1 == pytest.approx(0.9 * 0.1 / (2 * 1.5))
    assert cert.L0 == 2
    assert cert.lambda_eta_val == pytest.approx((1 - 0.3**2) ** 0.5)
    assert cert.C == pytest.approx(
        gossip_error_scale(pc, 3, 2, 0.3), rel=1e-12
    )
    assert cert.kappa == pytest.approx(
        perturbation_bound(cert.C1, cert.D, cert.lambda_eta_val, cert.ell_min), rel=1e-12
    )
    assert not cert.conditional
    assert cert.xi == 0.25


def test_build_certificate_validates_xi():
    # a single agent plans no exchanges, so only build_certificate reads its xi
    for n_agents in (1, 3):
        with pytest.raises(InvalidArgumentError, match="xi"):
            build_certificate(
                make_pc(), n_agents=n_agents, n_unknowns=2, eta=0.3, alpha=0.9, xi=0.7,
                schedule_kind="incrementing",
            )
