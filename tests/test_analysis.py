import dataclasses
import math

import numpy as np
import pytest

from gossipgn.analysis import ConvergenceCertificate, build_certificate, equilibrium_radii
from gossipgn import experiments
from gossipgn.core import (
    BoxSet, ProblemConstants, centralized_gn_solve, estimate_constants, normal_system,
)
from gossipgn.errors import InvalidArgumentError
from gossipgn.experiments import certificate_for_run
from gossipgn.ggn import ExchangeSchedule, GgnConfig, ggn_run
from gossipgn.gossip import GossipConfig, PairwiseRound, connectivity_interval, log_lambda_eta

from conftest import (
    evaluated, range_anchors_and_ranges, sites_from_blocks, terms_at, verify_contraction_to_ball,
)


def make_pc(eps_max=1.0, eps_min=0.1, s_min=1.0, s_max=2.0, omega=1.0):
    return ProblemConstants(
        epsilon_max=eps_max, epsilon_min=eps_min, sigma_min=s_min,
        sigma_max=s_max, omega=omega,
        nu_delta=omega * (eps_max + s_max), nu_Delta=2 * s_max * omega,
    )


def certify(
    pc, n_agents=3, n_unknowns=2, eta=0.3, alpha=0.9, xi=0.25, schedule_kind="incrementing"
):
    return build_certificate(pc, n_agents, n_unknowns, eta, alpha, xi, schedule_kind)


def test_t1_formula():
    pc = make_pc(omega=2.0, s_min=1.0)
    assert certify(pc, alpha=0.5).T1 == pytest.approx(0.5)


def test_t2_alpha_one_drops_first_term():
    pc = make_pc(omega=3.0, s_min=2.0, s_max=5.0, eps_min=0.7)
    assert certify(pc, alpha=1.0).T2 == pytest.approx(math.sqrt(2) * 3.0 * 0.7 / 4.0)


def test_t2_zero_residual_quadratic_regime():
    assert certify(make_pc(eps_min=0.0), alpha=1.0).T2 == 0.0


def test_admissible_alpha_examples():
    assert certify(make_pc(s_min=1.0, s_max=1.0)).alpha_lower == 0.0
    assert certify(make_pc(s_min=1.0, s_max=6.0)).alpha_lower == pytest.approx(0.5)
    assert certify(make_pc(s_min=1.0, s_max=2.5)).alpha_lower == 0.0


def test_equilibrium_radii_frozen_quadratic():
    rho_min, rho_max = equilibrium_radii(T1=1.0, T2=0.0, alpha=1.0, kappa=0.09)
    assert not math.isnan(rho_min)
    assert rho_min == pytest.approx(0.1)
    assert rho_max == pytest.approx(0.9)
    # fixed-point identity at the smaller root
    assert rho_min == pytest.approx(1.0 * rho_min**2 + 0.09)


def test_equilibrium_radii_kappa_zero():
    rho_min, rho_max = equilibrium_radii(T1=2.0, T2=0.5, alpha=1.0, kappa=0.0)
    assert not math.isnan(rho_min)
    assert rho_min == 0.0
    assert rho_max == pytest.approx((1 - 0.5) / 2.0)


def test_equilibrium_radii_no_contraction():
    rho_min, rho_max = equilibrium_radii(T1=1.0, T2=1.2, alpha=1.0, kappa=0.01)
    assert math.isnan(rho_max)
    assert math.isnan(rho_min)
    rho_min2, rho_max2 = equilibrium_radii(T1=5.0, T2=0.0, alpha=1.0, kappa=1.0)  # disc < 0
    assert math.isnan(rho_min2) and math.isnan(rho_max2)


def test_equilibrium_radii_linear_branch():
    rho_min, rho_max = equilibrium_radii(T1=0.0, T2=0.5, alpha=1.0, kappa=0.1)
    assert not math.isnan(rho_min)
    assert rho_min == pytest.approx(0.2)
    assert math.isinf(rho_max)
    bad_min, bad_max = equilibrium_radii(T1=0.0, T2=1.0, alpha=1.0, kappa=0.1)
    assert math.isnan(bad_min) and math.isnan(bad_max)


def test_equilibrium_radii_nan_kappa():
    rho_min, rho_max = equilibrium_radii(T1=1.0, T2=0.0, alpha=1.0, kappa=math.nan)
    assert math.isnan(rho_min) and math.isnan(rho_max)


def test_gossip_error_scale_direct_evaluation():
    pc = make_pc(eps_max=1.0, s_max=2.0)
    c = certify(pc, n_agents=3, n_unknowns=2, eta=0.15).C
    l0 = 2
    expected = (
        2 * 3 * 2.0 * math.sqrt(3 * (1.0**2 + 2 * 2.0**2))
        * (1 + 0.15 ** (-l0)) / (1 - 0.15**l0)
    )
    assert c == pytest.approx(expected, rel=1e-12)


def test_gossip_error_scale_single_agent_undefined():
    assert math.isnan(certify(make_pc(), n_agents=1, eta=0.5).C)


def test_gossip_error_scale_diverges_near_one():
    pc = make_pc()
    c_far = certify(pc, eta=0.5).C
    c_near = certify(pc, eta=1 - 1e-9).C
    assert c_near > 1e6 * c_far
    with pytest.raises(InvalidArgumentError):
        certify(pc, eta=1.0)


def test_min_exchanges_lambda_infty_geometric_sum():
    pc = make_pc()
    # rate (1 - eta^2)^(1/2) = 1/2 over three agents
    cert = certify(pc, n_agents=3, eta=math.sqrt(0.75))
    assert cert.lambda_eta_val == pytest.approx(0.5)
    assert cert.lambda_infty == pytest.approx(2.0)
    assert cert.C1 == pytest.approx(2 * (1 + pc.sigma_max * pc.epsilon_max / pc.sigma_min**2))
    assert cert.C2 == pytest.approx(3 / pc.sigma_min**2)
    assert not cert.conditional


def test_min_exchanges_log_identity():
    # xi chosen as 4 D lambda^m: the ceiling lands exactly on m
    pc = make_pc()
    probe = certify(pc)
    m = int(probe.ell_min) + 3  # keeps xi below the probe's 0.25
    cert = certify(pc, xi=4 * probe.D * probe.lambda_eta_val**m)
    assert (cert.D, cert.lambda_eta_val) == (probe.D, probe.lambda_eta_val)
    assert cert.ell_min == m


def test_min_exchanges_constant_schedule_divergent():
    cert = certify(make_pc(), schedule_kind="constant")
    assert cert.conditional
    assert math.isinf(cert.lambda_infty)
    assert math.isinf(cert.D)
    assert math.isinf(cert.ell_min)
    assert math.isnan(cert.kappa)


def test_perturbation_bound_frozen():
    cert = certify(make_pc())
    assert cert.kappa == pytest.approx(
        4.0 * cert.C1 * cert.D * cert.lambda_eta_val ** (cert.ell_min + 1.0), rel=1e-12
    )


def test_perturbation_bound_limits():
    # ell_min is the least budget with 4 D rate^ell <= xi, so kappa <= C1 xi rate,
    # and one exchange fewer would leave 4 D rate^(ell - 1) above xi
    for xi in (0.25, 1e-6, 1e-300):
        cert = certify(make_pc(), xi=xi)
        rate = cert.lambda_eta_val
        assert 0.0 < cert.kappa <= cert.C1 * xi * rate * (1 + 1e-9)
        assert 4.0 * cert.D * rate ** (cert.ell_min - 1.0) > xi


def test_kappa_monotone_in_ell_and_radii_monotone_in_kappa():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pc = make_pc(
            eps_max=float(rng.uniform(0.1, 2.0)), s_min=float(rng.uniform(0.5, 1.0)),
            s_max=float(rng.uniform(1.0, 3.0)), omega=float(rng.uniform(0.1, 2.0)),
        )
        eta = float(rng.uniform(0.05, 0.95))
        n_agents = int(rng.integers(2, 6))
        # a lower xi buys a larger exchange budget and a smaller perturbation
        certs = [certify(pc, n_agents=n_agents, eta=eta, xi=xi) for xi in (0.4, 4e-4, 4e-7)]
        assert certs[0].ell_min < certs[1].ell_min < certs[2].ell_min
        assert certs[0].kappa > certs[1].kappa > certs[2].kappa

        t1 = float(rng.uniform(0.01, 1.0))
        t2 = float(rng.uniform(0.0, 0.8))
        alpha = float(rng.uniform(0.1, 1.0))
        kap_max = (1 - t2) ** 2 / (4 * t1 * alpha)
        k1, k2 = sorted(rng.uniform(0, kap_max * 0.98, size=2))
        min1, max1 = equilibrium_radii(t1, t2, alpha, k1)
        min2, max2 = equilibrium_radii(t1, t2, alpha, k2)
        if not (math.isnan(min1) or math.isnan(min2)):
            assert min1 <= min2 + 1e-12
            assert max1 >= max2 - 1e-12


def _linear_sites(n_agents=2, n_unknowns=2, seed=0, consistent=True):
    rng = np.random.default_rng(seed)
    residuals, jacobians = [], []
    x_true = rng.normal(size=n_unknowns)
    for _ in range(n_agents):
        a = rng.normal(size=(n_unknowns + 1, n_unknowns))
        b = a @ x_true if consistent else rng.normal(size=n_unknowns + 1)
        residuals.append(lambda x, a=a, b=b: a @ x - b)
        jacobians.append(lambda x, a=a: a)
    return sites_from_blocks(n_unknowns, residuals, jacobians), x_true


def surrogate_mismatch(sites, xs):
    """Per agent i of the (I, N_u) iterate stack xs: ||h_bar - b_i / I||,
    ||H_bar - A_i / I||_2 and sum_j ||x_i - x_j||, where (h_bar, H_bar) is
    the network average of the own-site info pairs and (A_i, b_i) the exact
    system at x_i. The Lipschitz envelopes bound the first two by
    nu_delta / I and nu_Delta / I times the third."""
    n_agents = len(sites)
    xs = np.asarray(xs, dtype=float)
    exact = [normal_system(sites, *evaluated(sites[0], x)) for x in xs]
    own = [terms_at(site, x) for site, x in zip(sites, xs)]
    h_bar = np.mean([jac.T @ res for res, jac in own], axis=0)
    hm_bar = np.mean([jac.T @ jac for _, jac in own], axis=0)
    delta = np.array([np.linalg.norm(h_bar - b / n_agents) for _, b in exact])
    big_delta = np.array([np.linalg.norm(hm_bar - a / n_agents, ord=2) for a, _ in exact])
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
    a2 = terms_at(sites[1], x1)[1]
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
    _, small_max = equilibrium_radii(cert.T1, cert.T2, 1.0, cert.kappa)
    if math.isnan(small_max) or small_max > 1.0:
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
        2 * 3 * 2.0 * math.sqrt(3 * (0.2**2 + 2 * 2.0**2)) * (1 + 0.3**-2) / (1 - 0.3**2),
        rel=1e-12,
    )
    assert cert.kappa == pytest.approx(
        4.0 * cert.C1 * cert.D * cert.lambda_eta_val ** (cert.ell_min + 1.0), rel=1e-12
    )
    assert not cert.conditional
    assert cert.xi == 0.25


def test_build_certificate_takes_l0_from_the_connectivity_interval():
    # three agents whose exchanges join them all only over windows of B = 3
    # (the failed round () and (0, 2) join two): L0 = (I - 1) B = 6 in the
    # rate and in C
    pairs = [(0, 1), (1, 2), (), (0, 2), (0, 1), (1, 2)]
    interval = connectivity_interval(3, [PairwiseRound(3, pair, 0.5) for pair in pairs])
    assert interval == 3
    pc = make_pc(eps_max=0.2, eps_min=0.01, s_min=1.5, s_max=2.0, omega=0.1)
    cert = build_certificate(
        pc, n_agents=3, n_unknowns=2, eta=0.5, alpha=0.9, xi=0.25,
        schedule_kind="incrementing", interval=interval,
    )
    assert cert.L0 == 6
    assert cert.lambda_eta_val == math.exp(log_lambda_eta(0.5, 3, interval=3))
    assert cert.lambda_eta_val == pytest.approx((1 - 0.5**6) ** (1 / 6), rel=1e-15)
    assert cert.C == pytest.approx(
        2 * 3 * 2.0 * math.sqrt(3 * (0.2**2 + 2 * 2.0**2)) * (1 + 0.5**-6) / (1 - 0.5**6),
        rel=1e-12,
    )
    # B = 1 is the complete graph of CSE: the certificate of the parent form
    one = build_certificate(pc, 3, 2, 0.5, 0.9, 0.25, "incrementing", interval=1)
    assert one == build_certificate(pc, 3, 2, 0.5, 0.9, 0.25, "incrementing")
    assert one.L0 == 2
    # a single agent gossips nothing, whatever the interval
    assert build_certificate(pc, 1, 2, 0.5, 0.9, 0.25, "incrementing", interval=3).L0 == 0


def _range_localization_run(range_localization, monkeypatch):
    """GGN on range_localization (CSE, alpha 1, 2,100 + k exchanges at update
    k), its reference, and certificate_for_run's constants, certificate and
    envelope box, the box it sampled."""
    sites, box, x0 = range_localization
    x_ref, _ = centralized_gn_solve(sites, box, x0, alpha=1.0, tol=1e-12, max_iter=50)
    cfg = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule("incrementing", 2100), max_updates=10, stop_tol=1e-12,
    )
    traj = ggn_run(sites, box, GossipConfig("cse", 0.3), cfg, x0)
    envelopes = []

    def recording(sites, env_box, **kwargs):
        envelopes.append(env_box)
        return estimate_constants(sites, env_box, **kwargs)

    monkeypatch.setattr(experiments, "estimate_constants", recording)
    pc, cert = certificate_for_run(
        sites, box, [traj], x_ref, alpha=1.0, schedule_kind="incrementing", xi=0.01,
        n_samples=24, rng_seed=0, eta=min(w.eta for w in traj.rounds),
        interval=connectivity_interval(3, traj.rounds),
    )
    (env_box,) = envelopes
    return traj, x_ref, pc, cert, env_box


def test_every_sufficient_condition_holds_on_range_localization(range_localization, monkeypatch):
    # a nonlinear run on which the certificate makes its claim: alpha in
    # (alpha_lower, 1], radii defined, a finite exchange budget that every
    # update meets, a start inside rho_max, and the run inside the ball
    traj, x_ref, _, cert, _ = _range_localization_run(range_localization, monkeypatch)
    alpha = 1.0
    assert cert.alpha_lower < alpha <= 1.0
    assert cert.radii_defined
    assert math.isfinite(cert.ell_min)
    assert traj.exchange_counts.min() >= cert.ell_min
    assert np.linalg.norm(traj.iterates[0] - x_ref, axis=1).max() < cert.rho_max
    assert cert.holds and cert.unmet == ""
    report = verify_contraction_to_ball(traj, x_ref, cert, alpha=alpha)
    assert report.initial_check.applicable and report.limsup_check.applicable
    assert report.all_satisfied


def test_range_localization_verdict_survives_proven_constants(range_localization, monkeypatch):
    # omega and epsilon_max are sampled maxima, lower bounds on the suprema
    # over the envelope box; on this fixture each constant has a closed-form
    # bound, and the certificate built from the bounds holds too
    traj, x_ref, pc, cert, env = _range_localization_run(range_localization, monkeypatch)
    anchors, ranges = range_anchors_and_ranges()
    # row m of J is u_m(x) = (x - a_m) / ||x - a_m||, whose derivative has norm
    # 1 / ||x - a_m||; on the convex box ||J(x) - J(y)||_2 <= ||.||_F <=
    # (sum_m 1 / r_m^2)^(1/2) ||x - y||, r_m the distance from a_m to the box.
    # Unit rows give sigma_max <= ||J||_F = sqrt(6).
    to_box = np.linalg.norm(anchors - np.clip(anchors, env.lower, env.upper), axis=1)
    omega = math.sqrt(np.sum(1.0 / to_box**2))
    sigma_max = math.sqrt(len(anchors))
    # every point of the box lies within h, half a cell's diagonal, of a node of
    # a 401 x 401 grid: by Weyl sigma_min falls at most omega h below the
    # nodes' least, and the residual norm, sigma_max-Lipschitz, rises at most
    # sigma_max h above their largest
    axes = [np.linspace(lo, hi, 401) for lo, hi in zip(env.lower, env.upper)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    offsets = nodes - anchors
    distances = np.linalg.norm(offsets, axis=2)
    h = 0.5 * float(np.linalg.norm((env.upper - env.lower) / 400))
    sigma_min = float(np.linalg.svd(offsets / distances[..., None], compute_uv=False)[:, -1].min())
    sigma_min -= omega * h
    epsilon_max = float(np.linalg.norm(distances - ranges, axis=1).max()) + sigma_max * h
    assert pc.omega <= omega
    assert pc.sigma_max <= sigma_max
    assert pc.sigma_min >= sigma_min > 0.0
    assert pc.epsilon_max <= epsilon_max

    proven = ProblemConstants(
        epsilon_max=epsilon_max, epsilon_min=pc.epsilon_min, sigma_min=sigma_min,
        sigma_max=sigma_max, omega=omega,
        nu_delta=omega * (epsilon_max + sigma_max), nu_Delta=2 * sigma_max * omega,
    )
    bound = build_certificate(
        proven, n_agents=3, n_unknowns=2, eta=cert.eta_observed, alpha=1.0, xi=0.01,
        schedule_kind="incrementing", interval=connectivity_interval(3, traj.rounds),
        fewest_exchanges=traj.exchange_counts.min(),
        start_distance=np.linalg.norm(traj.iterates[0] - x_ref, axis=1).max(),
    )
    assert bound.holds and bound.unmet == ""
    assert verify_contraction_to_ball(traj, x_ref, bound, alpha=1.0).all_satisfied


def test_build_certificate_verdict_names_each_unmet_condition():
    pc = make_pc(eps_max=0.2, eps_min=0.01, s_min=1.5, s_max=2.0, omega=0.1)

    def unmet(n_agents=3, alpha=0.9, schedule_kind="incrementing", **run):
        cert = build_certificate(pc, n_agents, 2, 0.3, alpha, 0.25, schedule_kind, **run)
        assert cert.holds == (cert.unmet == "")
        return cert.unmet

    ref = build_certificate(pc, 3, 2, 0.3, 0.9, 0.25, "incrementing")
    met = {"fewest_exchanges": ref.ell_min, "start_distance": 0.5 * ref.rho_max}
    assert unmet(**met) == ""
    # the budget is met at ell_min exchanges, and the start must lie strictly inside rho_max
    assert unmet(fewest_exchanges=ref.ell_min - 1, start_distance=met["start_distance"]) == "exchanges"
    assert unmet(fewest_exchanges=ref.ell_min, start_distance=ref.rho_max) == "start"
    # a certificate of constants alone shows no run: neither exchanges nor a start
    assert unmet() == "exchanges,start"
    # a constant schedule has no budget (ell_min = inf), hence no kappa and no radii
    assert unmet(schedule_kind="constant", **met) == "radii,schedule,exchanges,start"
    wide = make_pc(eps_max=0.2, eps_min=0.01, s_min=0.5, s_max=2.0, omega=0.1)  # alpha_lower 0.25
    cert = build_certificate(wide, 3, 2, 0.3, 0.2, 0.25, "incrementing", **met)
    assert cert.alpha_lower == 0.25 and cert.unmet.split(",")[0] == "alpha"
    # a single agent gossips nothing: no schedule or exchange condition
    assert unmet(n_agents=1, schedule_kind="constant", start_distance=0.0) == ""


@pytest.mark.parametrize("n_agents", [2, 3, 11, 12, 30, 120, 300, 1100])
def test_build_certificate_on_any_network_size(n_agents):
    # from 12 agents at eta = 0.3 / (I - 1), 1 - eta^L0 rounds to 1.0; past
    # ~120, eta^-L0 overflows and eta^L0 underflows. None of it may raise.
    xi = 0.25
    for eta in (1e-3, 0.3 / (n_agents - 1), 0.5):
        for schedule_kind in ("constant", "incrementing"):
            cert = certify(make_pc(), n_agents=n_agents, eta=eta, xi=xi,
                           schedule_kind=schedule_kind)
            if math.isinf(cert.ell_min):
                assert cert.conditional
                assert math.isinf(cert.D) and math.isinf(cert.lambda_infty)
                assert math.isnan(cert.kappa)
                continue
            assert schedule_kind == "incrementing" and not cert.conditional
            # the budget invariant of test_perturbation_bound_limits, with the
            # rate in log form; past 2^53 a float cannot tell ell - 1 from ell,
            # so there 4 D rate^(ell - 1) meets xi only to rounding
            log_rate = log_lambda_eta(eta, n_agents)
            assert 0.0 < cert.kappa <= cert.C1 * xi * math.exp(log_rate) * (1 + 1e-9)
            slack = 1e-12 if cert.ell_min > 2.0**53 else 0.0
            assert 4.0 * cert.D * math.exp((cert.ell_min - 1.0) * log_rate) > xi * (1 - slack)


def test_lambda_infty_keeps_its_digits_where_the_rate_rounds_to_1():
    # 11 agents at eta = 0.03: eta^10 ~ 5.9e-16, so 1/(1 - rate) is
    # L0 / eta^L0 up to a relative eta^L0 / 2
    cert = certify(make_pc(), n_agents=11, eta=0.03)
    assert cert.lambda_infty == pytest.approx(10 / 0.03**10, rel=1e-12)


def test_build_certificate_validates_xi():
    # a single agent plans no exchanges, so only build_certificate reads its xi
    for n_agents in (1, 3):
        with pytest.raises(InvalidArgumentError, match="xi"):
            build_certificate(
                make_pc(), n_agents=n_agents, n_unknowns=2, eta=0.3, alpha=0.9, xi=0.7,
                schedule_kind="incrementing",
            )


_INCREMENTING_PC = make_pc(eps_max=0.2, eps_min=0.01, s_min=1.5, s_max=2.0, omega=0.1)
_nan, _inf = math.nan, math.inf


@pytest.mark.parametrize(
    "args, want",
    [
        pytest.param(
            (make_pc(), 1, 3, 0.5, 1.0, 0.25, "incrementing"),
            ConvergenceCertificate(
                eta_observed=0.5, T1=0.5, T2=0.14142135623730953, rho_min=0.0,
                rho_max=1.7171572875253809, kappa=0.0, alpha_lower=0.0, C=_nan, C1=_nan,
                C2=_nan, D=_nan, lambda_eta_val=_nan, L0=0, ell_min=0.0, lambda_infty=_nan,
                xi=0.25, radii_defined=True, conditional=False, estimated_constants=True,
                holds=False, unmet="start",
            ),
            id="one_agent",
        ),
        pytest.param(
            (_INCREMENTING_PC, 3, 2, 0.3, 0.9, 0.25, "incrementing"),
            ConvergenceCertificate(
                eta_observed=0.3, T1=0.030000000000000002, T2=0.13389901875828253,
                rho_min=0.5709878892802472, rho_max=28.299044818777, kappa=0.5386137289906866,
                alpha_lower=0.0, C=784.3546831948105, C1=2.3555555555555556,
                C2=1.3333333333333333, D=29569.89943682588, lambda_eta_val=0.9539392014169457,
                L0=2, ell_min=278.0, lambda_infty=21.7104355712994, xi=0.25,
                radii_defined=True, conditional=False, estimated_constants=True, holds=False,
                unmet="exchanges,start",
            ),
            id="incrementing_radii_defined",
        ),
        pytest.param(
            (_INCREMENTING_PC, 3, 2, 0.3, 0.9, 0.25, "constant"),
            ConvergenceCertificate(
                eta_observed=0.3, T1=0.030000000000000002, T2=0.13389901875828253,
                rho_min=_nan, rho_max=_nan, kappa=_nan, alpha_lower=0.0, C=784.3546831948105,
                C1=2.3555555555555556, C2=1.3333333333333333, D=_inf,
                lambda_eta_val=0.9539392014169457, L0=2, ell_min=_inf, lambda_infty=_inf,
                xi=0.25, radii_defined=False, conditional=True, estimated_constants=True,
                holds=False, unmet="radii,schedule,exchanges,start",
            ),
            id="constant_conditional",
        ),
        pytest.param(
            (make_pc(eps_min=0.0, s_max=6.0, omega=10.0), 3, 2, 0.3, 1.0, 0.25, "incrementing"),
            ConvergenceCertificate(
                eta_observed=0.3, T1=5.0, T2=0.0, rho_min=_nan, rho_max=_nan,
                kappa=3.2121815952965886, alpha_lower=0.5, C=7090.341520779838, C1=14.0,
                C2=3.0, D=2327509440.8374057, lambda_eta_val=0.9539392014169457, L0=2,
                ell_min=517.0, lambda_infty=21.7104355712994, xi=0.25, radii_defined=False,
                conditional=False, estimated_constants=True, holds=False,
                unmet="radii,exchanges,start",
            ),
            id="negative_discriminant",
        ),
    ],
)
def test_build_certificate_golden(args, want):
    # repr literals of every field; the arithmetic is pure-Python floats, so
    # they hold exactly on any platform
    got = build_certificate(*args)
    for field in dataclasses.fields(ConvergenceCertificate):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g == w or (math.isnan(g) and math.isnan(w)), (field.name, g, w)


@pytest.mark.parametrize(
    "pc, overrides, message",
    [
        (make_pc(s_min=0.0), {}, "sigma_min"),
        (make_pc(), {"alpha": 0.0}, "alpha"),
        (make_pc(), {"n_agents": 0}, "n_agents"),
    ],
    ids=["sigma_min", "alpha", "n_agents"],
)
def test_build_certificate_validates_its_inputs(pc, overrides, message):
    with pytest.raises(InvalidArgumentError, match=message):
        certify(pc, **overrides)
