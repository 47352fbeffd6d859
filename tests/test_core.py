import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipgn.core import (
    COND_CAP,
    BoxSet,
    SiteModel,
    _nonzeros,
    _spectral_bounds,
    agent_systems,
    centralized_gn_solve,
    estimate_constants,
    finite_diff_jacobian,
    normal_system,
    project,
    site_terms,
    solve_normal,
    stationarity_residual,
)
from gossipgn.errors import InvalidArgumentError, SingularSystemError
from gossipgn.psse.grid import make_box, state_to_vector
from gossipgn.psse.measurements import (
    build_nlls_sites,
    partition_sites,
    streaming_snapshots,
)

from conftest import make_toy_sites


def test_project_clamps_to_box():
    box = BoxSet(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(project(np.array([2.0, -3.0]), box), [1.0, -1.0])


def test_project_identity_inside():
    box = BoxSet.cube(4, 2.0)
    x = np.array([0.5, -1.9, 0.0, 2.0])
    assert np.array_equal(project(x, box), x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3).map(np.array),
       st.lists(st.floats(-50, 50), min_size=3, max_size=3).map(np.array))
def test_project_idempotent_and_nonexpansive(x, y):
    box = BoxSet.cube(3, 5.0)
    px, py = project(x, box), project(y, box)
    assert np.array_equal(project(px, box), px)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_box_validation():
    with pytest.raises(InvalidArgumentError):
        BoxSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(InvalidArgumentError):
        BoxSet(np.array([np.inf]), np.array([np.inf]))
    with pytest.raises(InvalidArgumentError):
        BoxSet(np.array([0.0, 0.0]), np.array([1.0]))


def test_normal_system_matches_manual_assembly(toy_sites):
    x = np.array([0.3, -0.2, 0.5])
    a, b = normal_system(toy_sites, x)
    a_ref = np.zeros((3, 3))
    b_ref = np.zeros(3)
    for s in toy_sites:
        j = s.eval_jacobian(x)
        r = s.eval_residual(x)
        a_ref += j.T @ j
        b_ref += j.T @ r
    assert np.allclose(a, a_ref, atol=1e-14)
    assert np.allclose(b, b_ref, atol=1e-14)
    assert np.allclose(a, a.T, atol=1e-14)


def _loop_normal_system(sites, x):
    """The per-site accumulation that normal_system's grouped products must equal bit for bit."""
    a = np.zeros((x.size, x.size))
    b = np.zeros(x.size)
    for site in sites:
        res, jac = site_terms(site, x)
        a += jac.T @ jac
        b += jac.T @ res
    return a, b


def _assert_bit_identical(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _uneven_sites(row_counts, n_unknowns=4, seed=3):
    """Toy sites like make_toy_sites, with the given residual sizes."""
    rng = np.random.default_rng(seed)
    sites = []
    for i, m in enumerate(row_counts):
        a = rng.normal(size=(m, n_unknowns))
        b = rng.normal(size=m)
        sites.append(SiteModel(
            site_id=i, n_unknowns=n_unknowns, residual_dim=m,
            eval_residual=lambda x, a=a, b=b: a @ x - b + 0.1 * np.sin(a @ x),
            eval_jacobian=lambda x, a=a: a + 0.1 * np.cos(a @ x)[:, None] * a,
        ))
    return sites


def _psse_points(grid, n_points, seed):
    """Random box points; every third has some magnitudes at the V = 0 edge, the last
    all angles at the upper edge."""
    box = make_box(grid.n_buses)
    rng = np.random.default_rng(seed)
    points = rng.uniform(box.lower, box.upper, size=(n_points, box.dim))
    for x in points[::3]:
        x[grid.n_buses - 1 + rng.choice(grid.n_buses, size=4, replace=False)] = 0.0
    points[-1, : grid.n_buses - 1] = box.upper[: grid.n_buses - 1]
    return points


def _psse_sites(grid, true_state, n_sites, seed):
    z = streaming_snapshots(grid, true_state, 1e-4, 1, seed)[0]
    return build_nlls_sites(grid, partition_sites(grid, n_sites), z)


@pytest.mark.parametrize("n_sites", [1, 3, 7, 30])
def test_grouped_normal_system_bit_identical_on_psse_sites(grid30, true30, n_sites):
    sites = _psse_sites(grid30, true30, n_sites, n_sites)
    assert all(site.batch is sites[0].batch for site in sites)
    points = _psse_points(grid30, 12, n_sites)
    # all calls first: a result must not alias another call's
    results = [normal_system(sites, x) for x in points]
    for x, got in zip(points, results):
        _assert_bit_identical(got, _loop_normal_system(sites, x))


def test_grouped_normal_system_bit_identical_on_reordered_psse_sites(grid30, true30):
    sites = _psse_sites(grid30, true30, 7, 2)
    for x in _psse_points(grid30, 4, 11):
        for subset in (sites[::-1], sites[1:], sites[2:5], [sites[3], sites[0]]):
            _assert_bit_identical(normal_system(subset, x), _loop_normal_system(subset, x))


def test_grouped_normal_system_reads_the_batch_not_the_closures(grid30, true30):
    # perfbench wraps each site's closures through dataclasses.replace; the
    # batch field must survive that and serve the whole list by itself
    sites = _psse_sites(grid30, true30, 30, 4)

    def never(x):
        raise AssertionError("site closure called")

    wrapped = [replace(site, eval_residual=never, eval_jacobian=never) for site in sites]
    x = _psse_points(grid30, 1, 5)[0]
    _assert_bit_identical(normal_system(wrapped, x), _loop_normal_system(sites, x))


@pytest.mark.parametrize("row_counts", [[2, 5, 3, 5, 2, 7], [1], [6, 6, 6], [4, 1, 9]])
def test_grouped_normal_system_bit_identical_on_uneven_toy_sites(row_counts):
    sites = _uneven_sites(row_counts)
    rng = np.random.default_rng(len(row_counts))
    for x in rng.normal(size=(6, 4)):
        for subset in (sites, sites[::-1], sites[1:] or sites):
            _assert_bit_identical(normal_system(subset, x), _loop_normal_system(subset, x))


def test_agent_systems_equal_normal_system_at_each_iterate(grid30, true30):
    # batch sites and toy sites without a batch, each at distinct iterates,
    # at runs of repeated iterates and at one shared start
    calls = []
    for sites, xs in (
        (_psse_sites(grid30, true30, 7, 6), _psse_points(grid30, 7, 6)),
        (_uneven_sites([2, 5, 3, 5, 2, 7]), np.random.default_rng(6).normal(size=(6, 4))),
    ):
        repeated = xs[[0, 1, 1, 1, 4, 4, 0][: len(xs)]]
        for stack in (xs, repeated, np.tile(xs[0], (len(xs), 1))):
            calls.append((sites, stack, agent_systems(sites, stack)))
    # all calls first: a result must not alias another call's
    for sites, xs, (a, b, *_) in calls:
        for i, x in enumerate(xs):
            _assert_bit_identical((a[i], b[i]), normal_system(sites, x))
    results = [arr for _, _, result in calls for arr in result]
    assert not any(np.shares_memory(p, q) for p, q in itertools.combinations(results, 2))


def test_solve_normal_rejects_singular():
    with pytest.raises(SingularSystemError):
        solve_normal(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(SingularSystemError):
        solve_normal(np.diag([1.0, 1e-15]), np.ones(2))


def test_solve_normal_rejects_non_finite():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    with pytest.raises(SingularSystemError, match="^ctx: .*not finite"):
        solve_normal(a, np.array([np.nan, 1.0]), context="ctx")
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_normal(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    stack = np.stack([a, a, a])
    stack[2, 0, 1] = np.nan
    with pytest.raises(SingularSystemError, match="^ctx 2: .*not finite"):
        solve_normal(stack, np.ones((3, 2)), context="ctx")


def test_solve_normal_stack_error_names_the_system():
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-15]), np.eye(2)])
    with pytest.raises(SingularSystemError, match="^ctx 1: .*condition number"):
        solve_normal(stack, np.ones((3, 2)), context="ctx")


def test_solve_normal_batched_equals_per_matrix_calls():
    rng = np.random.default_rng(4)
    for n, count in ((59, 30), (3, 7), (1, 4)):
        stack = np.stack([(lambda j: j.T @ j)(rng.normal(size=(n + 2, n))) for _ in range(count)])
        rhs = rng.normal(size=(count, n))
        batched = solve_normal(stack, rhs)
        assert batched.shape == (count, n)
        assert np.array_equal(batched, np.stack([solve_normal(a, b) for a, b in zip(stack, rhs)]))
        assert np.array_equal(batched[0], np.linalg.solve(stack[0], rhs[0]))


ORACLE_EIGVALSH = np.linalg.eigvalsh


def _oracle_accepts(a: np.ndarray) -> bool:
    """Oracle: the spectrum check solve_normal made before its Cholesky certificate,
    plus the finiteness check it makes now."""
    if not np.isfinite(a).all():
        return False
    eigvals = ORACLE_EIGVALSH((a + a.T) / 2.0)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return not (hi <= 0.0 or lo <= 0.0 or hi / lo > COND_CAP)


def _decide(a: np.ndarray) -> tuple[bool, bool]:
    """(accepted, certified): solve_normal's decision, and whether it reached it
    without a spectrum."""
    spectra = []

    def spying(m):
        spectra.append(m)
        return ORACLE_EIGVALSH(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", spying)
        try:
            solve_normal(a, np.ones(a.shape[0]))
        except SingularSystemError:
            return False, not spectra
    return True, not spectra


@st.composite
def normal_matrices(draw):
    """Symmetric matrices with prescribed spectra, conditions 1 to 1e14 and
    many within 10x of COND_CAP, plus zero, indefinite and non-finite ones."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 30, 59]))
    kind = draw(st.sampled_from(["spd", "spd", "spd", "zero", "indefinite", "non-finite"]))
    if kind == "zero":
        return np.zeros((n, n))
    log_cond = draw(st.one_of(st.floats(0.0, 14.0), st.floats(11.0, 13.0)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # exponents in [0, 1], both ends present when n > 1, fix the condition
    exps = np.concatenate([[0.0, 1.0], rng.uniform(size=max(n - 2, 0))])[:n]
    spectrum = scale * 10.0 ** (-log_cond * exps)
    if kind == "indefinite":
        spectrum[rng.integers(n)] *= -1.0
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * spectrum) @ q.T
    if kind == "non-finite":
        a[rng.integers(n), rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


@settings(max_examples=400, deadline=None)
@given(normal_matrices())
def test_cholesky_certificate_agrees_with_eigvalsh_oracle(a):
    assert _decide(a)[0] == _oracle_accepts(a)


def test_cholesky_certificate_decides_well_conditioned_systems_alone():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    for log_cond, certified in ((0.0, True), (10.0, True), (11.8, False), (13.0, False)):
        a = (q * np.logspace(0.0, -log_cond, 5)) @ q.T
        assert _decide(a) == (log_cond < 12.0, certified)


def test_solve_normal_solves():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    d = solve_normal(a, b)
    assert np.allclose(a @ d, b, atol=1e-12)


def test_exact_descent_is_newton_direction(toy_sites):
    # the normal system's solution is the least-squares step of the stacked linearization
    x = np.array([0.1, 0.0, -0.4])
    d = solve_normal(*normal_system(toy_sites, x))
    res, jac = (np.concatenate(parts) for parts in zip(*(site_terms(s, x) for s in toy_sites)))
    assert np.allclose(d, np.linalg.lstsq(jac, res, rcond=None)[0], atol=1e-10)


def test_centralized_step_respects_box(toy_sites):
    tight = BoxSet.cube(3, 0.05)
    x = np.zeros(3)
    x1, _ = centralized_gn_solve(toy_sites, tight, x, alpha=1.0, tol=1e-12, max_iter=1)
    assert tight.contains(x1)
    assert np.array_equal(x1, project(x - solve_normal(*normal_system(toy_sites, x)), tight))
    assert not np.array_equal(x1, x - solve_normal(*normal_system(toy_sites, x)))
    with pytest.raises(InvalidArgumentError):
        centralized_gn_solve(toy_sites, tight, x, alpha=0.0)
    with pytest.raises(InvalidArgumentError):
        centralized_gn_solve(toy_sites, tight, x, alpha=1.5)


def test_centralized_solve_reaches_stationarity(toy_sites, toy_box):
    x, stationarity = centralized_gn_solve(toy_sites, toy_box, np.zeros(3), alpha=1.0, tol=1e-12)
    assert stationarity <= 1e-12
    assert stationarity == stationarity_residual(toy_sites, x)


def test_finite_diff_matches_analytic(toy_sites):
    x = np.array([0.2, -0.7, 0.33])
    for s in toy_sites:
        fd = finite_diff_jacobian(s, x, h=1e-6)
        an = s.eval_jacobian(x)
        assert np.max(np.abs(fd - an)) <= 1e-7 * max(1.0, np.max(np.abs(an)))
    with pytest.raises(InvalidArgumentError):
        finite_diff_jacobian(toy_sites[0], x, h=0.0)


def test_state_length_checked(toy_sites):
    with pytest.raises(InvalidArgumentError):
        normal_system(toy_sites, np.zeros(5))
    with pytest.raises(InvalidArgumentError):
        normal_system([], np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        agent_systems(toy_sites, np.zeros((3, 5)))
    with pytest.raises(InvalidArgumentError):
        agent_systems(toy_sites, np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        agent_systems([], np.zeros((0, 3)))


def test_estimate_constants_basic(toy_sites, toy_box):
    pc = estimate_constants(toy_sites, toy_box, n_samples=12, rng_seed=1)
    assert pc.epsilon_max >= pc.epsilon_min >= 0.0
    assert pc.sigma_max >= pc.sigma_min > 0.0
    assert pc.omega > 0.0
    # analytic lower-bound wiring for the mismatch slopes
    assert pc.nu_delta == pytest.approx(pc.omega * (pc.epsilon_max + pc.sigma_max))
    assert pc.nu_Delta == pytest.approx(2.0 * pc.sigma_max * pc.omega)
    assert pc.assumption_holds()


def test_estimate_constants_reference_point(toy_sites, toy_box):
    x_star, _ = centralized_gn_solve(toy_sites, toy_box, np.zeros(3), tol=1e-12)
    pc = estimate_constants(
        toy_sites, toy_box, n_samples=8, rng_seed=2, reference_x=x_star
    )
    ref_norm = np.sqrt(
        sum(float(np.sum(np.asarray(s.eval_residual(x_star)) ** 2)) for s in toy_sites)
    )
    assert pc.epsilon_min == pytest.approx(ref_norm, rel=1e-12)


def test_estimate_constants_flags_rank_deficiency(toy_box):
    # one site, fewer residual rows than unknowns: G cannot have full column rank
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3))
    site = make_toy_sites(n_unknowns=3, n_sites=1)[0]
    thin = type(site)(
        site_id=0, n_unknowns=3, residual_dim=2,
        eval_residual=lambda x: a @ x, eval_jacobian=lambda x: a,
    )
    with pytest.warns(UserWarning):
        pc = estimate_constants([thin], toy_box, n_samples=4, rng_seed=0)
    assert pc.rank_deficient_sample
    assert pc.sigma_min == 0.0
    assert not pc.assumption_holds()


def test_estimate_constants_omega_majorizes_observed_pairs(toy_sites, toy_box):
    pc = estimate_constants(toy_sites, toy_box, n_samples=10, rng_seed=4)
    rng = np.random.default_rng(5)
    xs = rng.uniform(toy_box.lower, toy_box.upper, size=(6, 3))
    stacked = [np.vstack([s.eval_jacobian(x) for s in toy_sites]) for x in xs]
    # omega was fitted on a richer sample of the same box; fresh in-box pairs
    # should rarely exceed it, and never wildly
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            denom = np.linalg.norm(xs[i] - xs[j])
            if denom == 0:
                continue
            slope = np.linalg.norm(stacked[i] - stacked[j], 2) / denom
            assert slope <= 3.0 * pc.omega


def brute_force_omega(sites, points):
    """Lipschitz oracle: one spectral norm for every pair of points."""
    jacobians = [
        np.vstack([np.asarray(s.eval_jacobian(x), dtype=float) for s in sites]) for x in points
    ]
    omega = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = float(np.linalg.norm(points[i] - points[j]))
            if dx == 0.0:
                continue
            dj = float(np.linalg.norm(jacobians[i] - jacobians[j], 2))
            omega = max(omega, dj / dx)
    return omega


def sample_points(box, n_samples, rng_seed, extra_points=()):
    rng = np.random.default_rng(rng_seed)
    return list(rng.uniform(box.lower, box.upper, size=(n_samples, box.dim))) + list(extra_points)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_estimate_constants_omega_equals_brute_force_on_toy(toy_sites, toy_box, seed):
    pc = estimate_constants(toy_sites, toy_box, n_samples=20, rng_seed=seed)
    assert pc.omega == brute_force_omega(toy_sites, sample_points(toy_box, 20, seed))


def test_estimate_constants_omega_of_a_linear_site_needs_no_pairwise_norm(toy_box):
    # a constant Jacobian bounds every pair by 0 = omega, so the sweep stops
    # at once; a visited pair would evaluate two Jacobians again
    a = np.random.default_rng(2).normal(size=(4, 3))
    calls = []

    def jacobian(x):
        calls.append(x)
        return a

    linear = SiteModel(
        site_id=0, n_unknowns=3, residual_dim=4,
        eval_residual=lambda x: a @ x, eval_jacobian=jacobian,
    )
    pc = estimate_constants([linear], toy_box, n_samples=50, rng_seed=6)
    assert len(calls) == 50
    assert pc.omega == brute_force_omega([linear], sample_points(toy_box, 50, 6)) == 0.0


def test_estimate_constants_evaluates_each_visited_point_once(toy_sites, toy_box, monkeypatch):
    # on this seed the sweep visits three pairs over five distinct points
    from gossipgn import core

    calls = []

    def stacked_jacobian(sites, x):
        calls.append(x.tobytes())
        return stacked(sites, x)

    stacked = core._stacked_jacobian
    monkeypatch.setattr(core, "_stacked_jacobian", stacked_jacobian)
    pc = estimate_constants(toy_sites, toy_box, n_samples=20, rng_seed=0)
    assert len(calls) == len(set(calls)) == 5
    assert pc.omega == brute_force_omega(toy_sites, sample_points(toy_box, 20, 0))


def test_estimate_constants_omega_equals_brute_force_on_case30(grid30, true30):
    sites = _psse_sites(grid30, true30, 3, 0)
    n, slack = grid30.n_buses, grid30.slack_bus
    box = make_box(n)
    degree = np.bincount(np.concatenate([grid30.branches.f, grid30.branches.t]), minlength=n)
    leaf = next(k for k in range(n) if degree[k] == 1 and k != slack)

    def leaf_only(theta_leaf):
        # only the leaf bus is energized, so the Jacobian depends on the
        # leaf angle through its neighbour's magnitude column alone
        x = np.zeros(2 * n - 1)
        x[n - 1 + leaf] = 6.0
        x[leaf - (leaf > slack)] = theta_leaf
        return x

    x_ref = state_to_vector(true30, slack)
    tight_a, tight_b = leaf_only(0.0), leaf_only(0.7)

    def stacked_jacobian(x):
        return np.vstack([s.eval_jacobian(x) for s in sites])

    diff = stacked_jacobian(tight_a) - stacked_jacobian(tight_b)
    assert np.linalg.matrix_rank(diff) == 1
    tight_ratio = float(np.linalg.norm(diff, 2)) / float(np.linalg.norm(tight_a - tight_b))

    extra = [x_ref, x_ref.copy(), tight_a, tight_b]
    with pytest.warns(UserWarning, match="rank deficient"):
        pc = estimate_constants(sites, box, n_samples=10, rng_seed=3, extra_points=extra)
    oracle = brute_force_omega(sites, sample_points(box, 10, 3, extra))
    assert pc.omega == oracle
    # the rank-one pair, where the pruning bound is tight, sets omega
    assert oracle == tight_ratio


_entries = st.integers(-10**6, 10**6).map(lambda k: k / 1000.0)


def pair_bound(a, b):
    """_spectral_bounds of the one pair (a, b), the matrices compressed as
    estimate_constants compresses its sample Jacobians."""
    bounds = _spectral_bounds([_nonzeros(a), _nonzeros(b)], a.shape[1], np.array([0]), np.array([1]))
    return float(bounds[0])


def spectral_bound_holds(a, b):
    return np.linalg.norm(a - b, 2) <= pair_bound(a, b) * (1.0 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 12)), elements=_entries))
def test_spectral_bound_majorizes_norm(d):
    assert spectral_bound_holds(d, np.zeros_like(d))


@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, st.integers(1, 30), elements=_entries),
       arrays(np.float64, st.integers(1, 12), elements=_entries))
def test_spectral_bound_majorizes_norm_rank_one(u, v):
    d = np.outer(u, v)
    assert spectral_bound_holds(d, np.zeros_like(d))


_sparse_entries = st.one_of(st.sampled_from([0.0, -0.0]), _entries)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 30), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(*[arrays(np.float64, shape, elements=_sparse_entries)] * 2)
))
def test_spectral_bound_majorizes_norm_of_a_difference(pair):
    # two patterns drawn independently, with -0.0 among their zeros
    a, b = pair
    assert spectral_bound_holds(a, b)


def test_spectral_bounds_equal_the_dense_bound_over_many_chunks():
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(40, 9, 5)) * (rng.random(size=(40, 9, 5)) < 0.3)
    pair_i, pair_j = np.triu_indices(len(mats), k=1)
    bounds = _spectral_bounds([_nonzeros(m) for m in mats], 5, pair_i, pair_j)
    for bound, i, j in zip(bounds, pair_i, pair_j):
        d = mats[i] - mats[j]
        assert bound == pytest.approx(np.sqrt(np.linalg.norm(d.T @ d)), rel=1e-14, abs=0.0)


def test_spectral_bound_on_signed_zeros_and_zero_differences():
    a = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 0.0]])
    # -0.0 is no nonzero: a matrix of them bounds like the zero matrix
    signed = np.where(a == 0.0, -0.0, a)
    assert pair_bound(signed, np.zeros_like(a)) == pair_bound(a, np.zeros_like(a))
    # an all-zero D, from equal matrices or from no nonzeros at all
    assert pair_bound(a, a.copy()) == 0.0
    assert pair_bound(signed, a) == 0.0
    assert pair_bound(np.zeros((2, 3)), np.full((2, 3), -0.0)) == 0.0
