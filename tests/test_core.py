import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipgn.core import (
    COINCIDENT_DISTANCE,
    COND_CAP,
    MODEL_SLICE,
    BoxSet,
    _add_nonzeros,
    _spectral_bounds,
    _stacked_jacobian,
    build_sites,
    centralized_gn_solve,
    estimate_constants,
    evaluate,
    normal_system,
    objective,
    project,
    site_terms,
    solve_normal,
    stationarity_residual,
)
from gossipgn.errors import InvalidArgumentError, SingularSystemError
from gossipgn.ggn import ExchangeSchedule, GgnConfig, ggn_run, local_init_info
from gossipgn.gossip import GossipConfig
from gossipgn.psse.grid import flat_start_vector, make_box
from gossipgn.psse.measurements import (
    build_nlls_sites,
    partition_sites,
    streaming_snapshots,
)

from conftest import (
    evaluated,
    finite_diff_jacobian,
    over_model,
    recording_model,
    sites_from_blocks,
    state_to_vector,
    terms_at,
)


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
    a, b = normal_system(toy_sites, *evaluated(toy_sites[0], x))
    a_ref = np.zeros((3, 3))
    b_ref = np.zeros(3)
    for s in toy_sites:
        r, j = terms_at(s, x)
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
        res, jac = terms_at(site, x)
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
    residuals, jacobians = [], []
    for m in row_counts:
        a = rng.normal(size=(m, n_unknowns))
        b = rng.normal(size=m)
        residuals.append(lambda x, a=a, b=b: a @ x - b + 0.1 * np.sin(a @ x))
        jacobians.append(lambda x, a=a: a + 0.1 * np.cos(a @ x)[:, None] * a)
    return sites_from_blocks(n_unknowns, residuals, jacobians)


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
    results = [normal_system(sites, *evaluated(sites[0], x)) for x in points]
    for x, got in zip(points, results):
        _assert_bit_identical(got, _loop_normal_system(sites, x))


def test_a_list_that_is_not_one_whole_site_list_is_rejected(grid30, true30):
    # a reordering, subsets, a mix of two lists over one model, and no sites
    sites, other = _psse_sites(grid30, true30, 7, 2), _psse_sites(grid30, true30, 7, 2)
    x = _psse_points(grid30, 1, 11)[0]
    f, jac = evaluated(sites[0], x)
    for bad in (sites[::-1], sites[1:], sites[2:5], [sites[3], sites[0]], sites[:3] + other[3:], []):
        with pytest.raises(InvalidArgumentError, match="whole site list"):
            normal_system(bad, f, jac)
        with pytest.raises(InvalidArgumentError, match="whole site list"):
            list(evaluate(bad, np.tile(x, (max(len(bad), 1), 1))))


def test_grouped_normal_system_reads_the_batch_not_the_closures(grid30, true30):
    # perfbench wraps each site's closures through dataclasses.replace; the
    # batch field must survive that and serve the whole list by itself
    sites = _psse_sites(grid30, true30, 30, 4)

    def never(x):
        raise AssertionError("site closure called")

    wrapped = [replace(site, eval_residual=never, eval_jacobian=never) for site in sites]
    x = _psse_points(grid30, 1, 5)[0]
    _assert_bit_identical(normal_system(wrapped, *evaluated(sites[0], x)), _loop_normal_system(sites, x))


@pytest.mark.parametrize("row_counts", [[2, 5, 3, 5, 2, 7], [1], [6, 6, 6], [4, 1, 9]])
def test_grouped_normal_system_bit_identical_on_uneven_toy_sites(row_counts):
    sites = _uneven_sites(row_counts)
    rng = np.random.default_rng(len(row_counts))
    for x in rng.normal(size=(6, 4)):
        _assert_bit_identical(normal_system(sites, *evaluated(sites[0], x)), _loop_normal_system(sites, x))


def test_evaluate_makes_one_model_call_per_run():
    # an elementwise model, so a stacked call gives each row's single-state bits
    rng = np.random.default_rng(9)
    cols, w, z = np.array([0, 2, 1, 0, 2]), rng.normal(size=5), rng.normal(size=5)
    site_rows = [np.array([0, 3]), np.array([4, 1, 2])]

    def model(x):
        return w * np.sin(x[..., cols]), (w * np.cos(x[..., cols]))[..., None] * np.eye(3)[cols]

    calls = []
    sites = recording_model(build_sites(model, 3, site_rows, z), calls)
    d = rng.normal(size=(5, 3))
    d[0, 1] = 0.0
    signed = d[0].copy()
    signed[1] = -0.0  # equal to d[0] in value, not in bytes
    xs = np.stack([d[0], d[1], d[0], signed, d[2], d[3], d[3], d[4]])
    rows = list(evaluate(sites, xs))
    # runs of at most MODEL_SLICE distinct rows, each evaluated in one call
    assert MODEL_SLICE == 3
    assert [c.tobytes() for c in calls] == [
        np.stack([d[0], d[1], signed]).tobytes(), np.stack([d[2], d[3], d[4]]).tobytes()
    ]
    assert [i for i, _, _ in rows] == list(range(len(xs)))
    for i, f, jac in rows:
        _assert_bit_identical((f, jac), model(xs[i]))
        for site, rows_i in zip(sites, site_rows):
            _assert_bit_identical(site_terms(site, f, jac), (z[rows_i] - f[rows_i], -jac[rows_i]))


def test_site_terms_and_sums_never_call_the_model(toy_sites):
    # after the one evaluation, every per-site quantity is read from its arrays
    model, calls = toy_sites[0].batch.model, []

    def once(x):
        if calls:
            raise AssertionError("model called again")
        calls.append(x)
        return model(x)

    sites = over_model(toy_sites, once)
    x = np.array([0.3, -0.2, 0.5])
    ((_, f, jac),) = evaluate(sites, x[None])
    want_f, want_jac = model(x)
    for site, fresh in zip(sites, toy_sites):
        _assert_bit_identical(site_terms(site, f, jac), site_terms(fresh, want_f, want_jac))
        (row, val), (want_row, want_val) = (
            local_init_info(site, f, jac), local_init_info(fresh, want_f, want_jac)
        )
        _assert_bit_identical([row], [want_row])
        assert val == want_val
    assert objective(sites, f) == objective(toy_sites, want_f)
    _assert_bit_identical(normal_system(sites, f, jac), normal_system(toy_sites, want_f, want_jac))
    _assert_bit_identical([_stacked_jacobian(sites, jac)], [_stacked_jacobian(toy_sites, want_jac)])


def test_evaluate_yields_read_only_arrays(toy_sites):
    xs = np.random.default_rng(3).normal(size=(5, 3))
    xs[3] = xs[1]
    for _, f, jac in evaluate(toy_sites, xs):
        for arr in (f, jac):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


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
    # each system is certified on its own: the first, a middle and the last
    # of 30 is named, and a (3, 2) stack of stacks names both indices
    for singular in (0, 15, 29):
        stack = np.tile(np.eye(2), (30, 1, 1))
        stack[singular] = np.diag([1.0, 1e-15])
        with pytest.raises(SingularSystemError, match=f"^ctx {singular}: .*condition number"):
            solve_normal(stack, np.ones((30, 2)), context="ctx")
    stack = np.tile(np.eye(2), (3, 2, 1, 1))
    stack[2, 1] = np.diag([1.0, 1e-15])
    with pytest.raises(SingularSystemError, match="^ctx 2,1: .*condition number"):
        solve_normal(stack, np.ones((3, 2, 2)), context="ctx")


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
    d = solve_normal(*normal_system(toy_sites, *evaluated(toy_sites[0], x)))
    res, jac = (np.concatenate(parts) for parts in zip(*(terms_at(s, x) for s in toy_sites)))
    assert np.allclose(d, np.linalg.lstsq(jac, res, rcond=None)[0], atol=1e-10)


def test_centralized_step_respects_box(toy_sites):
    tight = BoxSet.cube(3, 0.05)
    x = np.zeros(3)
    x1, _ = centralized_gn_solve(toy_sites, tight, x, alpha=1.0, tol=1e-12, max_iter=1)
    assert tight.contains(x1)
    step = solve_normal(*normal_system(toy_sites, *evaluated(toy_sites[0], x)))
    assert np.array_equal(x1, project(x - step, tight))
    assert not np.array_equal(x1, x - step)
    with pytest.raises(InvalidArgumentError):
        centralized_gn_solve(toy_sites, tight, x, alpha=0.0)
    with pytest.raises(InvalidArgumentError):
        centralized_gn_solve(toy_sites, tight, x, alpha=1.5)


def test_centralized_solve_reaches_stationarity(toy_sites, toy_box):
    x, stationarity = centralized_gn_solve(toy_sites, toy_box, np.zeros(3), alpha=1.0, tol=1e-12)
    assert stationarity <= 1e-12
    assert stationarity == stationarity_residual(toy_sites, x)


@pytest.mark.parametrize("compensated", [False, True], ids=["builtin", "fsum"])
def test_objective_adds_left_to_right(monkeypatch, compensated):
    # the squared residuals 1e16, 1 and 1: a left fold rounds each 1 away,
    # a compensated sum (builtin sum from Python 3.12 on, math.fsum) keeps them
    if compensated:
        from gossipgn import core

        monkeypatch.setattr(core, "sum", math.fsum, raising=False)
    sites = sites_from_blocks(
        1, [lambda x, r=r: np.array([r]) for r in [1e8, 1.0, 1.0]], [lambda x: np.ones((1, 1))] * 3
    )
    assert objective(sites, evaluated(sites[0], np.zeros(1))[0]) == 1e16


def test_finite_diff_matches_analytic(toy_sites):
    x = np.array([0.2, -0.7, 0.33])
    for s in toy_sites:
        fd = finite_diff_jacobian(s, x, h=1e-6)
        an = terms_at(s, x)[1]
        assert np.max(np.abs(fd - an)) <= 1e-7 * max(1.0, np.max(np.abs(an)))
    with pytest.raises(InvalidArgumentError):
        finite_diff_jacobian(toy_sites[0], x, h=0.0)


def test_state_length_checked(toy_sites):
    # evaluate takes a nonempty stack of states of the problem's length
    for bad in (np.zeros((1, 5)), np.zeros(3), np.zeros((0, 3)), np.zeros((1, 1, 3))):
        with pytest.raises(InvalidArgumentError, match="stack of states"):
            list(evaluate(toy_sites, bad))
    with pytest.raises(InvalidArgumentError):
        stationarity_residual(toy_sites, np.zeros(5))
    with pytest.raises(InvalidArgumentError):
        normal_system([], *evaluated(toy_sites[0], np.zeros(3)))


def test_estimate_constants_basic(toy_sites, toy_box):
    pc = estimate_constants(toy_sites, toy_box, n_samples=12, rng_seed=1)
    assert pc.epsilon_max >= pc.epsilon_min >= 0.0
    assert pc.sigma_max >= pc.sigma_min > 0.0
    assert pc.omega > 0.0
    # analytic lower-bound wiring for the mismatch slopes
    assert pc.nu_delta == pytest.approx(pc.omega * (pc.epsilon_max + pc.sigma_max))
    assert pc.nu_Delta == pytest.approx(2.0 * pc.sigma_max * pc.omega)
    assert pc.assumption_holds()
    with pytest.raises(InvalidArgumentError, match="at least 2 samples"):
        estimate_constants(toy_sites, toy_box, n_samples=1, rng_seed=1)


def test_estimate_constants_reference_point(toy_sites, toy_box):
    x_star, _ = centralized_gn_solve(toy_sites, toy_box, np.zeros(3), tol=1e-12)
    pc = estimate_constants(
        toy_sites, toy_box, n_samples=8, rng_seed=2, reference_x=x_star
    )
    ref_norm = np.sqrt(
        sum(float(np.sum(terms_at(s, x_star)[0] ** 2)) for s in toy_sites)
    )
    assert pc.epsilon_min == pytest.approx(ref_norm, rel=1e-12)


def test_estimate_constants_flags_rank_deficiency(toy_box):
    # one site, fewer residual rows than unknowns: G cannot have full column rank
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3))
    thin = sites_from_blocks(3, [lambda x: a @ x], [lambda x: a])
    pc = estimate_constants(thin, toy_box, n_samples=4, rng_seed=0)
    assert pc.rank_deficient_sample
    assert pc.sigma_min == 0.0
    assert not pc.assumption_holds()


def test_estimate_constants_omega_majorizes_observed_pairs(toy_sites, toy_box):
    pc = estimate_constants(toy_sites, toy_box, n_samples=10, rng_seed=4)
    rng = np.random.default_rng(5)
    xs = rng.uniform(toy_box.lower, toy_box.upper, size=(6, 3))
    stacked = [np.vstack([terms_at(s, x)[1] for s in toy_sites]) for x in xs]
    # omega was fitted on a richer sample of the same box; fresh in-box pairs
    # should rarely exceed it, and never wildly
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            denom = np.linalg.norm(xs[i] - xs[j])
            if denom == 0:
                continue
            slope = np.linalg.norm(stacked[i] - stacked[j], 2) / denom
            assert slope <= 3.0 * pc.omega


def brute_force_omega(sites, points, coincident=COINCIDENT_DISTANCE):
    """Lipschitz oracle: one spectral norm for every pair of points, after
    dropping each point within `coincident` of an earlier one, relative to
    the larger norm, as estimate_constants does; coincident=0 drops only
    exact repeats."""
    norm = np.linalg.norm
    points = [
        x for k, x in enumerate(points)
        if all(norm(x - y) > coincident * max(norm(x), norm(y)) for y in points[:k])
    ]
    jacobians = [np.vstack([terms_at(s, x)[1] for s in sites]) for x in points]
    omega = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = float(norm(points[i] - points[j]))
            dj = float(norm(jacobians[i] - jacobians[j], 2))
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
    # at once and takes no pairwise norm
    a = np.random.default_rng(2).normal(size=(4, 3))
    calls = []

    def jacobian(x):
        calls.append(x)
        return a

    linear = sites_from_blocks(3, [lambda x: a @ x], [jacobian])
    pc = estimate_constants(linear, toy_box, n_samples=50, rng_seed=6)
    assert len(calls) == 50
    assert pc.omega == brute_force_omega(linear, sample_points(toy_box, 50, 6)) == 0.0


def test_estimate_constants_evaluates_each_point_once(toy_sites, toy_box):
    # the sample loop evaluates the sampled points once, in order, in slices
    # of MODEL_SLICE; on this seed the sweep then visits three pairs over five
    # distinct points, each D scattered from the kept nonzeros, not evaluated
    calls = []
    pc = estimate_constants(recording_model(toy_sites, calls), toy_box, n_samples=20, rng_seed=0)
    assert len(calls) == math.ceil(20 / MODEL_SLICE)
    assert np.concatenate(calls).tobytes() == np.stack(sample_points(toy_box, 20, 0)).tobytes()
    assert pc.omega == brute_force_omega(toy_sites, sample_points(toy_box, 20, 0))


def test_estimate_constants_over_a_pattern_that_grows(toy_box):
    # J[1, 0] = max(x_0, 0) is exactly 0 at the first three sampled points and
    # nonzero at later ones, so the kept pattern widens after its first row,
    # by a column inside it. Every J is far from 0 while omega is at most 1,
    # so a row or column lost in the widening would show in omega
    a = 10.0 * np.random.default_rng(4).normal(size=(4, 3))
    a[1, 0] = 0.0
    bump = np.zeros(4)
    bump[1] = 1.0

    def residual(x):
        return a @ x + 0.5 * max(x[0], 0.0) ** 2 * bump

    def jacobian(x):
        jac = a.copy()
        jac[1, 0] = max(x[0], 0.0)
        return jac

    sites = sites_from_blocks(3, [residual], [jacobian])
    points = sample_points(toy_box, 12, 2)
    assert [x[0] > 0.0 for x in points[:4]] == [False, False, False, True]
    pc = estimate_constants(sites, toy_box, n_samples=12, rng_seed=2)
    assert pc.omega == brute_force_omega(sites, points) > 0.0
    svals = [np.linalg.svd(jacobian(x), compute_uv=False) for x in points]
    assert pc.sigma_max == max(s[0] for s in svals)
    assert pc.sigma_min == min(s[-1] for s in svals)
    assert pc.epsilon_max == max(float(np.linalg.norm(residual(x))) for x in points)


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
        return np.vstack([terms_at(s, x)[1] for s in sites])

    diff = stacked_jacobian(tight_a) - stacked_jacobian(tight_b)
    assert np.linalg.matrix_rank(diff) == 1
    tight_ratio = float(np.linalg.norm(diff, 2)) / float(np.linalg.norm(tight_a - tight_b))

    extra = [x_ref, x_ref.copy(), tight_a, tight_b]
    pc = estimate_constants(sites, box, n_samples=10, rng_seed=3, extra_points=extra)
    assert pc.rank_deficient_sample
    oracle = brute_force_omega(sites, sample_points(box, 10, 3, extra))
    assert pc.omega == oracle
    # the rank-one pair, where the pruning bound is tight, sets omega
    assert oracle == tight_ratio


def test_estimate_constants_drops_a_point_one_ulp_from_an_earlier_one():
    # J(x) = 1 + x. At x = 2^-53 the sum is a tie and rounds to 1; one ulp
    # above, it rounds to 1 + 2^-52. That pair's ratio is 2^-52 / 2^-105 =
    # 2^53, rounding noise, while every other pair reads about 1, the true
    # Lipschitz constant
    sites = sites_from_blocks(1, [lambda x: x + 0.5 * x**2], [lambda x: np.array([[1.0 + x[0]]])])
    box = BoxSet(np.zeros(1), np.ones(1))
    tie = 2.0**-53
    extra = [np.array([tie]), np.array([np.nextafter(tie, 1.0)])]
    points = sample_points(box, 6, 0, extra)
    others = brute_force_omega(sites, points[:-1])
    assert others == pytest.approx(1.0, rel=1e-12)
    # without the rule, as before it, omega is the noise
    assert brute_force_omega(sites, points, coincident=0.0) == 2.0**53
    pc = estimate_constants(sites, box, n_samples=6, rng_seed=0, extra_points=extra)
    assert pc.omega == others == brute_force_omega(sites, points)


def test_estimate_constants_checks_each_candidate_pair_before_its_svd(grid30, true30, monkeypatch):
    # the row-sum bound leaves 274 candidate pairs on these 115 points; the
    # per-pair ||D^T D||_F^(1/2) check leaves 9 of them for an exact 2-norm
    sites = _psse_sites(grid30, true30, 3, 0)
    norm, exact = np.linalg.norm, []

    def counting_norm(x, ord=None, *args, **kwargs):
        exact.append(ord == 2)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    estimate_constants(sites, make_box(30), n_samples=115, rng_seed=2)
    assert sum(exact) == 9


def test_estimate_constants_keeps_one_compressed_copy_of_the_sample(grid30, true30):
    # the same 115 points: the kept nonzeros take 1.0 MB (1,090 per point) and
    # one chunk of the bound about 1.2 MB, so the traced peak reads 2.9 MB;
    # each point's flat indices and values kept beside them (2.0 MB), or a
    # dense 0.1 MB Jacobian kept per reached point, would cross the bound
    sites = _psse_sites(grid30, true30, 3, 0)
    tracemalloc.start()
    try:
        estimate_constants(sites, make_box(30), n_samples=115, rng_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_ggn_run_holds_one_system_stack_at_a_time(grid30, true30):
    # 30 case30 URE sites, 3 updates: the traced peak read 5.15e6 bytes while
    # solve_normal factored the whole stack next to a symmetrized copy of it,
    # the surrogate symmetrize took two temporaries and the spent payload
    # stack lived into the next update, and 4.10e6 with those gone while the
    # init step still kept every agent's own Gram matrix in a stack of its
    # own; with the payload rows written by local_init_info it reads 3.34e6
    sites = _psse_sites(grid30, true30, 30, 0)
    config = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule("constant", 30), max_updates=3, stop_tol=1e-12, ridge=1e-4
    )
    gossip = GossipConfig(kind="ure", beta=0.5, link_failure_prob=0.3)
    tracemalloc.start()
    try:
        run = ggn_run(sites, make_box(30), gossip, config, flat_start_vector(grid30), rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.n_updates == 3
    assert peak < 3.8e6


_entries = st.integers(-10**6, 10**6).map(lambda k: k / 1000.0)


def compressed(mats):
    """(values, pattern) of the matrices, gathered one row at a time as
    estimate_constants gathers its sample Jacobians."""
    values, pattern = np.zeros((len(mats), 0)), np.zeros(0, dtype=np.intp)
    for k, m in enumerate(mats):
        values, pattern = _add_nonzeros(values, pattern, k, m)
    return values, pattern


def pair_bound(a, b):
    """_spectral_bounds of the one pair (a, b)."""
    bounds = _spectral_bounds(*compressed([a, b]), a.shape[1], np.array([0]), np.array([1]))
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
    bounds = _spectral_bounds(*compressed(mats), 5, pair_i, pair_j)
    for bound, i, j in zip(bounds, pair_i, pair_j):
        d = np.abs(mats[i] - mats[j])
        assert bound == pytest.approx(np.sqrt(np.max(d.T @ d @ np.ones(5))), rel=1e-14, abs=0.0)


def test_spectral_bound_on_signed_zeros_and_zero_differences():
    a = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 0.0]])
    # -0.0 is no nonzero: a matrix of them bounds like the zero matrix
    signed = np.where(a == 0.0, -0.0, a)
    assert pair_bound(signed, np.zeros_like(a)) == pair_bound(a, np.zeros_like(a))
    # an all-zero D, from equal matrices or from no nonzeros at all
    assert pair_bound(a, a.copy()) == 0.0
    assert pair_bound(signed, a) == 0.0
    assert pair_bound(np.zeros((2, 3)), np.full((2, 3), -0.0)) == 0.0
    # nonzeros in one column only: the bound is tight, as on case30's rank-one pair
    column = np.zeros((4, 3))
    column[:, 1] = [0.5, -2.0, 0.0, 3.0]
    assert pair_bound(column, np.zeros_like(column)) == pytest.approx(np.linalg.norm(column, 2), rel=1e-15)
