"""The measurement model on (I, N_u) stacks of states against per-state formulas.

The functions prefixed per_state_ are the measurement model as it was
written for one state at a time. They are the oracle: every slice of a
stacked evaluation must equal them bit for bit, compared through
.view(np.int64), so that a stacked run writes the same bytes as evaluating
the agents one by one.
"""

from __future__ import annotations

import numpy as np
import pytest

from gossipgn.core import evaluate, normal_system, site_terms
from gossipgn.psse.grid import (
    GridModel,
    PowerState,
    complex_injection_derivatives,
    flat_start_vector,
    make_box,
    vector_to_state,
)
from gossipgn.psse.measurements import (
    build_nlls_sites,
    full_measurement_jacobian,
    full_measurement_vector,
    partition_sites,
    streaming_snapshots,
)


def per_state_injections(grid: GridModel, state: PowerState) -> np.ndarray:
    g = grid.ybus.real
    b = grid.ybus.imag
    theta = state.theta
    dtheta = theta[:, None] - theta[None, :]
    cos_m = np.cos(dtheta)
    sin_m = np.sin(dtheta)
    v = state.v
    p = v * ((g * cos_m + b * sin_m) @ v)
    q = v * ((g * sin_m - b * cos_m) @ v)
    return np.concatenate([p, q])


def per_state_flows(grid: GridModel, state: PowerState) -> np.ndarray:
    n_br = grid.n_branches
    out = np.zeros(4 * n_br)
    if n_br == 0:
        return out
    br = grid.branches
    f, t, sh_f, sh_t = br.f, br.t, br.sh_f, br.sh_t
    g, b = br.ys.real, br.ys.imag
    v, theta = state.v, state.theta
    d_ft = theta[f] - theta[t]
    vf, vt = v[f], v[t]
    p_fwd = vf**2 * (g + sh_f.real) - vf * vt * (g * np.cos(d_ft) + b * np.sin(d_ft))
    q_fwd = -(vf**2) * (b + sh_f.imag) - vf * vt * (g * np.sin(d_ft) - b * np.cos(d_ft))
    p_rev = vt**2 * (g + sh_t.real) - vt * vf * (g * np.cos(-d_ft) + b * np.sin(-d_ft))
    q_rev = -(vt**2) * (b + sh_t.imag) - vt * vf * (g * np.sin(-d_ft) - b * np.cos(-d_ft))
    out[0 : 2 * n_br : 2] = p_fwd
    out[1 : 2 * n_br : 2] = p_rev
    out[2 * n_br : 4 * n_br : 2] = q_fwd
    out[2 * n_br + 1 : 4 * n_br : 2] = q_rev
    return out


def per_state_injection_derivatives(ybus, v_complex, v_unit):
    ibus = ybus @ v_complex
    diag_v = np.diag(v_complex)
    diag_i = np.diag(ibus)
    diag_norm = np.diag(v_unit)
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_norm) + np.conj(diag_i) @ diag_norm
    return ds_dva, ds_dvm


def per_state_branch_derivatives(grid: GridModel, state: PowerState):
    n, n_br = grid.n_buses, grid.n_branches
    br = grid.branches
    v_c = state.complex_voltages()
    norm = np.exp(1j * state.theta)
    diag_v = np.diag(v_c)
    diag_norm = np.diag(norm)
    rows = np.arange(n_br)

    def one_end(y_end, end):
        i_end = y_end @ v_c
        conj_diag_i = np.conj(np.diag(i_end))
        diag_v_end = np.diag(v_c[end])
        c_v = np.zeros((n_br, n), dtype=complex)
        c_v[rows, end] = v_c[end]
        c_norm = np.zeros((n_br, n), dtype=complex)
        c_norm[rows, end] = norm[end]
        ds_dva = 1j * (conj_diag_i @ c_v - diag_v_end @ np.conj(y_end @ diag_v))
        ds_dvm = diag_v_end @ np.conj(y_end @ diag_norm) + conj_diag_i @ c_norm
        return ds_dva, ds_dvm

    return one_end(br.yf, br.f), one_end(br.yt, br.t)


def per_state_jacobian(grid: GridModel, state: PowerState) -> np.ndarray:
    n, n_br = grid.n_buses, grid.n_branches
    v_c = state.complex_voltages()
    ds_dva, ds_dvm = per_state_injection_derivatives(grid.ybus, v_c, np.exp(1j * state.theta))
    m_total = 2 * n + 4 * n_br
    dva = np.empty((m_total, n))
    dvm = np.empty((m_total, n))
    dva[:n] = ds_dva.real
    dvm[:n] = ds_dvm.real
    dva[n : 2 * n] = ds_dva.imag
    dvm[n : 2 * n] = ds_dvm.imag
    if n_br:
        (dsf_dva, dsf_dvm), (dst_dva, dst_dvm) = per_state_branch_derivatives(grid, state)
        base = 2 * n
        dva[base : base + 2 * n_br : 2] = dsf_dva.real
        dva[base + 1 : base + 2 * n_br : 2] = dst_dva.real
        dvm[base : base + 2 * n_br : 2] = dsf_dvm.real
        dvm[base + 1 : base + 2 * n_br : 2] = dst_dvm.real
        base = 2 * n + 2 * n_br
        dva[base : base + 2 * n_br : 2] = dsf_dva.imag
        dva[base + 1 : base + 2 * n_br : 2] = dst_dva.imag
        dvm[base : base + 2 * n_br : 2] = dsf_dvm.imag
        dvm[base + 1 : base + 2 * n_br : 2] = dst_dvm.imag
    keep = np.arange(n) != grid.slack_bus
    return np.concatenate([dva[:, keep], dvm], axis=1)


def per_state_model(grid: GridModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = vector_to_state(x, grid.n_buses, grid.slack_bus)
    f = np.concatenate([per_state_injections(grid, state), per_state_flows(grid, state)])
    return f, per_state_jacobian(grid, state)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if np.iscomplexobj(want):
        got, want = got.view(float), want.view(float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_stack(grid: GridModel, n_states: int, rng, near_flat: bool) -> np.ndarray:
    box = make_box(grid.n_buses)
    if near_flat:
        x0 = flat_start_vector(grid)
        return np.clip(x0 + rng.normal(0.0, 0.05, (n_states, x0.size)), box.lower, box.upper)
    return rng.uniform(box.lower, box.upper, (n_states, box.dim))


def _box_edge_stack(grid: GridModel) -> np.ndarray:
    """Magnitudes at 0 (the lower edge) and angles at +-theta_max."""
    box = make_box(grid.n_buses)
    n = grid.n_buses
    x = np.tile(flat_start_vector(grid), (4, 1))
    x[0, n - 1 :] = 0.0
    x[1, : n - 1] = box.upper[: n - 1]
    x[2, : n - 1] = box.lower[: n - 1]
    x[3] = np.where(np.arange(box.dim) % 2 == 0, box.lower, box.upper)
    return x


def _assert_stack_matches_per_state(grid: GridModel, xs: np.ndarray) -> None:
    state = vector_to_state(xs, grid.n_buses, grid.slack_bus)
    f = full_measurement_vector(grid, state)
    jac = full_measurement_jacobian(grid, state)
    assert f.shape == (len(xs), 2 * grid.n_buses + 4 * grid.n_branches)
    assert jac.shape == f.shape + (xs.shape[1],)
    v_c = state.complex_voltages()
    ds_dva, ds_dvm = complex_injection_derivatives(grid.ybus, v_c, np.exp(1j * state.theta))
    for i, x in enumerate(xs):
        f_i, jac_i = per_state_model(grid, x)
        assert_same_bits(f[i], f_i)
        assert_same_bits(jac[i], jac_i)
        one = vector_to_state(x, grid.n_buses, grid.slack_bus)
        want_dva, want_dvm = per_state_injection_derivatives(
            grid.ybus, one.complex_voltages(), np.exp(1j * one.theta)
        )
        assert_same_bits(ds_dva[i], want_dva)
        assert_same_bits(ds_dvm[i], want_dvm)


@pytest.mark.parametrize("n_states", [1, 2, 3, 7, 30])
@pytest.mark.parametrize("which", ["case30", "case2"])
def test_stacked_model_equals_per_state_formulas_bitwise(which, n_states, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    rng = np.random.default_rng(100 * n_states + len(which))
    for near_flat in (True, False):
        _assert_stack_matches_per_state(grid, _random_stack(grid, n_states, rng, near_flat))


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_stacked_model_at_box_edges_equals_per_state_formulas(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    xs = _box_edge_stack(grid)
    _assert_stack_matches_per_state(grid, xs)
    assert np.isfinite(full_measurement_jacobian(grid, vector_to_state(
        xs, grid.n_buses, grid.slack_bus
    ))).all()


@pytest.mark.parametrize("which", ["case30", "case2"])
def test_one_state_is_the_unstacked_case(which, grid30, grid2):
    grid = grid30 if which == "case30" else grid2
    rng = np.random.default_rng(7)
    for x in [*_random_stack(grid, 3, rng, False), *_box_edge_stack(grid)]:
        state = vector_to_state(x, grid.n_buses, grid.slack_bus)
        f_i, jac_i = per_state_model(grid, x)
        assert_same_bits(full_measurement_vector(grid, state), f_i)
        assert_same_bits(full_measurement_jacobian(grid, state), jac_i)


def _psse_sites(grid: GridModel, true_state: PowerState, n_sites: int):
    site_rows = partition_sites(grid, n_sites)
    z = streaming_snapshots(grid, true_state, 1e-4, 1, 3)[0]
    return build_nlls_sites(grid, site_rows, z)


def test_evaluated_rows_equal_the_single_state_model(grid30, true30):
    # a stack with repeated rows: each row's arrays are the per-state model's
    # bits, and a repeated row within a run shares its first row's arrays
    sites = _psse_sites(grid30, true30, 3)
    distinct = _random_stack(grid30, 5, np.random.default_rng(1), True)
    xs = distinct[[0, 1, 0, 2, 3, 3, 4]]
    rows = list(evaluate(sites, xs))
    assert [i for i, _, _ in rows] == list(range(len(xs)))
    for i, f_i, jac_i in rows:
        assert f_i.shape == (224,) and jac_i.shape == (224, grid30.n_unknowns)
        assert not f_i.flags.writeable and not jac_i.flags.writeable
        want_f, want_jac = per_state_model(grid30, xs[i])
        assert_same_bits(f_i, want_f)
        assert_same_bits(jac_i, want_jac)
    for first, repeat in ((0, 2), (4, 5)):
        assert np.shares_memory(rows[first][1], rows[repeat][1])
        assert np.shares_memory(rows[first][2], rows[repeat][2])


def test_site_terms_and_normal_system_of_evaluated_rows_equal_one_state_calls(grid30, true30):
    sites = _psse_sites(grid30, true30, 3)
    xs = _random_stack(grid30, 3, np.random.default_rng(2), True)
    for i, f, jac in evaluate(sites, xs):
        # the model evaluated at this iterate alone
        alone = sites[0].batch.model(xs[i])
        for site in sites:
            for got, want in zip(site_terms(site, f, jac), site_terms(site, *alone)):
                assert_same_bits(got, want)
        for got, want in zip(normal_system(sites, f, jac), normal_system(sites, *alone)):
            assert_same_bits(got, want)
