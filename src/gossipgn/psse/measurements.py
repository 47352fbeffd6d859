"""Measurement functions, their Jacobian, site partitioning, noisy data.

Measurement vector layout (fixed, because selection matrices are
index-based): bus injections first as [P_1..P_N, Q_1..Q_N], then branch
flows. Flows form a P block followed by a Q block; within each block
branches appear in case-file order with the forward (from->to) direction
immediately before the reverse. Total length M = 2N + 4L.

The residual convention matches the estimator: g_i(x) = z_i - f_i(x) and
the site Jacobian is d(g_i)/dx = -d(f_i)/dx.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import SiteModel, build_sites
from ..errors import InvalidArgumentError
from .grid import (
    GridModel,
    PowerState,
    complex_injection_derivatives,
    diagonals,
    matvec,
    vector_to_state,
)


def measurement_count(grid: GridModel) -> int:
    return 2 * grid.n_buses + 4 * grid.n_branches


def power_injections(grid: GridModel, state: PowerState) -> np.ndarray:
    """[P_1..P_N, Q_1..Q_N] from the trigonometric bus-power formulas.

    The self-admittance term is included (the diagonal of the sum, where
    the angle difference is zero), so the result agrees with the complex
    power S = diag(v) conj(Y v). Like every model function here, it takes
    one state or a stack of states and returns its rows along the same
    leading axes.
    """
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
    g = grid.ybus.real
    b = grid.ybus.imag
    theta = state.theta
    dtheta = theta[..., :, None] - theta[..., None, :]
    cos_m = np.cos(dtheta)
    sin_m = np.sin(dtheta)
    v = state.v
    p = v * matvec(g * cos_m + b * sin_m, v)
    q = v * matvec(g * sin_m - b * cos_m, v)
    return np.concatenate([p, q], axis=-1)


def line_flows(grid: GridModel, state: PowerState) -> np.ndarray:
    """Branch flows, both ends: P block then Q block (see module header)."""
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
    n_br = grid.n_branches
    out = np.zeros(state.theta.shape[:-1] + (4 * n_br,))
    if n_br == 0:
        return out
    br = grid.branches
    f, t, sh_f, sh_t = br.f, br.t, br.sh_f, br.sh_t
    g, b = br.ys.real, br.ys.imag
    v, theta = state.v, state.theta
    d_ft = theta[..., f] - theta[..., t]
    vf, vt = v[..., f], v[..., t]

    p_fwd = vf**2 * (g + sh_f.real) - vf * vt * (g * np.cos(d_ft) + b * np.sin(d_ft))
    q_fwd = -(vf**2) * (b + sh_f.imag) - vf * vt * (g * np.sin(d_ft) - b * np.cos(d_ft))
    p_rev = vt**2 * (g + sh_t.real) - vt * vf * (g * np.cos(-d_ft) + b * np.sin(-d_ft))
    q_rev = -(vt**2) * (b + sh_t.imag) - vt * vf * (g * np.sin(-d_ft) - b * np.cos(-d_ft))

    out[..., 0 : 2 * n_br : 2] = p_fwd
    out[..., 1 : 2 * n_br : 2] = p_rev
    out[..., 2 * n_br : 4 * n_br : 2] = q_fwd
    out[..., 2 * n_br + 1 : 4 * n_br : 2] = q_rev
    return out


def full_measurement_vector(grid: GridModel, state: PowerState) -> np.ndarray:
    """f for the full measurement vector: injections, then flows."""
    return np.concatenate([power_injections(grid, state), line_flows(grid, state)], axis=-1)


def _branch_flow_derivatives(grid: GridModel, state: PowerState):
    """d(complex flow)/d(angle, magnitude) for each branch end, dense."""
    n, n_br = grid.n_buses, grid.n_branches
    br = grid.branches
    v_c = state.complex_voltages()
    # unit phasors straight from the angles: defined even at V = 0 box edge
    norm = np.exp(1j * state.theta)

    diag_v = diagonals(v_c)
    diag_norm = diagonals(norm)
    rows = np.arange(n_br)

    def one_end(y_end: np.ndarray, end: np.ndarray):
        i_end = matvec(y_end, v_c)
        conj_diag_i = np.conj(diagonals(i_end))
        diag_v_end = diagonals(v_c[..., end])
        c_v = np.zeros(v_c.shape[:-1] + (n_br, n), dtype=complex)
        c_v[..., rows, end] = v_c[..., end]
        c_norm = np.zeros(v_c.shape[:-1] + (n_br, n), dtype=complex)
        c_norm[..., rows, end] = norm[..., end]
        ds_dva = 1j * (conj_diag_i @ c_v - diag_v_end @ np.conj(y_end @ diag_v))
        ds_dvm = diag_v_end @ np.conj(y_end @ diag_norm) + conj_diag_i @ c_norm
        return ds_dva, ds_dvm

    return one_end(br.yf, br.f), one_end(br.yt, br.t)


def full_measurement_jacobian(grid: GridModel, state: PowerState) -> np.ndarray:
    """d(f)/d(unknowns) for the full measurement vector, (..., M, 2N - 1)."""
    n, n_br = grid.n_buses, grid.n_branches
    v_c = state.complex_voltages()
    ds_dva, ds_dvm = complex_injection_derivatives(
        grid.ybus, v_c, v_unit=np.exp(1j * state.theta)
    )

    # the angle columns drop the slack bus, whose angle is not an unknown
    keep = np.arange(n) != grid.slack_bus
    jac = np.empty(state.theta.shape[:-1] + (measurement_count(grid), 2 * n - 1))
    d_angle, d_magnitude = jac[..., : n - 1], jac[..., n - 1 :]

    def put(rows: slice, by_angle: np.ndarray, by_magnitude: np.ndarray):
        d_angle[..., rows, :] = by_angle[..., keep]
        d_magnitude[..., rows, :] = by_magnitude

    put(slice(0, n), ds_dva.real, ds_dvm.real)
    put(slice(n, 2 * n), ds_dva.imag, ds_dvm.imag)
    if n_br:
        (dsf_dva, dsf_dvm), (dst_dva, dst_dvm) = _branch_flow_derivatives(grid, state)
        for base, part in ((2 * n, np.real), (2 * n + 2 * n_br, np.imag)):
            put(slice(base, base + 2 * n_br, 2), part(dsf_dva), part(dsf_dvm))
            put(slice(base + 1, base + 2 * n_br, 2), part(dst_dva), part(dst_dvm))
    # every row is written above
    return jac


def partition_sites(grid: GridModel, n_sites: int) -> tuple[np.ndarray, ...]:
    """Each site's rows of the measurement vector, for contiguous bus groups.

    Site i owns its buses' P rows, then their Q rows, then, in row order,
    all four flow rows of every branch with at least one end among its
    buses; a branch spanning two sites goes to the lower-numbered one. Every
    row belongs to exactly one site.
    """
    n = grid.n_buses
    if not 1 <= n_sites <= n:
        raise InvalidArgumentError(f"need 1 <= sites <= {n}, got {n_sites}")
    groups = np.array_split(np.arange(n), n_sites)
    site_of = np.repeat(np.arange(n_sites), [buses.size for buses in groups])
    owner = np.minimum(site_of[grid.branches.f], site_of[grid.branches.t])
    # flow row 2N + j belongs to branch (j mod 2L) // 2, see the module header
    flow_owner = np.tile(np.repeat(owner, 2), 2)
    site_rows = tuple(
        np.concatenate([buses, n + buses, 2 * n + np.flatnonzero(flow_owner == s)])
        for s, buses in enumerate(groups)
    )
    for rows in site_rows:
        rows.setflags(write=False)
    return site_rows


def streaming_snapshots(
    grid: GridModel, true_state: PowerState, sigma2: float, n_snapshots: int, rng_seed: int,
) -> np.ndarray:
    """(n_snapshots, M) independent-noise snapshots z = f(true state) + noise,
    one row per snapshot, its noise the next M draws of the seeded generator."""
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise InvalidArgumentError(f"sigma2 must be finite and nonnegative, got {sigma2!r}")
    if n_snapshots < 1:
        raise InvalidArgumentError("need at least one snapshot")
    rng = np.random.default_rng(rng_seed)
    full = full_measurement_vector(grid, true_state)
    return full + rng.normal(0.0, np.sqrt(sigma2), size=(n_snapshots, full.size))


def build_nlls_sites(
    grid: GridModel, site_rows: Sequence[np.ndarray], z: np.ndarray
) -> list[SiteModel]:
    """core.build_sites over the PSSE model: full_measurement_vector and
    full_measurement_jacobian at vector_to_state(x), one state or a stack."""
    z, m = np.asarray(z, dtype=float), measurement_count(grid)
    if z.shape != (m,):
        raise InvalidArgumentError(f"expected a ({m},) measurement vector, got shape {z.shape}")
    n, slack = grid.n_buses, grid.slack_bus

    def model(x):
        state = vector_to_state(x, n, slack)
        return full_measurement_vector(grid, state), full_measurement_jacobian(grid, state)

    return build_sites(model, grid.n_unknowns, site_rows, z)


def mse_metrics(
    estimates: np.ndarray, true_state: PowerState, slack_bus: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Per-agent mean squared error of V and theta over all N buses.

    estimates: (I, 2N-1) stack of unknown vectors. The slack angle is
    pinned in both the estimate and the truth, so it contributes zero.
    Returns (per-agent V, per-agent theta, global V mean, global theta mean).
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    n = true_state.n_buses
    if estimates.shape[1] != 2 * n - 1:
        raise InvalidArgumentError("estimate width does not match the grid")
    states = vector_to_state(estimates, n, slack_bus)
    # errors squared in place, in the state's fresh arrays: a trajectory's stack is large
    for err, truth in ((states.v, true_state.v), (states.theta, true_state.theta)):
        np.square(np.subtract(err, truth, out=err), out=err)
    mse_v, mse_th = states.v.mean(axis=1), states.theta.mean(axis=1)
    return mse_v, mse_th, float(mse_v.mean()), float(mse_th.mean())
