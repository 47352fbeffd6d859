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
    """Branch flows, both ends: P block then Q block (see module header).

    The reverse end is the forward formula with (f, t, sh_f) swapped for
    (t, f, sh_t).
    """
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
    n_br = grid.n_branches
    out = np.empty(state.theta.shape[:-1] + (4 * n_br,))
    br = grid.branches
    g, b = br.ys.real, br.ys.imag
    v, theta = state.v, state.theta
    for k, (a, o, sh) in enumerate(((br.f, br.t, br.sh_f), (br.t, br.f, br.sh_t))):
        d, va, vo = theta[..., a] - theta[..., o], v[..., a], v[..., o]
        p = va**2 * (g + sh.real) - va * vo * (g * np.cos(d) + b * np.sin(d))
        q = -(va**2) * (b + sh.imag) - va * vo * (g * np.sin(d) - b * np.cos(d))
        out[..., k : 2 * n_br : 2], out[..., 2 * n_br + k :: 2] = p, q
    return out


def full_measurement_vector(grid: GridModel, state: PowerState) -> np.ndarray:
    """f for the full measurement vector: injections, then flows."""
    return np.concatenate([power_injections(grid, state), line_flows(grid, state)], axis=-1)


def full_measurement_jacobian(grid: GridModel, state: PowerState) -> np.ndarray:
    """d(f)/d(unknowns) for the full measurement vector, (..., M, 2N - 1).

    The phasors and their dense diagonals are formed once per call and
    shared by the injection block and both branch ends; each end is
    MATPOWER's dSbr_dV, its incidence products Cf diag(V) taken as rows of
    the shared diagonals.
    """
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
    n, n_br = grid.n_buses, grid.n_branches
    br = grid.branches
    # unit phasors straight from the angles: defined even at the V = 0 box edge
    unit = np.exp(1j * state.theta)
    v_c = state.v * unit
    diag_v, diag_unit = diagonals(v_c), diagonals(unit)
    ds_dva, ds_dvm = complex_injection_derivatives(grid.ybus, v_c, diag_v, diag_unit)

    # the angle columns drop the slack bus, whose angle is not an unknown
    keep = np.arange(n) != grid.slack_bus
    jac = np.empty(state.theta.shape[:-1] + (measurement_count(grid), 2 * n - 1))
    d_angle, d_magnitude = jac[..., : n - 1], jac[..., n - 1 :]

    def put(rows: slice, by_angle: np.ndarray, by_magnitude: np.ndarray):
        d_angle[..., rows, :] = by_angle[..., keep]
        d_magnitude[..., rows, :] = by_magnitude

    put(slice(0, n), ds_dva.real, ds_dvm.real)
    put(slice(n, 2 * n), ds_dva.imag, ds_dvm.imag)
    for k, (y_end, end) in enumerate(((br.yf, br.f), (br.yt, br.t))):
        conj_diag_i = np.conj(diagonals(matvec(y_end, v_c)))
        diag_v_end = diagonals(v_c[..., end])
        # np.take keeps the end's rows C-contiguous, like every other BLAS operand here
        end_v, end_unit = np.take(diag_v, end, axis=-2), np.take(diag_unit, end, axis=-2)
        by_angle = 1j * (conj_diag_i @ end_v - diag_v_end @ np.conj(y_end @ diag_v))
        by_magnitude = diag_v_end @ np.conj(y_end @ diag_unit) + conj_diag_i @ end_unit
        for base, part in ((2 * n + k, np.real), (2 * n + 2 * n_br + k, np.imag)):
            put(slice(base, base + 2 * n_br, 2), part(by_angle), part(by_magnitude))
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
) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent mean squared error of V and theta over all N buses.

    estimates: (I, 2N-1) stack of unknown vectors. The slack angle is
    pinned in both the estimate and the truth, so it contributes zero.
    Returns (per-agent V, per-agent theta).
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    states = vector_to_state(estimates, true_state.n_buses, slack_bus)
    # errors squared in place, in the state's fresh arrays: a trajectory's stack is large
    for err, truth in ((states.v, true_state.v), (states.theta, true_state.theta)):
        np.square(np.subtract(err, truth, out=err), out=err)
    return states.v.mean(axis=1), states.theta.mean(axis=1)
