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

from dataclasses import dataclass

import numpy as np

from ..core import SiteBatch, SiteModel
from ..errors import InvalidArgumentError
from .grid import (
    GridModel,
    PowerState,
    complex_injection_derivatives,
    vector_to_state,
)


def measurement_count(grid: GridModel) -> int:
    return 2 * grid.n_buses + 4 * grid.n_branches


def power_injections(grid: GridModel, state: PowerState) -> np.ndarray:
    """[P_1..P_N, Q_1..Q_N] from the trigonometric bus-power formulas.

    The self-admittance term is included (the diagonal of the sum, where
    the angle difference is zero), so the result agrees with the complex
    power S = diag(v) conj(Y v).
    """
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
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


def line_flows(grid: GridModel, state: PowerState) -> np.ndarray:
    """Branch flows, both ends: P block then Q block (see module header)."""
    if state.n_buses != grid.n_buses:
        raise InvalidArgumentError("state size does not match grid")
    n_br = grid.n_branches
    out = np.zeros(4 * n_br)
    if n_br == 0:
        return out
    br = grid.branch_arrays
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


def full_measurement_vector(grid: GridModel, state: PowerState) -> np.ndarray:
    """f for the full measurement vector: injections, then flows."""
    return np.concatenate([power_injections(grid, state), line_flows(grid, state)])


def _branch_flow_derivatives(grid: GridModel, state: PowerState):
    """d(complex flow)/d(angle, magnitude) for each branch end, dense."""
    n, n_br = grid.n_buses, grid.n_branches
    br = grid.branch_arrays
    v_c = state.complex_voltages()
    # unit phasors straight from the angles: defined even at V = 0 box edge
    norm = np.exp(1j * state.theta)

    diag_v = np.diag(v_c)
    diag_norm = np.diag(norm)
    rows = np.arange(n_br)

    def one_end(y_end: np.ndarray, end: np.ndarray):
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


def full_measurement_jacobian(grid: GridModel, state: PowerState) -> np.ndarray:
    """d(f)/d(unknowns) for the full measurement vector, M x (2N - 1)."""
    n, n_br = grid.n_buses, grid.n_branches
    v_c = state.complex_voltages()
    ds_dva, ds_dvm = complex_injection_derivatives(
        grid.ybus, v_c, v_unit=np.exp(1j * state.theta)
    )

    m_total = measurement_count(grid)
    # every row is written below
    dva = np.empty((m_total, n))
    dvm = np.empty((m_total, n))
    dva[:n] = ds_dva.real
    dvm[:n] = ds_dvm.real
    dva[n : 2 * n] = ds_dva.imag
    dvm[n : 2 * n] = ds_dvm.imag

    if n_br:
        (dsf_dva, dsf_dvm), (dst_dva, dst_dvm) = _branch_flow_derivatives(grid, state)
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


@dataclass(frozen=True)
class MeasurementPlan:
    """Which measurement indices each site owns.

    injection_idx[i] indexes into the length-2N injection vector,
    flow_idx[i] into the length-4L flow vector. Bus sets are disjoint and
    every flow index belongs to exactly one site.
    """

    n_buses: int
    n_branches: int
    site_buses: tuple[np.ndarray, ...]
    injection_idx: tuple[np.ndarray, ...]
    flow_idx: tuple[np.ndarray, ...]

    def __post_init__(self):
        seen_buses: set[int] = set()
        for buses in self.site_buses:
            for b in buses.tolist():
                if b in seen_buses:
                    raise InvalidArgumentError(f"bus {b} assigned to two sites")
                if not 0 <= b < self.n_buses:
                    raise InvalidArgumentError(f"bus {b} out of range")
                seen_buses.add(b)
        for label, groups, limit in (
            ("injection", self.injection_idx, 2 * self.n_buses),
            ("flow", self.flow_idx, 4 * self.n_branches),
        ):
            seen: set[int] = set()
            for idx in groups:
                lst = idx.tolist()
                if len(set(lst)) != len(lst):
                    raise InvalidArgumentError(f"duplicate {label} index within a site")
                for j in lst:
                    if not 0 <= j < limit:
                        raise InvalidArgumentError(f"{label} index {j} out of range")
                    if j in seen:
                        raise InvalidArgumentError(f"{label} index {j} assigned twice")
                    seen.add(j)

    @property
    def n_sites(self) -> int:
        return len(self.site_buses)

    def site_size(self, site_id: int) -> int:
        return self.injection_idx[site_id].size + self.flow_idx[site_id].size

    def site_rows(self, site_id: int) -> np.ndarray:
        """Indices of this site's entries in the full measurement vector."""
        return np.concatenate(
            [self.injection_idx[site_id], 2 * self.n_buses + self.flow_idx[site_id]]
        ).astype(int)

    @property
    def total_selected(self) -> int:
        return sum(self.site_size(i) for i in range(self.n_sites))


def partition_sites(grid: GridModel, n_sites: int) -> MeasurementPlan:
    """Split buses into contiguous index groups and deal out measurements.

    Each site gets its buses' P and Q injections plus all four flow
    entries of every branch with at least one endpoint inside; a branch
    spanning two sites goes to the lower-numbered one.
    """
    n = grid.n_buses
    if not 1 <= n_sites <= n:
        raise InvalidArgumentError(f"need 1 <= sites <= {n}, got {n_sites}")

    groups = np.array_split(np.arange(n), n_sites)
    site_of = np.empty(n, dtype=int)
    for s, buses in enumerate(groups):
        site_of[buses] = s

    inj = []
    for buses in groups:
        inj.append(np.concatenate([buses, n + buses]).astype(int))

    flow_lists: list[list[int]] = [[] for _ in range(n_sites)]
    n_br = grid.n_branches
    for l, br in enumerate(grid.branches):
        owner = min(site_of[br.from_bus], site_of[br.to_bus])
        flow_lists[owner].extend([2 * l, 2 * l + 1, 2 * n_br + 2 * l, 2 * n_br + 2 * l + 1])
    flows = tuple(np.array(sorted(lst), dtype=int) for lst in flow_lists)

    return MeasurementPlan(
        n_buses=n, n_branches=n_br,
        site_buses=tuple(np.asarray(b, dtype=int) for b in groups),
        injection_idx=tuple(inj), flow_idx=flows,
    )


def psse_jacobian(grid: GridModel, state: PowerState, plan: MeasurementPlan, site_id: int) -> np.ndarray:
    """Site residual Jacobian: minus the selected measurement partials."""
    if not 0 <= site_id < plan.n_sites:
        raise InvalidArgumentError(f"site {site_id} out of range")
    full = full_measurement_jacobian(grid, state)
    return -full[plan.site_rows(site_id)]


@dataclass(frozen=True)
class MeasurementSet:
    """One noisy snapshot, already split per site."""

    site_values: tuple[np.ndarray, ...]
    sigma2: float
    snapshot_index: int = 0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise InvalidArgumentError("sigma2 must be nonnegative")


def _draw_snapshot(
    grid: GridModel, true_state: PowerState, plan: MeasurementPlan,
    sigma2: float, rng: np.random.Generator, snapshot_index: int,
) -> MeasurementSet:
    full = full_measurement_vector(grid, true_state)
    noisy = full + rng.normal(0.0, np.sqrt(sigma2), size=full.size)
    values = tuple(noisy[plan.site_rows(i)].copy() for i in range(plan.n_sites))
    return MeasurementSet(site_values=values, sigma2=sigma2, snapshot_index=snapshot_index)


def generate_measurements(
    grid: GridModel, true_state: PowerState, plan: MeasurementPlan,
    sigma2: float, rng_seed: int,
) -> MeasurementSet:
    """z_i = f_i(true state) + Gaussian noise, one shared noise vector."""
    rng = np.random.default_rng(rng_seed)
    return _draw_snapshot(grid, true_state, plan, sigma2, rng, snapshot_index=0)


def streaming_snapshots(
    grid: GridModel, true_state: PowerState, plan: MeasurementPlan,
    sigma2: float, n_snapshots: int, rng_seed: int,
) -> list[MeasurementSet]:
    """Independent-noise snapshots of one persistent true state."""
    if n_snapshots < 1:
        raise InvalidArgumentError("need at least one snapshot")
    rng = np.random.default_rng(rng_seed)
    return [
        _draw_snapshot(grid, true_state, plan, sigma2, rng, snapshot_index=t)
        for t in range(n_snapshots)
    ]


def build_nlls_sites(
    grid: GridModel, plan: MeasurementPlan, measurements: MeasurementSet
) -> list[SiteModel]:
    """Wrap each site's residual z_i - f_i(x) and Jacobian as a SiteModel.

    The sites share a memo of f and J at the last x, so every site at one x
    costs one model evaluation. f and J are stored read-only, since the
    batch hands them out as they are; the site closures return row-sliced
    copies. They
    also share one SiteBatch over that memo, which groups the sites by
    residual_dim so that normal_system reads all blocks in a few gathers."""
    if len(measurements.site_values) != plan.n_sites:
        raise InvalidArgumentError("measurement set does not match the plan")
    n, slack = grid.n_buses, grid.slack_bus
    memo: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def model_at(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in memo:
            state = vector_to_state(x, n, slack)
            memo.clear()
            memo[key] = (
                full_measurement_vector(grid, state),
                full_measurement_jacobian(grid, state),
            )
            for arr in memo[key]:
                arr.setflags(write=False)
        return memo[key]

    site_rows = [plan.site_rows(i) for i in range(plan.n_sites)]
    for i, (z_i, rows) in enumerate(zip(measurements.site_values, site_rows)):
        if z_i.size != rows.size:
            raise InvalidArgumentError(f"site {i}: {z_i.size} values for {rows.size} rows")
    batch = SiteBatch.of(model_at, site_rows, measurements.site_values, grid.n_unknowns)

    sites = []
    for i, (z_i, rows) in enumerate(zip(measurements.site_values, site_rows)):

        def residual(x, z_i=z_i, rows=rows):
            return z_i - model_at(x)[0][rows]

        def jacobian(x, rows=rows):
            return -model_at(x)[1][rows]

        sites.append(
            SiteModel(
                site_id=i, n_unknowns=grid.n_unknowns, residual_dim=z_i.size,
                eval_residual=residual, eval_jacobian=jacobian, batch=batch,
            )
        )
    return sites


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
    mse_v = np.empty(estimates.shape[0])
    mse_th = np.empty(estimates.shape[0])
    for i, x in enumerate(estimates):
        st = vector_to_state(x, n, slack_bus)
        mse_v[i] = float(np.mean((st.v - true_state.v) ** 2))
        mse_th[i] = float(np.mean((st.theta - true_state.theta) ** 2))
    return mse_v, mse_th, float(mse_v.mean()), float(mse_th.mean())
