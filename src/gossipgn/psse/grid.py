"""Electrical network model: admittances, state mapping, power flow.

Branches are stored as an asymmetric Pi equivalent (series admittance plus
a possibly different shunt at each end). An off-nominal tap ratio tau folds
into that form exactly: series y/tau, from-end shunt (y + jb/2)/tau^2 -
y/tau, to-end shunt (y + jb/2) - y/tau. The resulting bus admittance matrix
stays symmetric, which is what the measurement model assumes; phase-shifting
transformers would break the symmetry and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import BoxSet, component_roots
from ..errors import CaseParseError, InvalidArgumentError, PowerFlowError, UnsupportedFeatureError
from . import matpower as mp
from .matpower import MatpowerCase

PQ_BUS, PV_BUS, SLACK_BUS, ISOLATED_BUS = 1, 2, 3, 4
_POWER_FLOW_TOL = 1e-10  # infinity norm of the power mismatch at convergence
_POWER_FLOW_MAX_ITER = 30


@dataclass(frozen=True, eq=False)
class BranchArrays:
    """The branches of a grid as read-only arrays, in case-file order.

    f and t are the end bus indices (0-based), ys the series admittances, sh_f
    and sh_t the end shunts. yf and yt are the (L, N) end admittance matrices,
    so the current leaving each branch's from end is (yf @ v)[l], and
    (yt @ v)[l] at its to end.
    """

    f: np.ndarray
    t: np.ndarray
    ys: np.ndarray
    sh_f: np.ndarray
    sh_t: np.ndarray
    yf: np.ndarray
    yt: np.ndarray

    @staticmethod
    def of(f, t, ys, sh_f, sh_t, n_buses: int) -> "BranchArrays":
        f, t = np.asarray(f, dtype=int), np.asarray(t, dtype=int)
        ys, sh_f, sh_t = (np.asarray(a, dtype=complex) for a in (ys, sh_f, sh_t))
        rows = np.arange(f.size)
        yf = np.zeros((f.size, n_buses), dtype=complex)
        yt = np.zeros((f.size, n_buses), dtype=complex)
        yf[rows, f] = ys + sh_f
        yf[rows, t] -= ys
        yt[rows, t] = ys + sh_t
        yt[rows, f] -= ys
        arrays = BranchArrays(f, t, ys, sh_f, sh_t, yf, yt)
        for arr in vars(arrays).values():
            arr.setflags(write=False)
        return arrays


@dataclass(frozen=True, eq=False)
class GridModel:
    """The electrical model of a case; every model evaluation reads its read-only arrays."""

    n_buses: int
    branches: BranchArrays
    slack_bus: int
    bus_types: np.ndarray
    s_spec: np.ndarray           # specified injection sum(Pg + jQg) - (Pd + jQd), per unit
    gen_v_setpoint: np.ndarray   # nan where no generator
    ybus: np.ndarray = field(repr=False)   # bus shunts included

    @property
    def n_branches(self) -> int:
        return self.branches.f.size

    @property
    def n_unknowns(self) -> int:
        return 2 * self.n_buses - 1


# Bus numbers are positive 32-bit integers.
MAX_BUS_ID = 2**31 - 1


def _integer_column(
    table: np.ndarray, col: int, where: str, what: str, lo: int, hi: int
) -> np.ndarray:
    """Column col of a case table as ints; every entry must be an integer in lo..hi."""
    values = table[:, col]
    bad = np.flatnonzero(~((values >= lo) & (values <= hi) & (values == np.floor(values))))
    if bad.size:
        value = float(values[bad[0]])
        raise CaseParseError(
            f"{where} row {bad[0] + 1}: {what} {value!r} is not an integer in {lo}..{hi}"
        )
    return values.astype(int)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_grid_model(case: MatpowerCase) -> GridModel:
    """The electrical model of a case, in per unit, and the one check of it.

    Floating-point errors are silenced here and every derived quantity is
    checked to be finite instead, so a bad number fails as CaseParseError
    naming its table and row.
    """
    bus_ids = _integer_column(case.bus, mp.BUS_I, "bus", "bus number", 1, MAX_BUS_ID)
    types = _integer_column(case.bus, mp.BUS_TYPE, "bus", "bus type", PQ_BUS, ISOLATED_BUS)
    gen_buses = _integer_column(case.gen, mp.GEN_BUS, "generator", "bus", 1, MAX_BUS_ID)
    ends = [
        _integer_column(case.branch, col, "branch", "bus", 1, MAX_BUS_ID)
        for col in (mp.BR_F, mp.BR_T)
    ]
    if len(set(bus_ids.tolist())) != len(bus_ids):
        raise CaseParseError("duplicate bus ids in bus table")
    index_of = {int(b): i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)

    slack_rows = np.flatnonzero(types == SLACK_BUS)
    if slack_rows.size != 1:
        raise CaseParseError(f"expected exactly one slack bus, found {slack_rows.size}")
    slack = int(slack_rows[0])

    loads = (case.bus[:, mp.BUS_PD] + 1j * case.bus[:, mp.BUS_QD]) / case.base_mva
    shunts = (case.bus[:, mp.BUS_GS] + 1j * case.bus[:, mp.BUS_BS]) / case.base_mva
    bad = np.flatnonzero(~(np.isfinite(loads) & np.isfinite(shunts)))
    if bad.size:
        raise CaseParseError(f"bus row {bad[0] + 1}: load or shunt in per unit is not finite")

    gen_v = np.full(n, np.nan)
    gen_s = np.zeros(n, dtype=complex)
    for row_no, row in enumerate(case.gen):
        if row[mp.GEN_STATUS] <= 0:
            continue
        b = int(gen_buses[row_no])
        if b not in index_of:
            raise CaseParseError(f"generator references unknown bus {b}")
        if row[mp.GEN_VG] <= 0:
            raise CaseParseError(
                f"generator row {row_no + 1}: voltage setpoint Vg must be positive"
            )
        i = index_of[b]
        gen_v[i] = row[mp.GEN_VG]
        gen_s[i] += complex(row[mp.GEN_PG], row[mp.GEN_QG]) / case.base_mva
        if not np.isfinite(gen_s[i]):
            raise CaseParseError(f"generator row {row_no + 1}: Pg or Qg in per unit is not finite")
    # a PV bus without an in-service generator has no voltage setpoint: it is
    # solved as PQ, as MATPOWER's bustypes does
    types = np.where((types == PV_BUS) & np.isnan(gen_v), PQ_BUS, types)

    kept = []  # (f, t, y_eff, shunt_f, shunt_t) of each branch in service
    ybus = np.zeros((n, n), dtype=complex)
    for row_no, row in enumerate(case.branch):
        if row[mp.BR_STATUS] == 0:
            continue
        fb, tb = int(ends[0][row_no]), int(ends[1][row_no])
        if fb not in index_of or tb not in index_of:
            raise CaseParseError(f"branch row {row_no + 1} references unknown bus")
        f, t = index_of[fb], index_of[tb]
        r, x, b_chg = row[mp.BR_R], row[mp.BR_X], row[mp.BR_B]
        if row[mp.BR_SHIFT] != 0.0:
            raise UnsupportedFeatureError(
                f"branch row {row_no + 1}: phase-shifting transformers are not supported"
            )
        if r == 0.0 and x == 0.0:
            raise CaseParseError(f"branch row {row_no + 1} has zero impedance")
        tau = row[mp.BR_TAP] or 1.0
        ys = 1.0 / (r + 1j * x)
        y_eff = ys / tau
        total = ys + 0.5j * b_chg
        shunt_f = total / tau**2 - y_eff
        shunt_t = total - y_eff
        if not np.isfinite([y_eff, shunt_f, shunt_t]).all():
            raise CaseParseError(
                f"branch row {row_no + 1}: admittance is not finite "
                "(impedance or tap ratio too small)"
            )
        kept.append((f, t, y_eff, shunt_f, shunt_t))
        ybus[f, f] += y_eff + shunt_f
        ybus[t, t] += y_eff + shunt_t
        ybus[f, t] -= y_eff
        ybus[t, f] -= y_eff
    ybus[np.arange(n), np.arange(n)] += shunts
    bad = np.flatnonzero(~np.isfinite(ybus).all(axis=1))
    if bad.size:
        raise CaseParseError(f"bus row {bad[0] + 1}: summed admittance is not finite")
    if np.isnan(gen_v[slack]):
        raise UnsupportedFeatureError(
            f"bus {bus_ids[slack]}: the slack bus has no in-service generator"
        )
    isolated = np.flatnonzero(types == ISOLATED_BUS)
    if isolated.size:
        raise UnsupportedFeatureError(
            f"bus {bus_ids[isolated[0]]}: bus type 4 (isolated) is not supported"
        )
    # a bus that no branch path joins to the slack bus has no power flow and no
    # estimate: label each bus with its island's root
    island = component_roots(n, ((f, t) for f, t, *_ in kept))
    sizes = np.bincount(island, minlength=n)[island]
    lone = np.flatnonzero(sizes == 1)
    if lone.size:
        raise UnsupportedFeatureError(
            f"bus {bus_ids[lone[0]]}: no in-service branch joins it to another bus"
        )
    cut = np.flatnonzero(island != island[slack])
    if cut.size:
        raise UnsupportedFeatureError(
            f"bus {bus_ids[cut[0]]}: its island of {sizes[cut[0]]} buses has no "
            "in-service branch path to the slack bus"
        )

    # MATPOWER's makeSbus: the shunts are in ybus, the rest is specified
    s_spec = gen_s - loads.real - 1j * loads.imag
    for arr in (types, s_spec, gen_v, ybus):
        arr.setflags(write=False)
    return GridModel(
        n_buses=n, branches=BranchArrays.of(*zip(*kept), n_buses=n), slack_bus=slack,
        bus_types=types, s_spec=s_spec, gen_v_setpoint=gen_v, ybus=ybus,
    )


@dataclass(frozen=True)
class PowerState:
    """Bus voltage phasors, angles in radians and magnitudes per unit: (N,) or a (..., N) stack."""

    theta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if theta.ndim < 1 or theta.shape != v.shape:
            raise InvalidArgumentError("theta and v must be arrays of equal shape, buses last")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(v))):
            raise InvalidArgumentError("state entries must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "v", v)

    @property
    def n_buses(self) -> int:
        return self.theta.shape[-1]


def vector_to_state(x: np.ndarray, n_buses: int, slack_bus: int) -> PowerState:
    """The state of an unknown vector, or the states of a (..., 2N - 1) stack."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != 2 * n_buses - 1:
        raise InvalidArgumentError(f"expected {2 * n_buses - 1} unknowns, got {x.shape[-1]}")
    theta = np.zeros(x.shape[:-1] + (n_buses,))
    keep = np.arange(n_buses) != slack_bus
    theta[..., keep] = x[..., : n_buses - 1]
    return PowerState(theta=theta, v=x[..., n_buses - 1 :].copy())


def make_box(n_buses: int) -> BoxSet:
    """Feasible set for the unknown vector: |angle| <= pi/2, 0 <= V <= 1.5."""
    lower = np.concatenate([np.full(n_buses - 1, -np.pi / 2), np.zeros(n_buses)])
    upper = np.concatenate([np.full(n_buses - 1, np.pi / 2), np.full(n_buses, 1.5)])
    return BoxSet(lower=lower, upper=upper)


def flat_start_vector(grid: GridModel) -> np.ndarray:
    """All angles zero, all magnitudes one: the conventional initializer."""
    return np.concatenate([np.zeros(grid.n_buses - 1), np.ones(grid.n_buses)])


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for every (..., n) vector of x, a broadcast along the leading axes."""
    return np.matmul(a, x[..., None])[..., 0]


def diagonals(d: np.ndarray) -> np.ndarray:
    """np.diag of every (..., k) vector of d. Products with these stay BLAS
    products: broadcasting d instead rounds some entries differently."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    np.einsum("...ii->...i", out)[...] = d
    return out


def complex_injection_derivatives(
    ybus: np.ndarray, v_complex: np.ndarray, diag_v: np.ndarray, diag_unit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """d(complex bus power)/d(angle), d(.)/d(magnitude) as dense (..., N, N) matrices.

    v_complex holds the bus voltages V e^{j theta}, and diag_v and diag_unit
    are the diagonals of v_complex and of the angle phasors e^{j theta}, as
    the caller forms them for its own products. The phasors are passed, not
    recovered from v_complex, so the derivatives stay defined at the lower
    box edge V = 0, where v_complex carries no angle.
    """
    diag_i = diagonals(matvec(ybus, v_complex))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_unit) + np.conj(diag_i) @ diag_unit
    return ds_dva, ds_dvm


def newton_power_flow(grid: GridModel) -> PowerState:
    """Solve the conventional power flow for the grid's specified injection.

    PQ buses hold s_spec, PV buses the generator voltage setpoint and the
    real part of s_spec; the slack bus holds its setpoint voltage at angle
    zero. Converges on the infinity norm of the power mismatch.
    """
    n = grid.n_buses
    types = grid.bus_types
    pv = np.flatnonzero(types == PV_BUS)
    pq = np.flatnonzero(types == PQ_BUS)
    pvpq = np.concatenate([pv, pq])

    vm = np.ones(n)
    has_gen = ~np.isnan(grid.gen_v_setpoint)
    vm[has_gen] = grid.gen_v_setpoint[has_gen]
    va = np.zeros(n)

    for _ in range(_POWER_FLOW_MAX_ITER):
        v_c = vm * np.exp(1j * va)
        s_calc = v_c * np.conj(grid.ybus @ v_c)
        mismatch = s_calc - grid.s_spec
        f_vec = np.concatenate([mismatch[pvpq].real, mismatch[pq].imag])
        if float(np.max(np.abs(f_vec))) <= _POWER_FLOW_TOL:
            return PowerState(theta=va, v=vm)
        ds_dva, ds_dvm = complex_injection_derivatives(
            grid.ybus, v_c, diagonals(v_c), diagonals(v_c / np.abs(v_c))
        )
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, f_vec)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"power-flow Jacobian is singular: {exc}")
        va[pvpq] -= dx[: pvpq.size]
        vm[pq] -= dx[pvpq.size :]
    raise PowerFlowError(f"power flow did not converge in {_POWER_FLOW_MAX_ITER} iterations")
