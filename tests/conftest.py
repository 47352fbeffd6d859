"""Shared fixtures, the independent oracles and the test-side checkers.

The oracles below deliberately recompute injections and flows from
complex phasor algebra, separate from the package's trigonometric
evaluators, so agreement between the two is meaningful. The
central-difference Jacobian, grid equality, the weight-matrix checks, the
consensus envelope, the trajectory check of the convergence-to-a-ball
guarantee, the case-text parser and the state-to-vector map are used only
by tests, so they live here rather than in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from gossipgn.analysis import ConvergenceCertificate
from gossipgn.core import BoxSet, SiteModel, build_sites, site_terms
from gossipgn.errors import InvalidArgumentError
from gossipgn.ggn import Trajectory
from gossipgn.gossip import CseRound, PairwiseRound, log_lambda_eta
from gossipgn.psse import (
    GridModel,
    PowerState,
    build_grid_model,
    load_case,
    newton_power_flow,
)
from gossipgn.psse import matpower as mp


def oracle_injections(grid: GridModel, state: PowerState) -> np.ndarray:
    """S_n = V_n e^{j th_n} * conj(sum_m Ybus[n,m] V_m e^{j th_m}), stacked [P; Q]."""
    v = state.v * np.exp(1j * state.theta)
    s = v * np.conj(grid.ybus @ v)
    return np.concatenate([s.real, s.imag])


def oracle_flows(grid: GridModel, state: PowerState) -> np.ndarray:
    """Per-branch complex flows from each end's equivalent pi parameters.

    Layout matches the package convention: P block then Q block, branches
    in case order, forward direction before reverse within each branch.
    """
    v = state.v * np.exp(1j * state.theta)
    p_rows = []
    q_rows = []
    br = grid.branches
    for l in range(grid.n_branches):
        vf, vt = v[br.f[l]], v[br.t[l]]
        s_fwd = vf * np.conj(br.ys[l] * (vf - vt) + br.sh_f[l] * vf)
        s_rev = vt * np.conj(br.ys[l] * (vt - vf) + br.sh_t[l] * vt)
        p_rows += [s_fwd.real, s_rev.real]
        q_rows += [s_fwd.imag, s_rev.imag]
    return np.asarray(p_rows + q_rows)


def evaluated(site: SiteModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model output (f, J) of the site's list at the one state x, from a
    fresh call of the pure model."""
    return site.batch.model(np.asarray(x, dtype=float))


def terms_at(site: SiteModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The site's residual g_i(x) and Jacobian G_i(x)."""
    return site_terms(site, *evaluated(site, x))


def over_model(sites: list[SiteModel], model) -> list[SiteModel]:
    """The site list with its batch's model replaced by model."""
    batch = replace(sites[0].batch, model=model)
    return [replace(site, batch=batch) for site in sites]


def recording_model(sites: list[SiteModel], calls: list) -> list[SiteModel]:
    """The site list over its own model, each call's states appended to calls."""
    model = sites[0].batch.model

    def recording(x):
        calls.append(np.array(x))
        return model(x)

    return over_model(sites, recording)


def finite_diff_jacobian(site: SiteModel, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian (g(x + h e_j) - g(x - h e_j)) / 2h."""
    if h <= 0:
        raise InvalidArgumentError("step h must be positive")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        gp = terms_at(site, x + step)[0]
        gm = terms_at(site, x - step)[0]
        cols.append((gp - gm) / (2.0 * h))
    return np.column_stack(cols)


def parse_matpower_case(text: str) -> GridModel:
    """Parse case text straight into the electrical model."""
    return build_grid_model(mp.parse_matpower_text(text))


def state_to_vector(state: PowerState, slack_bus: int) -> np.ndarray:
    """Unknown vector: angles of all non-slack buses, then all magnitudes."""
    keep = np.arange(state.n_buses) != slack_bus
    return np.concatenate([state.theta[keep], state.v])


def grids_equal(a: GridModel, b: GridModel) -> bool:
    """Every field and branch array equal; unset generator setpoints (nan) match."""
    return (
        a.n_buses == b.n_buses
        and all(
            np.array_equal(x, y)
            for x, y in zip(vars(a.branches).values(), vars(b.branches).values())
        )
        and a.slack_bus == b.slack_bus
        and np.array_equal(a.bus_types, b.bus_types)
        and np.array_equal(a.s_spec, b.s_spec)
        and np.array_equal(a.gen_v_setpoint, b.gen_v_setpoint, equal_nan=True)
        and np.array_equal(a.ybus, b.ybus)
    )


def check_weight_matrix(w: np.ndarray, tol: float = 1e-12) -> None:
    """Raise when w is not square, nonnegative, symmetric and doubly stochastic to tol."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidArgumentError("weight matrix must be square")
    if np.any(w < -tol):
        raise InvalidArgumentError("weight matrix has negative entries")
    if np.max(np.abs(w - w.T)) > tol:
        raise InvalidArgumentError("weight matrix not symmetric")
    if np.max(np.abs(w.sum(axis=0) - 1.0)) > tol or np.max(np.abs(w.sum(axis=1) - 1.0)) > tol:
        raise InvalidArgumentError("weight matrix not doubly stochastic")


def min_nonzero_entry(w: np.ndarray) -> float:
    """The smallest positive entry of w, 0.0 when it has none: eta by scan."""
    nz = w[w > 0.0]
    return float(nz.min()) if nz.size else 0.0


def consensus_envelope_ratios(
    rounds: list[CseRound | PairwiseRound], eta: float, n_agents: int
) -> np.ndarray:
    """Per round t, the largest entrywise |[W(t)...W(1)]_ij - 1/I| over the
    geometric consensus envelope 2 (1 + eta^-L0) / (1 - eta^L0) * rate^t,
    with L0 = I - 1 and rate = exp(log_lambda_eta) (Boyd et al., "Randomized
    Gossip Algorithms", IEEE Trans. IT 2006). Every ratio is at most 1 when
    the products stay inside the envelope."""
    l0 = n_agents - 1
    log_rate = log_lambda_eta(eta, n_agents)
    coefficient = 2.0 * (1.0 + eta ** (-l0)) / (1.0 - eta**l0)
    product = np.eye(n_agents)
    ratios = np.empty(len(rounds))
    for t, wm in enumerate(rounds):
        product = wm.entries @ product
        deviation = float(np.max(np.abs(product - 1.0 / n_agents)))
        ratios[t] = deviation / (coefficient * math.exp((t + 1) * log_rate))
    return ratios


_LIMSUP_TOL = 1e-6  # verify_contraction_to_ball's allowance on the tail radius
_RECURSION_SLACK = 1e-9  # and its relative round-off allowance per recursion step


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: observed against theoretical."""

    bound_name: str
    theoretical_value: float
    observed_value: float
    satisfied: bool
    margin: float
    applicable: bool = True
    reason: str = ""


@dataclass(frozen=True)
class ContractionReport:
    """Three-part trace check of the convergence-to-a-ball guarantee.

    initial_check: all starting errors inside the outer radius;
    limsup_check: tail errors within the inner radius plus tolerance;
    recursion_check: every per-step error obeys the quadratic recursion
    with the run's own recorded descent discrepancy as perturbation.
    """

    initial_check: BoundReport
    limsup_check: BoundReport
    recursion_check: BoundReport
    n_recursion_violations: int
    all_satisfied: bool


def verify_contraction_to_ball(
    trajectory: Trajectory,
    reference_x_star: np.ndarray,
    certificate: ConvergenceCertificate,
    alpha: float,
) -> ContractionReport:
    """Check the run against the certificate built for it; alpha is the
    run's damping, the value build_certificate received."""
    x_star = np.asarray(reference_x_star, dtype=float)
    errors = np.linalg.norm(trajectory.iterates - x_star, axis=2)  # (K+1, I)
    n_updates = trajectory.n_updates

    if certificate.radii_defined:
        init_obs = float(errors[0].max())
        init_ok = init_obs < certificate.rho_max
        initial = BoundReport(
            "initial_error_inside_outer_radius",
            theoretical_value=certificate.rho_max, observed_value=init_obs,
            satisfied=init_ok,
            margin=certificate.rho_max - init_obs,
            reason="" if init_ok else "start outside the contraction region: precondition for the guarantee unmet",
        )
        if init_ok:
            tail_start = max(0, n_updates - max(1, n_updates // 4))
            tail_obs = float(errors[tail_start + 1 :].max()) if n_updates > 0 else float(errors[0].max())
            theo = certificate.rho_min + _LIMSUP_TOL
            limsup = BoundReport(
                "tail_error_inside_inner_radius",
                theoretical_value=theo, observed_value=tail_obs,
                satisfied=tail_obs <= theo, margin=theo - tail_obs,
            )
        else:
            # no convergence claim is in force, so the tail bound is vacuous
            limsup = BoundReport(
                "tail_error_inside_inner_radius", math.nan, math.nan, False,
                math.nan, applicable=False,
                reason="initial error outside rho_max: no tail claim made",
            )
    else:
        reason = "equilibrium radii undefined"
        initial = BoundReport("initial_error_inside_outer_radius", math.nan, math.nan,
                              False, math.nan, applicable=False, reason=reason)
        limsup = BoundReport("tail_error_inside_inner_radius", math.nan, math.nan,
                             False, math.nan, applicable=False, reason=reason)

    t1, t2 = certificate.T1, certificate.T2
    violations = 0
    worst_excess = -math.inf
    for k in range(n_updates):
        rhs = (
            t1 * errors[k] ** 2
            + t2 * errors[k]
            + alpha * trajectory.discrepancies[k]
        )
        excess = errors[k + 1] - rhs - _RECURSION_SLACK * (1.0 + rhs)
        violations += int(np.sum(excess > 0.0))
        worst_excess = max(worst_excess, float(excess.max()))
    recursion = BoundReport(
        "per_step_error_recursion",
        theoretical_value=0.0, observed_value=worst_excess,
        satisfied=violations == 0, margin=-worst_excess,
    )

    checks = [initial, limsup, recursion]
    all_ok = all(c.satisfied for c in checks if c.applicable) and any(
        c.applicable for c in checks
    )
    return ContractionReport(
        initial_check=initial, limsup_check=limsup, recursion_check=recursion,
        n_recursion_violations=violations, all_satisfied=all_ok,
    )


def random_states(grid: GridModel, n: int, seed: int) -> list[PowerState]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(-np.pi / 3, np.pi / 3, grid.n_buses)
        theta[grid.slack_bus] = 0.0
        v = rng.uniform(0.5, 1.4, grid.n_buses)
        out.append(PowerState(theta=theta, v=v))
    return out


CASE2_TEXT = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0    0    0 0 1 1.0  0 135 1 1.1 0.9;
    2 1 21.7 12.7 0 0 1 1.0  0 135 1 1.1 0.9;
];
mpc.gen = [
    1 40 0 50 -40 1.0 100 1 80 0;
];
mpc.branch = [
    1 2 0.01 0.1 0.02 130 130 130 0 0 1 -360 360;
];
"""


@pytest.fixture(scope="session")
def grid30() -> GridModel:
    return build_grid_model(load_case("case30"))


@pytest.fixture(scope="session")
def true30(grid30) -> PowerState:
    return newton_power_flow(grid30)


@pytest.fixture(scope="session")
def grid2() -> GridModel:
    return build_grid_model(load_case("case2"))


def model_over_rows(residuals, jacobians):
    """One model over rows from per-site residual functions g_i and their
    Jacobians G_i: f(x) = -[g_1(x); g_2(x); ...] and J(x) = -[G_1(x); ...],
    so that with z = 0 site i's residual z_i - f_i(x) is g_i(x) and its
    Jacobian -J_i(x) is G_i(x). An (I, N_u) stack is evaluated row by row."""

    def model(x):
        if x.ndim == 2:
            return tuple(np.stack(parts) for parts in zip(*map(model, x)))
        return (
            -np.concatenate([np.asarray(g(x), dtype=float) for g in residuals]),
            -np.vstack([np.asarray(jac(x), dtype=float) for jac in jacobians]),
        )

    return model


def sites_from_blocks(n_unknowns: int, residuals, jacobians):
    """core.build_sites over model_over_rows with z = 0: site i has g_i's
    rows, as many as g_i has entries at the origin, after site i - 1's."""
    sizes = [np.size(g(np.zeros(n_unknowns))) for g in residuals]
    ends = np.cumsum(sizes)
    site_rows = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    return build_sites(
        model_over_rows(residuals, jacobians), n_unknowns, site_rows, np.zeros(ends[-1])
    )


def make_toy_sites(n_unknowns: int = 3, n_sites: int = 3, seed: int = 0):
    """Small smooth NLLS testbed: g_i(x) = A_i x - b_i + 0.1 sin(x) slice.

    Mild nonlinearity keeps Gauss-Newton from being one-shot exact while
    the analytic Jacobian A_i + 0.1 diag(cos x) rows stay easy to verify.
    """
    rng = np.random.default_rng(seed)
    residuals, jacobians = [], []
    for _ in range(n_sites):
        a = rng.normal(size=(n_unknowns + 1, n_unknowns))
        b = rng.normal(size=n_unknowns + 1)
        residuals.append(lambda x, a=a, b=b: a @ x - b + 0.1 * np.sin(a @ x))
        jacobians.append(lambda x, a=a: a + 0.1 * np.cos(a @ x)[:, None] * a)
    return sites_from_blocks(n_unknowns, residuals, jacobians)


@pytest.fixture
def toy_sites():
    return make_toy_sites()


@pytest.fixture
def toy_box():
    return BoxSet.cube(3, 10.0)
