"""Executable convergence certificates for the gossiped GN iteration.

Every guarantee the method carries reduces to a handful of scalar
constants: the error-recursion coefficients (T1, T2), the equilibrium
radii of that recursion, the geometric gossip-error scale C with its
consensus rate, the exchange-budget constants (C1, C2, D, ell_min) and
the resulting perturbation bound kappa. This module evaluates all of
them from estimated problem constants and checks the convergence-to-a-ball
guarantee against a recorded run. Constants obtained by sampling make the
certificate empirical rather than a priori; reports say which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemConstants, SiteModel, agent_systems
from .errors import InvalidArgumentError
from .ggn import Trajectory
from .gossip import lambda_eta

_CEIL_SLACK = 1e-9  # absorbs round-off when xi sits exactly on a power of the rate
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
class EquilibriumRadii:
    """Roots of rho = T1 rho^2 + T2 rho + alpha kappa, when they exist.

    The recursion contracts between the two radii; outside them no claim
    holds. defined is False when the discriminant is negative or the
    linear coefficient leaves no positive fixed point.
    """

    defined: bool
    rho_min: float
    rho_max: float
    discriminant: float
    reason: str = ""


@dataclass(frozen=True)
class ExchangePlan:
    """Minimum-exchange budget and its auxiliary constants.

    With an incrementing exchange schedule the geometric tail sums to
    lambda_infty = 1/(1 - rate); a constant schedule makes that sum
    divergent, so the budget (and anything downstream) is only
    conditional.
    """

    c1: float
    c2: float
    d: float
    lambda_infty: float
    ell_min: float
    nu: float
    schedule_kind: str
    divergent: bool


@dataclass(frozen=True)
class ConvergenceCertificate:
    T1: float
    T2: float
    rho_min: float
    rho_max: float
    kappa: float
    alpha_lower: float
    C: float
    C1: float
    C2: float
    D: float
    lambda_eta_val: float
    L0: int
    ell_min: float
    lambda_infty: float
    xi: float
    alpha: float
    schedule_kind: str
    radii_defined: bool
    discriminant: float
    conditional: bool
    estimated_constants: bool
    n_agents: int
    n_unknowns: int
    eta: float

    def __post_init__(self):
        if self.T1 < 0.0:
            raise InvalidArgumentError("T1 must be nonnegative")
        if self.T2 < 0.0:
            raise InvalidArgumentError("T2 must be nonnegative")
        if not 0.0 < self.xi < 0.5:
            raise InvalidArgumentError("xi must lie in (0, 1/2)")
        if not math.isnan(self.kappa) and self.kappa < 0.0:
            raise InvalidArgumentError("kappa must be nonnegative")
        if self.radii_defined and self.rho_min > self.rho_max:
            raise InvalidArgumentError("rho_min exceeds rho_max")


def recursion_constants(
    pc: ProblemConstants, alpha: float, epsilon_min: float | None = None
) -> tuple[float, float]:
    """Coefficients of the per-agent error recursion.

    T1 multiplies the squared error (curvature term), T2 the linear one.
    With alpha = 1 and a zero-residual fit T2 vanishes and the recursion
    is purely quadratic.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    if epsilon_min is None:
        epsilon_min = pc.epsilon_min
    if epsilon_min < 0.0:
        raise InvalidArgumentError("epsilon_min must be nonnegative")
    if pc.sigma_min <= 0.0:
        raise InvalidArgumentError("sigma_min must be positive for the recursion constants")
    t1 = alpha * pc.omega / (2.0 * pc.sigma_min)
    t2 = (1.0 - alpha) * pc.sigma_max / pc.sigma_min + (
        math.sqrt(2.0) * alpha * pc.omega * epsilon_min / pc.sigma_min**2
    )
    return t1, t2


def admissible_alpha(pc: ProblemConstants) -> float:
    """Lower end of the safe step-size interval (alpha_lower, 1]."""
    if pc.sigma_max <= 0.0:
        raise InvalidArgumentError("sigma_max must be positive")
    return max(1.0 - 3.0 * pc.sigma_min / pc.sigma_max, 0.0)


def equilibrium_radii(T1: float, T2: float, alpha: float, kappa: float) -> EquilibriumRadii:
    if T1 < 0.0 or T2 < 0.0:
        raise InvalidArgumentError("recursion coefficients must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    if math.isnan(kappa):
        return EquilibriumRadii(
            defined=False, rho_min=math.nan, rho_max=math.nan,
            discriminant=math.nan, reason="perturbation bound unavailable",
        )
    if kappa < 0.0:
        raise InvalidArgumentError("kappa must be nonnegative")

    disc = (1.0 - T2) ** 2 - 4.0 * T1 * alpha * kappa
    if T1 == 0.0:
        # Linear recursion: single fixed point, contraction above it whenever T2 < 1.
        if T2 < 1.0:
            return EquilibriumRadii(
                defined=True, rho_min=alpha * kappa / (1.0 - T2),
                rho_max=math.inf, discriminant=disc,
            )
        return EquilibriumRadii(
            defined=False, rho_min=math.nan, rho_max=math.nan,
            discriminant=disc, reason="linear coefficient reaches 1: no contraction",
        )
    if disc < 0.0:
        return EquilibriumRadii(
            defined=False, rho_min=math.nan, rho_max=math.nan,
            discriminant=disc, reason="negative discriminant: perturbation too large",
        )
    if T2 > 1.0:
        return EquilibriumRadii(
            defined=False, rho_min=math.nan, rho_max=math.nan,
            discriminant=disc, reason="linear coefficient exceeds 1: no positive fixed point",
        )
    if kappa == 0.0:
        return EquilibriumRadii(
            defined=True, rho_min=0.0, rho_max=(1.0 - T2) / T1, discriminant=disc,
        )
    root = math.sqrt(disc)
    rho_max = ((1.0 - T2) + root) / (2.0 * T1)
    rho_min = 2.0 * alpha * kappa / ((1.0 - T2) + root)
    return EquilibriumRadii(defined=True, rho_min=rho_min, rho_max=rho_max, discriminant=disc)


def gossip_error_scale(pc: ProblemConstants, n_agents: int, n_unknowns: int, eta: float) -> float:
    """Scale C of the geometric gossip-error envelope C * rate^l.

    Grows like I^(3/2) with the network size and blows up as eta -> 1
    (weights with vanishing off-diagonal mass mix arbitrarily slowly).
    NaN for a single agent: there is nothing to gossip and the envelope
    has no meaning.
    """
    if n_agents < 1:
        raise InvalidArgumentError("n_agents must be >= 1")
    if n_agents == 1:
        return math.nan
    if not 0.0 < eta < 1.0:
        raise InvalidArgumentError("eta must lie in (0, 1)")
    l0 = n_agents - 1
    lead = 2.0 * n_agents * pc.sigma_max * math.sqrt(
        n_agents * (pc.epsilon_max**2 + n_unknowns * pc.sigma_max**2)
    )
    return lead * (1.0 + eta ** (-l0)) / (1.0 - eta**l0)


def min_exchanges_plan(
    pc: ProblemConstants,
    n_agents: int,
    gossip_scale: float,
    lambda_eta_val: float,
    xi: float,
    schedule_kind: str,
) -> ExchangePlan:
    """Exchange budget ell_min making the descent perturbation provably small.

    ell_min = ceil(log(xi / 4D) / log(rate)) with D = C C2 (nu lambda_infty
    C1 C2 + 1). A constant exchange schedule has no finite geometric tail,
    so the plan comes back divergent (infinite D and ell_min) and any
    certificate built on it is conditional.
    """
    if not 0.0 < xi < 0.5:
        raise InvalidArgumentError("xi must lie in (0, 1/2)")
    if schedule_kind not in ("constant", "incrementing"):
        raise InvalidArgumentError(f"unknown schedule kind {schedule_kind!r}")
    if not 0.0 < lambda_eta_val < 1.0:
        raise InvalidArgumentError("consensus rate must lie in (0, 1)")
    if gossip_scale <= 0.0 or math.isnan(gossip_scale):
        raise InvalidArgumentError("gossip error scale must be positive and finite")
    if pc.sigma_min <= 0.0:
        raise InvalidArgumentError("sigma_min must be positive")

    c1 = 2.0 * (1.0 + pc.sigma_max * pc.epsilon_max / pc.sigma_min**2)
    c2 = n_agents / pc.sigma_min**2
    nu = max(pc.nu_delta, pc.nu_Delta)
    divergent = schedule_kind == "constant"
    if divergent:
        lambda_infty = math.inf
        d = math.inf
        ell_min = math.inf
    else:
        lambda_infty = 1.0 / (1.0 - lambda_eta_val)
        d = gossip_scale * c2 * (nu * lambda_infty * c1 * c2 + 1.0)
        ratio = math.log(xi / (4.0 * d)) / math.log(lambda_eta_val)
        ell_min = float(max(0, math.ceil(ratio - _CEIL_SLACK)))
    return ExchangePlan(
        c1=c1, c2=c2, d=d, lambda_infty=lambda_infty, ell_min=ell_min,
        nu=nu, schedule_kind=schedule_kind, divergent=divergent,
    )


def perturbation_bound(c1: float, d: float, lambda_eta_val: float, ell_min: float) -> float:
    """kappa = 4 C1 D rate^(ell_min + 1); decays geometrically in ell_min."""
    if c1 < 0.0:
        raise InvalidArgumentError("C1 must be nonnegative")
    if not 0.0 < lambda_eta_val < 1.0:
        raise InvalidArgumentError("consensus rate must lie in (0, 1)")
    if ell_min < 0.0:
        raise InvalidArgumentError("ell_min must be nonnegative")
    # inf * 0 when the plan is divergent: propagate as nan (no finite bound).
    return 4.0 * c1 * d * lambda_eta_val ** (ell_min + 1.0)


@dataclass(frozen=True)
class SurrogateMismatch:
    """Per-agent gap between the network-average info and the exact one.

    delta compares the averaged gradient-type term against the full
    gradient term evaluated at that agent's iterate; big_delta the same
    for the matrix term (spectral norm). disagreement_sums[i] is
    sum_j ||x_i - x_j||, the quantity the Lipschitz envelopes scale with.
    """

    delta_norms: np.ndarray
    big_delta_norms: np.ndarray
    disagreement_sums: np.ndarray
    delta_bounds: np.ndarray | None = None
    big_delta_bounds: np.ndarray | None = None
    delta_within: bool | None = None
    big_delta_within: bool | None = None


def surrogate_mismatch(
    sites: list[SiteModel], xs: np.ndarray, pc: ProblemConstants | None = None
) -> SurrogateMismatch:
    """Mismatch of the averaged own-iterate info pair at the (I, N_u) iterate
    stack xs, which must hold one iterate per site (see agent_systems)."""
    n_agents = len(sites)
    xs = np.asarray(xs, dtype=float)
    a_full, b_full, hm_own, h_own, _ = agent_systems(sites, xs)
    h_bar = np.mean(h_own, axis=0)
    hm_bar = np.mean(hm_own, axis=0)

    delta_norms = np.empty(n_agents)
    big_delta_norms = np.empty(n_agents)
    disagreement = np.empty(n_agents)
    for i, x in enumerate(xs):
        delta_norms[i] = float(np.linalg.norm(h_bar - b_full[i] / n_agents))
        big_delta_norms[i] = float(np.linalg.norm(hm_bar - a_full[i] / n_agents, ord=2))
        disagreement[i] = float(sum(np.linalg.norm(x - xj) for xj in xs))

    if pc is None:
        return SurrogateMismatch(delta_norms, big_delta_norms, disagreement)
    delta_bounds = pc.nu_delta / n_agents * disagreement
    big_delta_bounds = pc.nu_Delta / n_agents * disagreement
    tol = 1e-12
    return SurrogateMismatch(
        delta_norms, big_delta_norms, disagreement,
        delta_bounds=delta_bounds,
        big_delta_bounds=big_delta_bounds,
        delta_within=bool(np.all(delta_norms <= delta_bounds + tol)),
        big_delta_within=bool(np.all(big_delta_norms <= big_delta_bounds + tol)),
    )


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
) -> ContractionReport:
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

    t1, t2, alpha = certificate.T1, certificate.T2, certificate.alpha
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


def build_certificate(
    pc: ProblemConstants,
    n_agents: int,
    n_unknowns: int,
    eta: float,
    alpha: float,
    xi: float = 0.25,
    schedule_kind: str = "incrementing",
    estimated_constants: bool = True,
) -> ConvergenceCertificate:
    """Evaluate the full certificate pipeline from problem constants.

    Single-agent runs are centralized: the gossip constants degenerate
    (C, D undefined) and the perturbation is exactly zero. The connectivity
    interval L is taken as 1, so L0 = I - 1.
    """
    t1, t2 = recursion_constants(pc, alpha)
    alpha_lower = admissible_alpha(pc)
    if n_agents == 1:
        c = rate = math.nan
        plan = ExchangePlan(
            c1=math.nan, c2=math.nan, d=math.nan, lambda_infty=math.nan, ell_min=0.0,
            nu=math.nan, schedule_kind=schedule_kind, divergent=False,
        )
        kappa = 0.0
    else:
        c = gossip_error_scale(pc, n_agents, n_unknowns, eta)
        rate = lambda_eta(eta, n_agents)
        plan = min_exchanges_plan(pc, n_agents, c, rate, xi, schedule_kind)
        if plan.divergent:
            kappa = math.nan
        else:
            kappa = perturbation_bound(plan.c1, plan.d, rate, plan.ell_min)
    radii = equilibrium_radii(t1, t2, alpha, kappa)
    return ConvergenceCertificate(
        T1=t1, T2=t2, rho_min=radii.rho_min, rho_max=radii.rho_max,
        kappa=kappa, alpha_lower=alpha_lower, C=c, C1=plan.c1, C2=plan.c2,
        D=plan.d, lambda_eta_val=rate, L0=n_agents - 1, ell_min=plan.ell_min,
        lambda_infty=plan.lambda_infty, xi=xi, alpha=alpha,
        schedule_kind=schedule_kind, radii_defined=radii.defined,
        discriminant=radii.discriminant, conditional=plan.divergent,
        estimated_constants=estimated_constants,
        n_agents=n_agents, n_unknowns=n_unknowns, eta=eta,
    )
