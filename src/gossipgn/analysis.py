"""Executable convergence certificates for the gossiped GN iteration.

Every guarantee the method carries reduces to a handful of scalar
constants: the error-recursion coefficients (T1, T2), the equilibrium
radii of that recursion, the geometric gossip-error scale C with its
consensus rate (in log form, so the rate keeps its digits on any network
size), the exchange-budget constants (C1, C2, D, ell_min) and the resulting
perturbation bound kappa. build_certificate evaluates them all, in that
order, from estimated problem constants. Constants obtained by sampling
make the certificate empirical rather than a priori; reports say which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ProblemConstants
from .errors import InvalidArgumentError
from .gossip import log_lambda_eta

_CEIL_SLACK = 1e-9  # absorbs round-off when xi sits exactly on a power of the rate


@dataclass(frozen=True)
class EquilibriumRadii:
    """Roots of rho = T1 rho^2 + T2 rho + alpha kappa, when they exist.

    The recursion contracts between the two radii; outside them no claim
    holds. defined is False when kappa is unavailable, the discriminant is
    negative or the linear coefficient leaves no positive fixed point.
    """

    defined: bool
    rho_min: float
    rho_max: float


_NO_RADII = EquilibriumRadii(defined=False, rho_min=math.nan, rho_max=math.nan)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """The certificate.* section of summary.txt: one line per field, in
    field order, after certificate.applicable."""

    eta_observed: float
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
    radii_defined: bool
    conditional: bool
    estimated_constants: bool = True


def equilibrium_radii(T1: float, T2: float, alpha: float, kappa: float) -> EquilibriumRadii:
    if T1 < 0.0 or T2 < 0.0:
        raise InvalidArgumentError("recursion coefficients must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    if math.isnan(kappa):
        return _NO_RADII
    if kappa < 0.0:
        raise InvalidArgumentError("kappa must be nonnegative")

    if T1 == 0.0:
        # Linear recursion: single fixed point, contraction above it whenever T2 < 1.
        if T2 < 1.0:
            return EquilibriumRadii(
                defined=True, rho_min=alpha * kappa / (1.0 - T2), rho_max=math.inf
            )
        return _NO_RADII
    disc = (1.0 - T2) ** 2 - 4.0 * T1 * alpha * kappa
    # a negative discriminant means the perturbation is too large; T2 > 1
    # leaves no positive fixed point
    if disc < 0.0 or T2 > 1.0:
        return _NO_RADII
    if kappa == 0.0:
        return EquilibriumRadii(defined=True, rho_min=0.0, rho_max=(1.0 - T2) / T1)
    root = math.sqrt(disc)
    rho_max = ((1.0 - T2) + root) / (2.0 * T1)
    rho_min = 2.0 * alpha * kappa / ((1.0 - T2) + root)
    return EquilibriumRadii(defined=True, rho_min=rho_min, rho_max=rho_max)


def build_certificate(
    pc: ProblemConstants,
    n_agents: int,
    n_unknowns: int,
    eta: float,
    alpha: float,
    xi: float,
    schedule_kind: str,
    interval: int = 1,
) -> ConvergenceCertificate:
    """Evaluate the paper's chain of sufficient conditions from problem constants.

    T1 multiplies the squared error of the per-agent recursion (curvature
    term), T2 the linear one; (alpha_lower, 1] is the safe damping interval.
    The gossip error obeys the envelope C * rate^l, C growing like I^(3/2)
    and blowing up as eta -> 1. The exchange budget ell_min =
    ceil(log(xi / 4D) / log(rate)), with D = C C2 (nu lambda_infty C1 C2 + 1),
    makes the perturbation kappa = 4 C1 D rate^(ell_min + 1) small. An
    incrementing schedule sums the geometric tail to lambda_infty =
    1/(1 - rate), every power of the rate taken from log(rate). Where no
    finite budget exists (a constant schedule, or C or D beyond the float
    range) D, ell_min and lambda_infty are infinite, kappa is NaN and the
    certificate is conditional.

    The gossip constants take L0 = (I - 1) B for the run's connectivity
    interval B (see gossip.connectivity_interval), B = 1 for CSE, whose every
    round is the complete graph. Single-agent runs are centralized: the
    gossip constants degenerate (C, D undefined), the perturbation is
    exactly zero and L0 = 0.
    """
    if not 0.0 < xi < 0.5:
        raise InvalidArgumentError("xi must lie in (0, 1/2)")
    if pc.sigma_min <= 0.0:
        raise InvalidArgumentError("sigma_min must be positive for the recursion constants")
    t1 = alpha * pc.omega / (2.0 * pc.sigma_min)
    t2 = (1.0 - alpha) * pc.sigma_max / pc.sigma_min + (
        math.sqrt(2.0) * alpha * pc.omega * pc.epsilon_min / pc.sigma_min**2
    )
    alpha_lower = max(1.0 - 3.0 * pc.sigma_min / pc.sigma_max, 0.0)
    l0 = (n_agents - 1) * interval
    if n_agents == 1:
        c = log_rate = c1 = c2 = d = lambda_infty = math.nan
        ell_min = kappa = 0.0
    else:
        log_rate = log_lambda_eta(eta, n_agents, interval)  # checks eta, n_agents and interval
        try:
            growth = eta ** (-l0)
        except OverflowError:
            growth = math.inf
        c = (
            2.0 * n_agents * pc.sigma_max
            * math.sqrt(n_agents * (pc.epsilon_max**2 + n_unknowns * pc.sigma_max**2))
            * (1.0 + growth) / (1.0 - eta**l0)
        )
        c1 = 2.0 * (1.0 + pc.sigma_max * pc.epsilon_max / pc.sigma_min**2)
        c2 = n_agents / pc.sigma_min**2
        lambda_infty = d = ell_min = math.inf
        kappa = math.nan
        if schedule_kind != "constant" and log_rate < 0.0:
            tail = -1.0 / math.expm1(log_rate)
            nu = max(pc.nu_delta, pc.nu_Delta)
            scale = c * c2 * (nu * tail * c1 * c2 + 1.0)
            ratio = (math.log(xi) - math.log(4.0 * scale)) / log_rate
            if ratio < math.inf:  # false where C, D or the ratio overflowed
                lambda_infty, d = tail, scale
                ell_min = float(max(0, math.ceil(ratio - _CEIL_SLACK)))
                kappa = 4.0 * c1 * d * math.exp((ell_min + 1.0) * log_rate)
    radii = equilibrium_radii(t1, t2, alpha, kappa)
    return ConvergenceCertificate(
        eta_observed=eta, T1=t1, T2=t2, rho_min=radii.rho_min, rho_max=radii.rho_max,
        kappa=kappa, alpha_lower=alpha_lower, C=c, C1=c1, C2=c2, D=d,
        lambda_eta_val=math.exp(log_rate), L0=l0, ell_min=ell_min,
        lambda_infty=lambda_infty, xi=xi, radii_defined=radii.defined,
        conditional=math.isinf(ell_min),
    )
