"""Gossiped Gauss-Newton updates and the first-order diffusion baseline.

Per update every agent forms its local info pair (h = G_i^T g_i,
H = G_i^T G_i), the network runs a fixed number of gossip exchanges on the
stacked pairs, and each agent then takes a projected Gauss-Newton step using
its own mixed surrogate:

    d_i = (H_i + ridge I)^-1 h_i,     x_i <- P[x_i - alpha d_i].

Because every exchange matrix is doubly stochastic, the network mean of the
info pairs is conserved, so with enough exchanges each surrogate approaches
the average of the exact normal-equation terms and the update approaches the
centralized one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import core
from .core import BoxSet, SiteModel, project, site_terms, solve_normal
from .errors import InvalidArgumentError, SingularSystemError
from .gossip import (
    GossipConfig,
    WeightMatrix,
    build_cse_weights,
    gossip_round,
    sample_ure_round,
)

SCHEDULE_KINDS = ("constant", "incrementing")


@dataclass(frozen=True)
class ExchangeSchedule:
    """Number of gossip exchanges per update: the config's `exchanges:` section.

    kind 'constant' always runs `base` exchanges; 'incrementing' runs
    base + k at update k (the schedule under which the accumulated gossip
    error admits a finite geometric sum).
    """

    kind: str = "constant"
    base: int = 3

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidArgumentError(f"kind: must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.base < 1:
            raise InvalidArgumentError(f"base: must be >= 1, got {self.base}")

    def exchanges_at(self, update_index: int) -> int:
        if self.kind == "constant":
            return self.base
        return self.base + update_index


@dataclass(frozen=True)
class GgnConfig:
    alpha: float
    schedule: ExchangeSchedule
    max_updates: int
    stop_tol: float
    ridge: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidArgumentError(f"alpha: must lie in (0, 1], got {self.alpha}")
        if self.max_updates < 1:
            raise InvalidArgumentError(f"max_updates: must be >= 1, got {self.max_updates}")
        if self.stop_tol <= 0.0:
            raise InvalidArgumentError(f"stop_tol: must be positive, got {self.stop_tol}")
        if self.ridge < 0.0:
            raise InvalidArgumentError(f"ridge: must be >= 0, got {self.ridge}")


@dataclass(frozen=True)
class DiffusionConfig:
    """The diffusion baseline's steps: the config's `diffusion:` section.

    Exchange l (counted from 1) steps step_scale / l, for total_exchanges
    exchanges.
    """

    step_scale: float = 0.3
    total_exchanges: int = 900

    def __post_init__(self):
        if self.step_scale <= 0.0:
            raise InvalidArgumentError(f"step_scale: must be positive, got {self.step_scale}")
        if self.total_exchanges < 1:
            raise InvalidArgumentError(f"total_exchanges: must be >= 1, got {self.total_exchanges}")


def _start_stack(x0: np.ndarray, n_agents: int, box: BoxSet) -> np.ndarray:
    """Normalize a shared vector or per-agent stack of starts, projected."""
    if n_agents < 1:
        raise InvalidArgumentError("need at least one agent")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.tile(x0, (n_agents, 1))
    if x0.ndim != 2 or x0.shape[0] != n_agents:
        raise InvalidArgumentError(f"x0 must be a vector or an ({n_agents}, N_u) stack")
    return np.stack([project(row, box) for row in x0])


def _static_weights(gossip_config: GossipConfig, n_agents: int) -> WeightMatrix | None:
    """The CSE matrix on the complete graph over the agents, or None for URE,
    whose rounds sample_ure_round draws per exchange."""
    if gossip_config.kind == "cse":
        return build_cse_weights(n_agents, gossip_config.beta)
    return None


def local_init_info(site: SiteModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The agent's initial payload row at its own iterate, and ||g_i||^2.

    The row is the wire layout [h, vec(H)] of length N_u*(N_u+1), with
    h = G_i^T g_i and H = G_i^T G_i in column-major order.
    """
    res, jac = site_terms(site, x)
    return np.concatenate([jac.T @ res, (jac.T @ jac).reshape(-1, order="F")]), float(res @ res)


def surrogate_descent(payloads: np.ndarray, ridge: float) -> np.ndarray:
    """d_i = (H_i + ridge_i I)^-1 h_i for every mixed payload row, as an (I, N_u) stack.

    Each H_i is re-symmetrized to stop mixing's rounding drift, and ridge_i
    is ridge scaled by H_i's mean diagonal mass, so the regularizer is
    unit-free. An exactly zero row means no measurement information reached
    that agent in the current update (its own Jacobian vanished and no
    exchange touched it). Its surrogate is 0 = 0 d, whose minimum-norm
    solution is a zero step; moving on no information would be arbitrary.
    All rows are solved in one solve_normal call, whose errors name the agent.
    """
    n_rows, width = payloads.shape
    n_u = int(round((np.sqrt(4.0 * width + 1.0) - 1.0) / 2.0))
    if n_u < 1 or n_u * (n_u + 1) != width:
        raise InvalidArgumentError("payload length is not N_u*(N_u+1)")
    h = payloads[:, :n_u]
    hm = payloads[:, n_u:].reshape(n_rows, n_u, n_u)
    hm = (hm + hm.transpose(0, 2, 1)) / 2.0
    if ridge != 0.0:
        diagonal = np.einsum("kii->ki", hm)  # a writeable view
        diagonal += ridge * np.trace(hm, axis1=1, axis2=2)[:, None] / n_u
    # I d = 0 gives the zero step exactly
    hm[~(h.any(axis=1) | hm.any(axis=(1, 2)))] = np.eye(n_u)
    return solve_normal(hm, h, context="agent")


def descent_discrepancy(mixed: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Per-agent ||d_i(gossiped) - d_i(exact at x_i)|| from two (I, N_u) stacks.

    The exact direction re-solves the full normal equations at that agent's
    own iterate, so the result isolates the gossip-induced error. A NaN row
    of `exact` (the full system was singular at that iterate, possible at
    degenerate box corners) yields NaN for that agent, so instrumentation
    cannot kill a run the algorithm itself survives.
    """
    return np.array([float(np.linalg.norm(dm - de)) for dm, de in zip(mixed, exact)])


@dataclass
class GgnTrajectory:
    """What a run's readers use, indexed by update k.

    iterates[k] is the (I x N_u) stack BEFORE update k; iterates[-1] is the
    final stack; vals and grads hold ||g_i||^2 and ||G_i^T g_i|| at each
    iterates[k][i]. discrepancies[k] is each agent's descent discrepancy
    at update k, exchange_counts[k] its number of exchanges, and
    eta_observed the smallest nonzero weight of any exchange matrix drawn.
    """

    alpha: float
    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    discrepancies: np.ndarray
    exchange_counts: np.ndarray
    eta_observed: float

    @property
    def n_updates(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def n_agents(self) -> int:
        return self.iterates.shape[1]


def ggn_run(
    sites: list[SiteModel],
    box: BoxSet,
    gossip_config: GossipConfig,
    ggn_config: GgnConfig,
    x0: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> GgnTrajectory:
    """Run the full algorithm: init info, gossip, local updates, repeat.

    x0 is one vector shared by all agents, or an (I, N_u) stack of
    per-agent starts (warm starts between measurement snapshots). Updates
    are bulk-synchronous; the run stops early once every agent's step
    norm is within stop_tol, or after max_updates. URE exchange matrices
    are drawn from `rng` (wake-up, partner, failure, in that order, once
    per exchange).
    """
    n_agents = len(sites)
    static_weights = _static_weights(gossip_config, n_agents)
    x0_stack = _start_stack(x0, n_agents, box)
    n_u = x0_stack.shape[1]
    rng = np.random.default_rng(rng)

    x = x0_stack
    iterates = [x]
    vals, grads = [], []
    discrepancies = []
    exchange_counts = []
    eta_observed = np.inf

    def init_step(x: np.ndarray, with_exact: bool) -> tuple[np.ndarray, np.ndarray | None]:
        # Payload stack at the agents' iterates x; records val and grad there.
        # stack_rows evaluates the sites' shared model a slice of x at a time,
        # so each agent's payload row and full normal system read its memo:
        # normal_system reads the full f and J through the sites' SiteBatch,
        # in one stacked product per site size, and all the systems are solved
        # together. normal_system is looked up on the core module so that a
        # wrapper installed there (perfbench/tracing.py) sees each call.
        payloads = np.empty((n_agents, n_u * (n_u + 1)))
        a, b = np.empty((n_agents, n_u, n_u)), np.empty((n_agents, n_u))
        vals_now = []
        for i in core.stack_rows(sites, x):
            payloads[i], val = local_init_info(sites[i], x[i])
            vals_now.append(val)
            if with_exact:
                a[i], b[i] = core.normal_system(sites, x[i])
        vals.append(vals_now)
        grads.append([float(np.linalg.norm(row[:n_u])) for row in payloads])
        if not with_exact:
            return payloads, None
        try:
            return payloads, solve_normal(a, b, context="exact descent")
        except SingularSystemError:
            # a singular full system (possible at degenerate box corners)
            # leaves only that agent's exact direction NaN
            exact = np.full_like(b, np.nan)
            for i in range(n_agents):
                with contextlib.suppress(SingularSystemError):
                    exact[i] = solve_normal(a[i], b[i], context="exact descent")
            return payloads, exact

    for k in range(ggn_config.max_updates):
        ell_k = ggn_config.schedule.exchanges_at(k)
        payloads, exact = init_step(x, True)
        for _ in range(ell_k):
            weights = static_weights if static_weights is not None else sample_ure_round(
                gossip_config, n_agents, rng
            )
            eta_observed = min(eta_observed, weights.eta)
            payloads = gossip_round(payloads, weights)

        descent_stack = surrogate_descent(payloads, ggn_config.ridge)
        discrepancies.append(descent_discrepancy(descent_stack, exact))
        x_new = np.clip(x - ggn_config.alpha * descent_stack, box.lower, box.upper)
        step_max = max(float(np.linalg.norm(step)) for step in x_new - x)
        x = x_new
        iterates.append(x)
        exchange_counts.append(ell_k)
        if step_max <= ggn_config.stop_tol:
            break

    init_step(x, False)
    return GgnTrajectory(
        alpha=ggn_config.alpha,
        iterates=np.stack(iterates),
        vals=np.asarray(vals),
        grads=np.asarray(grads),
        discrepancies=np.stack(discrepancies),
        exchange_counts=np.asarray(exchange_counts, dtype=int),
        eta_observed=float(eta_observed),
    )


@dataclass
class DiffusionTrajectory:
    """Per-exchange iterates of the diffusion baseline; vals/grads as in GgnTrajectory."""

    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    step_sizes: np.ndarray


def diffusion_baseline_run(
    sites: list[SiteModel],
    box: BoxSet,
    gossip_config: GossipConfig,
    diffusion_config: DiffusionConfig,
    x0: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> DiffusionTrajectory:
    """First-order baseline: one mixing plus one local gradient step per
    exchange, x_i <- P[sum_j W_ij x_j - alpha_l G_i^T(x_i) g_i(x_i)] with
    alpha_l = step_scale / l."""
    n_agents = len(sites)
    static_weights = _static_weights(gossip_config, n_agents)
    rng = np.random.default_rng(rng)
    x = _start_stack(x0, n_agents, box)
    iterates = [x.copy()]
    vals, grads = [], []
    steps = []

    def gradients(x: np.ndarray) -> np.ndarray:
        # G_i^T(x_i) g_i(x_i) per agent; records val and grad at x
        terms = [site_terms(sites[i], x[i]) for i in core.stack_rows(sites, x)]
        stack = np.stack([jac.T @ res for res, jac in terms])
        vals.append([float(res @ res) for res, _ in terms])
        grads.append([float(np.linalg.norm(g)) for g in stack])
        return stack

    for ell in range(1, diffusion_config.total_exchanges + 1):
        alpha_ell = diffusion_config.step_scale / ell
        weights = static_weights if static_weights is not None else sample_ure_round(
            gossip_config, n_agents, rng
        )
        mixed = gossip_round(x, weights)
        x = np.clip(mixed - alpha_ell * gradients(x), box.lower, box.upper)
        iterates.append(x.copy())
        steps.append(alpha_ell)

    gradients(x)
    return DiffusionTrajectory(
        iterates=np.stack(iterates),
        vals=np.asarray(vals),
        grads=np.asarray(grads),
        step_sizes=np.asarray(steps),
    )
