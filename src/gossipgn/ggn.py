"""Gossiped Gauss-Newton updates, the first-order diffusion baseline and
centralized Gauss-Newton, each returning one Trajectory.

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
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import core
from .core import BoxSet, SiteModel, objective, project, site_terms, solve_normal
from .errors import InvalidArgumentError, SingularSystemError
from .gossip import CseRound, GossipConfig, PairwiseRound, gossip_round, sample_ure_round

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
        if not 0.0 < self.stop_tol < math.inf:
            raise InvalidArgumentError(f"stop_tol: must be positive and finite, got {self.stop_tol}")
        if not 0.0 <= self.ridge < math.inf:
            raise InvalidArgumentError(f"ridge: must be >= 0 and finite, got {self.ridge}")


@dataclass(frozen=True)
class DiffusionConfig:
    """The diffusion baseline's steps: the config's `diffusion:` section.

    Exchange l (counted from 1) steps step_scale / l, for total_exchanges
    exchanges.
    """

    step_scale: float = 0.3
    total_exchanges: int = 900

    def __post_init__(self):
        if not 0.0 < self.step_scale < math.inf:
            raise InvalidArgumentError(f"step_scale: must be positive and finite, got {self.step_scale}")
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


def _rounds(
    gossip_config: GossipConfig, n_agents: int, rng: np.random.Generator
) -> Iterator[CseRound | PairwiseRound]:
    """Each exchange's round in turn: one CSE round on the complete graph over
    the agents every time, or a fresh URE round drawn from rng."""
    if gossip_config.kind == "cse":
        return itertools.repeat(CseRound(n_agents, gossip_config.beta))
    return (sample_ure_round(gossip_config, n_agents, rng) for _ in itertools.count())


def local_init_info(site: SiteModel, f: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, float]:
    """The agent's payload row and ||g_i||^2 at the state of the model's f and J.

    The row is the wire layout [h, vec(H)] of length N_u*(N_u+1), with
    h = G_i^T g_i and H = G_i^T G_i in column-major order.
    """
    res, jac = site_terms(site, f, jac)
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
    hm = np.add(hm, hm.transpose(0, 2, 1))  # a new buffer: payloads is never written
    hm /= 2.0
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
class Trajectory:
    """What a run's readers use, indexed by update k; every runner returns one.

    iterates[k] is the (I x N_u) stack BEFORE update k; iterates[-1] is the
    final stack; vals and grads hold ||g_i||^2 and ||G_i^T g_i|| at each
    iterates[k][i]. exchange_counts[k] is update k's number of gossip
    exchanges. Only GGN records discrepancies[k], each agent's descent
    discrepancy at update k, eta_observed, the smallest nonzero weight of
    any exchange matrix drawn, and exchange_pairs, each exchange's pair in
    order: () for a failed URE round, None for a CSE round, which joins all
    agents.
    """

    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    exchange_counts: np.ndarray
    discrepancies: np.ndarray | None = None
    eta_observed: float = math.nan
    exchange_pairs: tuple[tuple[int, ...] | None, ...] | None = None

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
) -> Trajectory:
    """Run the full algorithm: init info, gossip, local updates, repeat.

    x0 is one vector shared by all agents, or an (I, N_u) stack of
    per-agent starts (warm starts between measurement snapshots). Updates
    are bulk-synchronous; the run stops early once every agent's step
    norm is within stop_tol, or after max_updates. URE exchange matrices
    are drawn from `rng` (wake-up, partner, failure, in that order, once
    per exchange).
    """
    n_agents = len(sites)
    x = _start_stack(x0, n_agents, box)
    n_u = x.shape[1]
    rounds = _rounds(gossip_config, n_agents, np.random.default_rng(rng))

    iterates = [x]
    vals, grads = [], []
    discrepancies = []
    exchange_counts = []
    eta_observed = np.inf
    pairs = []

    def init_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Payload stack and exact directions at the agents' iterates x;
        # records val and grad there. An agent at the previous agent's
        # iterate, byte for byte, reuses its exact system. All exact systems
        # are solved together.
        payloads, vals_now = np.empty((n_agents, n_u * (n_u + 1))), np.empty(n_agents)
        a, b = np.empty((n_agents, n_u, n_u)), np.empty((n_agents, n_u))
        for i, f, jac in core.evaluate(sites, x):
            payloads[i], vals_now[i] = local_init_info(sites[i], f, jac)
            if i and x[i].tobytes() == x[i - 1].tobytes():
                a[i], b[i] = a[i - 1], b[i - 1]
            else:
                a[i], b[i] = core.normal_system(sites, f, jac)
        vals.append(vals_now)
        grads.append([float(np.linalg.norm(row[:n_u])) for row in payloads])
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
        payloads, exact = init_step(x)
        for weights in itertools.islice(rounds, ell_k):
            eta_observed = min(eta_observed, weights.eta)
            pairs.append(weights.pair if isinstance(weights, PairwiseRound) else None)
            payloads = gossip_round(payloads, weights, out=payloads)

        descent_stack = surrogate_descent(payloads, ggn_config.ridge)
        del payloads  # spent: the next init_step allocates its own
        discrepancies.append(descent_discrepancy(descent_stack, exact))
        x_new = np.clip(x - ggn_config.alpha * descent_stack, box.lower, box.upper)
        step_max = max(float(np.linalg.norm(step)) for step in x_new - x)
        x = x_new
        iterates.append(x)
        exchange_counts.append(ell_k)
        if step_max <= ggn_config.stop_tol:
            break

    # the final iterates need only their vals and grads
    rows = [local_init_info(sites[i], f, jac) for i, f, jac in core.evaluate(sites, x)]
    vals.append([val for _, val in rows])
    grads.append([float(np.linalg.norm(row[:n_u])) for row, _ in rows])
    return Trajectory(
        iterates=np.stack(iterates),
        vals=np.asarray(vals),
        grads=np.asarray(grads),
        exchange_counts=np.asarray(exchange_counts, dtype=int),
        discrepancies=np.stack(discrepancies),
        eta_observed=float(eta_observed),
        exchange_pairs=tuple(pairs),
    )


def diffusion_baseline_run(
    sites: list[SiteModel],
    box: BoxSet,
    gossip_config: GossipConfig,
    diffusion_config: DiffusionConfig,
    x0: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> Trajectory:
    """First-order baseline: one mixing plus one local gradient step per
    exchange, x_i <- P[sum_j W_ij x_j - alpha_l G_i^T(x_i) g_i(x_i)] with
    alpha_l = step_scale / l. Each exchange is one update, so the records
    are allocated once, before the first exchange, and filled row by row."""
    n_agents = len(sites)
    x = _start_stack(x0, n_agents, box)
    rounds = _rounds(gossip_config, n_agents, np.random.default_rng(rng))
    total = diffusion_config.total_exchanges
    iterates = np.empty((total + 1, *x.shape))
    vals = np.empty((total + 1, n_agents))
    grads = np.empty((total + 1, n_agents))
    iterates[0] = x

    def gradients(x: np.ndarray, k: int) -> np.ndarray:
        # G_i^T(x_i) g_i(x_i) per agent; records val and grad at x = iterates[k]
        terms = [site_terms(sites[i], f, jac) for i, f, jac in core.evaluate(sites, x)]
        stack = np.stack([jac.T @ res for res, jac in terms])
        vals[k] = [float(res @ res) for res, _ in terms]
        grads[k] = [float(np.linalg.norm(g)) for g in stack]
        return stack

    for ell, weights in enumerate(itertools.islice(rounds, total), start=1):
        alpha_ell = diffusion_config.step_scale / ell
        mixed = gossip_round(x, weights)
        x = np.clip(mixed - alpha_ell * gradients(x, ell - 1), box.lower, box.upper)
        iterates[ell] = x

    gradients(x, total)
    return Trajectory(
        iterates=iterates,
        vals=vals,
        grads=grads,
        exchange_counts=np.ones(total, dtype=int),
    )


def centralized_run(
    sites: list[SiteModel], box: BoxSet, ggn_config: GgnConfig, x0: np.ndarray
) -> Trajectory:
    """Centralized projected Gauss-Newton on the full normal system: one agent
    whose vals and grads are the network totals sum_i ||g_i||^2 and
    ||sum_i G_i^T g_i||, and no gossip. x0 is one vector, or the (1, N_u)
    final stack of the previous snapshot. The run stops once a step's norm
    is within stop_tol, or after max_updates.
    """
    iterates, vals, grads = [], [], []
    iterations = core.gauss_newton_iterates(sites, box, np.reshape(x0, -1), ggn_config.alpha)
    for k, (x, f, b) in enumerate(iterations):
        iterates.append(x)
        vals.append([objective(sites, f)])
        grads.append([float(np.linalg.norm(b))])
        if k == ggn_config.max_updates or (
            k > 0 and float(np.linalg.norm(x - iterates[-2])) <= ggn_config.stop_tol
        ):
            break
    return Trajectory(
        iterates=np.stack(iterates)[:, None, :],
        vals=np.asarray(vals),
        grads=np.asarray(grads),
        exchange_counts=np.zeros(len(iterates) - 1, dtype=int),
    )
