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
    Topology,
    WeightMatrix,
    build_cse_weights,
    gossip_round,
    sample_ure_round,
)


@dataclass(frozen=True)
class ExchangeSchedule:
    """Number of gossip exchanges per update.

    kind 'constant' always runs `base` exchanges; 'incrementing' runs
    base + k at update k (the schedule under which the accumulated gossip
    error admits a finite geometric sum).
    """

    kind: str = "constant"
    base: int = 3

    def __post_init__(self):
        if self.kind not in ("constant", "incrementing"):
            raise InvalidArgumentError(f"unknown schedule kind {self.kind!r}")
        if self.base < 1:
            raise InvalidArgumentError("exchange count must be >= 1")

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
            raise InvalidArgumentError("alpha must lie in (0, 1]")
        if self.max_updates < 1:
            raise InvalidArgumentError("max_updates must be >= 1")
        if self.stop_tol <= 0.0:
            raise InvalidArgumentError("stop_tol must be positive")
        if self.ridge < 0.0:
            raise InvalidArgumentError("ridge must be >= 0")


def _start_stack(x0: np.ndarray, n_agents: int, box: BoxSet) -> np.ndarray:
    """Normalize a shared vector or per-agent stack of starts, projected."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.tile(x0, (n_agents, 1))
    if x0.ndim != 2 or x0.shape[0] != n_agents:
        raise InvalidArgumentError(f"x0 must be a vector or an ({n_agents}, N_u) stack")
    return np.stack([project(row, box) for row in x0])


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
    """Everything a run produced, indexed by update k.

    iterates[k] is the (I x N_u) stack BEFORE update k; iterates[-1] is the
    final stack; vals and grads hold ||g_i||^2 and ||G_i^T g_i|| at each
    iterates[k][i]. gossip_err_vec[k][l] is the stacked deviation norm of the
    h-parts after l exchanges (index 0 = before any exchange), measured from
    mean0, their mean at the start of update k, which mixing conserves;
    gossip_err_mat likewise for the H-parts in Frobenius norm.
    mean_drift_max certifies conservation: the largest deviation of the
    payload mean from mean0 seen at any exchange.
    """

    alpha: float
    ridge: float
    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    descents: np.ndarray
    step_norms: np.ndarray
    discrepancies: np.ndarray
    exchange_counts: np.ndarray
    gossip_err_vec: list[np.ndarray]
    gossip_err_mat: list[np.ndarray]
    mean_drift_max: float
    eta_observed: float
    union_connected: np.ndarray
    early_stopped: bool

    @property
    def n_updates(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def n_agents(self) -> int:
        return self.iterates.shape[1]


def _squared_deviations(payloads: np.ndarray, mean0: np.ndarray, n_u: int) -> np.ndarray:
    """Per-row squared deviation norms from mean0 of the h-part and H-part, (rows, 2)."""
    dev = payloads - mean0
    dev *= dev
    return np.stack([dev[:, :n_u].sum(axis=1), dev[:, n_u:].sum(axis=1)], axis=1)


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
    if n_agents != gossip_config.n_agents:
        raise InvalidArgumentError(
            f"{n_agents} sites but gossip config for {gossip_config.n_agents} agents"
        )
    x0_stack = _start_stack(x0, n_agents, box)
    n_u = x0_stack.shape[1]
    rng = np.random.default_rng(rng)

    static_weights: WeightMatrix | None = None
    topo_connected = True
    if gossip_config.protocol == "cse":
        static_weights = build_cse_weights(gossip_config.topology, gossip_config.beta)
        topo_connected = gossip_config.topology.is_connected()

    x = x0_stack
    iterates = [x]
    vals, grads = [], []
    descents = []
    step_norms = []
    discrepancies = []
    exchange_counts = []
    gossip_err_vec = []
    gossip_err_mat = []
    union_connected = []
    mean_drift_max = 0.0
    eta_observed = np.inf
    early_stopped = False

    def init_step(x: np.ndarray, with_exact: bool) -> tuple[np.ndarray, np.ndarray | None]:
        # Payload stack at the agents' iterates x; records val and grad there.
        # Each agent's full normal system is assembled right after its payload
        # row, while the sites' one-iterate memo still holds x_i: normal_system
        # reads the memo's full f and J through the sites' SiteBatch, in one
        # stacked product per site size, and all the systems are solved
        # together. normal_system is looked up on the core module so that a
        # wrapper installed there (perfbench/tracing.py) sees each call.
        payloads = np.empty((n_agents, n_u * (n_u + 1)))
        a, b = np.empty((n_agents, n_u, n_u)), np.empty((n_agents, n_u))
        vals_now = []
        for i, (site, x_i) in enumerate(zip(sites, x)):
            payloads[i], val = local_init_info(site, x_i)
            vals_now.append(val)
            if with_exact:
                a[i], b[i] = core.normal_system(sites, x_i)
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
        mean0 = payloads.mean(axis=0)
        # per-agent squared deviations from mean0 and the running change of
        # the payload sum; a round updates only the rows it changed
        sq_dev = _squared_deviations(payloads, mean0, n_u)
        sum_shift = np.zeros_like(mean0)
        errs_k = [np.sqrt(sq_dev.sum(axis=0))]

        used_edges: set[tuple[int, int]] = set()
        for _ in range(ell_k):
            weights = static_weights if static_weights is not None else sample_ure_round(
                gossip_config, rng
            )
            eta_observed = min(eta_observed, weights.eta)
            rows = slice(None) if weights.pair is None else list(weights.pair)
            if weights.pair:
                used_edges.add((min(rows), max(rows)))
            before = payloads[rows].sum(axis=0)
            payloads = gossip_round(payloads, weights)
            mixed = payloads[rows]
            sum_shift += mixed.sum(axis=0) - before
            sq_dev[rows] = _squared_deviations(mixed, mean0, n_u)
            errs_k.append(np.sqrt(sq_dev.sum(axis=0)))
            mean_drift_max = max(mean_drift_max, float(np.max(np.abs(sum_shift))) / n_agents)
        if static_weights is not None:
            union_connected.append(topo_connected)
        else:
            union_connected.append(
                Topology(n_agents, frozenset(used_edges)).is_connected()
            )

        descent_stack = surrogate_descent(payloads, ggn_config.ridge)
        discrepancies.append(descent_discrepancy(descent_stack, exact))
        x_new = np.clip(x - ggn_config.alpha * descent_stack, box.lower, box.upper)
        steps = np.array([float(np.linalg.norm(step)) for step in x_new - x])
        x = x_new
        iterates.append(x)
        descents.append(descent_stack)
        step_norms.append(steps)
        exchange_counts.append(ell_k)
        errs_k = np.array(errs_k)
        gossip_err_vec.append(errs_k[:, 0])
        gossip_err_mat.append(errs_k[:, 1])

        if float(steps.max()) <= ggn_config.stop_tol:
            early_stopped = k + 1 < ggn_config.max_updates
            break

    init_step(x, False)
    return GgnTrajectory(
        alpha=ggn_config.alpha,
        ridge=ggn_config.ridge,
        iterates=np.stack(iterates),
        vals=np.asarray(vals),
        grads=np.asarray(grads),
        descents=np.stack(descents),
        step_norms=np.stack(step_norms),
        discrepancies=np.stack(discrepancies),
        exchange_counts=np.asarray(exchange_counts, dtype=int),
        gossip_err_vec=gossip_err_vec,
        gossip_err_mat=gossip_err_mat,
        mean_drift_max=mean_drift_max,
        eta_observed=float(eta_observed),
        union_connected=np.asarray(union_connected, dtype=bool),
        early_stopped=early_stopped,
    )


@dataclass
class DiffusionTrajectory:
    """Per-exchange iterates of the diffusion baseline; vals/grads as in GgnTrajectory."""

    iterates: np.ndarray
    vals: np.ndarray
    grads: np.ndarray
    step_sizes: np.ndarray
    eta_observed: float

    @property
    def n_agents(self) -> int:
        return self.iterates.shape[1]


def diminishing_steps(c: float):
    """Step schedule alpha_l = c / l (l counted from 1)."""

    def schedule(ell: int) -> float:
        return c / ell

    return schedule


def constant_steps(c: float):
    def schedule(ell: int) -> float:
        return c

    return schedule


def diffusion_baseline_run(
    sites: list[SiteModel],
    box: BoxSet,
    gossip_config: GossipConfig,
    step_schedule,
    total_exchanges: int,
    x0: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> DiffusionTrajectory:
    """First-order baseline: one mixing plus one local gradient step per
    exchange, x_i <- P[sum_j W_ij x_j - alpha_l G_i^T(x_i) g_i(x_i)]."""
    n_agents = len(sites)
    if n_agents != gossip_config.n_agents:
        raise InvalidArgumentError(
            f"{n_agents} sites but gossip config for {gossip_config.n_agents} agents"
        )
    if total_exchanges < 1:
        raise InvalidArgumentError("total_exchanges must be >= 1")
    rng = np.random.default_rng(rng)

    static_weights = None
    if gossip_config.protocol == "cse":
        static_weights = build_cse_weights(gossip_config.topology, gossip_config.beta)

    x = _start_stack(x0, n_agents, box)
    iterates = [x.copy()]
    vals, grads = [], []
    steps = []
    eta_observed = np.inf

    def gradients(x: np.ndarray) -> np.ndarray:
        # G_i^T(x_i) g_i(x_i) per agent; records val and grad at x
        terms = [site_terms(site, x[i]) for i, site in enumerate(sites)]
        stack = np.stack([jac.T @ res for res, jac in terms])
        vals.append([float(res @ res) for res, _ in terms])
        grads.append([float(np.linalg.norm(g)) for g in stack])
        return stack

    for ell in range(1, total_exchanges + 1):
        alpha_ell = float(step_schedule(ell))
        if alpha_ell < 0.0:
            raise InvalidArgumentError("step schedule produced a negative step")
        weights = static_weights if static_weights is not None else sample_ure_round(
            gossip_config, rng
        )
        eta_observed = min(eta_observed, weights.eta)
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
        eta_observed=float(eta_observed),
    )
