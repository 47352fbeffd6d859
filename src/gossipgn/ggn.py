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

from dataclasses import dataclass

import numpy as np

from .core import BoxSet, SiteModel, exact_descent, project, site_terms, solve_normal
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
class InfoVector:
    """Gossip payload of one agent: vector term h and matrix term H.

    On the wire this is the concatenation [h, vec(H)] of length
    N_u*(N_u+1); H is kept symmetric (mixing preserves symmetry, the
    constructor re-symmetrizes to stop rounding drift).
    """

    h: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        hm = np.asarray(self.H, dtype=float)
        if hm.shape != (h.size, h.size):
            raise InvalidArgumentError("info matrix shape does not match vector length")
        scale = max(1.0, float(np.max(np.abs(hm)))) if hm.size else 1.0
        if float(np.max(np.abs(hm - hm.T))) > 1e-12 * scale:
            raise InvalidArgumentError("info matrix is not symmetric")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "H", (hm + hm.T) / 2.0)

    @property
    def n_unknowns(self) -> int:
        return self.h.size

    def to_payload(self) -> np.ndarray:
        return np.concatenate([self.h, self.H.reshape(-1, order="F")])

    @staticmethod
    def from_payload(payload: np.ndarray, n_unknowns: int) -> "InfoVector":
        payload = np.asarray(payload, dtype=float)
        if payload.size != n_unknowns * (n_unknowns + 1):
            raise InvalidArgumentError("payload length is not N_u*(N_u+1)")
        h = payload[:n_unknowns]
        hm = payload[n_unknowns:].reshape((n_unknowns, n_unknowns), order="F")
        return InfoVector(h=h, H=hm)


@dataclass
class AgentState:
    """Mutable per-agent record: iterate, current surrogate, last step."""

    agent_id: int
    x: np.ndarray
    info: InfoVector | None = None
    last_descent: np.ndarray | None = None


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


def local_init_info(site: SiteModel, x: np.ndarray) -> tuple[InfoVector, float]:
    """Initial info pair at the agent's own iterate, and its value ||g_i||^2."""
    res, jac = site_terms(site, x)
    return InfoVector(h=jac.T @ res, H=jac.T @ jac), float(res @ res)


def _effective_ridge(hm: np.ndarray, ridge: float) -> float:
    # Scaled by the mean diagonal mass so the regularizer is unit-free.
    if ridge == 0.0:
        return 0.0
    n = hm.shape[0]
    return ridge * float(np.trace(hm)) / max(n, 1)


def surrogate_descent(info: InfoVector, ridge: float, context: str) -> np.ndarray:
    """d = (H + ridge_eff I)^-1 h for one agent's mixed surrogate.

    An exactly zero info pair means no measurement information reached this
    agent in the current update (its own Jacobian vanished and no exchange
    touched it). The surrogate is 0 = 0 d, whose minimum-norm solution is a
    zero step; moving on no information would be arbitrary.
    """
    hm = info.H
    if not np.any(hm) and not np.any(info.h):
        return np.zeros_like(info.h)
    r = _effective_ridge(hm, ridge)
    if r != 0.0:
        hm = hm + r * np.eye(hm.shape[0])
    return solve_normal(hm, info.h, context=context)


def local_update(agent: AgentState, alpha: float, box: BoxSet, ridge: float) -> AgentState:
    """Projected GN step from the agent's post-gossip surrogate."""
    if agent.info is None:
        raise InvalidArgumentError(f"agent {agent.agent_id} has no info vector")
    d = surrogate_descent(agent.info, ridge, context=f"agent {agent.agent_id}")
    x_new = project(agent.x - alpha * d, box)
    return AgentState(agent_id=agent.agent_id, x=x_new, info=agent.info, last_descent=d)


def descent_discrepancy(mixed: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Per-agent ||d_i(gossiped) - d_i(exact at x_i)|| from two (I, N_u) stacks.

    The exact direction re-solves the full normal equations at that agent's
    own iterate, so the result isolates the gossip-induced error. A NaN row
    of `exact` (the full system was singular at that iterate, possible at
    degenerate box corners) yields NaN for that agent, so instrumentation
    cannot kill a run the algorithm itself survives.
    """
    return np.array([float(np.linalg.norm(dm - de)) for dm, de in zip(mixed, exact)])


def _exact_or_nan(sites: list[SiteModel], x: np.ndarray) -> np.ndarray:
    try:
        return exact_descent(sites, x)
    except SingularSystemError:
        return np.full(x.size, np.nan)


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

    agents = [AgentState(agent_id=i, x=x0_stack[i].copy()) for i in range(n_agents)]
    iterates = [x0_stack.copy()]
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

    def init_step(with_exact: bool) -> tuple[np.ndarray, np.ndarray | None]:
        # Payload stack at the agents' current iterates; records val and grad
        # there. Each exact direction is solved right after the agent's info
        # pair, while the sites' one-iterate memo still holds x_i.
        infos, vals_now, exact = [], [], []
        for site, agent in zip(sites, agents):
            info, val = local_init_info(site, agent.x)
            infos.append(info)
            vals_now.append(val)
            if with_exact:
                exact.append(_exact_or_nan(sites, agent.x))
        vals.append(vals_now)
        grads.append([float(np.linalg.norm(info.h)) for info in infos])
        payloads = np.stack([info.to_payload() for info in infos])
        return payloads, np.stack(exact) if with_exact else None

    for k in range(ggn_config.max_updates):
        ell_k = ggn_config.schedule.exchanges_at(k)
        payloads, exact = init_step(True)
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

        for i, agent in enumerate(agents):
            agent.info = InfoVector.from_payload(payloads[i], n_u)
        new_agents = [
            local_update(agent, ggn_config.alpha, box, ggn_config.ridge) for agent in agents
        ]
        descent_stack = np.stack([a.last_descent for a in new_agents])
        discrepancies.append(descent_discrepancy(descent_stack, exact))
        steps = np.array(
            [float(np.linalg.norm(na.x - a.x)) for na, a in zip(new_agents, agents)]
        )
        agents = new_agents
        iterates.append(np.stack([a.x for a in agents]))
        descents.append(descent_stack)
        step_norms.append(steps)
        exchange_counts.append(ell_k)
        errs_k = np.array(errs_k)
        gossip_err_vec.append(errs_k[:, 0])
        gossip_err_mat.append(errs_k[:, 1])

        if float(steps.max()) <= ggn_config.stop_tol:
            early_stopped = k + 1 < ggn_config.max_updates
            break

    init_step(False)
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
