"""Gossip weight matrices and exchange rounds.

Two protocols are provided. CSE (coordinated static exchange) mixes every
agent every round with one fixed Laplacian-based matrix W = I - w*L. URE
(uncoordinated random exchange) wakes one random agent per round, which
averages pairwise with one partner; every other agent idles. Both emit
symmetric doubly stochastic matrices, so each exchange preserves the network
average of whatever payload is being mixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

STOCHASTIC_TOL = 1e-12
PROTOCOLS = ("cse", "ure")


@dataclass(frozen=True)
class Topology:
    """Undirected communication graph on agents 0..n_agents-1."""

    n_agents: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_agents < 1:
            raise InvalidArgumentError("need at least one agent")
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise InvalidArgumentError(f"self-loop on agent {i}")
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents):
                raise InvalidArgumentError(f"edge ({i},{j}) endpoint out of range")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_agents, self.n_agents))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def is_connected(self) -> bool:
        if self.n_agents <= 1:
            return True
        neighbors = [[] for _ in range(self.n_agents)]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_agents

    @staticmethod
    def full(n_agents: int) -> "Topology":
        edges = frozenset(
            (i, j) for i in range(n_agents) for j in range(i + 1, n_agents)
        )
        return Topology(n_agents, edges)

    @staticmethod
    def path(n_agents: int) -> "Topology":
        return Topology(n_agents, frozenset((i, i + 1) for i in range(n_agents - 1)))

    @staticmethod
    def ring(n_agents: int) -> "Topology":
        if n_agents < 3:
            return Topology.path(n_agents)
        edges = set((i, i + 1) for i in range(n_agents - 1))
        edges.add((0, n_agents - 1))
        return Topology(n_agents, frozenset(edges))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly stochastic mixing matrix for one exchange round.

    eta is the smallest nonzero entry; it feeds the geometric consensus-rate
    bound (lambda_eta below). pair lists the agents whose rows differ from
    the identity: the two agents of a pairwise round, or () for a round that
    mixes no one (a failed link). It is None for a matrix that gossip_round
    applies densely (CSE).
    """

    entries: np.ndarray
    eta: float
    pair: tuple[int, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        check_weight_matrix(w)
        if self.pair is not None:
            mixing = np.flatnonzero(np.any(w != np.eye(w.shape[0]), axis=1)).tolist()
            if len(self.pair) > 2 or sorted(set(self.pair)) != mixing:
                raise InvalidArgumentError(f"pair {self.pair} is not the set of rows that mix")

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]


def check_weight_matrix(w: np.ndarray, tol: float = STOCHASTIC_TOL) -> None:
    """Raise when w is not symmetric, nonnegative, doubly stochastic."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidArgumentError("weight matrix must be square")
    if np.any(w < -tol):
        raise InvalidArgumentError("weight matrix has negative entries")
    if np.max(np.abs(w - w.T)) > tol:
        raise InvalidArgumentError("weight matrix not symmetric")
    if np.max(np.abs(w.sum(axis=0) - 1.0)) > tol or np.max(np.abs(w.sum(axis=1) - 1.0)) > tol:
        raise InvalidArgumentError("weight matrix not doubly stochastic")


def min_nonzero_entry(w: np.ndarray) -> float:
    nz = w[w > 0.0]
    return float(nz.min()) if nz.size else 0.0


@dataclass(frozen=True)
class GossipConfig:
    """Protocol parameters for one experiment: the config's `protocol:` section.

    The agents are the sites, so the network comes from the site list: CSE
    mixes over the complete graph on them, and a woken URE agent picks its
    partner uniformly among the others. link_failure_prob applies per
    selected pair per round; a failed round mixes nothing (identity).
    """

    kind: str = "cse"
    beta: float = 0.3
    link_failure_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in PROTOCOLS:
            raise InvalidArgumentError(f"kind: must be one of {PROTOCOLS}, got {self.kind!r}")
        if not 0.0 < self.beta < 1.0:
            raise InvalidArgumentError(f"beta: must lie in (0, 1), got {self.beta}")
        if not 0.0 <= self.link_failure_prob < 1.0:
            raise InvalidArgumentError(f"link_failure_prob: {self.link_failure_prob} outside [0, 1)")


def build_cse_weights(topology: Topology, beta: float) -> WeightMatrix:
    """Laplacian weights W = I - w L with w = beta / max degree.

    An empty edge set on more than one agent yields the identity (with a
    warning): nothing ever mixes. Disconnectedness is allowed here and
    checked separately. beta is a GossipConfig's, which lies in (0, 1).
    """
    n = topology.n_agents
    adj = topology.adjacency()
    degrees = adj.sum(axis=1)
    max_deg = degrees.max() if n else 0.0
    if max_deg == 0.0:
        if n > 1:
            warnings.warn("topology has no edges; weight matrix is the identity", stacklevel=2)
        return WeightMatrix(entries=np.eye(n), eta=1.0)
    w = beta / max_deg
    lap = np.diag(degrees) - adj
    entries = np.eye(n) - w * lap
    return WeightMatrix(entries=entries, eta=min_nonzero_entry(entries))


def pairwise_weights(n_agents: int, i: int, j: int, beta: float) -> WeightMatrix:
    """Mixing matrix W = I - beta (e_i - e_j)(e_i - e_j)^T for one pair.

    beta = 1/2 averages the pair exactly; everyone else is untouched.
    """
    if i == j:
        raise InvalidArgumentError("pair must be two distinct agents")
    entries = np.eye(n_agents)
    entries[i, i] = entries[j, j] = 1.0 - beta
    entries[i, j] = entries[j, i] = beta
    return WeightMatrix(entries=entries, eta=min_nonzero_entry(entries), pair=(i, j))


def sample_ure_round(
    config: GossipConfig, n_agents: int, rng: np.random.Generator
) -> WeightMatrix:
    """Draw one URE round among n_agents >= 2. Draw order is fixed for
    reproducibility: wake-up agent, then partner, then the link-failure coin."""
    if config.kind != "ure":
        raise InvalidArgumentError("sample_ure_round requires the URE protocol")
    wake = int(rng.integers(n_agents))
    # uniform over the other agents; a weighted choice, not integers(n_agents - 1),
    # because that would draw a different partner stream for the same seed
    pick = np.full(n_agents, 1.0 / (n_agents - 1))
    pick[wake] = 0.0
    partner = int(rng.choice(n_agents, p=pick))
    if config.link_failure_prob > 0.0 and rng.random() < config.link_failure_prob:
        return WeightMatrix(entries=np.eye(n_agents), eta=1.0, pair=())
    return pairwise_weights(n_agents, wake, partner, config.beta)


def gossip_round(payloads: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """Apply one exchange: row i of the result is sum_j W_ij payload_j.

    payloads is an (I x N_H) array (one row per agent). The arithmetic mean
    across agents is preserved because the columns of W sum to one. A
    pairwise round (Boyd et al., "Randomized Gossip Algorithms", 2006)
    recomputes only its two rows, and every other row is copied.
    """
    p = np.asarray(payloads, dtype=float)
    if p.ndim != 2 or p.shape[0] != weights.n_agents:
        raise InvalidArgumentError(
            f"payload stack shape {p.shape} does not match {weights.n_agents} agents"
        )
    if weights.pair is None:
        return weights.entries @ p
    out = p.copy()
    if weights.pair:
        i, j = weights.pair
        w = weights.entries
        out[i] = w[i, i] * p[i] + w[i, j] * p[j]
        out[j] = w[j, i] * p[i] + w[j, j] * p[j]
    return out


def lambda_eta(eta: float, n_agents: int) -> float:
    """Geometric consensus rate (1 - eta^L0)^(1/L0) with L0 = I - 1."""
    l0 = n_agents - 1
    if not 0.0 < eta < 1.0:
        raise InvalidArgumentError("eta must lie in (0, 1)")
    if l0 < 1:
        raise InvalidArgumentError("need n_agents >= 2")
    return float((1.0 - eta**l0) ** (1.0 / l0))


@dataclass(frozen=True)
class ConsensusContractionReport:
    """Outcome of checking product-of-weights consensus decay.

    deviations[t] is the largest entrywise |[W(0)...W(t)]_ij - 1/I|;
    bounds[t] the geometric envelope coefficient * rate^t. satisfied means
    every deviation is within its envelope; max_ratio is the worst
    observed/bound ratio. applicable is False when the envelope itself is
    undefined (eta outside (0,1), i.e. no contraction to measure).
    """

    applicable: bool
    satisfied: bool
    max_ratio: float
    coefficient: float
    rate: float
    deviations: np.ndarray
    bounds: np.ndarray
    reason: str = ""


def verify_consensus_contraction(
    weight_sequence: list[WeightMatrix], eta: float, n_agents: int
) -> ConsensusContractionReport:
    """Check running products of the given rounds against the geometric
    consensus envelope 2 (1 + eta^-L0) / (1 - eta^L0) * rate^t."""
    if not weight_sequence:
        raise InvalidArgumentError("empty weight sequence")
    i_count = n_agents
    if not 0.0 < eta < 1.0:
        return ConsensusContractionReport(
            applicable=False,
            satisfied=False,
            max_ratio=np.inf,
            coefficient=np.nan,
            rate=np.nan,
            deviations=np.array([]),
            bounds=np.array([]),
            reason=f"eta={eta} outside (0,1): no contraction envelope (static/identity mixing)",
        )
    l0 = i_count - 1
    rate = lambda_eta(eta, i_count)
    coefficient = 2.0 * (1.0 + eta ** (-l0)) / (1.0 - eta**l0)
    product = np.eye(i_count)
    deviations = np.empty(len(weight_sequence))
    bounds = np.empty(len(weight_sequence))
    target = 1.0 / i_count
    for t, wm in enumerate(weight_sequence):
        product = wm.entries @ product
        deviations[t] = float(np.max(np.abs(product - target)))
        bounds[t] = coefficient * rate ** (t + 1)
    ratios = deviations / bounds
    max_ratio = float(ratios.max())
    contracting = deviations[-1] <= deviations[0] + STOCHASTIC_TOL
    return ConsensusContractionReport(
        applicable=True,
        satisfied=max_ratio <= 1.0,
        max_ratio=max_ratio,
        coefficient=coefficient,
        rate=rate,
        deviations=deviations,
        bounds=bounds,
        reason="" if contracting else "deviations are not contracting over the sequence",
    )

