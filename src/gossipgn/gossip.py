"""Gossip exchange rounds over the network the sites form.

The agents are the sites, and any two of them can exchange. CSE (coordinated
static exchange) mixes every agent every round with one fixed matrix, the
Laplacian weights W = I - (beta/(I-1)) L of the complete graph. URE
(uncoordinated random exchange) wakes one random agent per round, which
averages pairwise with a uniformly drawn partner; every other agent idles.
A round is held as its parameters alone, a CSE round as its agent count and
beta and a pairwise round as its pair and beta, and builds its dense matrix
afresh each time `entries` is read. Both kinds are symmetric and doubly
stochastic by their closed forms, so each exchange preserves the network
average of whatever payload is being mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import component_roots
from .errors import InvalidArgumentError

PROTOCOLS = ("cse", "ure")


@dataclass(frozen=True)
class CseRound:
    """One CSE round, W = I - (beta/(I-1)) L on the complete graph of I agents.

    In closed form: beta/(I-1) off the diagonal and 1 - (beta/(I-1))(I-1)
    on it. One agent has no one to mix with, so its W is the identity.
    """

    n_agents: int
    beta: float

    def __post_init__(self):
        if self.n_agents < 1:
            raise InvalidArgumentError("need at least one agent")
        if not 0.0 < self.beta < 1.0:
            raise InvalidArgumentError(f"beta: must lie in (0, 1), got {self.beta}")

    def _weights(self) -> tuple[float, float]:
        """W's off-diagonal and diagonal entries."""
        if self.n_agents == 1:
            return 0.0, 1.0
        off = self.beta / (self.n_agents - 1)
        return off, 1.0 - off * (self.n_agents - 1)

    @property
    def eta(self) -> float:
        """The smallest nonzero entry of W, the smaller positive one of its two
        values: the diagonal rounds to 0 for some beta near 1, and beta/(I-1)
        underflows to 0 for beta near 0, which leaves the identity."""
        return min(w for w in self._weights() if w > 0.0)

    @property
    def entries(self) -> np.ndarray:
        """The dense I x I matrix W, built on each read."""
        off, diagonal = self._weights()
        w = np.full((self.n_agents, self.n_agents), off)
        np.fill_diagonal(w, diagonal)
        return w


@dataclass(frozen=True)
class PairwiseRound:
    """One URE round, W = I - beta (e_i - e_j)(e_i - e_j)^T for pair = (i, j).

    beta = 1/2 averages the pair exactly; everyone else is untouched. pair
    () is a failed link, which mixes no one (W = I).
    """

    n_agents: int
    pair: tuple[int, ...]
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InvalidArgumentError(f"beta: must lie in (0, 1), got {self.beta}")
        pair = self.pair
        if pair and (len(pair) != 2 or not 0 <= min(pair) < max(pair) < self.n_agents):
            raise InvalidArgumentError(f"pair {pair} is not two distinct agents among {self.n_agents}")

    @property
    def eta(self) -> float:
        """The smallest nonzero entry of W."""
        return min(self.beta, 1.0 - self.beta) if self.pair else 1.0

    @property
    def entries(self) -> np.ndarray:
        """The dense I x I matrix W, built on each read."""
        w = np.eye(self.n_agents)
        if self.pair:
            i, j = self.pair
            w[i, i] = w[j, j] = 1.0 - self.beta
            w[i, j] = w[j, i] = self.beta
        return w


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


def sample_ure_round(
    config: GossipConfig, n_agents: int, rng: np.random.Generator
) -> PairwiseRound:
    """Draw one URE round among n_agents >= 2. Draw order is fixed for
    reproducibility: wake-up agent, then partner, then the link-failure coin.

    The partner is uniform over the other agents and is the one that
    rng.choice(n_agents, p=pick) draws, pick being 1/(I-1) with a 0 at wake:
    choice searches one rng.random() in pick's cumulative sum, divided by
    its last entry. That sum is the I-1 equal weights' running sum with the
    entry before wake repeated at wake, so the index found among the I-1
    sums, moved past wake, is the same partner, without choice's checks of
    p. Not integers(n_agents - 1): that reads another stream for one seed.
    """
    if config.kind != "ure":
        raise InvalidArgumentError("sample_ure_round requires the URE protocol")
    if n_agents < 2:
        raise InvalidArgumentError(f"URE needs at least two agents, got {n_agents}")
    wake = int(rng.integers(n_agents))
    cdf = np.full(n_agents - 1, 1.0 / (n_agents - 1)).cumsum()
    cdf /= cdf[-1]
    partner = int(cdf.searchsorted(rng.random(), side="right"))
    partner += partner >= wake
    if config.link_failure_prob > 0.0 and rng.random() < config.link_failure_prob:
        return PairwiseRound(n_agents, (), config.beta)
    return PairwiseRound(n_agents, (wake, partner), config.beta)


def gossip_round(
    payloads: np.ndarray, weights: CseRound | PairwiseRound, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply one exchange: row i of the result is sum_j W_ij payload_j.

    payloads is an (I x N_H) array (one row per agent). The arithmetic mean
    across agents is preserved because the columns of W sum to one. A CSE
    round ignores out and returns a fresh W @ payloads, W built from its
    closed form. A pairwise round (Boyd et al., "Randomized Gossip
    Algorithms", 2006) recomputes only its two rows: it writes into out,
    which may be payloads itself to mix the stack in place, and with
    out=None into a copy of payloads. Both new rows are formed from the old
    ones before either is written.
    """
    p = np.asarray(payloads, dtype=float)
    if p.ndim != 2 or p.shape[0] != weights.n_agents:
        raise InvalidArgumentError(
            f"payload stack shape {p.shape} does not match {weights.n_agents} agents"
        )
    if isinstance(weights, CseRound):
        return weights.entries @ p
    if out is None:
        out = p.copy()
    elif out is not p:
        out[...] = p
    if weights.pair:
        i, j = weights.pair
        beta = weights.beta
        out[i], out[j] = (1.0 - beta) * p[i] + beta * p[j], beta * p[i] + (1.0 - beta) * p[j]
    return out


def connectivity_interval(
    n_agents: int, pairs: Sequence[tuple[int, ...] | None]
) -> int | None:
    """B, the smallest window length for which the union graph of every
    complete aligned window pairs[kB:(k+1)B] joins all n_agents, or None when
    no length does. pairs holds a run's exchanges in order: a URE round's
    pair, () for a failed round, which joins no one, and None for a CSE round,
    which joins everyone. A trailing window shorter than B is not checked.
    """

    def joins_all(window) -> bool:
        if None in window:
            return True
        roots = component_roots(n_agents, [pair for pair in window if pair])
        return bool((roots == roots[0]).all())

    # every window's union graph is part of the whole run's
    if not pairs or not joins_all(pairs):
        return None
    return next(
        b for b in range(1, len(pairs) + 1)
        if all(joins_all(pairs[s : s + b]) for s in range(0, len(pairs) - b + 1, b))
    )


def log_lambda_eta(eta: float, n_agents: int, interval: int = 1) -> float:
    """Log of the consensus rate (1 - eta^L0)^(1/L0), L0 = (I - 1) B for the
    connectivity interval B (Nedić & Ozdaglar, "Distributed Subgradient
    Methods for Multi-Agent Optimization", IEEE TAC 2009): it keeps its
    digits where 1 - eta^L0 rounds to 1.0, and reads 0.0 once eta^L0
    underflows."""
    l0 = (n_agents - 1) * interval
    if not 0.0 < eta < 1.0:
        raise InvalidArgumentError("eta must lie in (0, 1)")
    if n_agents < 2 or interval < 1:
        raise InvalidArgumentError("need n_agents >= 2 and interval >= 1")
    return math.log1p(-(eta**l0)) / l0
