import math

import numpy as np
import pytest

from gossipgn.errors import InvalidArgumentError
from gossipgn.gossip import (
    CseRound,
    GossipConfig,
    PairwiseRound,
    gossip_round,
    log_lambda_eta,
    sample_ure_round,
)

from conftest import check_weight_matrix, consensus_envelope_ratios, min_nonzero_entry


def _laplacian_cse(n, beta):
    """Oracle: the general-graph construction W = I - (beta / max degree) L,
    on the complete graph; a graph with no edges gets the identity."""
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            adj[i, j] = adj[j, i] = 1.0
    degrees = adj.sum(axis=1)
    max_deg = degrees.max()
    if max_deg == 0.0:
        return np.eye(n), 1.0
    entries = np.eye(n) - (beta / max_deg) * (np.diag(degrees) - adj)
    return entries, min_nonzero_entry(entries)


def _dense_pairwise(n, i, j, beta):
    """Oracle: the dense matrix I - beta (e_i - e_j)(e_i - e_j)^T and its eta."""
    entries = np.eye(n)
    entries[i, i] = entries[j, j] = 1.0 - beta
    entries[i, j] = entries[j, i] = beta
    return entries, min_nonzero_entry(entries)


def test_cse_weights_full_graph_exact():
    w = CseRound(4, beta=0.75)
    assert np.all(w.entries == 0.25)
    assert w.eta == 0.25


def test_cse_closed_form_equals_laplacian_construction_bitwise():
    # 5e-324/(I-1) underflows to 0 at I >= 3, leaving the identity with eta 1;
    # at nextafter(1, 0) the diagonal rounds to 0 at some I, leaving eta off it
    rng = np.random.default_rng(5)
    edges = [5e-324, float(np.nextafter(1.0, 0.0))]
    for n in range(1, 41):
        for beta in [*rng.uniform(0.0, 1.0, size=25), *edges]:
            w = CseRound(n, float(beta))
            oracle, eta = _laplacian_cse(n, float(beta))
            assert np.array_equal(w.entries.view(np.int64), oracle.view(np.int64)), (n, beta)
            assert np.array_equal(np.float64(w.eta).view(np.int64), np.float64(eta).view(np.int64))
    assert CseRound(1, 0.3).eta == 1.0
    assert CseRound(3, 5e-324).eta == 1.0
    assert CseRound(4, float(np.nextafter(1.0, 0.0))).entries[0, 0] == 0.0
    with pytest.raises(InvalidArgumentError, match="at least one agent"):
        CseRound(0, 0.3)
    for beta in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidArgumentError, match="beta"):
            CseRound(4, beta)


def test_cse_entries_are_built_on_each_read():
    w = CseRound(3, 0.3)
    w.entries[0, 0] = 5.0
    assert np.array_equal(w.entries, CseRound(3, 0.3).entries)


def test_cse_weights_are_doubly_stochastic():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.05, 0.95))
        w = CseRound(n, beta)
        check_weight_matrix(w.entries)


def test_pairwise_weights_shape():
    w = PairwiseRound(4, (1, 3), beta=0.5)
    m = w.entries
    assert m[1, 1] == m[3, 3] == 0.5
    assert m[1, 3] == m[3, 1] == 0.5
    assert m[0, 0] == m[2, 2] == 1.0
    check_weight_matrix(m)
    with pytest.raises(InvalidArgumentError):
        PairwiseRound(4, (2, 2), beta=0.5)


def test_pairwise_entries_equal_dense_matrix():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        i, j = (int(a) for a in rng.choice(n, size=2, replace=False))
        beta = float(rng.uniform(0.0, 1.0))
        w = PairwiseRound(n, (i, j), beta)
        oracle, eta = _dense_pairwise(n, i, j, beta)
        assert np.array_equal(w.entries.view(np.int64), oracle.view(np.int64))
        assert w.eta == eta
    failed = PairwiseRound(5, (), 0.3)
    assert np.array_equal(failed.entries, np.eye(5))
    assert failed.eta == 1.0


def test_pairwise_round_mixes_without_reading_entries():
    class Sealed(PairwiseRound):
        @property
        def entries(self):
            raise AssertionError("a pairwise round built its dense matrix")

    payloads = np.random.default_rng(2).normal(size=(30, 4))
    for pair in [(4, 17), ()]:
        mixed = gossip_round(payloads, Sealed(30, pair, 0.5))
        assert np.array_equal(mixed, PairwiseRound(30, pair, 0.5).entries @ payloads)


def test_gossip_round_preserves_mean():
    rng = np.random.default_rng(1)
    payloads = rng.normal(size=(5, 7))
    w = CseRound(5, beta=0.4)
    mixed = gossip_round(payloads, w)
    assert np.allclose(mixed.mean(axis=0), payloads.mean(axis=0), atol=1e-13)


def test_gossip_round_identity_on_consensus():
    payloads = np.tile(np.array([1.0, -2.0, 3.0]), (4, 1))
    w = CseRound(4, beta=0.6)
    assert np.allclose(gossip_round(payloads, w), payloads, atol=1e-14)


def test_ure_sampling_deterministic_and_valid():
    cfg = GossipConfig(kind="ure", beta=0.5)
    w1 = sample_ure_round(cfg, 6, np.random.default_rng(7))
    w2 = sample_ure_round(cfg, 6, np.random.default_rng(7))
    assert np.array_equal(w1.entries, w2.entries)
    check_weight_matrix(w1.entries)
    # exactly one off-diagonal pair participates
    off = w1.entries - np.diag(np.diag(w1.entries))
    assert np.count_nonzero(off) == 2


def test_ure_link_failure_gives_identity_sometimes():
    cfg = GossipConfig(kind="ure", beta=0.5, link_failure_prob=0.95)
    rng = np.random.default_rng(3)
    idents = sum(
        int(np.array_equal(sample_ure_round(cfg, 4, rng).entries, np.eye(4)))
        for _ in range(200)
    )
    assert idents > 150  # ~0.95 * 200, loose


def test_lambda_eta_values():
    # eta=0.5, two agents, L=1: L0=1, lambda = 1 - 0.5
    assert log_lambda_eta(0.5, 2) == pytest.approx(math.log(0.5))
    val = log_lambda_eta(0.15, 3)
    assert val == pytest.approx(0.5 * math.log(1 - 0.15**2))
    assert val < 0.0
    # 12 agents at eta = 0.03: 1 - eta^11 rounds to 1.0, its log does not
    assert log_lambda_eta(0.03, 12) == pytest.approx(-(0.03**11) / 11, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        log_lambda_eta(0.0, 3)
    with pytest.raises(InvalidArgumentError):
        log_lambda_eta(1.0, 3)
    with pytest.raises(InvalidArgumentError):
        log_lambda_eta(0.5, 1)


def test_consensus_contraction_report_holds():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        beta = float(rng.uniform(0.1, 0.9))
        w = CseRound(n, beta)
        ratios = consensus_envelope_ratios([w] * 30, eta=w.eta, n_agents=n)
        assert ratios.max() <= 1.0
        assert log_lambda_eta(w.eta, n) < 0.0


def test_gossip_config_validation():
    with pytest.raises(InvalidArgumentError):
        GossipConfig(kind="smoke", beta=0.3)
    with pytest.raises(InvalidArgumentError):
        GossipConfig(kind="cse", beta=1.5)
    with pytest.raises(InvalidArgumentError):
        GossipConfig(kind="ure", beta=0.5, link_failure_prob=1.0)


def test_ure_partner_draws_match_uniform_partner_matrix():
    # oracle: draws from a row-stochastic partner matrix, uniform with zero
    # diagonal, through rng.choice, in the same stream
    fail = 0.2
    cfg = GossipConfig(kind="ure", beta=0.5, link_failure_prob=fail)
    for n in (2, 3, 7, 30):
        gamma = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(gamma, 0.0)
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(300):
            pair = sample_ure_round(cfg, n, rng).pair
            wake = int(oracle.integers(n))
            partner = int(oracle.choice(n, p=gamma[wake]))
            assert pair == (() if oracle.random() < fail else (wake, partner))
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("pair", [(4, 17), (17, 4), ()], ids=["pair", "reversed", "failed"])
@pytest.mark.parametrize("beta", [0.5, 0.3])
def test_pairwise_round_in_place_equals_copying_round(pair, beta):
    payloads = np.random.default_rng(3).normal(size=(30, 9))
    before = payloads.copy()
    w = PairwiseRound(30, pair, beta)
    copied = gossip_round(payloads, w)
    assert np.array_equal(payloads, before)  # out=None never mutates its input
    assert copied is not payloads
    mixed = gossip_round(payloads, w, out=payloads)
    assert mixed is payloads
    assert np.array_equal(mixed, copied)
    other = np.empty_like(before)
    assert gossip_round(before, w, out=other) is other
    assert np.array_equal(other, copied)


def test_cse_round_ignores_out_and_keeps_its_input():
    payloads = np.random.default_rng(4).normal(size=(5, 7))
    before = payloads.copy()
    w = CseRound(5, beta=0.4)
    mixed = gossip_round(payloads, w, out=payloads)
    assert mixed is not payloads
    assert np.array_equal(payloads, before)
    assert np.array_equal(mixed, w.entries @ before)


def _pairwise_vs_dense(beta):
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        i, j = (int(a) for a in rng.choice(n, size=2, replace=False))
        payloads = rng.normal(size=(n, 11)) * 10.0 ** rng.uniform(-3, 3)
        w = PairwiseRound(n, (i, j), beta)
        yield payloads, w, gossip_round(payloads, w), w.entries @ payloads


def test_pairwise_round_equals_dense_at_half():
    # products by 0.5 are exact, so BLAS and FMA cannot change the sum
    for _, _, pairwise, dense in _pairwise_vs_dense(0.5):
        assert np.array_equal(pairwise, dense)


def test_pairwise_round_near_dense_at_other_beta():
    eps = np.finfo(float).eps
    for payloads, w, pairwise, dense in _pairwise_vs_dense(0.3):
        pair = list(w.pair)
        rest = [r for r in range(payloads.shape[0]) if r not in pair]
        assert np.array_equal(pairwise[rest], payloads[rest])
        scale = np.abs(payloads[pair]).max(axis=0)
        assert np.all(np.abs(pairwise[pair] - dense[pair]) <= 4 * eps * scale)


def test_rounds_carry_their_pair():
    assert PairwiseRound(5, (3, 1), beta=0.5).pair == (3, 1)
    assert not hasattr(CseRound(4, beta=0.5), "pair")  # applied densely
    cfg = GossipConfig(kind="ure", beta=0.5, link_failure_prob=0.5)
    rng = np.random.default_rng(8)
    rounds = [sample_ure_round(cfg, 6, rng) for _ in range(50)]
    failed = [w for w in rounds if w.pair == ()]
    assert 0 < len(failed) < 50
    for w in rounds:
        if w.pair:
            i, j = w.pair
            off = w.entries - np.diag(np.diag(w.entries))
            assert set(zip(*np.nonzero(off))) == {(i, j), (j, i)}
        else:
            assert np.array_equal(w.entries, np.eye(6))


def test_weight_matrix_rejects_wrong_pair():
    for bad in [(2, 2), (1, 4), (-1, 2), (0, 1, 2), (3,)]:
        with pytest.raises(InvalidArgumentError, match="not two distinct agents"):
            PairwiseRound(4, bad, 0.5)
    for beta in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidArgumentError, match="beta"):
            PairwiseRound(4, (0, 1), beta)


def test_ure_round_needs_two_agents():
    cfg = GossipConfig(kind="ure", beta=0.5)
    for n in (1, 0):
        with pytest.raises(InvalidArgumentError, match="two agents"):
            sample_ure_round(cfg, n, np.random.default_rng(0))
