"""The Oracle rank's overlap kernel and order walk against the code they replaced.

``reference_score``, ``reference_greedy`` and ``reference_optimal`` are local
copies of the earlier implementations: per-set ``jaccard`` calls for scoring,
a greedy that rescores every fixed prefix for every candidate, and a dynamic
program over separate ``gains`` and ``remaining`` arrays with its own
reconstruction loop.  ``reference_dense_values`` is the dynamic program over
one dense ``2**N`` table that the per-size arrays replaced.  The new code
must give the same orders and the same floats, not merely close ones.
"""

import itertools

import numpy as np
import pytest

from shaprank.games import Coalition, Game, Ranking, masks_of_size
from shaprank.oracle import (
    OracleSubsets,
    RankScore,
    _best_overlaps,
    _optimal_values,
    build_oracle_rank,
    compute_oracle_subsets,
    jaccard,
    score_ranking,
)

from conftest import greedy_oracle_rank


def reference_best_overlap(prefix, tied):
    return max(jaccard(oracle_set, prefix) for oracle_set in tied)


def reference_score(rank, oracle):
    per_k = {}
    num = 0.0
    den = 0.0
    for k in oracle.k_range:
        overlap = reference_best_overlap(rank.top(k), oracle.per_k[k])
        per_k[k] = overlap
        num += k * overlap
        den += k
    return RankScore(per_k=per_k, weighted_total=num / den)


def reference_prefix_gains(oracle):
    n = oracle.n_players
    gains = np.zeros(1 << n)
    for k in oracle.k_range:
        masks_k = masks_of_size(n, k)
        best = np.zeros(masks_k.size)
        for oracle_set in oracle.per_k[k]:
            inter = sum(((masks_k >> j) & 1).astype(np.float64) for j in oracle_set.members())
            union = k + oracle_set.size - inter
            np.maximum(best, inter / union, out=best)
        gains[masks_k] = k * best
    return gains


def reference_optimal(oracle):
    n = oracle.n_players
    gains = reference_prefix_gains(oracle)
    remaining = np.zeros(1 << n)
    for size in range(n - 1, -1, -1):
        masks_s = masks_of_size(n, size)
        best = np.full(masks_s.size, -np.inf)
        for i in range(n):
            open_slot = (masks_s >> i) & 1 == 0
            cand = masks_s[open_slot] | (1 << i)
            contrib = np.full(masks_s.size, -np.inf)
            contrib[open_slot] = gains[cand] + remaining[cand]
            np.maximum(best, contrib, out=best)
        remaining[masks_s] = best
    order = []
    mask = 0
    for _ in range(n):
        need = remaining[mask]
        for i in range(n):
            if (mask >> i) & 1:
                continue
            cand = mask | (1 << i)
            if gains[cand] + remaining[cand] >= need - 1e-12:
                order.append(i)
                mask = cand
                break
    return order


def reference_dense_values(oracle):
    n = oracle.n_players
    value = np.zeros(1 << n)
    for k in oracle.k_range:
        masks = masks_of_size(n, k)
        value[masks] = k * _best_overlaps(masks, oracle.per_k[k])
    for size in range(max(oracle.k_range) - 1, 0, -1):
        masks = masks_of_size(n, size)
        best = np.full(masks.size, -np.inf)
        for i in range(n):
            bit = np.uint64(1 << i)
            np.maximum(best, np.where(masks & bit, -np.inf, value[masks | bit]), out=best)
        value[masks] += best
    return value


def reference_greedy(oracle):
    n = oracle.n_players
    order = []
    chosen = 0
    for position in range(1, n + 1):
        best_score, best_player = -1.0, -1
        for i in range(n):
            if (chosen >> i) & 1:
                continue
            extended = order + [i]
            num = 0.0
            den = 0.0
            for k in oracle.k_range:
                den += k
                if k <= position:
                    prefix = Coalition.from_members(extended[:k], n)
                    num += k * reference_best_overlap(prefix, oracle.per_k[k])
            score = num / den
            if score > best_score + 1e-15:
                best_score, best_player = score, i
        order.append(best_player)
        chosen |= 1 << best_player
    return order


def gapped_k_range(rng, n):
    """A random nonempty subset of 1..n, usually with gaps."""
    ks = [k for k in range(1, n + 1) if rng.random() < 0.5]
    return ks or [int(rng.integers(1, n + 1))]


def table_oracles(count, seed):
    """Oracles of random tables at N = 2..9; every third table has payoffs
    from three levels only, so many coalitions tie."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 10))
        if case % 3 == 0:
            table = rng.integers(0, 3, size=1 << n).astype(np.float64)
        else:
            table = rng.uniform(0.0, 100.0, size=1 << n)
        game = Game(n, table.__getitem__)
        mode = "keep" if rng.random() < 0.5 else "remove"
        yield compute_oracle_subsets(game, mode, gapped_k_range(rng, n))


def synthetic_oracles(count, seed):
    """Oracles of up to five arbitrary tied sets per size, nested or not."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 10))
        per_k = {}
        for k in gapped_k_range(rng, n):
            combos = list(itertools.combinations(range(n), k))
            picks = rng.choice(len(combos), size=min(len(combos), int(rng.integers(1, 6))),
                               replace=False)
            per_k[k] = tuple(Coalition.from_members(combos[p], n) for p in sorted(picks))
        yield OracleSubsets(mode="remove", n_players=n, per_k=per_k,
                            best_value={k: 0.0 for k in per_k})


def bounded_oracles(seed):
    """Oracles of random tables whose largest size is below N - 1, in both
    modes: one size alone, sizes up to it with gaps, and {1, largest}."""
    rng = np.random.default_rng(seed)
    for n in range(3, 10):
        table = rng.uniform(0.0, 100.0, size=1 << n)
        game = Game(n, table.__getitem__)
        for mode in ("keep", "remove"):
            top = int(rng.integers(1, n - 1))
            for k_range in ([top], gapped_k_range(rng, top), [1, top]):
                yield compute_oracle_subsets(game, mode, k_range)
    game = Game(8, rng.integers(0, 3, size=1 << 8).astype(np.float64).__getitem__)
    for mode in ("keep", "remove"):
        yield compute_oracle_subsets(game, mode, [3])


def all_oracles():
    yield from table_oracles(120, seed=0)
    yield from synthetic_oracles(120, seed=1)
    yield from bounded_oracles(seed=3)


@pytest.mark.parametrize("construct, reference", [
    (greedy_oracle_rank, reference_greedy),
    (build_oracle_rank, reference_optimal),
], ids=["greedy", "optimal"])
def test_orders_and_scores_match_the_reference(construct, reference):
    for oracle in all_oracles():
        rank = construct(oracle)
        assert rank.order.tolist() == reference(oracle)
        new, old = score_ranking(rank, oracle), reference_score(rank, oracle)
        assert new.per_k == old.per_k
        assert new.weighted_total == old.weighted_total


def test_scores_of_random_rankings_match_the_reference():
    rng = np.random.default_rng(2)
    for oracle in all_oracles():
        n = oracle.n_players
        rank = Ranking(order=rng.permutation(n), scores=np.arange(n, 0, -1.0))
        new, old = score_ranking(rank, oracle), reference_score(rank, oracle)
        assert new.per_k == old.per_k
        assert new.weighted_total == old.weighted_total


def wide_oracles(seed):
    """Oracles of random tables at N = 10..16 in both modes: one size alone,
    sizes up to it with gaps, and {1, largest}; the largest may be N."""
    rng = np.random.default_rng(seed)
    for n in (10, 13, 16):
        table = rng.uniform(0.0, 100.0, size=1 << n)
        game = Game(n, table.__getitem__)
        for mode in ("keep", "remove"):
            top = int(rng.integers(2, n + 1))
            for k_range in ([top], gapped_k_range(rng, top), [1, top]):
                yield compute_oracle_subsets(game, mode, k_range)


def test_per_size_values_equal_the_dense_table_bit_for_bit():
    for oracle in itertools.chain(all_oracles(), wide_oracles(seed=4)):
        n, top = oracle.n_players, max(oracle.k_range)
        masks, value = _optimal_values(oracle)
        dense = reference_dense_values(oracle)
        assert len(masks) == len(value) == top + 1
        for size in range(1, top + 1):
            assert np.array_equal(masks[size], masks_of_size(n, size))
            assert value[size].tobytes() == dense[masks[size]].tobytes()


@pytest.mark.parametrize("n", [1, 3, 8, 20, 64])
def test_best_overlaps_equal_the_best_jaccard(n):
    rng = np.random.default_rng(n)
    high = (1 << n) - 1
    masks = [0, high] + [int(rng.integers(0, high, endpoint=True, dtype=np.uint64))
                         for _ in range(30)]
    for n_sets in (1, 2, 7):
        tied = [Coalition(masks[j], n) for j in rng.integers(0, len(masks), size=n_sets)]
        got = _best_overlaps(np.array(masks, dtype=np.uint64), tied)
        want = [max(jaccard(Coalition(m, n), t) for t in tied) for m in masks]
        assert got.tolist() == want
    empty = _best_overlaps(np.array([0], dtype=np.uint64), [Coalition(0, n)])
    assert empty.tolist() == [1.0]


def test_best_overlaps_of_many_tied_sets_span_several_blocks():
    n = 16
    tied = [Coalition(int(m), n) for m in masks_of_size(n, 8)]  # 12 870 sets
    masks = masks_of_size(n, 7)[::97]
    want = [max(jaccard(Coalition(int(m), n), t) for t in tied) for m in masks]
    assert _best_overlaps(masks, tied).tolist() == want
