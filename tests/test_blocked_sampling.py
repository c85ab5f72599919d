"""Permutation sampling in blocks of orderings against the per-ordering loop.

``per_ordering`` is a local copy of the estimator before blocking: one
payoff request per ordering.  The blocked estimator requests the prefixes
of a block of orderings at once and must return the same bits, and leave
the game with the same evaluation and hit counts, with and without
antithetic pairs and early stopping.
"""

from collections import deque

import numpy as np
import pytest

from shaprank.exact import REDUCE_BLOCK
from shaprank.games import Game, ShapleyEstimate, TableGame, prefix_masks
from shaprank.sampling import EarlyStop, SamplingConfig, permutation_at, shapley_sample_permutations
from shaprank.toynet import make_accuracy_game, make_blobs_dataset

from conftest import random_table_game
from scale_probe import detector_net


def per_ordering(game, cfg):
    """The estimator with one ``evaluate_masks`` call per ordering."""
    n = game.n_players
    empty_value = game.evaluate_mask(0)
    full_value = game.evaluate_mask(game.grand_mask)
    before = game.eval_count
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    stopper = cfg.early_stop
    history = deque(maxlen=stopper.window if stopper else 1)
    realized = 0
    for j in range(cfg.n_permutations):
        perm = permutation_at(cfg.seed, j // 2 if cfg.antithetic else j, n)
        if cfg.antithetic and j % 2:
            perm = perm[::-1]
        chain = game.evaluate_masks(prefix_masks(perm))
        marginals = np.empty(n)
        marginals[perm] = np.diff(chain, prepend=empty_value, append=full_value)
        sums += marginals
        sq_sums += marginals * marginals
        realized += 1
        if stopper:
            history.append(sums / realized)
            if len(history) == stopper.window and not (cfg.antithetic and realized % 2):
                stacked = np.stack(history)
                spread = stacked.max(axis=0) - stacked.min(axis=0)
                if spread.max() < stopper.epsilon:
                    break
    values = sums / realized
    if realized > 1:
        variance = np.maximum(sq_sums - realized * values**2, 0.0) / (realized - 1)
        std_err = np.sqrt(variance / realized)
    else:
        std_err = np.zeros(n)
    return ShapleyEstimate(values=values, method=f"permutation-sampling(S={realized})",
                           std_err=std_err, evals_used=game.eval_count - before, seed=cfg.seed)


def additive_64():
    """The 64-player additive game with weights ``linspace(-1, 2, 64)``.  Its
    payoff adds one table entry per byte of the mask, in byte order: the
    same bits for a mask in any batch, which a BLAS product does not
    promise."""
    weights = np.linspace(-1.0, 2.0, 64)
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    tables = [np.add.reduce(byte_bits * weights[8 * k:8 * k + 8], axis=1) for k in range(8)]

    def payoff(masks):
        total = np.zeros(masks.size)
        for k, table in enumerate(tables):
            total += table[(masks >> np.uint64(8 * k) & np.uint64(255)).astype(np.intp)]
        return total

    return Game(64, payoff)


def toy_net_game():
    data = make_blobs_dataset(seed=2, n_per_class=60, n_classes=4, spread=1.2)
    return make_accuracy_game(detector_net(np.random.default_rng(5)), data)


GAMES = {
    "n1": lambda: TableGame([0.5, 2.0]),
    "n2": lambda: random_table_game(2, seed=1),
    **{f"table{n}": (lambda n=n: random_table_game(n, seed=n)) for n in range(3, 11)},
    "additive64": additive_64,
    "toynet32": toy_net_game,
}

CONFIGS = {
    "plain": dict(n_permutations=40, seed=3),
    "antithetic": dict(n_permutations=41, seed=4, antithetic=True),
    "early-stop": dict(n_permutations=60, seed=5, early_stop=EarlyStop(window=4, epsilon=2.0)),
    "antithetic-early-stop": dict(n_permutations=60, seed=6, antithetic=True,
                                  early_stop=EarlyStop(window=3, epsilon=2.0)),
}


def assert_same_run(make_game, cfg):
    """Blocked and per-ordering runs on fresh games agree bit for bit."""
    blocked_game, loop_game = make_game(), make_game()
    blocked = shapley_sample_permutations(blocked_game, cfg)
    expected = per_ordering(loop_game, cfg)
    assert np.array_equal(blocked.values, expected.values)
    assert np.array_equal(blocked.std_err, expected.std_err)
    assert blocked.method == expected.method
    assert blocked.evals_used == expected.evals_used
    assert blocked_game.eval_count == loop_game.eval_count
    assert blocked_game.cache_hits == loop_game.cache_hits
    return blocked, blocked_game


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("game", sorted(GAMES))
def test_blocked_sampling_matches_the_per_ordering_loop(game, config):
    assert_same_run(GAMES[game], SamplingConfig(**CONFIGS[config]))


def test_early_stop_fires_in_the_early_stop_cases():
    # the early-stop cases above stop before their last ordering on the
    # random tables, so they compare a stop point, not a full run
    for config in ("early-stop", "antithetic-early-stop"):
        est = per_ordering(random_table_game(8, seed=8), SamplingConfig(**CONFIGS[config]))
        realized = int(est.method.split("S=")[1].rstrip(")"))
        assert realized < CONFIGS[config]["n_permutations"], config


@pytest.mark.parametrize("antithetic", [False, True])
def test_blocks_span_several_requests_at_64_players(antithetic):
    # 63 prefixes an ordering: 1 040 orderings fill a request of at most
    # REDUCE_BLOCK masks, so 2 500 orderings take three requests

    def recording():
        game = additive_64()
        game.requests, evaluate = [], game.evaluate_masks

        def counted(masks):
            game.requests.append(np.asarray(masks).size)
            return evaluate(masks)

        game.evaluate_masks = counted
        return game

    cfg = SamplingConfig(n_permutations=2500, seed=9, antithetic=antithetic)
    est, game = assert_same_run(recording, cfg)
    np.testing.assert_allclose(est.values, np.linspace(-1.0, 2.0, 64), atol=1e-9)
    # after the empty and the grand coalition
    assert game.requests[2:] == [1040 * 63, 1040 * 63, 420 * 63]
    assert 1040 * 63 <= REDUCE_BLOCK < 1041 * 63


def test_one_payoff_call_without_early_stop():
    calls = []
    table = random_table_game(9, seed=2).values

    def payoff(masks):
        calls.append(masks.size)
        return table[masks]

    game = Game(9, payoff)
    calls.clear()
    est = shapley_sample_permutations(game, SamplingConfig(n_permutations=200, seed=1))
    assert len(calls) == 1 and calls[0] == est.evals_used


@pytest.mark.parametrize("antithetic", [False, True])
def test_early_stop_never_requests_an_ordering_past_its_stop(antithetic):
    n, count = 12, 400
    cfg = SamplingConfig(n_permutations=count, seed=7, antithetic=antithetic,
                         early_stop=EarlyStop(window=4, epsilon=3.0))
    table = random_table_game(n, seed=12).values
    stop = int(per_ordering(TableGame(table), cfg).method.split("S=")[1].rstrip(")"))
    assert stop < count

    def prefixes(orderings):
        out = set()
        for j in orderings:
            perm = permutation_at(cfg.seed, j // 2 if antithetic else j, n)
            out.update(prefix_masks(perm[::-1] if antithetic and j % 2 else perm).tolist())
        return out

    later = prefixes(range(stop, count)) - prefixes(range(stop))
    assert later

    def payoff(masks):
        if later.intersection(masks.tolist()):
            raise AssertionError("requested an ordering past the stop point")
        return table[masks]

    assert_same_run(lambda: Game(n, payoff), cfg)

