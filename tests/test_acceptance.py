"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).

Expected values were produced by the independent oracles embedded in each
test (naive double loops, exhaustive searches, hand-computed tables) and
then frozen.  Statistical checks use frozen seeds that were validated once
and are deterministic thereafter.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from shaprank.cli import main as cli_main
from shaprank.exact import shapley_exact_permutations, shapley_exact_subsets
from shaprank.games import Coalition, TableGame, make_fig2_game
from shaprank.oracle import (
    OracleSubsets,
    build_oracle_rank,
    compute_oracle_subsets,
    score_ranking,
)
from shaprank.partial import SizeBand, leave_one_out, shapley_partial
from shaprank.regression import RegressionConfig, shapley_regression
from shaprank.sampling import SamplingConfig, shapley_sample_permutations
from shaprank.toynet import (
    make_accuracy_game,
    make_blobs_dataset,
    save_dataset_csv,
    train_toy_model,
)

from conftest import build_redundancy_game, greedy_oracle_rank, random_table_game


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[ACCEPTANCE] criterion {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_reference_game_golden_values():
    with criterion(1, "3-player demo game: exact values and listed marginals"):
        started = time.perf_counter()
        game = make_fig2_game()
        np.testing.assert_allclose(
            shapley_exact_subsets(game).values, [25.0, 25.0, 30.0], atol=1e-9
        )
        np.testing.assert_allclose(
            shapley_exact_permutations(game).values, [25.0, 25.0, 30.0], atol=1e-9
        )
        # player 0's marginal contribution in each of the 3! orderings
        marginals = []
        for perm in itertools.permutations(range(3)):
            mask, prev = 0, game.evaluate_mask(0)
            for p in perm:
                mask |= 1 << p
                cur = game.evaluate_mask(mask)
                if p == 0:
                    marginals.append(cur - prev)
                prev = cur
        assert sorted(marginals) == [5.0, 5.0, 15.0, 35.0, 45.0, 45.0]
        assert sum(marginals) / 6.0 == 25.0
        assert time.perf_counter() - started < 1.0


def test_criterion_2_estimator_consistency_sweep():
    with criterion(2, "25-game sweep: all estimators agree with exact enumeration"):
        started = time.perf_counter()
        for i in range(25):
            n = 4 + (i % 7)  # cycles through 4..10
            game = random_table_game(n, seed=200 + i)
            exact = shapley_exact_subsets(game).values
            np.testing.assert_allclose(
                shapley_exact_permutations(game).values, exact, atol=1e-9
            )
            np.testing.assert_allclose(
                shapley_partial(game, SizeBand.full(n)).values, exact, atol=1e-9
            )
            np.testing.assert_allclose(
                shapley_regression(
                    game, RegressionConfig(n_samples=1, sampler="exhaustive")
                ).values,
                exact,
                atol=1e-6,
            )
        # sampling accuracy on the N=8 reference game
        game8 = random_table_game(8, seed=11)
        exact8 = shapley_exact_subsets(game8).values
        sampled = shapley_sample_permutations(
            game8, SamplingConfig(n_permutations=20_000, seed=123)
        )
        tolerance = 0.01 * abs(game8.target_quantity())
        assert np.max(np.abs(sampled.values - exact8)) <= tolerance
        assert time.perf_counter() - started < 120.0


def test_criterion_3_axiom_suite():
    with criterion(3, "efficiency/symmetry/dummy/linearity, incl. end-to-end"):
        # efficiency across the sweep sizes
        for n in range(4, 11):
            game = random_table_game(n, seed=300 + n)
            est = shapley_exact_subsets(game)
            assert abs(est.values.sum() - game.target_quantity()) < 1e-9

        # symmetry: payoff depends only on size and joint membership of {0,1}
        rng = np.random.default_rng(31)
        h = rng.uniform(0.0, 10.0, size=(8, 3))
        table = [
            h[bin(m).count("1"), ((m >> 0) & 1) + ((m >> 1) & 1)]
            for m in range(1 << 7)
        ]
        sym = shapley_exact_subsets(TableGame(table)).values
        assert abs(sym[0] - sym[1]) < 1e-9

        # dummy: a player contributing a fixed constant receives exactly it
        base = random_table_game(5, seed=32).values
        c = -1.75
        table = np.empty(1 << 6)
        for m in range(1 << 6):
            table[m] = base[m & 0b11111] + (c if (m >> 5) & 1 else 0.0)
        dummy = shapley_exact_subsets(TableGame(table)).values
        assert abs(dummy[5] - c) < 1e-9

        # linearity over payoff tables
        g1, g2 = random_table_game(5, seed=33), random_table_game(5, seed=34)
        combo = TableGame(2.0 * g1.values - 0.5 * g2.values)
        np.testing.assert_allclose(
            shapley_exact_subsets(combo).values,
            2.0 * shapley_exact_subsets(g1).values
            - 0.5 * shapley_exact_subsets(g2).values,
            atol=1e-9,
        )

        # end to end through the toy network: duplicated unit (symmetry) and
        # zero-outgoing-weight unit (dummy)
        data = make_blobs_dataset(seed=0)
        spec = train_toy_model([6], data, epochs=150, lr=0.1, seed=0)
        hidden, head = spec.layers
        from shaprank.toynet import Layer, ModelSpec

        w1 = np.vstack([hidden.weights, hidden.weights[2:3], rng.standard_normal((1, 2))])
        b1 = np.concatenate([hidden.bias, hidden.bias[2:3], [0.0]])
        w2 = np.hstack(
            [head.weights, head.weights[:, 2:3], np.zeros((head.weights.shape[0], 1))]
        )
        augmented = ModelSpec(
            layers=[
                Layer("dense", w1, b1, hidden.activation),
                Layer("dense", w2, head.bias, head.activation),
            ],
            prunable_layer=0,
        )
        game = make_accuracy_game(augmented, data)
        phi = shapley_exact_subsets(game).values
        assert abs(phi[2] - phi[6]) < 1e-9  # exact duplicate of unit 2
        assert abs(phi[7]) < 1e-9  # zero-outgoing unit
        assert abs(phi.sum() - game.target_quantity()) < 1e-9


def test_criterion_4_sampling_statistics():
    with criterion(4, "telescoping efficiency, 1/sqrt(S) errors, unbiasedness"):
        # telescoping: estimates distribute the target at any sample count
        game = random_table_game(7, seed=40)
        for s in (1, 7, 33):
            est = shapley_sample_permutations(game, SamplingConfig(s, seed=4))
            assert abs(est.values.sum() - game.target_quantity()) < 1e-9

        # quadrupling S halves std_err within +-25%
        game8 = random_table_game(8, seed=11)
        small = shapley_sample_permutations(game8, SamplingConfig(2_500, seed=55))
        large = shapley_sample_permutations(game8, SamplingConfig(10_000, seed=55))
        ratio = np.median(large.std_err) / np.median(small.std_err)
        assert 0.375 <= ratio <= 0.625

        # unbiasedness: grand mean over 200 seeds within 3 standard errors
        game6 = random_table_game(6, seed=7)
        exact6 = shapley_exact_subsets(game6).values
        means = np.array(
            [
                shapley_sample_permutations(
                    game6, SamplingConfig(50, seed=1000 + s)
                ).values
                for s in range(200)
            ]
        )
        grand = means.mean(axis=0)
        stderr = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
        assert np.all(np.abs(grand - exact6) <= 3.0 * stderr)


def _exhaustive_best_total(oracle: OracleSubsets) -> float:
    best = -1.0
    n = oracle.n_players
    for perm in itertools.permutations(range(n)):
        num, den = 0.0, 0.0
        for k in oracle.k_range:
            prefix = set(perm[:k])
            num += k * max(
                len(prefix & set(o.members())) / len(prefix | set(o.members()))
                for o in oracle.per_k[k]
            )
            den += k
        best = max(best, num / den)
    return best


def test_criterion_5_oracle_benchmark():
    with criterion(5, "oracle optimality, reference-rank quality, dominance"):
        # (a) oracle subsets verified optimal by independent re-enumeration
        for n, mode in ((5, "keep"), (8, "remove")):
            game = random_table_game(n, seed=500 + n)
            oracle = compute_oracle_subsets(game, mode, range(1, 5))
            for k in range(1, 5):
                payoffs = {}
                for combo in itertools.combinations(range(n), k):
                    mask = sum(1 << i for i in combo)
                    scored = mask if mode == "keep" else game.grand_mask ^ mask
                    payoffs[combo] = game.evaluate_mask(scored)
                best = max(payoffs.values())
                assert oracle.best_value[k] == best
                stored = {c.members() for c in oracle.per_k[k]}
                tied = {c for c, v in payoffs.items() if v >= best - 1e-12}
                assert stored == tied

        # (b) the constructed reference rank matches exhaustive search (N<=6)
        for seed in (51, 52, 53):
            game = random_table_game(6, seed=seed)
            oracle = compute_oracle_subsets(game, "remove", range(1, 5))
            constructed = score_ranking(build_oracle_rank(oracle), oracle).weighted_total
            best = _exhaustive_best_total(oracle)
            gap = (best - constructed) / best if best else 0.0
            assert gap <= 0.02, f"construction trails exhaustive best by {gap:.1%}"

        # (c) reference rank dominates every estimator rank on every test game
        for seed in (54, 55, 56):
            game = random_table_game(7, seed=seed)
            oracle = compute_oracle_subsets(game, "remove", range(1, 6))
            ceiling = score_ranking(build_oracle_rank(oracle), oracle).weighted_total
            estimates = [
                shapley_exact_subsets(game),
                leave_one_out(game),
                shapley_partial(game, SizeBand(high_d=2)),
                shapley_sample_permutations(game, SamplingConfig(500, seed=1)),
                shapley_regression(
                    game, RegressionConfig(n_samples=1, sampler="exhaustive")
                ),
            ]
            for est in estimates:
                removal = est.ranking().reversed()
                assert score_ranking(removal, oracle).weighted_total <= ceiling + 1e-12

        # (d) the two-disjoint-sets example {5} and {2,7}: the greedy
        # positional construction lands on 5/9; exhaustive search shows the
        # true optimum is 2/3 (see the decisions ledger), and no ordering
        # can reach 1.0
        per_k = {
            1: (Coalition.from_members([5], 8),),
            2: (Coalition.from_members([2, 7], 8),),
        }
        oracle = OracleSubsets(
            mode="remove", n_players=8, per_k=per_k, best_value={1: 0.0, 2: 0.0}
        )
        greedy = greedy_oracle_rank(oracle)
        assert greedy.order[0] == 5
        assert score_ranking(greedy, oracle).weighted_total == pytest.approx(5.0 / 9.0)
        optimal = build_oracle_rank(oracle)
        best = score_ranking(optimal, oracle).weighted_total
        assert best == pytest.approx(_exhaustive_best_total(oracle))
        assert best == pytest.approx(2.0 / 3.0)
        assert best < 1.0


def test_criterion_6_redundancy_degrades_single_removal_scoring():
    with criterion(6, "injected twin redundancy: exact rank >= single-removal rank"):
        started = time.perf_counter()
        for seed in (0, 1, 5):
            loo_scores = {}
            for n_pairs in (1, 2, 3):
                game = build_redundancy_game(seed=seed, n_pairs=n_pairs)
                oracle = compute_oracle_subsets(game, "keep", range(1, 6))
                exact_score = score_ranking(
                    shapley_exact_subsets(game).ranking(), oracle
                ).weighted_total
                loo_score = score_ranking(
                    leave_one_out(game).ranking(), oracle
                ).weighted_total
                assert exact_score >= loo_score - 1e-12, (
                    f"seed {seed}, {n_pairs} pairs: exact {exact_score:.3f} "
                    f"< single-removal {loo_score:.3f}"
                )
                loo_scores[n_pairs] = loo_score
            # more injected redundancy leaves single-removal scoring worse off
            assert loo_scores[3] <= loo_scores[1] + 1e-12
        assert time.perf_counter() - started < 300.0


def test_criterion_7_prune_contrast_on_frozen_fixture(tmp_path):
    with criterion(7, "masking least-important units hurts less than most-important"):
        data = make_blobs_dataset(seed=0)
        data_path = tmp_path / "blobs.csv"
        save_dataset_csv(data, data_path)
        spec = train_toy_model([8], data, epochs=150, lr=0.1, seed=0)
        from shaprank.toynet import save_model

        model_path = tmp_path / "toy.json"
        save_model(spec, model_path)

        out = tmp_path / "pruned.json"
        summary_path = tmp_path / "summary.json"
        rc = cli_main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "3",
                "--out", str(out), "--summary", str(summary_path),
            ]
        )
        assert rc == 0
        summary = json.loads(summary_path.read_text())
        nu_after_bottom = summary["nu_after"]

        # independently mask the TOP-ranked units instead
        game = make_accuracy_game(spec, data)
        ranking = shapley_exact_subsets(game).ranking()
        top = sorted(int(p) for p in ranking.order[:3])
        kept = Coalition.from_members(
            [i for i in range(game.n_players) if i not in top], game.n_players
        )
        nu_after_top = game.evaluate_mask(kept.bits)
        assert nu_after_bottom >= nu_after_top


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical reports across reruns and 1 vs 8 workers"):
        # shared deterministic inputs
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        fig2_path = inputs / "fig2.json"
        assert cli_main(["make-fig2", "--out", str(fig2_path)]) == 0
        data_path = inputs / "blobs.csv"
        save_dataset_csv(make_blobs_dataset(seed=0), data_path)
        model_path = inputs / "toy.json"
        rc = cli_main(
            [
                "train-toy", "--out", str(model_path), "--data", str(data_path),
                "--hidden", "8", "--epochs", "120", "--seed", "0",
            ]
        )
        assert rc == 0
        deep_model_path = inputs / "toy-deep.json"
        rc = cli_main(
            [
                "train-toy", "--out", str(deep_model_path), "--data", str(data_path),
                "--hidden", "8,6", "--epochs", "120", "--seed", "0",
            ]
        )
        assert rc == 0

        commands = {
            "make-fig2": lambda d, w: ["make-fig2", "--out", str(d / "out.json")],
            "rank-exact": lambda d, w: [
                "rank", "--game", str(fig2_path), "--method", "exact",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "rank-exact-perm": lambda d, w: [
                "rank", "--game", str(fig2_path), "--method", "exact-perm",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "rank-partial": lambda d, w: [
                "rank", "--game", str(fig2_path), "--method", "partial",
                "--high-d", "1",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "rank-perm": lambda d, w: [
                "rank", "--game", str(fig2_path), "--method", "perm",
                "--perms", "60", "--seed", "1",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "rank-kernel": lambda d, w: [
                "rank", "--game", str(fig2_path), "--method", "kernel",
                "--samples", "200", "--seed", "2",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "rank-model": lambda d, w: [
                "rank", "--model", str(model_path), "--data", str(data_path),
                "--method", "perm", "--perms", "40", "--seed", "3",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "oracle": lambda d, w: [
                "oracle", "--game", str(fig2_path), "--mode", "remove",
                "--k-range", "1:2",
                "--workers", w, "--out", str(d / "out.json"),
            ],
            "prune": lambda d, w: [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "2",
                "--workers", w, "--out", str(d / "out.json"),
                "--summary", str(d / "out.summary.json"),
            ],
            "prune-two-hidden": lambda d, w: [
                "prune", "--model", str(deep_model_path), "--data", str(data_path),
                "--method", "exact", "--count", "3", "--cache", str(d / "cache.jsonl"),
                "--workers", w, "--out", str(d / "out.json"),
                "--summary", str(d / "out.summary.json"),
            ],
            "train-toy": lambda d, w: [
                "train-toy", "--out", str(d / "out.json"),
                "--data", str(data_path), "--hidden", "6", "--epochs", "40",
                "--seed", "5",
            ],
        }
        for name, argv in commands.items():
            digests = []
            for run, workers in (("a", "1"), ("b", "1"), ("c", "8")):
                rundir = tmp_path / f"{name}-{run}"
                rundir.mkdir()
                assert cli_main(argv(rundir, workers)) == 0, f"{name} failed"
                digest = _sha(rundir / "out.json")
                for extra in ("out.summary.json", "cache.jsonl"):
                    if (rundir / extra).exists():
                        digest += _sha(rundir / extra)
                digests.append(digest)
            assert digests[0] == digests[1] == digests[2], f"{name} not byte-stable"
