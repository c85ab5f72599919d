import ast
import hashlib
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from shaprank import cli, formats
from shaprank.cli import main
from shaprank.errors import FormatError
from shaprank.exact import shapley_exact_subsets
from shaprank.formats import (
    load_dataset_csv,
    load_game_json,
    load_model,
    save_game_json,
    save_model,
)
from shaprank.games import Game
from shaprank.toynet import (
    Layer,
    ModelSpec,
    make_accuracy_game,
    make_blobs_dataset,
    split_dataset,
)

from conftest import MALFORMED_GAME_SPECS, random_table_game, save_dataset_csv, train_toy_model


def _benchmark_estimators() -> tuple[str, ...]:
    """``ESTIMATORS`` of perfbench/worker.py, read from its source: the
    ``shaprank.cli`` names whose first call ends an invocation's set-up."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "worker.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ESTIMATORS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no ESTIMATORS")


WRAPPED_ESTIMATORS = _benchmark_estimators()
# a fig2 invocation that calls each of them once
ESTIMATOR_ARGV = {
    "shapley_exact_subsets": ["rank", "--method", "exact"],
    "shapley_exact_permutations": ["rank", "--method", "exact-perm"],
    "shapley_partial": ["rank", "--method", "partial"],
    "shapley_sample_permutations": ["rank", "--method", "perm"],
    "shapley_regression": ["rank", "--method", "kernel"],
    "compute_oracle_subsets": ["oracle", "--mode", "remove", "--k-range", "1:2"],
}


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    assert main(["make-fig2", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """A trained toy model and its dataset: the model is trained on the
    dataset's rows in the order of a seed-0 shuffle."""
    root = tmp_path_factory.mktemp("toy")
    data = make_blobs_dataset(seed=0)
    data_path = root / "blobs.csv"
    save_dataset_csv(data, data_path)
    model_path = root / "toy.json"
    train_rows = split_dataset(data, (1, 0, 0), seed=0)["train"]
    save_model(train_toy_model([8], train_rows, epochs=150, seed=0), model_path)
    return model_path, data_path


def read_json(path):
    return json.loads(path.read_text())


class TestMakeFig2:
    def test_written_game_matches_the_builtin(self, fig2_path):
        game = load_game_json(fig2_path)
        assert game.values.tolist() == [10.0, 55.0, 40.0, 55.0, 35.0, 70.0, 85.0, 90.0]


class TestRank:
    def test_exact_order_and_scores(self, fig2_path, tmp_path):
        out = tmp_path / "rank.json"
        rc = main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(out)])
        assert rc == 0
        report = read_json(out)
        assert report["order"] == [2, 0, 1]
        np.testing.assert_allclose(report["scores"], [30.0, 25.0, 25.0], atol=1e-9)
        assert report["method"] == "exact-subsets"
        assert report["inputs"]["game"].startswith("sha256:")
        assert "evals_used" in report and "version" in report

    def test_partial_single_removal(self, fig2_path, tmp_path):
        out = tmp_path / "rank.json"
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "partial", "--high-d", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert report["order"] == [2, 1, 0]
        np.testing.assert_allclose(report["scores"], [35.0, 20.0, 5.0], atol=1e-12)

    def test_reruns_are_byte_identical(self, fig2_path, tmp_path):
        args = [
            "rank", "--game", str(fig2_path),
            "--method", "perm", "--perms", "40", "--seed", "1",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, fig2_path, tmp_path):
        args = [
            "rank", "--game", str(fig2_path),
            "--method", "perm", "--perms", "40", "--seed", "1",
        ]
        out_a, out_b = tmp_path / "w1.json", tmp_path / "w8.json"
        assert main(args + ["--workers", "1", "--out", str(out_a)]) == 0
        assert main(args + ["--workers", "8", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_model_game_rank_is_deterministic(self, toy_files, tmp_path):
        model_path, data_path = toy_files
        args = [
            "rank", "--model", str(model_path), "--data", str(data_path),
            "--layer", "0", "--method", "perm", "--perms", "30", "--seed", "1",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert read_json(out_a)["std_err"] is not None

    def test_csv_flattening(self, fig2_path, tmp_path):
        out = tmp_path / "rank.json"
        rc = main(
            ["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(out), "--csv"]
        )
        assert rc == 0
        lines = (tmp_path / "rank.json.csv").read_text().splitlines()
        assert lines[0] == "position,player,score"
        assert lines[1].startswith("0,2,")

    def test_kernel_method(self, fig2_path, tmp_path):
        out = tmp_path / "rank.json"
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "exhaustive",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        np.testing.assert_allclose(report["values"], [25.0, 25.0, 30.0], atol=1e-6)
        assert report["ridge_applied"] is False
        assert 1.0 <= report["condition"] < 1e3

    def test_kernel_report_says_when_the_ridge_fired(self, fig2_path, tmp_path):
        # the rows of seed 31 leave the plain normal equations rank deficient
        out = tmp_path / "rank.json"
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "size-stratified",
                "--samples", "3", "--seed", "31", "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert report["ridge_applied"] is True
        assert report["condition"] > 1e3


class TestReportParams:
    @pytest.mark.parametrize(
        "flags, params",
        [
            (["--method", "exact"], {"route": "subsets"}),
            (["--method", "exact-perm"], {"route": "permutations"}),
            (["--method", "partial"], {"high_d": 1, "low_d": None}),
            (["--method", "partial", "--high-d", "2", "--low-d", "1"], {"high_d": 2, "low_d": 1}),
            (["--method", "perm"], {"perms": 100, "antithetic": False, "early_stop": None}),
            (
                ["--method", "perm", "--perms", "40", "--antithetic",
                 "--early-stop-window", "4", "--early-stop-eps", "0.5"],
                {"perms": 40, "antithetic": True, "early_stop": {"window": 4, "epsilon": 0.5}},
            ),
            (
                ["--method", "kernel"],
                {"samples": 1000, "sampler": "size-stratified", "ridge": 1e-08},
            ),
            (
                ["--method", "kernel", "--samples", "50", "--sampler", "exhaustive",
                 "--ridge", "0.001"],
                {"samples": 50, "sampler": "exhaustive", "ridge": 0.001},
            ),
        ],
    )
    def test_rank_report_params(self, fig2_path, tmp_path, flags, params):
        out = tmp_path / "rank.json"
        assert main(["rank", "--game", str(fig2_path), *flags, "--out", str(out)]) == 0
        assert read_json(out)["params"] == params

    def test_prune_summary_params(self, toy_files, tmp_path):
        model_path, data_path = toy_files
        out = tmp_path / "pruned.json"
        rc = main(
            ["prune", "--model", str(model_path), "--data", str(data_path),
             "--method", "partial", "--high-d", "2", "--count", "3",
             "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "pruned.json.summary.json")
        assert summary["params"] == {"high_d": 2, "low_d": None}

    @pytest.mark.parametrize("command", ["rank", "prune"])
    @pytest.mark.parametrize("method, flag", [
        ("partial", "--raw-sum"), ("kernel", "--no-efficiency"), ("kernel", "--fit-intercept"),
    ])
    def test_a_deleted_estimator_option_is_a_usage_error(
        self, fig2_path, toy_files, tmp_path, capsys, command, method, flag
    ):
        # the raw band sum, the unconstrained fit and the fitted intercept
        # are gone: their flags no longer parse
        model_path, data_path = toy_files
        out = tmp_path / "out.json"
        source = (["--game", str(fig2_path)] if command == "rank" else
                  ["--model", str(model_path), "--data", str(data_path), "--count", "1"])
        rc = main([command, *source, "--method", method, flag, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("UsageError", 2)
        assert err["message"] == f"unrecognized arguments: {flag}"

    def test_unknown_method_lists_the_choices(self, fig2_path, tmp_path, capsys):
        rc = main(["rank", "--game", str(fig2_path), "--method", "bogus",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "UsageError",
            "argument --method: invalid choice: 'bogus' "
            "(choose from 'exact', 'exact-perm', 'partial', 'perm', 'kernel')",
        )

    @pytest.mark.parametrize("name", WRAPPED_ESTIMATORS)
    def test_estimator_is_looked_up_when_the_method_runs(
        self, fig2_path, tmp_path, monkeypatch, name
    ):
        # wrappers set on shaprank.cli after import (the benchmark's set-up
        # marker, its tracer) must see every estimator call
        assert hasattr(cli, name)
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
        argv = ESTIMATOR_ARGV[name] + ["--game", str(fig2_path), "--out", str(tmp_path / "r.json")]
        rc = main(argv)
        assert rc == 0
        assert calls == [1]


class TestOracle:
    def test_report_layout(self, fig2_path, tmp_path):
        rank_out = tmp_path / "rank.json"
        main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(rank_out)])
        out = tmp_path / "oracle.json"
        rc = main(
            [
                "oracle", "--game", str(fig2_path),
                "--mode", "remove", "--k-range", "1:2",
                "--rank", str(rank_out),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert report["oracle_subsets"] == {"1": [[0]], "2": [[1, 2]]}
        rows = {row["name"]: row for row in report["scores"]}
        assert rows["oracle-rank"]["weighted_total"] >= rows["rank"]["weighted_total"]
        assert set(rows["rank"]["per_k"]) == {"1", "2"}
        assert rows["rank"]["mode"] == "remove"

    def test_full_size_scores_everything_one(self, fig2_path, tmp_path, monkeypatch):
        rank_out = tmp_path / "rank.json"
        main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(rank_out)])
        out = tmp_path / "oracle.json"
        # one coalition of size 3 fits, the 7 prefixes of the optimal search
        # do not, so the greedy construction runs
        monkeypatch.setattr("shaprank.oracle.ENUMERATION_BUDGET", 1)
        rc = main(
            [
                "oracle", "--game", str(fig2_path),
                "--mode", "keep", "--k-range", "3",
                "--rank", str(rank_out),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert all(row["weighted_total"] == 1.0 for row in report["scores"])

    def test_oracle_without_rankings(self, fig2_path, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(
            [
                "oracle", "--game", str(fig2_path),
                "--mode", "remove", "--k-range", "1:2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = read_json(out)
        assert [row["name"] for row in report["scores"]] == ["oracle-rank"]

    def test_determinism(self, fig2_path, tmp_path):
        args = [
            "oracle", "--game", str(fig2_path), "--mode", "remove", "--k-range", "1:2",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--workers", "8", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


    def test_oracle_rank_of_22_units_scores_at_least_every_ranking(self, toy_files, tmp_path):
        _, data_path = toy_files
        model = tmp_path / "wide.json"
        # on this briefly trained net the greedy order scores 0.6 in remove
        # mode, below leave-one-out's 0.75; the best order scores 1.0
        train_rows = split_dataset(load_dataset_csv(data_path), (1, 0, 0), seed=0)["train"]
        save_model(train_toy_model([22], train_rows, epochs=3, seed=11), model)
        source = ["--model", str(model), "--data", str(data_path)]
        ranks = []
        for method in (["partial"], ["perm", "--perms", "100"], ["kernel", "--samples", "1000"]):
            ranks += ["--rank", str(tmp_path / f"{method[0]}.json")]
            assert main(["rank", *source, "--method", *method, "--out", ranks[-1]]) == 0
        out = tmp_path / "o.json"
        assert main(["oracle", *source, "--mode", "remove", "--k-range", "1:3", *ranks,
                     "--out", str(out)]) == 0
        ceiling, *rows = [row["weighted_total"] for row in read_json(out)["scores"]]
        assert len(rows) == 3
        assert all(ceiling >= total for total in rows)

    @pytest.mark.parametrize("mismatched_first", [True, False])
    def test_ranking_of_another_player_count_is_a_format_error(
        self, fig2_path, tmp_path, capsys, mismatched_first
    ):
        mismatched, corrupt = tmp_path / "n4.json", tmp_path / "corrupt.json"
        mismatched.write_text('{"order": [3, 2, 1, 0], "scores": [4, 3, 2, 1]}')
        good = tmp_path / "good.json"
        main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(good)])
        bad = [mismatched, corrupt] if mismatched_first else [corrupt, mismatched]
        # not JSON, a repeated player, rising scores
        for text in ["{", '{"order": [0, 0, 1], "scores": [3, 2, 1]}',
                     '{"order": [0, 1, 2], "scores": [1, 2, 3]}']:
            corrupt.write_text(text)
            rc = main(
                ["oracle", "--game", str(fig2_path), "--mode", "remove", "--k-range", "1:2",
                 *(a for path in [good, *bad] for a in ("--rank", str(path))),
                 "--out", str(tmp_path / "o.json")]
            )
            assert rc == 5
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert (err["error"], err["exit_code"]) == ("FormatError", 5)
            assert err["message"] == (
                f"{mismatched}: ranks 4 players, the game has 3" if mismatched_first
                else f"{corrupt}: not a ranking report"
            )
            assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "scores", ["[30.0, NaN, 25.0]", "[Infinity, 25.0, 25.0]", "[30.0, 25.0, -Infinity]"],
        ids=["nan", "infinity", "minus-infinity"],
    )
    def test_non_finite_scores_are_a_format_error(self, fig2_path, tmp_path, capsys, scores):
        # json reads these, and no comparison with NaN finds scores rising
        report = tmp_path / "r.json"
        report.write_text(f'{{"order": [2, 0, 1], "scores": {scores}}}')
        rc = main(
            ["oracle", "--game", str(fig2_path), "--mode", "keep", "--k-range", "1:2",
             "--rank", str(report), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == ("FormatError", f"{report}: not a ranking report")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "text",
        ['{"order": [0.7, 1, 2], "scores": [3, 2, 1]}',
         '{"order": [true, false, 2], "scores": [3, 2, 1]}',
         '{"order": [0, 1, 2], "scores": ["3", 2, 1]}'],
        ids=["fractional-order", "bool-order", "string-score"],
    )
    def test_report_entries_are_never_converted(self, fig2_path, tmp_path, capsys, text):
        report = tmp_path / "r.json"
        report.write_text(text)
        rc = main(
            ["oracle", "--game", str(fig2_path), "--mode", "keep", "--k-range", "1:2",
             "--rank", str(report), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == ("FormatError", f"{report}: not a ranking report")


class TestPrune:
    def test_zero_count_is_a_usage_error(self, toy_files, tmp_path, capsys):
        model_path, data_path = toy_files
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "0",
                "--out", str(tmp_path / "pruned.json"),
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["exit_code"] == 2

    def test_count_and_fraction_are_checked_before_any_input_is_read(
        self, tmp_path, capsys
    ):
        rc = main(
            [
                "prune", "--model", str(tmp_path / "missing.json"),
                "--data", str(tmp_path / "missing.csv"),
                "--method", "exact", "--count", "1", "--fraction", "0.5",
                "--out", str(tmp_path / "pruned.json"),
            ]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"

    def test_pruned_model_is_the_baked_spec_with_the_kept_mask(
        self, toy_files, tmp_path
    ):
        model_path, data_path = toy_files
        out = tmp_path / "pruned.json"
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "partial", "--count", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        summary = read_json(tmp_path / "pruned.json.summary.json")
        expected = tmp_path / "expected.json"
        save_model(load_model(model_path), expected, removed=summary["removed_players"])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("count", [4, 40])
    def test_a_large_pruned_model_is_one_file_of_the_ranked_weights(self, tmp_path, count):
        # 9 028 parameters: the file must hold the ranked weights exactly at
        # any size, not only for small models
        rng = np.random.default_rng(3)
        spec = ModelSpec(layers=[
            Layer("dense", rng.standard_normal((64, 2)), rng.standard_normal(64)),
            Layer("dense", rng.standard_normal((128, 64)), rng.standard_normal(128)),
            Layer("dense", rng.standard_normal((4, 128)), rng.standard_normal(4),
                  "softmax-logits"),
        ])
        model_path, data_path = tmp_path / "model.json", tmp_path / "data.csv"
        save_model(spec, model_path)
        save_dataset_csv(make_blobs_dataset(n_per_class=10, n_classes=4, seed=0), data_path)
        out = tmp_path / "out"
        out.mkdir()
        rc = main(
            ["prune", "--model", str(model_path), "--data", str(data_path),
             "--method", "partial", "--count", str(count), "--out", str(out / "pruned.json"),
             "--summary", str(tmp_path / "summary.json")]
        )
        assert rc == 0
        assert [p.name for p in out.iterdir()] == ["pruned.json"]
        removed = read_json(tmp_path / "summary.json")["removed_players"]
        pruned = load_model(out / "pruned.json")
        for index, (got, ranked) in enumerate(zip(pruned.layers, spec.layers)):
            weights, bias = ranked.weights.copy(), ranked.bias.copy()
            if index == spec.prunable_layer:
                weights[removed] = bias[removed] = 0.0
            assert np.array_equal(got.weights, weights) and np.array_equal(got.bias, bias)

    @pytest.mark.parametrize("count", [1, 4, 7])
    def test_pruned_model_file_reproduces_nu_after(self, toy_files, tmp_path, count):
        from shaprank.formats import load_dataset_csv
        from shaprank.toynet import make_accuracy_game

        model_path, data_path = toy_files
        out, summary_path = tmp_path / "pruned.json", tmp_path / "summary.json"
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", str(count),
                "--out", str(out), "--summary", str(summary_path),
            ]
        )
        assert rc == 0
        summary = read_json(summary_path)
        game = make_accuracy_game(load_model(out), load_dataset_csv(data_path))
        assert game.evaluate_mask(game.grand_mask) == summary["nu_after"]
        # pruning the pruned model again: its removed units are dummies
        again = tmp_path / "again.json"
        assert main(
            ["prune", "--model", str(out), "--data", str(data_path), "--method", "exact",
             "--count", str(count), "--out", str(again), "--summary", str(summary_path)]
        ) == 0
        assert read_json(summary_path)["nu_before"] == summary["nu_after"]

    def test_prune_masks_bottom_ranked_units(self, toy_files, tmp_path):
        model_path, data_path = toy_files
        out = tmp_path / "pruned.json"
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "2",
                "--out", str(out), "--summary", str(tmp_path / "summary.json"),
            ]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary.json")
        assert len(summary["removed_players"]) == 2
        assert 0.0 <= summary["nu_after"] <= 1.0
        assert read_json(out)["mask"]["removed"] == summary["removed_players"]
        pruned = load_model(out).layers[0]
        removed = summary["removed_players"]
        assert not pruned.weights[removed].any() and not pruned.bias[removed].any()
        kept = summary["kept_players"]
        assert np.array_equal(pruned.weights[kept], load_model(model_path).layers[0].weights[kept])

    def test_pruning_a_dead_unit_keeps_the_payoff(self, tmp_path):
        data = make_blobs_dataset(seed=2)
        data_path = tmp_path / "data.csv"
        save_dataset_csv(data, data_path)
        trained = train_toy_model([4], data, epochs=150, lr=0.1, seed=2)
        hidden, head = trained.layers
        rng = np.random.default_rng(0)
        # append one unit whose outgoing weights are zero: a dead player
        w1 = np.vstack([hidden.weights, rng.standard_normal((1, 2))])
        b1 = np.append(hidden.bias, 0.0)
        w2 = np.hstack([head.weights, np.zeros((head.weights.shape[0], 1))])
        model_path = tmp_path / "model.json"
        save_model(
            ModelSpec(
                [
                    Layer("dense", w1, b1, hidden.activation),
                    Layer("dense", w2, head.bias, head.activation),
                ],
                prunable_layer=0,
            ),
            model_path,
        )

        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "1",
                "--out", str(tmp_path / "pruned.json"),
                "--summary", str(tmp_path / "summary.json"),
            ]
        )
        assert rc == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["removed_players"] == [4]
        assert abs(summary["nu_after"] - summary["nu_before"]) <= 1e-12

    def test_removing_least_important_beats_removing_most_important(
        self, toy_files, tmp_path
    ):
        model_path, data_path = toy_files
        out = tmp_path / "worst.json"
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", "--count", "2",
                "--out", str(out), "--summary", str(tmp_path / "bottom.json"),
            ]
        )
        assert rc == 0
        bottom = read_json(tmp_path / "bottom.json")

        # manually mask the TOP-ranked units instead and compare payoffs
        from shaprank.exact import shapley_exact_subsets
        from shaprank.games import mask_from_members
        from shaprank.formats import load_dataset_csv
        from shaprank.toynet import make_accuracy_game

        data = load_dataset_csv(data_path)
        game = make_accuracy_game(load_model(model_path), data)
        ranking = shapley_exact_subsets(game).ranking()
        top_removed = sorted(int(p) for p in ranking.order[:2])
        kept = mask_from_members(
            [i for i in range(game.n_players) if i not in top_removed], game.n_players
        )
        nu_remove_top = game.evaluate_mask(kept)
        assert bottom["nu_after"] >= nu_remove_top


class TestCache:
    def test_rewritten_weights_invalidate_the_cache(self, toy_files, tmp_path, capsys):
        # the weights are inline, so the model file's hash tells the two
        # models apart; a report names no file but the model and the data
        model_path, data_path = toy_files
        spec = load_model(model_path)
        model, cache = tmp_path / "m.json", tmp_path / "c.jsonl"
        save_model(spec, model)
        rank = ["rank", "--model", str(model), "--data", str(data_path),
                "--method", "exact", "--cache", str(cache)]
        assert main(rank + ["--out", str(tmp_path / "a.json")]) == 0
        inputs = read_json(tmp_path / "a.json")["inputs"]
        assert set(inputs) == {"model", "data", "layer", "split", "split_seed"}
        assert inputs["model"] == "sha256:" + hashlib.sha256(model.read_bytes()).hexdigest()
        layers = [Layer(l.kind, -l.weights, l.bias, l.activation, l.norm) for l in spec.layers]
        save_model(ModelSpec(layers=layers), model)
        capsys.readouterr()
        assert main(rank + ["--out", str(tmp_path / "b.json")]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"].startswith(f"{cache}: cache was built for a different game")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "c.jsonl", "m.json"]

    def test_kernel_reuses_exact_enumeration(self, fig2_path, tmp_path):
        cache = tmp_path / "cache.jsonl"
        rc = main(
            [
                "rank", "--game", str(fig2_path), "--method", "exact",
                "--cache", str(cache), "--out", str(tmp_path / "a.json"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "exhaustive",
                "--cache", str(cache), "--out", str(tmp_path / "b.json"),
            ]
        )
        assert rc == 0
        second = read_json(tmp_path / "b.json")
        assert second["evals_used"] == 0
        assert second["cache_hits"] > 0

    @pytest.mark.parametrize(
        "key, value", [("source", "sha256:deadbeef"), ("n_players", True), ("n_players", 1.0)])
    def test_corrupted_header_is_refused(self, tmp_path, capsys, key, value):
        # a one-player game, whose player count true and 1.0 compare equal to
        game = tmp_path / "one.json"
        game.write_text('{"n_players": 1, "values": {"0": 1.0, "1": 2.0}}')
        cache = tmp_path / "cache.jsonl"
        exact = ["rank", "--game", str(game), "--method", "exact", "--cache", str(cache)]
        assert main(exact + ["--out", str(tmp_path / "a.json")]) == 0
        body = cache.read_text().splitlines()
        header = json.loads(body[0])
        header[key] = value
        cache.write_text("\n".join([json.dumps(header)] + body[1:]) + "\n")
        assert main(exact + ["--out", str(tmp_path / "b.json")]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"].startswith(f"{cache}: cache was built for a different game")

    def test_cache_round_trip_preserves_values(self, fig2_path, tmp_path):
        cache = tmp_path / "cache.jsonl"
        main(
            [
                "rank", "--game", str(fig2_path), "--method", "exact",
                "--cache", str(cache), "--out", str(tmp_path / "a.json"),
            ]
        )
        lines = cache.read_text().splitlines()
        values = dict(json.loads(line) for line in lines[1:])
        assert values[0] == 10.0 and values[7] == 90.0

    @pytest.mark.parametrize(
        "row, complaint",
        [("[1, NaN]", "non-finite payoff"), ("[99, 1.0]", "out of range")],
    )
    def test_bad_cache_entry_is_a_format_error(
        self, fig2_path, tmp_path, capsys, row, complaint
    ):
        cache = tmp_path / "cache.jsonl"
        exact = ["rank", "--game", str(fig2_path), "--method", "exact", "--cache", str(cache)]
        assert main(exact + ["--out", str(tmp_path / "a.json")]) == 0
        lines = cache.read_text().splitlines()
        lines[2] = row
        cache.write_text("\n".join(lines) + "\n")
        assert main(exact + ["--out", str(tmp_path / "b.json")]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert f"{cache}:3:" in err["message"]
        assert complaint in err["message"]

    @pytest.mark.parametrize(
        "row", ["[1.5, 99.0]", '["1", 99.0]', '[1, "99.5"]', "[1, true]"]
    )
    def test_cache_rows_of_the_wrong_json_type_are_refused(
        self, fig2_path, tmp_path, capsys, row
    ):
        # each of these rows used to be converted into a payoff for mask 1
        cache = tmp_path / "cache.jsonl"
        exact = ["rank", "--game", str(fig2_path), "--method", "exact", "--cache", str(cache)]
        assert main(exact + ["--out", str(tmp_path / "a.json")]) == 0
        lines = cache.read_text().splitlines()
        lines[2] = row
        cache.write_text("\n".join(lines) + "\n")
        assert main(exact + ["--out", str(tmp_path / "b.json")]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == f"{cache}:3: corrupt cache entry"
        assert not (tmp_path / "b.json").exists()

    def test_warm_run_leaves_the_cache_file_alone(self, fig2_path, tmp_path):
        cache = tmp_path / "cache.jsonl"
        source = ["rank", "--game", str(fig2_path), "--cache", str(cache)]
        assert main(source + ["--method", "exact", "--out", str(tmp_path / "a.json")]) == 0
        before = cache.stat()
        assert main(source + ["--method", "kernel", "--sampler", "exhaustive",
                              "--out", str(tmp_path / "b.json")]) == 0
        after = cache.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_new_payoffs_rewrite_the_cache_file(self, fig2_path, tmp_path):
        cache = tmp_path / "cache.jsonl"
        source = ["rank", "--game", str(fig2_path), "--cache", str(cache)]
        assert main(source + ["--method", "partial", "--out", str(tmp_path / "a.json")]) == 0
        assert len(cache.read_text().splitlines()) == 1 + 5  # empty, grand, the size-2 masks
        assert main(source + ["--method", "exact", "--out", str(tmp_path / "b.json")]) == 0
        assert len(cache.read_text().splitlines()) == 1 + 8

    def test_rows_are_written_as_json_dumps_writes_them(self, tmp_path):
        rng = np.random.default_rng(5)
        masks = [0, 1, 2**40 + 3, 2**63 + 7, 2**64 - 1]
        payoffs = [0.1, -2.5e-300, 1e300, float(rng.standard_normal()), 3.0]
        game = Game(64, lambda masks: np.zeros(masks.size), preloaded=(masks, payoffs))
        path = tmp_path / "cache.jsonl"
        formats.save_cache(path, "src", game)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [json.dumps([m, v]) for m, v in sorted(zip(masks, payoffs))]
        loaded = formats.load_cache(path, "src", 64)
        assert loaded[0].tolist() == masks and loaded[1].tolist() == payoffs

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (["[7, 1.0]", "[1, 2]", "[7, 4.0]", "[1, 5.0]"], {1: 5.0, 7: 4.0}),
            ([], {}),
            (["[2, 1]", "[1, 55]", "[1, 2.5]"], {1: 2.5, 2: 1.0}),
            (["  [1, 2.0]  ", "[2, 3.0]"], {1: 2.0, 2: 3.0}),
        ],
    )
    def test_cache_rows_load_last_one_wins(self, tmp_path, rows, expected):
        path = tmp_path / "cache.jsonl"
        header = {"format": formats.CACHE_FORMAT, "n_players": 3, "source": "src"}
        path.write_text("\n".join([json.dumps(header)] + rows) + "\n")
        masks, payoffs = formats.load_cache(path, "src", 3)
        assert dict(zip(masks.tolist(), payoffs.tolist())) == expected

    @pytest.mark.parametrize(
        "rows, line, complaint",
        [
            (["[0, 1.0]", "", "[1, 2.0]"], 3, "corrupt cache entry"),
            (["[0, 1.0], [1, 2.0]"], 2, "corrupt cache entry"),
            (["[0, 1.0], [1", "2.0]"], 2, "corrupt cache entry"),
            (["[1, 2.0, 3.0]"], 2, "corrupt cache entry"),
            (["[1, null]"], 2, "corrupt cache entry"),
            (["[[1], 2.0]"], 2, "corrupt cache entry"),
            (["[0, 1.0]", "[1, NaN]"], 3, "non-finite payoff nan for mask 1"),
            (["[1, 1e400]"], 2, "non-finite payoff inf for mask 1"),
            (['[1, "nan"]'], 2, "corrupt cache entry"),
            (['["1", 2.0]'], 2, "corrupt cache entry"),
            (["[2.0, 1.0]"], 2, "corrupt cache entry"),
            (["[true, 2.0]"], 2, "corrupt cache entry"),
            (["[1, false]"], 2, "corrupt cache entry"),
            (["[1, {}]"], 2, "corrupt cache entry"),
            (["[1, " + "9" * 400 + "]"], 2, "corrupt cache entry"),
            (["[0, 1.0]", "[8, 1.0]"], 3, "mask 8 out of range for 3 players"),
            (["[-1, 1.0]"], 2, "mask -1 out of range for 3 players"),
        ],
    )
    def test_bad_cache_rows_name_their_line(self, tmp_path, monkeypatch, rows, line, complaint):
        path = tmp_path / "cache.jsonl"
        header = {"format": formats.CACHE_FORMAT, "n_players": 3, "source": "src"}
        path.write_text("\n".join([json.dumps(header)] + rows) + "\n")
        # the reader's chunk size, a chunk per row, and chunks cut unevenly
        for chunk in (formats._PARSE_CHUNK, 1, 17):
            monkeypatch.setattr(formats, "_PARSE_CHUNK", chunk)
            with pytest.raises(FormatError) as info:
                formats.load_cache(path, "src", 3)
            assert str(info.value) == f"{path}:{line}: {complaint}"

    def test_failed_cache_write_keeps_the_previous_file(
        self, fig2_path, tmp_path, monkeypatch, capsys
    ):
        cache = tmp_path / "cache.jsonl"
        source = ["rank", "--game", str(fig2_path), "--cache", str(cache)]
        assert main(source + ["--method", "partial", "--out", str(tmp_path / "a.json")]) == 0
        before = cache.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", interrupted)
            rc = main(source + ["--method", "exact", "--out", str(tmp_path / "b.json")])
        assert rc == 5
        assert cache.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "b.json", "cache.jsonl", "fig2.json"
        ]

        # the 8 rows go out 3 at a time; the write of the second block
        # stops half way through
        def open_failing_in_the_second_block(*args, **kwargs):
            fh = open(*args, **kwargs)
            writes, write = itertools.count(), fh.write

            def failing(text):
                if next(writes) == 2:  # the header, the first block, then this
                    write(text[:len(text) // 2])
                    raise OSError("no space left on device")
                return write(text)

            fh.write = failing
            return fh

        monkeypatch.setattr(formats, "_WRITE_ROWS", 3)
        monkeypatch.setattr(formats, "open", open_failing_in_the_second_block, raising=False)
        capsys.readouterr()
        rc = main(source + ["--method", "exact", "--out", str(tmp_path / "c.json")])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["message"]) == (5, "no space left on device")
        assert cache.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "b.json", "c.json", "cache.jsonl", "fig2.json"
        ]


class TestErrors:
    def test_missing_game_file(self, tmp_path, capsys):
        rc = main(
            ["rank", "--game", str(tmp_path / "nope.json"), "--method", "exact",
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["exit_code"] == 5

    @pytest.mark.parametrize("target", ["gone", "dir", "loop"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["rank", "--game", "{missing}", "--method", "exact", "--out", "{bad}"], "--out"),
            (["rank", "--game", "{missing}", "--method", "exact", "--out", "{ok}",
              "--csv", "--cache", "{bad}"], "--cache"),
            (["oracle", "--game", "{missing}", "--mode", "remove", "--k-range", "1:2",
              "--out", "{bad}", "--csv"], "--out"),
            (["prune", "--model", "{missing}", "--data", "{missing}", "--method", "exact",
              "--count", "1", "--out", "{bad}"], "--out"),
            (["prune", "--model", "{missing}", "--data", "{missing}", "--method", "exact",
              "--count", "1", "--out", "{ok}", "--summary", "{bad}"], "--summary"),
            (["rank", "--model", "{missing}", "--data", "{missing}", "--method", "exact",
              "--out", "{bad}"], "--out"),
            (["make-fig2", "--out", "{bad}"], "--out"),
        ],
    )
    def test_output_in_a_missing_directory_fails_before_any_input_is_read(
        self, tmp_path, capsys, argv, flag, target
    ):
        (tmp_path / "dir").mkdir()
        (tmp_path / "loop").symlink_to("loop")
        paths = {
            "missing": str(tmp_path / "nope.json"),
            "gone": str(tmp_path / "no-such-dir" / "x.json"),
            # an existing directory, which no file can be written as either
            "dir": str(tmp_path / "dir"),
            # a directory that is a symlink to itself
            "loop": str(tmp_path / "loop" / "x.json"),
            "ok": str(tmp_path / "x.json"),
        }
        rc = main([arg.format(**paths, bad=paths[target]) for arg in argv])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["exit_code"]) == (5, 5)
        assert err["message"].startswith(f"{flag} {paths[target]}:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "loop"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag, written",
        [(["rank", "--method", "exact", "--csv"], "--csv", "r.json.csv"),
         (["oracle", "--mode", "remove", "--k-range", "1:2", "--csv"], "--csv", "r.json.csv"),
         (["prune", "--method", "exact", "--count", "2"], "--summary", "r.json.summary.json")],
    )
    def test_a_file_beside_out_that_is_a_directory_fails_before_any_payoff(
        self, tmp_path, capsys, monkeypatch, argv, flag, written
    ):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        monkeypatch.setattr(cli, "accuracy_char_fn", lambda spec, data: pytest.fail("a payoff"))
        (tmp_path / written).mkdir()
        out, cache = tmp_path / "r.json", tmp_path / "c.jsonl"
        rc = main([*argv, "--model", os.path.join(golden, "net.json"),
                   "--data", os.path.join(golden, "net-data.csv"),
                   "--cache", str(cache), "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (5, "IsADirectoryError", 5)
        assert err["message"] == f"{flag} {tmp_path / written}: is a directory, not a file"
        assert [p.name for p in tmp_path.iterdir()] == [written]

    @pytest.mark.parametrize(
        "argv, flags",
        [(["rank", "--method", "exact", "--cache", "{same}", "--out", "{same}"],
          ("--out", "--cache")),
         (["oracle", "--mode", "keep", "--k-range", "1:2", "--cache", "{same}",
           "--out", "{same}"], ("--out", "--cache")),
         (["rank", "--method", "exact", "--csv", "--cache", "{same}.csv", "--out", "{same}"],
          ("--cache", "--csv")),
         (["prune", "--method", "exact", "--count", "1", "--out", "{same}",
           "--summary", "{same}"], ("--out", "--summary")),
         (["prune", "--method", "exact", "--count", "1", "--cache", "{same}",
           "--out", "{dir}/r.json", "--summary", "{same}"], ("--cache", "--summary")),
         (["prune", "--method", "exact", "--count", "1", "--cache", "{same}.summary.json",
           "--out", "{same}"], ("--cache", "--summary")),
         (["prune", "--method", "exact", "--count", "1", "--out", "{same}",
           "--summary", "{dir}/../{name}"], ("--out", "--summary"))],
        ids=["rank-out-cache", "oracle-out-cache", "rank-cache-csv", "prune-out-summary",
             "prune-cache-summary", "prune-cache-default-summary", "prune-out-summary-resolved"],
    )
    def test_two_outputs_that_name_one_file_are_a_usage_error(
        self, tmp_path, capsys, argv, flags
    ):
        # refused before any input is read: the model does not exist
        (tmp_path / "sub").mkdir()
        paths = {"same": str(tmp_path / "m.json"), "dir": str(tmp_path / "sub"), "name": "m.json"}
        source = ["--model", str(tmp_path / "nope.json"), "--data", str(tmp_path / "nope.csv")]
        rc = main([arg.format(**paths) for arg in argv[:1] + source + argv[1:]])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert err["message"].startswith(f"{flags[0]} and {flags[1]} both name ")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["prune", "--game", "{missing}", "--method", "exact", "--count", "1",
             "--out", "{gone}"],
            ["rank", "--game", "{missing}", "--data", "{missing}", "--method", "exact",
             "--out", "{gone}"],
            ["rank", "--model", "{missing}", "--method", "exact", "--out", "{gone}"],
            ["oracle", "--model", "{missing}", "--mode", "remove", "--k-range", "1:2",
             "--out", "{gone}"],
            ["prune", "--model", "{missing}", "--data", "{missing}", "--method", "exact",
             "--out", "{gone}"],
            ["prune", "--model", "{missing}", "--data", "{missing}", "--method", "exact",
             "--fraction", "2", "--out", "{gone}"],
        ],
    )
    def test_a_usage_error_comes_before_a_missing_output_directory(
        self, tmp_path, capsys, argv
    ):
        # an invalid command line exits 2 whatever its paths
        paths = {"missing": str(tmp_path / "nope.json"),
                 "gone": str(tmp_path / "no-such-dir" / "x.json")}
        rc = main([arg.format(**paths) for arg in argv])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["exit_code"], err["error"]) == (2, 2, "UsageError")

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        game_path = tmp_path / "n12.json"
        save_game_json(random_table_game(12, seed=0), game_path)
        rc = main(
            ["rank", "--game", str(game_path), "--method", "exact-perm",
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CapacityError"

    def test_numerical_error_exit_code(self, fig2_path, tmp_path, capsys):
        # seed 31 draws rows that leave the normal equations rank deficient;
        # with the ridge fallback disabled that is a numerical failure
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "size-stratified",
                "--samples", "3", "--seed", "31", "--ridge", "0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "SingularSystemError"

    @pytest.mark.parametrize("text, message", MALFORMED_GAME_SPECS)
    def test_malformed_game_spec_is_a_format_error(self, tmp_path, capsys, text, message):
        game_path = tmp_path / "bad.json"
        game_path.write_text(text)
        rc = main(
            ["rank", "--game", str(game_path), "--method", "exact",
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == ("FormatError", f"{game_path}: {message}")

    def test_key_mismatch_at_many_players_is_reported_quickly(self, tmp_path, capsys):
        # naming the missing keys must not build all 2**40 expected keys
        game_path = tmp_path / "n40.json"
        game_path.write_text('{"n_players": 40, "values": {"0": 1.0, "1": 2.0}}')
        started = time.perf_counter()
        rc = main(
            ["rank", "--game", str(game_path), "--method", "exact",
             "--out", str(tmp_path / "r.json")]
        )
        assert time.perf_counter() - started < 1.0
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == (
            f"{game_path}: game spec must contain exactly the 1099511627776 coalition keys; "
            "missing ['10', '100', '1000', '10000', '100000'], unexpected []"
        )

    def test_payoff_without_one_value_per_mask_is_a_numerical_error(
        self, toy_files, tmp_path, capsys, monkeypatch
    ):
        model_path, data_path = toy_files
        monkeypatch.setattr(cli, "accuracy_char_fn", lambda spec, data: (lambda masks: 0.5))
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CharacteristicFunctionError"

    @pytest.mark.parametrize("command", ["rank", "prune"])
    @pytest.mark.parametrize("sampler", ["bernoulli-half", "permutation-prefix"])
    def test_a_sampler_outside_the_choices_is_a_usage_error(
        self, toy_files, tmp_path, capsys, command, sampler
    ):
        model_path, data_path = toy_files
        out = tmp_path / "r.json"
        extra = ["--count", "2"] if command == "prune" else []
        rc = main([command, "--model", str(model_path), "--data", str(data_path),
                   "--method", "kernel", "--sampler", sampler, *extra, "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert "--sampler" in err["message"] and sampler in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "oracle"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--data", "nosuch.csv"), ("--layer", "0"), ("--split", "1:1:1"), ("--split-seed", "5")],
    )
    def test_model_flags_with_a_game_are_usage_errors_naming_the_flag(
        self, tmp_path, capsys, command, flag, value
    ):
        # refused before any file is read: the game file does not exist either
        out = tmp_path / "r.json"
        required = {"rank": ["--method", "exact"], "oracle": ["--mode", "keep", "--k-range", "1:2"]}
        rc = main([command, "--game", str(tmp_path / "nosuch.json"), *required[command],
                   flag, value, "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert flag in err["message"]
        assert not out.exists()

    def test_usage_error_for_conflicting_sources(self, fig2_path, tmp_path, capsys):
        rc = main(
            ["rank", "--game", str(fig2_path), "--model", "x.json",
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("label", [7, -1])
    def test_label_outside_the_head_is_a_format_error(
        self, toy_files, tmp_path, capsys, label
    ):
        model_path, data_path = toy_files
        lines = data_path.read_text().splitlines()
        x0, x1, _ = lines[3].split(",")
        lines[3] = f"{x0},{x1},{label}"
        bad_data = tmp_path / "bad.csv"
        bad_data.write_text("\n".join(lines) + "\n")
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(bad_data),
             "--method", "partial", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FormatError"
        assert f"{bad_data}:4:" in err["message"]
        assert f"label {label}" in err["message"]

    def test_label_beyond_int64_is_a_format_error(self, toy_files, tmp_path, capsys):
        model_path, data_path = toy_files
        lines = data_path.read_text().splitlines()
        x0, x1, _ = lines[-1].split(",")
        lines[-1] = f"{x0},{x1},{10**29}"
        bad_data = tmp_path / "bad.csv"
        bad_data.write_text("\n".join(lines) + "\n")
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(bad_data),
             "--method", "partial", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FormatError"
        assert err["message"].startswith(f"{bad_data}:{len(lines)}: ")

    @pytest.mark.parametrize(
        "first_layer, header, row, expected",
        [
            (Layer("dense", np.eye(2), np.zeros(2)), "x0,x1,x2,label", "0.5,1.0,2.0,0",
             "3 features, the model's first layer expects 2"),
            (Layer("conv2d", np.ones((2, 1, 3, 3)), np.zeros(2)), "x0,x1,label", "0.5,1.0,0",
             "2 features, the model's first layer expects 1-channel images"),
        ],
        ids=["dense", "conv2d"],
    )
    def test_data_that_does_not_fit_the_first_layer_is_a_format_error(
        self, tmp_path, capsys, first_layer, header, row, expected
    ):
        model_path, data_path = tmp_path / "m.json", tmp_path / "d.csv"
        head = Layer("dense", np.eye(2), np.zeros(2), activation="identity")
        save_model(ModelSpec(layers=[first_layer, head]), model_path)
        data_path.write_text(f"{header}\n{row}\n{row}\n")
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == ("FormatError", f"{data_path}: {expected}")

    @pytest.mark.parametrize("by_flag", [False, True], ids=["file", "flag"])
    def test_a_prunable_layer_over_64_units_is_a_capacity_error(
        self, tmp_path, capsys, monkeypatch, by_flag
    ):
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((4, 2)), np.zeros(4)),
            Layer("dense", rng.standard_normal((65, 4)), np.zeros(65)),
            Layer("dense", rng.standard_normal((3, 65)), np.zeros(3), "softmax-logits"),
        ]
        model_path, data_path = tmp_path / "m.json", tmp_path / "d.csv"
        save_model(ModelSpec(layers=layers, prunable_layer=0 if by_flag else 1), model_path)
        data_path.write_text("x0,x1,label\n0.5,1.0,0\n1.5,-1.0,2\n")
        # the layer is refused before its payoff function is built
        monkeypatch.setattr(cli, "accuracy_char_fn", lambda *a: pytest.fail("payoff built"))
        rc = main(["rank", "--model", str(model_path), "--data", str(data_path),
                   *(["--layer", "1"] if by_flag else []),
                   "--method", "perm", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "CapacityError", f"{model_path}: layer 1 has 65 units, over the 64-player limit")

    # the arguments each command needs beside --model, --data and --out
    MODEL_COMMANDS = {
        "rank": ["--method", "exact"],
        "oracle": ["--mode", "remove", "--k-range", "1:2"],
        "prune": ["--method", "exact", "--count", "2"],
    }

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_a_dataset_without_a_feature_column_is_a_format_error(
        self, toy_files, tmp_path, capsys, command
    ):
        model_path, _ = toy_files
        data_path, out = tmp_path / "d.csv", tmp_path / "out.json"
        data_path.write_text("label\n0\n1\n2\n0\n")
        rc = main([command, "--data", str(data_path), "--out", str(out),
                   "--model", str(model_path), *self.MODEL_COMMANDS[command]])
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "FormatError", f"{data_path}: expected header 'x0,...,label'")
        assert not out.exists()

    @pytest.mark.parametrize("label", [-1, 3, 10**9])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_a_label_outside_the_models_classes_is_a_format_error(
        self, toy_files, tmp_path, capsys, command, label
    ):
        # the toy model's head has 3 classes; numpy's negative indexing
        # would otherwise read label -1 as the last of them
        model_path, _ = toy_files
        data_path, out = tmp_path / "d.csv", tmp_path / "out.json"
        data_path.write_text(f"x0,x1,label\n0.5,1.0,0\n1.5,-1.0,{label}\n0.0,2.0,2\n")
        rc = main([command, "--model", str(model_path), "--data", str(data_path),
                   *self.MODEL_COMMANDS[command], "--out", str(out)])
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "FormatError", f"{data_path}:3: label {label} outside the model's 3 classes")
        assert not out.exists()

    @pytest.mark.parametrize("k_range", ["3:1", "0:2", "1,9", "1:100000000000000000000"])
    def test_k_range_outside_the_players_is_a_usage_error(
        self, fig2_path, tmp_path, capsys, k_range
    ):
        rc = main(
            ["oracle", "--game", str(fig2_path), "--mode", "remove", "--k-range", k_range,
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"
        assert err["message"].startswith(f"--k-range {k_range!r}")

    def test_k_range_sizes_are_reported_ascending_and_given_once(
        self, fig2_path, tmp_path, capsys
    ):
        def oracle(k_range):
            out = tmp_path / f"o-{k_range}.json"
            rc = main(["oracle", "--game", str(fig2_path), "--mode", "remove",
                       "--k-range", k_range, "--out", str(out)])
            return rc, out

        rc, ascending = oracle("1,2")
        assert rc == 0
        rc, descending = oracle("2,1")
        assert rc == 0
        assert descending.read_bytes() == ascending.read_bytes()
        report = json.loads(ascending.read_text())
        assert report["k_range"] == report["params"]["k_range"] == [1, 2]
        capsys.readouterr()
        rc, repeated = oracle("2,1,2")
        assert rc == 2
        assert not repeated.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == ("UsageError", "--k-range '2,1,2': k=2 given twice")

    def test_rank_strategy_is_a_usage_error(self, fig2_path, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = main(["oracle", "--game", str(fig2_path), "--mode", "remove", "--k-range", "1:2",
                   "--rank-strategy", "greedy", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("UsageError", 2)
        assert "unrecognized arguments: --rank-strategy greedy" in err["message"]

    def test_empty_size_band_exits_2(self, fig2_path, tmp_path, capsys):
        rc = main(["rank", "--game", str(fig2_path), "--method", "partial",
                   "--high-d", "0", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("InvalidBandError", 2)

    def test_dataset_with_a_header_and_no_rows_is_a_format_error(
        self, toy_files, tmp_path, capsys
    ):
        model_path, _ = toy_files
        data_path = tmp_path / "header-only.csv"
        data_path.write_text("x0,x1,label\n")
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"] == f"{data_path}: header but no samples"

    @pytest.mark.parametrize("norm_layer", [0, 1], ids=["prunable", "after-prunable"])
    def test_norm_without_one_entry_per_unit_is_a_format_error(
        self, toy_files, tmp_path, capsys, norm_layer
    ):
        _, data_path = toy_files
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((3, 2)), np.zeros(3)),
            Layer("dense", rng.standard_normal((3, 3)), np.zeros(3)),
            Layer("dense", rng.standard_normal((6, 3)), np.zeros(6), "softmax-logits"),
        ]
        model_path = tmp_path / "m.json"
        save_model(ModelSpec(layers=layers), model_path)
        doc = json.loads(model_path.read_text())
        doc["layers"][norm_layer]["norm"] = {
            "mean": [0.0, 0.0], "var": [1.0, 1.0], "gamma": [1.0, 1.0], "beta": [0.0, 0.0],
        }
        model_path.write_text(json.dumps(doc))
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"].startswith(f"{model_path}: ")
        assert "norm vectors must have one entry per output unit" in err["message"]

    @pytest.mark.parametrize(
        "var, eps, rc",
        [([1.0, -1.0, 1.0], 1e-5, 5), ([1.0, 1.0, -0.25], 0.25, 5), ([-1.0] * 3, 0.5, 5),
         ([1.0, float("nan"), 1.0], 1e-5, 0), ([0.0] * 3, 1e-5, 0)],
        ids=["negative", "zero-denominator", "negative-past-eps", "nan", "zero-var"],
    )
    def test_norm_without_a_positive_denominator_is_a_format_error(
        self, toy_files, tmp_path, capsys, var, eps, rc
    ):
        _, data_path = toy_files
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((3, 2)), np.zeros(3)),
            Layer("dense", rng.standard_normal((6, 3)), np.zeros(6), "softmax-logits"),
        ]
        model_path = tmp_path / "m.json"
        save_model(ModelSpec(layers=layers), model_path)
        doc = json.loads(model_path.read_text())
        doc["layers"][0]["norm"] = {
            "mean": [0.0] * 3, "var": var, "gamma": [1.0] * 3, "beta": [0.0] * 3, "eps": eps,
        }
        model_path.write_text(json.dumps(doc))
        assert main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        ) == rc
        if rc:
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert (err["error"], err["exit_code"]) == ("FormatError", 5)
            assert err["message"] == (
                f"{model_path}: malformed model document: norm var + eps must be positive")
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "mask",
        [{"layer": 0}, [1], {"layer": 0, "removed": [7]}, {"layer": 0, "removed": [-1]},
         {"layer": 0, "removed": ["x"]}, {"layer": 0, "removed": [True]},
         {"removed": [1]}, {"layer": 2, "removed": [1]}, {"layer": -1, "removed": [1]},
         {"layer": 0.0, "removed": [1]}, {"layer": True, "removed": [1]},
         {"layer": 1, "removed": [6]}],
        ids=["no-removed", "a-list", "above", "negative", "a-string", "a-bool",
             "no-layer", "layer-above", "layer-negative", "layer-fraction", "layer-bool",
             "above-the-named-layer"],
    )
    def test_malformed_mask_is_a_format_error(self, toy_files, tmp_path, capsys, mask):
        _, data_path = toy_files
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((4, 2)), np.zeros(4)),
            Layer("dense", rng.standard_normal((6, 4)), np.zeros(6), "softmax-logits"),
        ]
        model_path = tmp_path / "m.json"
        save_model(ModelSpec(layers=layers), model_path)
        doc = json.loads(model_path.read_text())
        doc["mask"] = mask
        model_path.write_text(json.dumps(doc))
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"].startswith(f"{model_path}: ")

    NORM = {"mean": [0, 0, 0, 0], "var": [1, 1, 1, 1], "gamma": [1, 1, 1, 1],
            "beta": [0, 0, 0, 0], "eps": 0.1}

    @pytest.mark.parametrize(
        "layer, entries, complaint",
        [(0, {"weights": [[1, 0], [0, 1], [-1, 0], [True, -1]]}, "JSON numbers"),
         (1, {"weights": [[0, 1, 0, 0], [1, 0, "0", 0], [0, 0, 1, 1]]}, "JSON numbers"),
         (0, {"weights": [[1, 0], [0, 1], [-1, 0], [None, -1]]}, "JSON numbers"),
         (0, {"bias": [True, "2", 0, 0]}, "JSON numbers"),
         (0, {"bias": [0, None, 0, 0]}, "JSON numbers"),
         (0, {"norm": {**NORM, "mean": ["1", 0, 0, 0]}}, "JSON numbers"),
         (0, {"norm": {**NORM, "var": [1, 1, "1", 1]}}, "JSON numbers"),
         (0, {"norm": {**NORM, "gamma": [1, True, 1, 1]}}, "JSON numbers"),
         (0, {"norm": {**NORM, "beta": [0, 0, None, 0]}}, "JSON numbers"),
         (0, {"norm": {**NORM, "eps": "0.1"}}, "eps must be a JSON number"),
         (0, {"norm": {**NORM, "eps": True}}, "eps must be a JSON number"),
         (0, {"bias": {"tensor": 1}}, "JSON numbers")],
        ids=["weights-bool", "weights-nested-string", "weights-null", "bias-bool-and-string",
             "bias-null", "norm-vector-string", "norm-var-string", "norm-gamma-bool",
             "norm-beta-null", "norm-eps-string", "norm-eps-bool", "tensor-reference"],
    )
    def test_model_parameters_that_are_not_json_numbers_are_format_errors(
        self, toy_files, tmp_path, capsys, layer, entries, complaint
    ):
        _, data_path = toy_files
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((4, 2)), np.zeros(4)),
            Layer("dense", rng.standard_normal((3, 4)), np.zeros(3), "softmax-logits"),
        ]
        model_path = tmp_path / "m.json"
        save_model(ModelSpec(layers=layers), model_path)
        doc = json.loads(model_path.read_text())
        doc["layers"][layer].update(entries)
        model_path.write_text(json.dumps(doc))
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"].startswith(f"{model_path}: malformed model document: ")
        assert complaint in err["message"]

    @pytest.mark.parametrize("binary_weights", ["m.json.bin", 5, 0, False, ""],
                             ids=["a-name", "a-number", "zero", "false", "empty-name"])
    def test_a_model_that_names_a_weight_sidecar_is_a_format_error(
        self, toy_files, tmp_path, capsys, binary_weights
    ):
        # weights are read inline only: a sidecar, even one that is there,
        # is refused rather than ignored
        model_path, data_path = toy_files
        path = tmp_path / "m.json"
        doc = json.loads(model_path.read_text())
        doc["binary_weights"] = binary_weights
        path.write_text(json.dumps(doc))
        (tmp_path / "m.json.bin").write_bytes(b"")
        rc = main(
            ["rank", "--model", str(path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"].startswith(f"{path}: binary_weights must be null: ")
        assert "sidecars are not read" in err["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("prunable", [0.7, True, "0", None])
    def test_prunable_layer_that_is_not_a_json_integer_is_a_format_error(
        self, toy_files, tmp_path, capsys, prunable
    ):
        model_path, data_path = toy_files
        doc = json.loads(model_path.read_text())
        doc["prunable_layer"] = prunable
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["rank", "--model", str(bad), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == (
            f"{bad}: malformed model document: prunable_layer must be a JSON integer")

    def test_conv2d_after_dense_is_a_format_error(self, toy_files, tmp_path, capsys):
        _, data_path = toy_files
        rng = np.random.default_rng(0)
        layers = [
            Layer("dense", rng.standard_normal((4, 2)), np.zeros(4)),
            Layer("dense", rng.standard_normal((3, 4)), np.zeros(3), "softmax-logits"),
        ]
        model_path = tmp_path / "m.json"
        save_model(ModelSpec(layers=layers), model_path)
        doc = json.loads(model_path.read_text())
        doc["layers"][1].update(kind="conv2d", weights=np.ones((3, 4, 1, 1)).tolist())
        model_path.write_text(json.dumps(doc))
        rc = main(
            ["rank", "--model", str(model_path), "--data", str(data_path),
             "--method", "exact", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("FormatError", 5)
        assert err["message"] == (f"{model_path}: malformed model document: a conv2d layer "
                                  "cannot follow a dense one, whose output is flat")

    @pytest.mark.parametrize(
        "command, flag, value",
        [("rank", "--split", "nan:1:0"), ("rank", "--split", "inf:1:0"),
         ("prune", "--fraction", "nan"), ("prune", "--fraction", "inf")],
    )
    def test_non_finite_flags_are_usage_errors_naming_the_flag(
        self, toy_files, tmp_path, capsys, command, flag, value
    ):
        model_path, data_path = toy_files
        argv = [command, "--model", str(model_path), "--data", str(data_path),
                "--method", "exact", flag, value, "--out", str(tmp_path / "r.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == 2
        assert not caught
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("UsageError", 2)
        assert flag in err["message"] and value in err["message"]

    @pytest.mark.parametrize(
        "flag, value, command",
        [("--ridge", "nan", "kernel"), ("--ridge", "inf", "kernel"), ("--ridge", "x", "kernel"),
         ("--early-stop-eps", "nan", "perm"), ("--early-stop-eps", "inf", "perm"),
         ("--early-stop-eps", "x", "perm"), ("--early-stop-window", "x", "perm"),
         ("--perms", "x", "perm"), ("--samples", "x", "kernel")],
    )
    def test_bad_numeric_flags_are_usage_errors_naming_the_flag(
        self, fig2_path, tmp_path, capsys, flag, value, command
    ):
        argv = ["rank", "--game", str(fig2_path), "--method", command, "--sampler",
                "size-stratified", "--samples", "3", "--seed", "4",
                flag, value, "--out", str(tmp_path / "r.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert not caught
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert flag in err["message"] and value in err["message"]

    @pytest.mark.parametrize(
        "command, flag",
        [("rank", "--split-seed"), ("oracle", "--split-seed"), ("prune", "--split-seed"),
         ("rank", "--seed"), ("prune", "--seed")],
    )
    def test_a_negative_seed_is_a_usage_error_naming_the_flag(
        self, toy_files, tmp_path, capsys, command, flag
    ):
        # numpy's generators refuse a negative seed, but the default split of
        # a model game reaches none of them; rank's and prune's --seed seeds
        # a generator only for a kernel sampler that draws
        model_path, data_path = toy_files
        out = tmp_path / "r.json"
        required = {
            "rank": ["--method", "exact"],
            "oracle": ["--mode", "remove", "--k-range", "1:2"],
            "prune": ["--method", "exact", "--count", "2"],
        }
        if flag == "--seed":
            required[command][1:2] = ["kernel", "--samples", "50"]
        rc = main([command, "--model", str(model_path), "--data", str(data_path),
                   *required[command], flag, "-1", "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert flag in err["message"] and "'-1'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "method", [["perm", "--perms", "5"], ["kernel", "--sampler", "exhaustive"]])
    def test_a_negative_seed_is_taken_where_no_generator_draws(self, fig2_path, tmp_path, method):
        out = tmp_path / "r.json"
        assert main(["rank", "--game", str(fig2_path), "--method", *method,
                     "--seed", "-1", "--out", str(out)]) == 0
        assert out.exists()

    def test_early_stop_window_beyond_a_deque_is_a_usage_error(self, fig2_path, tmp_path, capsys):
        window = "100000000000000000000"
        rc = main(["rank", "--game", str(fig2_path), "--method", "perm", "--perms", "10",
                   "--early-stop-window", window, "--early-stop-eps", "0.1",
                   "--out", str(tmp_path / "r.json")])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, "UsageError", 2)
        assert "--early-stop-window" in err["message"] and window in err["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, error, named", [
        (["rank", "--game", "nope.json", "--method", "perm", "--early-stop-window", "5"],
         "UsageError", "--early-stop-eps"),
        (["rank", "--game", "nope.json", "--method", "kernel", "--seed", "-1"],
         "UsageError", "--seed"),
        (["rank", "--model", "nope.json", "--data", "nope.csv", "--split", "a:b:c",
          "--method", "exact"], "UsageError", "--split"),
        (["prune", "--model", "nope.json", "--data", "nope.csv", "--method", "perm",
          "--early-stop-window", "5", "--count", "1"], "UsageError", "--early-stop-eps"),
        # the config classes' own checks
        (["rank", "--game", "nope.json", "--method", "perm", "--perms", "0"],
         "ValueError", "n_permutations must be >= 1"),
        (["rank", "--game", "nope.json", "--method", "kernel", "--samples", "0"],
         "ValueError", "n_samples must be >= 1"),
        (["rank", "--game", "nope.json", "--method", "kernel", "--ridge", "-1"],
         "ValueError", "ridge must be finite and >= 0"),
        (["rank", "--game", "nope.json", "--method", "partial", "--high-d", "0"],
         "InvalidBandError", "high_d must be >= 1"),
        (["rank", "--game", "nope.json", "--method", "partial", "--low-d", "-1"],
         "InvalidBandError", "low_d must be >= 0"),
        (["rank", "--game", "nope.json", "--method", "perm", "--early-stop-window", "1",
          "--early-stop-eps", "1"], "ValueError", "early-stop window must be >= 2"),
        (["rank", "--game", "nope.json", "--method", "perm", "--early-stop-window", "5",
          "--early-stop-eps", "0"], "ValueError", "early-stop epsilon must be > 0"),
        (["prune", "--model", "nope.json", "--data", "nope.csv", "--method", "kernel",
          "--samples", "0", "--count", "1"], "ValueError", "n_samples must be >= 1"),
        # shaprank trains no model
        (["train-toy", "--data", "nope.csv"], "UsageError", "invalid choice: 'train-toy'"),
        # prune's own checks of how many units to remove
        (["prune", "--game", "nope.json", "--method", "exact", "--count", "1"],
         "UsageError", "prune operates on --model/--data, not --game"),
        (["prune", "--model", "nope.json", "--data", "nope.csv", "--method", "exact",
          "--count", "1", "--fraction", "0.5"], "UsageError", "give --count or --fraction"),
        (["prune", "--model", "nope.json", "--data", "nope.csv", "--method", "exact"],
         "UsageError", "need --count or --fraction"),
        (["prune", "--model", "nope.json", "--data", "nope.csv", "--method", "exact",
          "--fraction", "nan"], "UsageError", "--fraction must be in (0, 1), got nan"),
    ])
    def test_usage_errors_come_before_any_input_is_read(self, tmp_path, monkeypatch, capsys,
                                                         argv, error, named):
        # every input is missing, so an error raised after reading one exits 5
        monkeypatch.chdir(tmp_path)
        rc = main([*argv, "--out", "x.json"])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (2, error, 2)
        assert named in err["message"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv, error, message", [
        (["--method", "perm", "--perms", "0"], "ValueError",
         "argument --perms: n_permutations must be >= 1, got '0'"),
        (["--method", "kernel", "--samples", "0"], "ValueError",
         "argument --samples: n_samples must be >= 1, got '0'"),
        (["--method", "kernel", "--ridge", "-1"], "ValueError",
         "argument --ridge: ridge must be finite and >= 0, got '-1.0'"),
        (["--method", "partial", "--high-d", "0"], "InvalidBandError",
         "argument --high-d: high_d must be >= 1, got '0'"),
        (["--method", "partial", "--low-d", "-1"], "InvalidBandError",
         "argument --low-d: low_d must be >= 0, got '-1'"),
        (["--method", "perm", "--early-stop-window", "1", "--early-stop-eps", "1"], "ValueError",
         "argument --early-stop-window: early-stop window must be >= 2, got '1'"),
        (["--method", "perm", "--early-stop-window", "5", "--early-stop-eps", "0"], "ValueError",
         "argument --early-stop-eps: early-stop epsilon must be > 0, got '0.0'"),
    ])
    @pytest.mark.parametrize("command", [
        ["rank", "--game", "nope.json"],
        ["prune", "--model", "nope.json", "--data", "nope.csv", "--count", "1"],
    ])
    def test_config_errors_name_their_flag_and_value(self, tmp_path, monkeypatch, capsys,
                                                     command, argv, error, message):
        monkeypatch.chdir(tmp_path)
        rc = main([*command, *argv, "--out", "x.json"])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"], err["message"]) == (2, error, 2, message)

    def test_samples_beyond_the_budget_exit_3(self, fig2_path, tmp_path, capsys):
        samples = "100000000000000000000"
        rc = main(["rank", "--game", str(fig2_path), "--method", "kernel",
                   "--samples", samples, "--out", str(tmp_path / "r.json")])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (3, "BudgetError", 3)
        assert samples in err["message"] and "10000000" in err["message"]
        assert not (tmp_path / "r.json").exists()

    def test_orderings_beyond_the_budget_exit_3(self, fig2_path, tmp_path, capsys):
        perms = "100000000000000000000"
        rc = main(["rank", "--game", str(fig2_path), "--method", "perm", "--perms", perms,
                   "--out", str(tmp_path / "r.json")])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (rc, err["error"], err["exit_code"]) == (3, "BudgetError", 3)
        assert perms in err["message"] and "10000000" in err["message"]
        assert not (tmp_path / "r.json").exists()

    def test_error_classes_without_a_type_of_their_own(
        self, fig2_path, tmp_path, capsys, monkeypatch
    ):
        out = ["--out", str(tmp_path / "r.json")]
        cases = [
            (["rank", "--game", str(fig2_path), "--method", "perm", "--perms", "0", *out],
             "ValueError", 2),
            (["rank", "--game", str(fig2_path), "--method", "kernel", *out],
             "LinAlgError", 4),
            (["rank", "--game", str(tmp_path / "nope.json"), "--method", "exact", *out],
             "FileNotFoundError", 5),
        ]

        def singular(game, cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "shapley_regression", singular)
        for argv, error, code in cases:
            assert main(argv) == code
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert (err["error"], err["exit_code"]) == (error, code)

    def test_unknown_argument(self, capsys):
        rc = main(["rank", "--frobnicate"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "UsageError"


# nested past any recursion limit, and an integer past float range
DEEP = "[" * 100_000 + "]" * 100_000
HUGE = "1" + "0" * 400
# more digits than int() converts from text (4300 by default)
LONG = "1" * 5000


def _replace_first_entry(key):
    """An edit that puts ``HUGE`` in place of the first entry of the list
    ``key`` (a ``write_json`` layout)."""
    return lambda text: re.sub(rf'("{key}": \[\s*)[^,\s\]]+', rf"\g<1>{HUGE}", text, count=1)


def _replace_line(index, line):
    def edit(text):
        lines = text.splitlines()
        lines[index] = line
        return "\n".join(lines) + "\n"
    return edit


class TestInputsTheStandardParseRefuses:
    """Valid inputs edited so that their decode, their ``json.loads`` or the
    conversion of a number fails inside Python: each exits 5 naming the
    file, and the line of a cache row."""

    @pytest.fixture
    def invocation(self, toy_files, fig2_path, tmp_path):
        """``make(kind)``: a valid invocation and the file of ``kind`` it reads."""
        out = ["--out", str(tmp_path / "out.json")]
        game = ["--game", str(fig2_path)]

        def make(kind):
            if kind in ("model", "data"):
                model, data = tmp_path / "m.json", tmp_path / "d.csv"
                shutil.copy(toy_files[0], model)
                shutil.copy(toy_files[1], data)
                argv = ["rank", "--model", str(model), "--data", str(data), "--method", "exact"]
                return argv + out, model if kind == "model" else data
            if kind == "game":
                return ["rank", *game, "--method", "exact", *out], fig2_path
            if kind == "report":
                report = tmp_path / "r.json"
                assert main(["rank", *game, "--method", "exact", "--out", str(report)]) == 0
                return ["oracle", *game, "--mode", "keep", "--k-range", "1:2",
                        "--rank", str(report), *out], report
            cache = tmp_path / "c.jsonl"
            argv = ["rank", *game, "--method", "exact", "--cache", str(cache), *out]
            assert main(argv) == 0
            return argv, cache

        return make

    @pytest.mark.parametrize("kind", ["game", "model", "data", "cache", "report"])
    def test_a_file_that_is_not_utf8_is_a_format_error(self, invocation, capsys, kind):
        argv, path = invocation(kind)
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert main(argv) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["message"]) == (
            "FormatError", f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                           "in position 0: invalid start byte")

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("game", lambda text: '{"n_players": 3, "values": ' + DEEP + "}",
             "{path}: not valid JSON: maximum recursion depth exceeded"),
            ("model", lambda text: text.replace('"bias": [', '"bias": [' + DEEP + ",", 1),
             "{path}: not valid JSON"),
            # shallow enough for the parse (on CPython 3.11), too deep for
            # the recursive check that parameters are JSON numbers
            ("model", lambda text: text.replace(
                '"bias": [', '"bias": [' + "[" * 600 + "]" * 600 + ",", 1),
             "{path}: malformed model document: maximum recursion depth exceeded"),
            ("report", lambda text: DEEP, "{path}: not a ranking report"),
            ("cache", _replace_line(2, DEEP), "{path}:3: corrupt cache entry"),
            ("cache", _replace_line(0, DEEP), "{path}: corrupt cache header"),
            ("game", lambda text: text.replace('"1": 55.0', f'"1": {HUGE}'),
             "{path}: payoff for coalition 1 is too large for a float"),
            ("model", _replace_first_entry("bias"),
             "{path}: malformed model document: int too large to convert to float"),
            ("report", _replace_first_entry("scores"), "{path}: not a ranking report"),
            ("game", lambda text: text.replace('"1": 55.0', f'"1": {LONG}'),
             "{path}: not valid JSON: Exceeds the limit (4300 digits)"),
            ("model", lambda text: text.replace('"bias": [', '"bias": [' + LONG + ",", 1),
             "{path}: not valid JSON"),
            ("cache", _replace_line(0, f"[{LONG}]"), "{path}: corrupt cache header"),
        ],
        ids=["game-deep", "model-deep", "model-600-deep", "report-deep", "cache-row-deep",
             "cache-header-deep", "game-huge-payoff", "model-huge-weight", "report-huge-score",
             "game-long-integer", "model-long-integer", "cache-header-long-integer"],
    )
    def test_nesting_and_integers_python_cannot_take_are_format_errors(
        self, invocation, capsys, kind, edit, message
    ):
        argv, path = invocation(kind)
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        capsys.readouterr()
        assert main(argv) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "FormatError"
        assert err["message"].startswith(message.format(path=path)), err["message"]


class TestValidationSplit:
    def test_the_default_split_imports_no_numpy_random(self, toy_files, tmp_path):
        # a split that sets no rows aside validates on the file's rows in
        # order, so model invocations reach no numpy generator
        model_path, data_path = toy_files
        source = ["--model", str(model_path), "--data", str(data_path)]
        runs = [
            ["rank", *source, "--method", "exact", "--out", str(tmp_path / "rank.json")],
            ["oracle", *source, "--mode", "remove", "--k-range", "1:3",
             "--out", str(tmp_path / "oracle.json")],
            ["prune", *source, "--method", "exact", "--count", "2",
             "--out", str(tmp_path / "pruned.json")],
        ]
        script = ("import sys\n"
                  "from shaprank.cli import main\n"
                  f"print([main(argv) for argv in {runs!r}], 'numpy.random' in sys.modules)\n")
        one_thread = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, **one_thread},
            # run from the directory holding the package this module imported
            cwd=os.path.dirname(os.path.dirname(cli.__file__)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] False"

    @pytest.mark.parametrize("split, seed", [("1:1:0", 3), ("1:2:1", 0), ("0:1:0", 0), ("0:2:0", 5)])
    def test_rank_values_are_those_of_the_split_datasets_validation_part(
        self, toy_files, tmp_path, split, seed
    ):
        model_path, data_path = toy_files
        out = tmp_path / "rank.json"
        assert main(["rank", "--model", str(model_path), "--data", str(data_path),
                     "--split", split, "--split-seed", str(seed), "--method", "exact",
                     "--out", str(out)]) == 0
        fractions = tuple(float(f) for f in split.split(":"))
        val = split_dataset(load_dataset_csv(data_path), fractions, seed=seed)["val"]
        game = make_accuracy_game(load_model(model_path), val)
        report = read_json(out)
        assert report["values"] == shapley_exact_subsets(game).values.tolist()
        assert (report["inputs"]["split"], report["inputs"]["split_seed"]) == (split, seed)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "fig2.json"
        proc = subprocess.run(
            [sys.executable, "-m", "shaprank", "make-fig2", "--out", str(out)],
            capture_output=True,
            text=True,
            # run from the directory holding the package this module imported
            cwd=os.path.dirname(os.path.dirname(cli.__file__)),
        )
        assert proc.returncode == 0
        assert out.exists()


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # README's commands, run where tests/golden/ lies at the same relative
    # path as in the repository, must each exit 0
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("shaprank ")]
    assert len(commands) == 7
    shutil.copytree(os.path.join(root, "tests", "golden"), tmp_path / "tests" / "golden")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
