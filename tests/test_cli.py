import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from shaprank import cli
from shaprank.cli import main
from shaprank.errors import FormatError
from shaprank.games import Game, load_game_json, save_game_json
from shaprank.toynet import (
    Layer,
    ModelSpec,
    load_model,
    make_blobs_dataset,
    save_dataset_csv,
    save_model,
)

from conftest import MALFORMED_GAME_SPECS, random_table_game


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    assert main(["make-fig2", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """A trained toy model and its dataset, built through the CLI."""
    root = tmp_path_factory.mktemp("toy")
    data_path = root / "blobs.csv"
    save_dataset_csv(make_blobs_dataset(seed=0), data_path)
    model_path = root / "toy.json"
    rc = main(
        [
            "train-toy",
            "--out", str(model_path),
            "--data", str(data_path),
            "--hidden", "8",
            "--epochs", "150",
            "--lr", "0.1",
            "--seed", "0",
        ]
    )
    assert rc == 0
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
        # the rows of seed 4 leave the plain normal equations rank deficient
        out = tmp_path / "rank.json"
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "bernoulli-half",
                "--samples", "3", "--seed", "4", "--out", str(out),
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
            (["--method", "partial"], {"high_d": 1, "low_d": None, "renormalize": True}),
            (
                ["--method", "partial", "--high-d", "2", "--low-d", "1", "--raw-sum"],
                {"high_d": 2, "low_d": 1, "renormalize": False},
            ),
            (["--method", "perm"], {"perms": 100, "antithetic": False, "early_stop": None}),
            (
                ["--method", "perm", "--perms", "40", "--antithetic",
                 "--early-stop-window", "4", "--early-stop-eps", "0.5"],
                {"perms": 40, "antithetic": True, "early_stop": {"window": 4, "epsilon": 0.5}},
            ),
            (
                ["--method", "kernel"],
                {"samples": 1000, "sampler": "size-stratified", "ridge": 1e-08,
                 "enforce_efficiency": True, "fit_intercept": False},
            ),
            (
                ["--method", "kernel", "--samples", "50", "--sampler", "bernoulli-half",
                 "--ridge", "0.001", "--no-efficiency", "--fit-intercept"],
                {"samples": 50, "sampler": "bernoulli-half", "ridge": 0.001,
                 "enforce_efficiency": False, "fit_intercept": True},
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
             "--method", "partial", "--high-d", "2", "--raw-sum", "--count", "3",
             "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(tmp_path / "pruned.json.summary.json")
        assert summary["params"] == {"high_d": 2, "low_d": None, "renormalize": False}

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

    @pytest.mark.parametrize("method", list(cli._METHODS))
    def test_estimator_is_looked_up_when_the_method_runs(
        self, fig2_path, tmp_path, monkeypatch, method
    ):
        # wrappers set on shaprank.cli after import (the benchmark's set-up
        # marker, its tracer) must see every estimator call
        name = cli._METHODS[method][0]
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
        rc = main(["rank", "--game", str(fig2_path), "--method", method,
                   "--out", str(tmp_path / "r.json")])
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

    def test_full_size_scores_everything_one(self, fig2_path, tmp_path):
        rank_out = tmp_path / "rank.json"
        main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(rank_out)])
        out = tmp_path / "oracle.json"
        rc = main(
            [
                "oracle", "--game", str(fig2_path),
                "--mode", "keep", "--k-range", "3",
                "--rank", str(rank_out), "--rank-strategy", "greedy",
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


    @pytest.mark.parametrize("mismatched_first", [True, False])
    def test_ranking_of_another_player_count_is_a_format_error(
        self, fig2_path, tmp_path, capsys, mismatched_first
    ):
        mismatched, corrupt = tmp_path / "n4.json", tmp_path / "corrupt.json"
        mismatched.write_text('{"order": [3, 2, 1, 0], "scores": [4, 3, 2, 1]}')
        corrupt.write_text("{")
        good = tmp_path / "good.json"
        main(["rank", "--game", str(fig2_path), "--method", "exact", "--out", str(good)])
        bad = [mismatched, corrupt] if mismatched_first else [corrupt, mismatched]
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
        from shaprank.cli import _bake_mask
        from shaprank.toynet import MaskedModel, save_model

        model_path, data_path = toy_files
        out = tmp_path / "pruned.json"
        rc = main(
            [
                "prune", "--model", str(model_path), "--data", str(data_path),
                "--method", "partial", "--count", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        expected = tmp_path / "expected.json"
        save_model(
            MaskedModel(spec=_bake_mask(load_model(model_path)), mask=load_model(out).mask),
            expected,
        )
        assert out.read_bytes() == expected.read_bytes()

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
        pruned = load_model(out)
        kept = set(pruned.mask.members())
        assert kept == set(summary["kept_players"])

    def test_pruning_a_dead_unit_keeps_the_payoff(self, tmp_path):
        import numpy as np

        from shaprank.toynet import (
            Layer,
            ModelSpec,
            make_blobs_dataset,
            save_model,
            train_toy_model,
        )

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
        from shaprank.games import Coalition
        from shaprank.toynet import load_dataset_csv, make_accuracy_game

        masked = load_model(model_path)
        data = load_dataset_csv(data_path)
        game = make_accuracy_game(masked.spec, data)
        ranking = shapley_exact_subsets(game).ranking()
        top_removed = sorted(int(p) for p in ranking.order[:2])
        kept = Coalition.from_members(
            [i for i in range(game.n_players) if i not in top_removed], game.n_players
        )
        nu_remove_top = game.evaluate_mask(kept.bits)
        assert bottom["nu_after"] >= nu_remove_top


class TestCache:
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

    def test_corrupted_header_is_refused(self, fig2_path, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        main(
            [
                "rank", "--game", str(fig2_path), "--method", "exact",
                "--cache", str(cache), "--out", str(tmp_path / "a.json"),
            ]
        )
        body = cache.read_text().splitlines()
        header = json.loads(body[0])
        header["source"] = "sha256:deadbeef"
        cache.write_text("\n".join([json.dumps(header)] + body[1:]) + "\n")
        rc = main(
            [
                "rank", "--game", str(fig2_path), "--method", "exact",
                "--cache", str(cache), "--out", str(tmp_path / "b.json"),
            ]
        )
        assert rc == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "different game" in err["message"]

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
        game = Game(64, lambda mask: 0.0, preloaded=dict(zip(masks, payoffs)))
        path = tmp_path / "cache.jsonl"
        cli._save_cache(path, "src", game)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [json.dumps([m, v]) for m, v in sorted(zip(masks, payoffs))]
        assert cli._load_cache(path, "src", 64) == dict(zip(masks, payoffs))

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (["[7, 1.0]", "[1, 2]", "[7, 4.0]", "[1, 5.0]"], {1: 5.0, 7: 4.0}),
            ([], {}),
            (['["1", 2.0]', "[2.0, 1]", '[true, "2.5"]'], {1: 2.5, 2: 1.0}),
            (["  [1, 2.0]  ", "[2, 3.0]"], {1: 2.0, 2: 3.0}),
        ],
    )
    def test_cache_rows_load_last_one_wins(self, tmp_path, rows, expected):
        path = tmp_path / "cache.jsonl"
        header = {"format": cli.CACHE_FORMAT, "n_players": 3, "source": "src"}
        path.write_text("\n".join([json.dumps(header)] + rows) + "\n")
        assert cli._load_cache(path, "src", 3) == expected

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
            (['[1, "nan"]'], 2, "non-finite payoff nan for mask 1"),
            (["[0, 1.0]", "[8, 1.0]"], 3, "mask 8 out of range for 3 players"),
            (["[-1, 1.0]"], 2, "mask -1 out of range for 3 players"),
        ],
    )
    def test_bad_cache_rows_name_their_line(self, tmp_path, rows, line, complaint):
        path = tmp_path / "cache.jsonl"
        header = {"format": cli.CACHE_FORMAT, "n_players": 3, "source": "src"}
        path.write_text("\n".join([json.dumps(header)] + rows) + "\n")
        with pytest.raises(FormatError) as info:
            cli._load_cache(path, "src", 3)
        assert str(info.value) == f"{path}:{line}: {complaint}"

    def test_failed_cache_write_keeps_the_previous_file(
        self, fig2_path, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache.jsonl"
        source = ["rank", "--game", str(fig2_path), "--cache", str(cache)]
        assert main(source + ["--method", "partial", "--out", str(tmp_path / "a.json")]) == 0
        before = cache.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        rc = main(source + ["--method", "exact", "--out", str(tmp_path / "b.json")])
        assert rc == 5
        assert cache.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "b.json", "cache.jsonl", "fig2.json"
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
        # seed 4 draws rows that leave the normal equations rank deficient;
        # with the ridge fallback disabled that is a numerical failure
        rc = main(
            [
                "rank", "--game", str(fig2_path),
                "--method", "kernel", "--sampler", "bernoulli-half",
                "--samples", "3", "--seed", "4", "--ridge", "0",
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
        assert (err["error"], err["message"]) == ("FormatError", message)

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
            "game spec must contain exactly the 1099511627776 coalition keys; "
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

    @pytest.mark.parametrize("k_range", ["3:1", "0:2", "1,9"])
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

    def test_optimal_rank_beyond_its_budget_exits_3(self, toy_files, tmp_path, capsys):
        _, data_path = toy_files
        model_path = tmp_path / "wide.json"
        assert main(["train-toy", "--out", str(model_path), "--data", str(data_path),
                     "--hidden", "24", "--epochs", "0"]) == 0
        rc = main(
            ["oracle", "--model", str(model_path), "--data", str(data_path),
             "--mode", "remove", "--k-range", "1", "--rank-strategy", "optimal",
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("BudgetError", 3)

    def test_diverged_training_exits_4(self, tmp_path, capsys):
        rc = main(["train-toy", "--out", str(tmp_path / "m.json"), "--hidden", "8",
                   "--epochs", "50", "--lr", "1e9"])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("TrainingDivergedError", 4)

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "fig2.json"
        proc = subprocess.run(
            [sys.executable, "-m", "shaprank", "make-fig2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestTrainToy:
    def test_bundled_blobs_path(self, tmp_path):
        model_path = tmp_path / "model.json"
        data_out = tmp_path / "blobs.csv"
        rc = main(
            [
                "train-toy", "--out", str(model_path),
                "--hidden", "8", "--epochs", "60", "--seed", "0",
                "--write-data", str(data_out),
            ]
        )
        assert rc == 0
        assert load_model(model_path).spec.n_players == 8
        assert data_out.exists()

    def test_model_file_is_deterministic(self, tmp_path):
        args = ["train-toy", "--hidden", "6", "--epochs", "40", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
