import json

import numpy as np
import pytest

from shaprank.errors import FormatError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import full_mask, mask_from_members
from shaprank.formats import load_dataset_csv, load_model, save_model
from shaprank.toynet import (
    LabeledDataset,
    Layer,
    ModelSpec,
    Normalization,
    _apply_layer,
    _global_average_pool,
    make_accuracy_game,
    make_blobs_dataset,
    split_dataset,
)

from conftest import save_dataset_csv, train_toy_model


@pytest.fixture(scope="module")
def blobs():
    return make_blobs_dataset(seed=0)


@pytest.fixture(scope="module")
def trained(blobs):
    return train_toy_model([8], blobs, epochs=200, lr=0.1, seed=0)


def forward_batch(spec, mask, inputs):
    """The reference forward pass: final-layer outputs for a batch, with the
    prunable layer's units outside the coalition bitmask ``mask`` zeroed."""
    x = np.asarray(inputs, dtype=np.float64)
    for idx, layer in enumerate(spec.layers):
        x = _apply_layer(layer, x)
        if idx == spec.prunable_layer:
            x = x.copy()
            x[:, [i for i in range(x.shape[1]) if not mask >> i & 1]] = 0.0
    return x


def accuracy(spec, mask, data):
    logits = _global_average_pool(forward_batch(spec, mask, data.inputs))
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def grand(spec):
    return full_mask(spec.n_players)


class TestBlobs:
    def test_exactly_balanced(self, blobs):
        assert np.bincount(blobs.labels).tolist() == [100, 100, 100]
        assert blobs.size == 300

    def test_deterministic(self):
        a = make_blobs_dataset(seed=5)
        b = make_blobs_dataset(seed=5)
        assert np.array_equal(a.inputs, b.inputs)


class TestMaskingSemantics:
    def test_empty_mask_predicts_a_constant_class(self, trained, blobs):
        preds = np.argmax(forward_batch(trained, 0, blobs.inputs), axis=1)
        assert np.unique(preds).size == 1

    def test_empty_mask_accuracy_equals_best_constant_on_balanced_data(
        self, trained, blobs
    ):
        game = make_accuracy_game(trained, blobs)
        best_constant = np.bincount(blobs.labels).max() / blobs.size
        assert game.evaluate_mask(0) == pytest.approx(best_constant)

    def test_masking_a_dead_unit_changes_nothing(self, trained, blobs):
        spec = _with_extra_unit(trained, out_scale=0.0)
        n = spec.n_players
        dead = n - 1
        with_unit = forward_batch(spec, grand(spec), blobs.inputs)
        without = forward_batch(spec, mask_from_members(range(dead), n), blobs.inputs)
        assert np.array_equal(
            np.argmax(with_unit, axis=1), np.argmax(without, axis=1)
        )

    def test_mask_zeroes_the_channel_even_with_norm_stats(self):
        layer = Layer(
            kind="dense",
            weights=np.eye(3),
            bias=np.zeros(3),
            activation="identity",
            norm=Normalization(
                mean=np.array([1.0, 1.0, 1.0]),
                var=np.ones(3),
                gamma=np.ones(3),
                beta=np.array([5.0, 5.0, 5.0]),  # would leak without masking
            ),
        )
        head = Layer(
            kind="dense", weights=np.eye(3), bias=np.zeros(3), activation="softmax-logits"
        )
        spec = ModelSpec(layers=[layer, head], prunable_layer=0)
        out = forward_batch(spec, mask_from_members([0], 3), np.array([[1.0, 1.0, 1.0]]))
        assert out[0, 1] == 0.0 and out[0, 2] == 0.0


@pytest.mark.parametrize("var, eps", [(-1.0, 1e-5), (-0.5, 0.5), (-np.inf, 1e-5)])
def test_norm_without_a_positive_denominator_is_refused(var, eps):
    norm = Normalization(mean=np.zeros(2), var=np.array([1.0, var]), gamma=np.ones(2),
                         beta=np.zeros(2), eps=eps)
    with pytest.raises(ValueError, match=r"norm var \+ eps must be positive"):
        Layer("dense", np.eye(2), np.zeros(2), norm=norm)


def _with_extra_unit(spec, out_scale, seed=4):
    """Append one hidden unit; its outgoing weights are scaled by out_scale."""
    rng = np.random.default_rng(seed)
    hidden, head = spec.layers
    w1 = np.vstack([hidden.weights, rng.standard_normal((1, hidden.in_units))])
    b1 = np.append(hidden.bias, rng.standard_normal())
    w2 = np.hstack([head.weights, out_scale * rng.standard_normal((head.out_units, 1))])
    return ModelSpec(
        layers=[
            Layer(kind="dense", weights=w1, bias=b1, activation=hidden.activation),
            Layer(kind="dense", weights=w2, bias=head.bias, activation=head.activation),
        ],
        prunable_layer=0,
    )


def _with_duplicated_unit(spec, unit, halve=True):
    hidden, head = spec.layers
    w1 = np.vstack([hidden.weights, hidden.weights[unit:unit + 1]])
    b1 = np.append(hidden.bias, hidden.bias[unit])
    out_col = head.weights[:, unit:unit + 1]
    if halve:
        out_col = out_col / 2.0
    w2 = np.hstack([head.weights, out_col])
    w2[:, unit:unit + 1] = out_col
    return ModelSpec(
        layers=[
            Layer(kind="dense", weights=w1, bias=b1, activation=hidden.activation),
            Layer(kind="dense", weights=w2, bias=head.bias, activation=head.activation),
        ],
        prunable_layer=0,
    )


class TestCharacteristicFunction:
    def test_values_stay_in_unit_interval(self, trained, blobs):
        game = make_accuracy_game(trained, blobs)
        rng = np.random.default_rng(0)
        for mask in rng.integers(0, game.grand_mask + 1, size=32):
            assert 0.0 <= game.evaluate_mask(int(mask)) <= 1.0

    def test_counting_example(self):
        # identity classifier on four points, one mislabeled: accuracy 3/4
        spec = ModelSpec(
            layers=[
                Layer(
                    kind="dense",
                    weights=np.eye(2),
                    bias=np.zeros(2),
                    activation="softmax-logits",
                )
            ],
            prunable_layer=0,
        )
        data = LabeledDataset(
            inputs=np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 3.0]]),
            labels=np.array([0, 1, 0, 0]),
        )
        assert make_accuracy_game(spec, data).evaluate_mask(0b11) == 0.75

    def test_perfect_model_scores_one(self):
        spec = ModelSpec(
            layers=[
                Layer(
                    kind="dense",
                    weights=np.eye(2),
                    bias=np.zeros(2),
                    activation="softmax-logits",
                )
            ],
            prunable_layer=0,
        )
        data = LabeledDataset(
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([0, 1])
        )
        assert make_accuracy_game(spec, data).evaluate_mask(0b11) == 1.0

    def test_grand_not_worse_than_empty_on_fixture(self, trained, blobs):
        game = make_accuracy_game(trained, blobs)
        assert game.evaluate_mask(game.grand_mask) >= game.evaluate_mask(0)

    def test_char_fn_matches_full_forward(self, trained, blobs):
        game = make_accuracy_game(trained, blobs)
        for mask in (0b0101, 0b1100, 0b11111111):
            mask &= (1 << trained.n_players) - 1
            assert game.evaluate_mask(mask) == pytest.approx(
                accuracy(trained, mask, blobs)
            )


class TestAxiomsEndToEnd:
    def test_zero_outgoing_weights_make_a_dummy_player(self, trained, blobs):
        spec = _with_extra_unit(trained, out_scale=0.0)
        game = make_accuracy_game(spec, blobs)
        phi = shapley_exact_subsets(game).values
        assert abs(phi[-1]) < 1e-9

    def test_duplicated_unit_yields_symmetric_values(self, trained, blobs):
        spec = _with_duplicated_unit(trained, unit=2, halve=False)
        game = make_accuracy_game(spec, blobs)
        phi = shapley_exact_subsets(game).values
        assert abs(phi[2] - phi[-1]) < 1e-9

    def test_halved_duplicate_preserves_the_function(self, trained, blobs):
        spec = _with_duplicated_unit(trained, unit=2, halve=True)
        original = forward_batch(trained, grand(trained), blobs.inputs)
        doubled = forward_batch(spec, grand(spec), blobs.inputs)
        np.testing.assert_allclose(original, doubled, atol=1e-12)


class TestConv2d:
    def _conv_spec(self):
        rng = np.random.default_rng(1)
        conv = Layer(
            kind="conv2d",
            weights=rng.standard_normal((4, 2, 3, 3)) * 0.5,
            bias=rng.standard_normal(4) * 0.1,
            activation="relu",
        )
        head = Layer(
            kind="dense",
            weights=rng.standard_normal((3, 4)),
            bias=np.zeros(3),
            activation="softmax-logits",
        )
        return ModelSpec(layers=[conv, head], prunable_layer=0)

    def test_same_padding_preserves_spatial_shape(self):
        spec = self._conv_spec()
        x = np.random.default_rng(2).standard_normal((5, 2, 7, 6))
        conv_out = forward_batch(spec, full_mask(4), x)
        assert conv_out.shape == (5, 3)

    def test_channel_masking_matches_manual_zeroing(self):
        spec = self._conv_spec()
        x = np.random.default_rng(3).standard_normal((4, 2, 5, 5))
        masked = forward_batch(spec, mask_from_members([0, 2], 4), x)
        # manual: run conv, zero channels 1 and 3, finish with the head
        h = _apply_layer(spec.layers[0], x)
        h[:, [1, 3]] = 0.0
        manual = _apply_layer(spec.layers[1], h)
        np.testing.assert_allclose(masked, manual, atol=1e-12)

    def test_conv2d_after_dense_is_refused(self):
        dense = Layer("dense", np.ones((2, 3)), np.zeros(2))
        conv = Layer("conv2d", np.ones((2, 2, 1, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="cannot follow a dense one"):
            ModelSpec(layers=[dense, conv])

    def test_conv_accuracy_game_players_are_channels(self):
        spec = self._conv_spec()
        rng = np.random.default_rng(4)
        data = LabeledDataset(
            inputs=rng.standard_normal((12, 2, 5, 5)),
            labels=rng.integers(0, 3, size=12),
        )
        game = make_accuracy_game(spec, data)
        assert game.n_players == 4
        assert 0.0 <= game.evaluate_mask(0b0110) <= 1.0


class TestModelIO:
    def test_json_round_trip_is_exact(self, trained, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained, path)
        assert json.loads(path.read_text())["mask"] is None
        loaded = load_model(path)
        for a, b in zip(loaded.layers, trained.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_mask_round_trip(self, trained, tmp_path):
        path = tmp_path / "masked.json"
        save_model(trained, path, removed=[3, 1])
        assert json.loads(path.read_text())["mask"] == {"layer": 0, "removed": [1, 3]}
        loaded = load_model(path)
        kept = [0, 2] + list(range(4, trained.n_players))
        assert not loaded.layers[0].weights[[1, 3]].any()
        assert not loaded.layers[0].bias[[1, 3]].any()
        assert np.array_equal(loaded.layers[0].weights[kept], trained.layers[0].weights[kept])
        assert np.array_equal(loaded.layers[1].weights, trained.layers[1].weights)
        # saving the loaded spec writes the mask into the parameters
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert json.loads(again.read_text())["mask"] is None
        for a, b in zip(load_model(again).layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    def test_loaded_mask_gives_the_masked_accuracy(self, trained, blobs, tmp_path):
        path = tmp_path / "masked.json"
        save_model(trained, path, removed=list(range(1, trained.n_players)))
        kept = mask_from_members([0], trained.n_players)
        spec = load_model(path)
        payoff = make_accuracy_game(spec, blobs).evaluate_mask(grand(spec))
        assert payoff == accuracy(trained, kept, blobs)
        assert accuracy(spec, grand(spec), blobs) == accuracy(trained, kept, blobs)

    def test_mask_on_a_layer_that_is_not_prunable_zeroes_that_layer(self, tmp_path):
        rng = np.random.default_rng(5)
        norm = Normalization(mean=rng.standard_normal(4), var=np.ones(4),
                             gamma=rng.standard_normal(4), beta=rng.standard_normal(4))
        spec = ModelSpec(layers=[
            Layer("dense", rng.standard_normal((3, 2)), rng.standard_normal(3)),
            Layer("dense", rng.standard_normal((4, 3)), rng.standard_normal(4), norm=norm),
            Layer("dense", rng.standard_normal((2, 4)), np.zeros(2), "softmax-logits"),
        ])
        path = tmp_path / "m.json"
        save_model(spec, path)
        doc = json.loads(path.read_text())
        doc["mask"] = {"layer": 1, "removed": [0, 2]}
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.prunable_layer == 0
        assert np.array_equal(loaded.layers[0].weights, spec.layers[0].weights)
        assert np.array_equal(loaded.layers[0].bias, spec.layers[0].bias)
        layer = loaded.layers[1]
        for values in (layer.weights, layer.bias, layer.norm.gamma, layer.norm.beta):
            assert not values[[0, 2]].any()
        assert np.array_equal(layer.weights[[1, 3]], spec.layers[1].weights[[1, 3]])
        assert np.array_equal(layer.norm.mean, norm.mean)
        # the zeroed units output zero, as when the layer's outputs are masked
        x = rng.standard_normal((20, 2))
        masked = forward_batch(spec.with_prunable_layer(1), mask_from_members([1, 3], 4), x)
        np.testing.assert_array_equal(forward_batch(loaded, grand(loaded), x), masked)

    @pytest.mark.parametrize("removed", [(), (0, 17, 63)], ids=["unmasked", "masked"])
    def test_a_large_model_round_trips_bit_for_bit(self, tmp_path, removed):
        # 9 028 parameters: the round trip must be exact at any size, not
        # only for small models; the zeroed units are the only change
        rng = np.random.default_rng(5)
        spec = ModelSpec(layers=[
            Layer("dense", rng.standard_normal((64, 2)), rng.standard_normal(64)),
            Layer("dense", rng.standard_normal((128, 64)), rng.standard_normal(128),
                  norm=Normalization(*rng.standard_normal((4, 128)) ** 2)),
            Layer("dense", rng.standard_normal((4, 128)), rng.standard_normal(4),
                  "softmax-logits"),
        ])
        path = tmp_path / "model.json"
        save_model(spec, path, removed=list(removed))
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        loaded = load_model(path)
        assert loaded.prunable_layer == spec.prunable_layer
        for index, (got, want) in enumerate(zip(loaded.layers, spec.layers)):
            weights, bias = want.weights.copy(), want.bias.copy()
            if index == spec.prunable_layer:
                weights[list(removed)] = bias[list(removed)] = 0.0
            assert np.array_equal(got.weights, weights) and np.array_equal(got.bias, bias)
            assert (got.kind, got.activation) == (want.kind, want.activation)
        for key in ("mean", "var", "gamma", "beta"):
            assert np.array_equal(getattr(loaded.layers[1].norm, key),
                                  getattr(spec.layers[1].norm, key))

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            load_model(path)


class TestDatasetIO:
    def test_csv_round_trip(self, blobs, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(blobs, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.inputs, blobs.inputs)
        assert np.array_equal(loaded.labels, blobs.labels)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset_csv(path)

    def test_csv_header_must_be_on_line_one(self, tmp_path):
        # with the header found on line 3, the bad cell on line 5 was
        # reported as line 3
        path = tmp_path / "d.csv"
        path.write_text("\n\nx0,x1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(FormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{path}: expected header 'x0,...,label'"

    def test_csv_trailing_blank_lines_are_allowed(self, blobs, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(blobs, path)
        path.write_text(path.read_text() + "\n  \n\n")
        assert np.array_equal(load_dataset_csv(path).labels, blobs.labels)


class TestSplit:
    def test_fractions_partition_the_data(self, blobs):
        parts = split_dataset(blobs, (0.5, 0.3, 0.2), seed=1)
        sizes = {k: (v.size if v else 0) for k, v in parts.items()}
        assert sizes["train"] == 150 and sizes["val"] == 90 and sizes["test"] == 60

    def test_empty_parts_are_none(self, blobs):
        parts = split_dataset(blobs, (0.0, 1.0, 0.0), seed=1)
        assert parts["train"] is None and parts["test"] is None
        assert parts["val"].size == 300

    def test_deterministic_for_fixed_seed(self, blobs):
        a = split_dataset(blobs, (0.6, 0.4, 0.0), seed=7)
        b = split_dataset(blobs, (0.6, 0.4, 0.0), seed=7)
        assert np.array_equal(a["train"].inputs, b["train"].inputs)

    def test_invalid_fractions_rejected(self, blobs):
        with pytest.raises(ValueError):
            split_dataset(blobs, (0.0, 0.0, 0.0))
