import numpy as np
import pytest

from shaprank.errors import FormatError, TrainingDivergedError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import Coalition
from shaprank.toynet import (
    LabeledDataset,
    Layer,
    MaskedModel,
    ModelSpec,
    Normalization,
    accuracy,
    accuracy_char_fn,
    forward_batch,
    load_dataset_csv,
    load_idx,
    load_idx_dataset,
    load_model,
    make_accuracy_game,
    make_blobs_dataset,
    read_flat_binary,
    save_dataset_csv,
    save_model,
    split_dataset,
    train_toy_model,
    write_flat_binary,
)


@pytest.fixture(scope="module")
def blobs():
    return make_blobs_dataset(seed=0)


@pytest.fixture(scope="module")
def trained(blobs):
    return train_toy_model([8], blobs, epochs=200, lr=0.1, seed=0)


def grand_model(spec):
    return MaskedModel(spec=spec, mask=Coalition.grand(spec.n_players))


class TestBlobs:
    def test_exactly_balanced(self, blobs):
        assert np.bincount(blobs.labels).tolist() == [100, 100, 100]
        assert blobs.size == 300

    def test_deterministic(self):
        a = make_blobs_dataset(seed=5)
        b = make_blobs_dataset(seed=5)
        assert np.array_equal(a.inputs, b.inputs)


class TestTraining:
    def test_reaches_target_accuracy(self, blobs):
        spec = train_toy_model([16], blobs, epochs=200, lr=0.1, seed=0)
        assert accuracy(grand_model(spec), blobs) >= 0.90

    def test_zero_learning_rate_keeps_initialization(self, blobs):
        trained_none = train_toy_model([4], blobs, epochs=50, lr=0.0, seed=3)
        init = train_toy_model([4], blobs, epochs=0, lr=0.1, seed=3)
        for a, b in zip(trained_none.layers, init.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_zero_epochs_returns_initialization_deterministically(self, blobs):
        a = train_toy_model([4], blobs, epochs=0, lr=0.1, seed=9)
        b = train_toy_model([4], blobs, epochs=0, lr=0.1, seed=9)
        assert np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_divergence_reports_epoch(self, blobs):
        with pytest.raises(TrainingDivergedError) as info:
            train_toy_model([8], blobs, epochs=100, lr=1e9, seed=0)
        assert info.value.epoch is not None

    def test_architecture_limits(self, blobs):
        with pytest.raises(ValueError):
            train_toy_model([8, 8, 8], blobs)
        with pytest.raises(ValueError):
            train_toy_model([64], blobs)


class TestMaskingSemantics:
    def test_empty_mask_predicts_a_constant_class(self, trained, blobs):
        empty = MaskedModel(spec=trained, mask=Coalition(0, trained.n_players))
        preds = np.argmax(forward_batch(empty, blobs.inputs), axis=1)
        assert np.unique(preds).size == 1

    def test_empty_mask_accuracy_equals_best_constant_on_balanced_data(
        self, trained, blobs
    ):
        nu = accuracy_char_fn(trained, blobs)
        best_constant = np.bincount(blobs.labels).max() / blobs.size
        assert nu(0) == pytest.approx(best_constant)

    def test_masking_a_dead_unit_changes_nothing(self, trained, blobs):
        spec = _with_extra_unit(trained, out_scale=0.0)
        n = spec.n_players
        dead = n - 1
        with_unit = forward_batch(grand_model(spec), blobs.inputs)
        without = forward_batch(
            MaskedModel(spec=spec, mask=Coalition.from_members(range(dead), n)), blobs.inputs
        )
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
        masked = MaskedModel(spec=spec, mask=Coalition.from_members([0], 3))
        out = forward_batch(masked, np.array([[1.0, 1.0, 1.0]]))
        assert out[0, 1] == 0.0 and out[0, 2] == 0.0


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
        nu = accuracy_char_fn(spec, data)
        assert nu(0b11) == 0.75

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
        assert accuracy_char_fn(spec, data)(0b11) == 1.0

    def test_grand_not_worse_than_empty_on_fixture(self, trained, blobs):
        game = make_accuracy_game(trained, blobs)
        assert game.evaluate_mask(game.grand_mask) >= game.evaluate_mask(0)

    def test_char_fn_matches_full_forward(self, trained, blobs):
        nu = accuracy_char_fn(trained, blobs)
        for mask in (0b0101, 0b1100, 0b11111111):
            masked = MaskedModel(
                spec=trained, mask=Coalition(mask & ((1 << trained.n_players) - 1), trained.n_players)
            )
            assert nu(mask & ((1 << trained.n_players) - 1)) == pytest.approx(
                accuracy(masked, blobs)
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
        original = forward_batch(grand_model(trained), blobs.inputs)
        doubled = forward_batch(grand_model(spec), blobs.inputs)
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
        conv_out = forward_batch(
            MaskedModel(spec=spec, mask=Coalition.grand(4)), x
        )
        assert conv_out.shape == (5, 3)

    def test_channel_masking_matches_manual_zeroing(self):
        spec = self._conv_spec()
        x = np.random.default_rng(3).standard_normal((4, 2, 5, 5))
        masked = forward_batch(
            MaskedModel(spec=spec, mask=Coalition.from_members([0, 2], 4)), x
        )
        # manual: run conv, zero channels 1 and 3, finish with the head
        from shaprank.toynet import _apply_layer

        h = _apply_layer(spec.layers[0], x)
        h[:, [1, 3]] = 0.0
        manual = _apply_layer(spec.layers[1], h)
        np.testing.assert_allclose(masked, manual, atol=1e-12)

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
        loaded = load_model(path)
        assert loaded.mask.bits == (1 << trained.n_players) - 1
        for a, b in zip(loaded.spec.layers, trained.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_mask_round_trip(self, trained, tmp_path):
        path = tmp_path / "masked.json"
        kept = Coalition.from_members([0, 2, 3], trained.n_players)
        save_model(MaskedModel(spec=trained, mask=kept), path)
        assert load_model(path).mask == kept

    def test_binary_sidecar_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained, path, inline_limit=0)
        assert (tmp_path / "model.json.bin").exists()
        loaded = load_model(path)
        for a, b in zip(loaded.spec.layers, trained.layers):
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-6)
            assert a.weights.shape == b.weights.shape

    def test_flat_binary_format(self, tmp_path):
        tensors = [np.arange(6, dtype=np.float64).reshape(2, 3), np.ones(4)]
        path = tmp_path / "weights.bin"
        write_flat_binary(tensors, path)
        loaded = read_flat_binary(path)
        assert [t.shape for t in loaded] == [(2, 3), (4,)]
        np.testing.assert_allclose(loaded[0], tensors[0], atol=1e-6)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "weights.bin"
        write_flat_binary([np.ones(4)], path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="size"):
            read_flat_binary(path)

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

    def test_idx_round_trip(self, tmp_path):
        import struct

        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        labels = np.array([1, 0], dtype=np.uint8)
        img_path = tmp_path / "images.idx"
        lbl_path = tmp_path / "labels.idx"
        img_path.write_bytes(
            struct.pack(">BBBB", 0, 0, 0x08, 3)
            + struct.pack(">III", 2, 3, 3)
            + images.tobytes()
        )
        lbl_path.write_bytes(
            struct.pack(">BBBB", 0, 0, 0x08, 1) + struct.pack(">I", 2) + labels.tobytes()
        )
        assert np.array_equal(load_idx(lbl_path), labels)
        data = load_idx_dataset(img_path, lbl_path)
        assert data.inputs.shape == (2, 1, 3, 3)
        assert data.inputs.max() <= 1.0
        assert data.labels.tolist() == [1, 0]

    def test_idx_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x00\x08\x01\x00\x00\x00\x01\x07")
        with pytest.raises(FormatError):
            load_idx(path)


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
