"""The batched toy-net accuracy payoff against the per-mask payoff it replaced.

``reference_char_fn`` is a local copy of the old path: zero the absent units'
outputs of the prunable layer, run every later layer for that one mask, take
the argmax and the mean.  The batched payoff must return the same bits for
every coalition, however the masks are split into calls, whatever the
order of the rows, and whether it runs the net on every row for each mask or
reads per-group tables of hit counts.
"""

import sys
import threading

import numpy as np
import pytest

from shaprank import toynet
from shaprank.exact import shapley_exact_subsets
from shaprank.games import Coalition, Game
from shaprank.toynet import (
    LabeledDataset,
    Layer,
    ModelSpec,
    Normalization,
    accuracy_char_fn,
    make_accuracy_game,
    make_blobs_dataset,
)

from conftest import per_mask


def _reference_layer(layer, x):
    if layer.kind == "dense":
        if x.ndim == 4:
            x = x.mean(axis=(2, 3))
        z = x @ layer.weights.T + layer.bias
    else:
        kh, kw = layer.weights.shape[2], layer.weights.shape[3]
        pad = ((0, 0), (0, 0), (kh // 2, (kh - 1) // 2), (kw // 2, (kw - 1) // 2))
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(x, pad), (kh, kw), axis=(2, 3))
        z = np.einsum("mcxykl,ockl->moxy", windows, layer.weights)
        z = z + layer.bias[None, :, None, None]
    if layer.norm is not None:
        norm = layer.norm
        shape = [1] * z.ndim
        shape[1] = -1
        scale = norm.gamma / np.sqrt(norm.var + norm.eps)
        z = (z - norm.mean.reshape(shape)) * scale.reshape(shape) + norm.beta.reshape(shape)
    if layer.activation == "relu":
        z = np.maximum(z, 0.0)
    return z


def reference_char_fn(spec, data):
    """The per-mask accuracy payoff before batching, kept verbatim in
    arithmetic."""
    prefix = np.asarray(data.inputs, dtype=np.float64)
    for layer in spec.layers[: spec.prunable_layer + 1]:
        prefix = _reference_layer(layer, prefix)
    suffix = spec.layers[spec.prunable_layer + 1:]

    def char_fn(mask):
        coalition = Coalition(int(mask), spec.n_players)
        off = [i for i in range(spec.n_players) if not coalition.contains(i)]
        x = prefix.copy()
        x[:, off] = 0.0
        for layer in suffix:
            x = _reference_layer(layer, x)
        if x.ndim == 4:
            x = x.mean(axis=(2, 3))
        return float(np.mean(np.argmax(x, axis=1) == data.labels))

    return char_fn


def assert_bit_identical(spec, data, masks):
    masks = np.asarray(masks, dtype=np.uint64)
    reference = reference_char_fn(spec, data)
    expected = np.array([reference(m) for m in masks.tolist()])
    got = accuracy_char_fn(spec, data)(masks)
    assert got.dtype == np.float64 and got.shape == masks.shape
    assert np.array_equal(got, expected)


@pytest.fixture
def rows_per_pass(monkeypatch):
    """The row count of every hit-count pass: ``n_rows`` on the direct path,
    a group's row count while its table is built."""
    rows = []
    hit_counts = toynet._hit_counts

    def recording(by_class, labels, n_coalitions):
        rows.append(labels.size)
        return hit_counts(by_class, labels, n_coalitions)

    monkeypatch.setattr(toynet, "_hit_counts", recording)
    return rows


def _dense(rng, n_out, n_in, activation="relu", norm=None, scale=1.0):
    return Layer(
        "dense",
        rng.standard_normal((n_out, n_in)) * scale,
        rng.standard_normal(n_out) * 0.2,
        activation,
        norm,
    )


def _blobs(n_classes=4, n_per_class=120):
    return make_blobs_dataset(seed=3, n_per_class=n_per_class, n_classes=n_classes, spread=1.2)


def net_14():
    rng = np.random.default_rng(14)
    return ModelSpec([_dense(rng, 14, 2), _dense(rng, 4, 14, "softmax-logits")])


def net_32():
    rng = np.random.default_rng(32)
    return ModelSpec(
        [_dense(rng, 32, 2), _dense(rng, 16, 32, scale=0.4), _dense(rng, 4, 16, "softmax-logits")]
    )


def _conv(rng, n_out, n_in):
    return Layer(
        "conv2d", rng.standard_normal((n_out, n_in, 3, 3)) * 0.5, rng.standard_normal(n_out) * 0.1
    )


def _images(rng, rows=40, channels=2, classes=3):
    return LabeledDataset(
        inputs=rng.standard_normal((rows, channels, 5, 4)),
        labels=rng.integers(0, classes, size=rows),
    )


def test_every_coalition_of_a_14_unit_net():
    assert_bit_identical(net_14(), _blobs(), np.arange(1 << 14))


def test_random_coalitions_of_a_two_layer_suffix(rows_per_pass):
    masks = np.random.default_rng(0).integers(0, 1 << 32, size=2000, dtype=np.uint64)
    assert_bit_identical(net_32(), _blobs(), masks)
    # up to 19 of the 32 units are active on a row: the tables would cost
    # more row evaluations than the call and hold more entries than its
    # masks, so every pass runs all rows
    assert rows_per_pass and set(rows_per_pass) == {_blobs().size}


def test_dense_suffix_layer_with_normalization():
    rng = np.random.default_rng(5)
    norm = Normalization(
        mean=rng.standard_normal(12),
        var=rng.uniform(0.5, 2.0, 12),
        gamma=rng.standard_normal(12),
        beta=rng.standard_normal(12),
    )
    spec = ModelSpec(
        [_dense(rng, 10, 2), _dense(rng, 12, 10, norm=norm), _dense(rng, 4, 12, "softmax-logits")]
    )
    assert_bit_identical(spec, _blobs(), np.arange(1 << 10))


def test_conv_prefix_with_a_dense_head():
    rng = np.random.default_rng(6)
    spec = ModelSpec([_conv(rng, 6, 2), _dense(rng, 3, 6, "softmax-logits")])
    assert_bit_identical(spec, _images(rng), np.arange(1 << 6))


def test_conv_first_suffix_layer():
    rng = np.random.default_rng(7)
    spec = ModelSpec([_conv(rng, 5, 2), _conv(rng, 4, 5), _dense(rng, 3, 4, "softmax-logits")])
    data = _images(rng)
    assert_bit_identical(spec, data, np.arange(1 << 5))
    # the players are the second conv's channels: one conv suffix layer fewer
    assert_bit_identical(spec.with_prunable_layer(1), data, np.arange(1 << 4))


def test_prunable_head_has_no_suffix():
    spec = net_32().with_prunable_layer(2)
    assert_bit_identical(spec, _blobs(), np.arange(1 << 4))


def test_non_finite_inputs_and_logits():
    spec = net_14()
    data = _blobs(n_per_class=5)
    inputs = data.inputs.copy()
    inputs[0, 0] = np.nan
    inputs[3, 1] = np.inf
    with np.errstate(invalid="ignore"):
        assert_bit_identical(spec, LabeledDataset(inputs, data.labels), np.arange(1 << 14))
    # finite prefix, logits that overflow to +-inf and to NaN (inf - inf)
    rng = np.random.default_rng(8)
    huge = ModelSpec(
        [_dense(rng, 6, 2), _dense(rng, 5, 6, scale=1e200), _dense(rng, 4, 5, "softmax-logits")]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert_bit_identical(huge, data, np.arange(1 << 6))


def test_non_finite_weights_of_the_first_suffix_layer():
    # an absent unit's output times an inf or NaN weight is NaN in the
    # per-mask path, so the batched path must not zero the weight instead
    spec = net_32()
    weights = spec.layers[1].weights
    weights[0, 3] = np.inf
    weights[5, 3] = -np.inf
    weights[2, 17] = np.nan
    masks = np.random.default_rng(2).integers(0, 1 << 32, size=500, dtype=np.uint64)
    masks[:4] = [0, (1 << 32) - 1, 1 << 3, ((1 << 32) - 1) ^ (1 << 3) ^ (1 << 17)]
    with np.errstate(invalid="ignore"):
        assert_bit_identical(spec, _blobs(), masks)


def test_labels_the_head_cannot_predict_never_count():
    data = _blobs(n_per_class=30)
    labels = data.labels.copy()
    labels[:7] = [4, 256, 300, -1, 70000, 3, 0]
    assert_bit_identical(net_14(), LabeledDataset(data.inputs, labels), np.arange(0, 1 << 14, 7))


def test_single_row_dataset():
    data = LabeledDataset(np.array([[0.3, -1.2]]), np.array([2]))
    assert_bit_identical(net_32(), data, np.arange(0, 1 << 32, 1 << 21))


def test_payoffs_do_not_depend_on_the_batching():
    spec, data = net_32(), _blobs()
    masks = np.random.default_rng(1).integers(0, 1 << 32, size=300, dtype=np.uint64)
    char_fn = accuracy_char_fn(spec, data)
    whole = char_fn(masks)
    ones = np.concatenate([char_fn(masks[i:i + 1]) for i in range(masks.size)])
    sevens = np.concatenate([char_fn(masks[i:i + 7]) for i in range(0, masks.size, 7)])
    assert np.array_equal(whole, ones)
    assert np.array_equal(whole, sevens)


def test_mask_above_the_units_is_refused():
    with pytest.raises(ValueError):
        accuracy_char_fn(net_14(), _blobs())(np.array([1 << 14], dtype=np.uint64))


def test_game_counters_match_the_scalar_path():
    spec, data = net_14(), _blobs(n_per_class=40)
    batched = make_accuracy_game(spec, data)
    scalar = Game(spec.n_players, per_mask(reference_char_fn(spec, data)))
    for game in (batched, scalar):
        game.evaluate_masks(np.array([5, 9, 5, 0, 9, 17], dtype=np.uint64))
    exact_batched = shapley_exact_subsets(batched)
    exact_scalar = shapley_exact_subsets(scalar)
    assert np.array_equal(exact_batched.values, exact_scalar.values)
    assert exact_batched.evals_used == exact_scalar.evals_used
    assert (batched.eval_count, batched.cache_hits) == (scalar.eval_count, scalar.cache_hits)


# -- the per-group tables ---------------------------------------------------


def sparse_net(seed=9, units=12):
    """A dense ReLU prefix with negative biases, so most rows leave most
    units at zero, and a normalized ReLU layer before the head."""
    rng = np.random.default_rng(seed)
    prefix = Layer("dense", rng.standard_normal((units, 2)), -0.4 - rng.uniform(0, 2, units))
    norm = Normalization(
        mean=rng.standard_normal(8),
        var=rng.uniform(0.5, 2.0, 8),
        gamma=rng.standard_normal(8),
        beta=rng.standard_normal(8),
    )
    return ModelSpec([prefix, _dense(rng, 8, units, norm=norm), _dense(rng, 4, 8, "softmax-logits")])


def test_tables_on_a_normalized_net_with_many_zero_outputs(rows_per_pass):
    spec, data = sparse_net(), _blobs()
    assert_bit_identical(spec, data, np.arange(1 << 12))
    # every pass built a group's table: none ran all rows
    assert rows_per_pass and max(rows_per_pass) < data.size
    assert sum(rows_per_pass) == data.size


def test_tables_on_a_conv_suffix(rows_per_pass):
    rng = np.random.default_rng(10)
    # each image is zero but for one pixel, so a channel is nonzero only
    # near it and is active if any position there is; two channels never are
    biases = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, -20.0, -20.0])
    prunable = Layer("conv2d", rng.standard_normal((8, 2, 3, 3)), biases)
    spec = ModelSpec([prunable, _conv(rng, 4, 8), _dense(rng, 3, 4, "softmax-logits")])
    inputs = np.zeros((48, 2, 5, 4))
    at = rng.integers(0, [2, 5, 4], size=(36, 3))
    inputs[np.arange(12, 48), at[:, 0], at[:, 1], at[:, 2]] = rng.standard_normal(36) * 2
    data = LabeledDataset(inputs=inputs, labels=rng.integers(0, 3, size=48))
    assert_bit_identical(spec, data, np.arange(1 << 8))
    assert len(rows_per_pass) > 1 and max(rows_per_pass) < data.size


def test_a_row_whose_prefix_is_all_zero(rows_per_pass):
    spec = sparse_net()
    data = _blobs(n_per_class=20)
    # with every prefix bias negative, the origin switches every unit off
    inputs = np.concatenate([data.inputs, [[0.0, 0.0]]])
    labels = np.concatenate([data.labels, [1]])
    zero_row = LabeledDataset(inputs, labels)
    assert_bit_identical(spec, zero_row, np.arange(1 << 12))
    # the origin's group has no active units: its table is one entry,
    # possibly shared with other rows that switch every unit off
    assert min(rows_per_pass) < data.size
    alone = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
    rows_per_pass.clear()
    assert_bit_identical(spec, alone, np.arange(1 << 12))
    assert_bit_identical(spec, alone, [0b101])
    # one pass each builds the one-entry table; the direct path would take
    # four blocks of coalitions for the 4096 masks
    assert rows_per_pass == [3, 3]


def test_tables_built_by_one_call_serve_later_calls(rows_per_pass):
    spec, data = sparse_net(), _blobs()
    char_fn = accuracy_char_fn(spec, data)
    reference = reference_char_fn(spec, data)
    # three masks cannot pay for the tables: the direct path runs every row
    few = np.array([5, 3, 4095], dtype=np.uint64)
    assert np.array_equal(char_fn(few), [reference(m) for m in few.tolist()])
    assert rows_per_pass == [data.size]
    every = char_fn(np.arange(1 << 12, dtype=np.uint64))
    built = len(rows_per_pass)
    assert built > 2 and max(rows_per_pass[1:]) < data.size
    shuffled = np.random.default_rng(4).permutation(1 << 12).astype(np.uint64)
    assert np.array_equal(char_fn(shuffled), every[shuffled])
    assert len(rows_per_pass) == built  # no pass ran after the tables


def test_concurrent_calls_on_one_payoff(rows_per_pass):
    spec, data = sparse_net(), _blobs()
    char_fn = accuracy_char_fn(spec, data)
    masks = np.arange(1 << 12, dtype=np.uint64)
    expected = accuracy_char_fn(spec, data)(masks)
    n_threads = 4
    start = threading.Barrier(n_threads)
    results = [[] for _ in range(n_threads)]

    def work(j):
        start.wait()
        for _ in range(3):
            order = masks[::-1] if j % 2 else masks
            results[j].append((order, char_fn(order)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for per_thread in results:
        assert len(per_thread) == 3
        for order, got in per_thread:
            assert np.array_equal(got, expected[order])
    assert max(rows_per_pass) < data.size


# -- row order --------------------------------------------------------------


def _dense_suffix():
    masks = np.random.default_rng(11).integers(0, 1 << 32, size=300, dtype=np.uint64)
    return net_32(), _blobs(), masks


def _conv_suffix():
    rng = np.random.default_rng(7)
    spec = ModelSpec([_conv(rng, 5, 2), _conv(rng, 4, 5), _dense(rng, 3, 4, "softmax-logits")])
    # half the coalitions: too few to pay for a table of all 32
    return spec, _images(rng), np.arange(1, 1 << 5, 2)


def _non_finite_prefix():
    data = _blobs(n_per_class=5)
    inputs = data.inputs.copy()
    inputs[0, 0] = np.nan
    inputs[3, 1] = np.inf
    masks = np.random.default_rng(12).integers(0, 1 << 14, size=300, dtype=np.uint64)
    return net_14(), LabeledDataset(inputs, data.labels), masks


def _group_tables():
    return sparse_net(), _blobs(), np.arange(1 << 12)


@pytest.mark.parametrize(
    "case, tables",
    [(_dense_suffix, False), (_conv_suffix, False), (_non_finite_prefix, False),
     (_group_tables, True)],
)
def test_payoffs_do_not_depend_on_the_row_order(rows_per_pass, case, tables):
    # a payoff is a hit count over the rows, so the CLI may validate on the
    # rows of a file in its order rather than shuffled
    spec, data, masks = case()
    masks = np.asarray(masks, dtype=np.uint64)
    order = np.random.default_rng(13).permutation(data.size)
    shuffled = LabeledDataset(data.inputs[order], data.labels[order])
    with np.errstate(invalid="ignore"):
        expected = accuracy_char_fn(spec, data)(masks)
        assert np.array_equal(accuracy_char_fn(spec, shuffled)(masks), expected)
    # the route: per-group tables, or every row of the direct path
    assert (max(rows_per_pass) < data.size) if tables else set(rows_per_pass) == {data.size}
