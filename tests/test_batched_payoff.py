"""The batched toy-net accuracy payoff against the per-mask payoff it replaced.

``reference_char_fn`` is a local copy of the old path: zero the absent units'
outputs of the prunable layer, run every later layer for that one mask, take
the argmax and the mean.  The batched payoff must return the same bits for
every coalition, however the masks are split into calls, whatever the
order of the rows, and whether it runs the net for each mask, once per cover
set of rows over those rows' active columns or once over every row and unit,
or reads per-group tables of hit counts.
"""

import sys
import threading
from collections import namedtuple

import numpy as np
import pytest

from shaprank import toynet
from shaprank.exact import shapley_exact_subsets
from shaprank.games import Coalition, Game
from shaprank.partial import SizeBand, shapley_partial
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
from scale_probe import detector_net


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


def reference_logits(spec, data):
    """The per-mask logits before batching, one row per data row."""
    prefix = np.asarray(data.inputs, dtype=np.float64)
    for layer in spec.layers[: spec.prunable_layer + 1]:
        prefix = _reference_layer(layer, prefix)
    suffix = spec.layers[spec.prunable_layer + 1:]

    def logits(mask):
        coalition = Coalition(int(mask), spec.n_players)
        off = [i for i in range(spec.n_players) if not coalition.contains(i)]
        x = prefix.copy()
        x[:, off] = 0.0
        for layer in suffix:
            x = _reference_layer(layer, x)
        if x.ndim == 4:
            x = x.mean(axis=(2, 3))
        return x

    return logits


def reference_char_fn(spec, data):
    """The per-mask accuracy payoff before batching, kept verbatim in
    arithmetic."""
    logits = reference_logits(spec, data)

    def char_fn(mask):
        return float(np.mean(np.argmax(logits(mask), axis=1) == data.labels))

    return char_fn


def assert_bit_identical(spec, data, masks):
    masks = np.asarray(masks, dtype=np.uint64)
    reference = reference_char_fn(spec, data)
    expected = np.array([reference(m) for m in masks.tolist()])
    got = accuracy_char_fn(spec, data)(masks)
    assert got.dtype == np.float64 and got.shape == masks.shape
    assert np.array_equal(got, expected)


Pass = namedtuple("Pass", "rows cols masks")


@pytest.fixture
def rows_per_pass(monkeypatch):
    """Every hit-count pass as a ``Pass``: its row count, the prunable
    units whose columns it reads and its mask count.  A direct call makes
    one pass per cover set (or one over every row and unit); building the
    tables makes one per group, over its active units."""
    passes = []
    pass_hits = toynet.AccuracyPayoff._pass_hits

    def recording(payoff, p, masks):
        passes.append(Pass(p.labels.size, tuple(p.cols.tolist()), masks.size))
        return pass_hits(payoff, p, masks)

    monkeypatch.setattr(toynet.AccuracyPayoff, "_pass_hits", recording)
    return passes


def assert_direct(passes, n_rows, n_masks):
    """``passes`` are those of direct calls of ``n_masks`` masks over
    ``n_rows`` rows in all: each runs every mask, so none built a table,
    and their rows add up to the calls' (a pass's rows are one cover set's)."""
    assert passes and all(p.masks == n_masks for p in passes)
    assert sum(p.rows for p in passes) == n_rows
    assert all(list(p.cols) == sorted(set(p.cols)) for p in passes)


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


def _random_net(kind, seed):
    """A small net of 3 to 10 prunable units (3 to 7 for conv): dense, dense
    with a normalized hidden layer, or conv on images."""
    rng = np.random.default_rng(seed)
    units, hidden = rng.integers(3, 8 if kind == "conv" else 11, size=2).tolist()
    if kind == "conv":
        layers = [_conv(rng, units, 2), _conv(rng, hidden, units),
                  _dense(rng, 3, hidden, "softmax-logits")]
        return ModelSpec(layers), _images(rng)
    norm = None
    if kind == "normalized":
        norm = Normalization(mean=rng.standard_normal(hidden), var=rng.uniform(0.5, 2.0, hidden),
                             gamma=rng.standard_normal(hidden), beta=rng.standard_normal(hidden))
    layers = [_dense(rng, units, 2), _dense(rng, hidden, units, norm=norm),
              _dense(rng, 4, hidden, "softmax-logits")]
    return ModelSpec(layers), _blobs(n_per_class=30)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["dense", "normalized", "conv"])
def test_every_coalition_of_a_random_small_net(kind, seed):
    spec, data = _random_net(kind, seed)
    masks = np.arange(1 << spec.n_players)
    # a few masks, then every one: the route (cover-set passes, per-group
    # tables or the conv suffix's per-coalition path) follows the call's size
    # and the net
    assert_bit_identical(spec, data, masks[::-3][:4])
    assert_bit_identical(spec, data, masks)


def test_random_coalitions_of_a_two_layer_suffix(rows_per_pass):
    masks = np.random.default_rng(0).integers(0, 1 << 32, size=2000, dtype=np.uint64)
    assert_bit_identical(net_32(), _blobs(), masks)
    # up to 19 of the 32 units are active on a row: the tables would cost
    # more row evaluations than the call and hold more entries than its
    # masks, so the call takes the direct path, whose cover sets read fewer
    # than the 32 columns
    assert_direct(rows_per_pass, _blobs().size, masks.size)
    assert len(rows_per_pass) > 1 and min(len(p.cols) for p in rows_per_pass) < 32


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
    rows = [p.rows for p in rows_per_pass]
    assert rows and max(rows) < data.size
    assert sum(rows) == data.size


def sparse_conv_net():
    """A conv suffix on images that are zero but for one pixel, so a
    channel is nonzero only near it and is active if any position there is;
    two channels never are."""
    rng = np.random.default_rng(10)
    biases = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, -20.0, -20.0])
    prunable = Layer("conv2d", rng.standard_normal((8, 2, 3, 3)), biases)
    spec = ModelSpec([prunable, _conv(rng, 4, 8), _dense(rng, 3, 4, "softmax-logits")])
    inputs = np.zeros((48, 2, 5, 4))
    at = rng.integers(0, [2, 5, 4], size=(36, 3))
    inputs[np.arange(12, 48), at[:, 0], at[:, 1], at[:, 2]] = rng.standard_normal(36) * 2
    return spec, LabeledDataset(inputs=inputs, labels=rng.integers(0, 3, size=48))


def test_tables_on_a_conv_suffix(rows_per_pass):
    spec, data = sparse_conv_net()
    assert_bit_identical(spec, data, np.arange(1 << 8))
    assert len(rows_per_pass) > 1 and max(p.rows for p in rows_per_pass) < data.size


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
    assert min(p.rows for p in rows_per_pass) < data.size
    alone = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
    rows_per_pass.clear()
    assert_bit_identical(spec, alone, np.arange(1 << 12))
    assert_bit_identical(spec, alone, [0b101])
    # one pass each builds the one-entry table from its one coalition,
    # over no column
    assert rows_per_pass == [Pass(3, (), 1)] * 2


def test_tables_built_by_one_call_serve_later_calls(rows_per_pass):
    spec, data = sparse_net(), _blobs()
    char_fn = accuracy_char_fn(spec, data)
    reference = reference_char_fn(spec, data)
    # three masks cannot pay for the tables: the direct path's cover sets
    # run every row once
    few = np.array([5, 3, 4095], dtype=np.uint64)
    assert np.array_equal(char_fn(few), [reference(m) for m in few.tolist()])
    assert_direct(rows_per_pass, data.size, few.size)
    direct = len(rows_per_pass)
    every = char_fn(np.arange(1 << 12, dtype=np.uint64))
    built = len(rows_per_pass)
    assert built > direct + 1 and max(p.rows for p in rows_per_pass[direct:]) < data.size
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
    assert max(p.rows for p in rows_per_pass) < data.size


TABLE_NETS = {
    "sparse": lambda: (sparse_net(), _blobs()),
    "conv": sparse_conv_net,
    "net14": lambda: (net_14(), _blobs()),
}


@pytest.mark.parametrize("net", sorted(TABLE_NETS))
def test_the_tables_are_each_groups_hit_counts(net):
    # the conv suffix builds its tables on the per-coalition route
    spec, data = TABLE_NETS[net]()
    payoff = accuracy_char_fn(spec, data)
    assert payoff.screened == (net != "conv")
    tables = payoff.tables()
    assert payoff.tables() is tables
    assert len(tables) == payoff.codes.size > 1
    assert payoff.group_rows.sum() == data.size
    masks = np.arange(1 << spec.n_players, dtype=np.uint64)
    hits = np.zeros(masks.size, dtype=np.int64)
    for code, rows, (units, table) in zip(payoff.codes.tolist(), payoff.group_rows.tolist(),
                                          tables):
        assert units == sorted(set(units)) and code == sum(1 << u for u in units)
        assert table.shape == (1 << len(units),) and table.dtype.kind == "i"
        assert 0 <= table.min() and table.max() <= rows
        # the mask's part within the group's units: bit k is unit units[k]
        index = np.zeros(masks.size, dtype=np.uint64)
        for k, u in enumerate(units):
            index |= (masks >> np.uint64(u) & np.uint64(1)) << np.uint64(k)
        hits += table[index]
    reference = reference_char_fn(spec, data)
    assert np.array_equal(hits / data.size, [reference(m) for m in masks.tolist()])


@pytest.mark.parametrize("net", ["sparse", "detector", "conv", "net14"])
def test_a_warm_payoff_builds_nothing(rows_per_pass, net):
    # a game preloaded with every coalition its estimator requests, as from
    # a warm --cache file: exact enumeration at 8 to 14 units, and at 32,
    # beyond exact enumeration, a band of the two largest sizes
    if net != "detector":
        spec, data = TABLE_NETS[net]()
        estimate = shapley_exact_subsets
    else:
        spec, data = detector_net(np.random.default_rng(32)), _blobs(n_per_class=100)
        estimate = lambda game: shapley_partial(game, SizeBand(high_d=2))
    cold = make_accuracy_game(spec, data)
    expected = estimate(cold).values
    assert rows_per_pass
    rows_per_pass.clear()
    payoff = accuracy_char_fn(spec, data)
    warm = Game(spec.n_players, payoff, preloaded=cold.cached_table())
    assert np.array_equal(estimate(warm).values, expected)
    assert warm.eval_count == 0 and not rows_per_pass
    assert payoff._passes is None and payoff._bounds is None and payoff._tables is None


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
    # the route: per-group tables, or the direct path's passes, which run
    # every row of each of the two calls once
    if tables:
        assert max(p.rows for p in rows_per_pass) < data.size
    else:
        assert_direct(rows_per_pass, 2 * data.size, masks.size)


# -- cover-set passes -------------------------------------------------------


def _chains_and_random(n_units, seed, chains=20, random=300):
    """The prefixes of ``chains`` random orderings of the units, then
    ``random`` uniform masks."""
    rng = np.random.default_rng(seed)
    units = np.uint64(1) << np.arange(n_units, dtype=np.uint64)
    prefixes = [np.bitwise_or.accumulate(units[rng.permutation(n_units)]) for _ in range(chains)]
    uniform = rng.integers(0, 1 << n_units, size=random, dtype=np.uint64)
    return np.concatenate([*prefixes, uniform]).astype(np.uint64)


def test_detector_net_reads_about_half_the_columns(rows_per_pass):
    spec, data = detector_net(np.random.default_rng(32)), _blobs(n_per_class=200)
    masks = _chains_and_random(32, seed=21)
    assert_bit_identical(spec, data, masks)
    assert_direct(rows_per_pass, data.size, masks.size)
    products = sum(p.rows * len(p.cols) for p in rows_per_pass)
    assert products < 0.75 * data.size * 32


def test_cover_sets_with_a_normalized_suffix(rows_per_pass):
    spec, data = sparse_net(), _blobs()
    # too few masks to pay for the tables
    masks = _chains_and_random(12, seed=22, chains=2, random=20)
    assert_bit_identical(spec, data, masks)
    assert_direct(rows_per_pass, data.size, masks.size)
    assert min(len(p.cols) for p in rows_per_pass) < 12


def test_near_tied_logits_agree_on_every_route(rows_per_pass):
    # classes 1 and 2 share the head's weights but for a 1e-12 nudge, so
    # where they lead a row their logits differ by about that: far below
    # any wide margin, far above the products' last bits
    spec = sparse_net()
    head = spec.layers[-1]
    weights, bias = head.weights.copy(), head.bias.copy()
    weights[2] = weights[1] + 1e-12 * np.random.default_rng(30).standard_normal(weights.shape[1])
    bias[2] = bias[1]
    spec = ModelSpec([*spec.layers[:-1], Layer("dense", weights, bias, head.activation)])
    data = _blobs()
    masks = _chains_and_random(12, seed=31, chains=2, random=20)
    logits = reference_logits(spec, data)
    gaps = np.concatenate([np.diff(np.sort(logits(m), axis=1)[:, -2:]).ravel() for m in masks])
    assert 0 < gaps[gaps > 0].min() < 1e-11
    reference = [reference_char_fn(spec, data)(m) for m in masks.tolist()]
    char_fn = accuracy_char_fn(spec, data)
    # cover-set passes for each mask alone, then for every mask, then the
    # tables
    alone = []
    for i in range(masks.size):
        alone.append(char_fn(masks[i:i + 1]))
        assert_direct(rows_per_pass, data.size, 1)
        rows_per_pass.clear()
    alone = np.concatenate(alone)
    direct = char_fn(masks)
    assert_direct(rows_per_pass, data.size, masks.size)
    assert min(len(p.cols) for p in rows_per_pass) < 12
    tables = char_fn(np.arange(1 << 12, dtype=np.uint64))[masks]
    for got in (direct, alone, tables):
        assert np.array_equal(got, reference)


def _pass_through(rng, units=8):
    """A ReLU prunable layer that passes its inputs through, so a row's
    active units are its positive inputs, then a normalized ReLU layer."""
    norm = Normalization(
        mean=rng.standard_normal(6),
        var=rng.uniform(0.5, 2.0, 6),
        gamma=rng.standard_normal(6),
        beta=rng.standard_normal(6),
    )
    return ModelSpec([
        Layer("dense", np.eye(units), np.zeros(units)),
        _dense(rng, 6, units, norm=norm),
        _dense(rng, 3, 6, "softmax-logits"),
    ])


def _rows_active_on(rng, unit_sets, units=8):
    """One row per entry of ``unit_sets``, positive exactly on its units."""
    inputs = -rng.uniform(0.1, 2.0, (len(unit_sets), units))
    for row, active in enumerate(unit_sets):
        inputs[row, list(active)] *= -1.0
    return LabeledDataset(inputs, rng.integers(0, 3, size=len(unit_sets)))


def _in_calls_of(spec, data, masks, size):
    for start in range(0, len(masks), size):
        assert_bit_identical(spec, data, masks[start:start + size])


def test_a_cover_set_of_one_row(rows_per_pass):
    rng = np.random.default_rng(23)
    spec = _pass_through(rng)
    # two sets of 100 rows, and one row whose active set neither holds
    data = _rows_active_on(rng, [range(4)] * 100 + [range(4, 8)] * 100 + [(0, 4)])
    # 32 masks a call: fewer than the 36 table entries
    _in_calls_of(spec, data, np.arange(1 << 8), 32)
    assert_direct(rows_per_pass[:3], data.size, 32)
    assert rows_per_pass[:3] == [Pass(100, (0, 1, 2, 3), 32), Pass(100, (4, 5, 6, 7), 32),
                                 Pass(1, (0, 4), 32)]


def test_small_cover_sets_share_one_pass_over_their_union(rows_per_pass):
    rng = np.random.default_rng(27)
    spec = _pass_through(rng)
    # two one-row sets, each under 202 / 8 rows
    data = _rows_active_on(rng, [range(4)] * 100 + [range(4, 8)] * 100 + [(0, 4), (1, 5)])
    _in_calls_of(spec, data, np.arange(1 << 8), 32)
    assert rows_per_pass[:3] == [Pass(100, (0, 1, 2, 3), 32), Pass(100, (4, 5, 6, 7), 32),
                                 Pass(2, (0, 1, 4, 5), 32)]


def test_a_dense_layer_takes_one_full_width_pass(rows_per_pass):
    rng = np.random.default_rng(28)
    spec = _pass_through(rng)
    # every unit active on most rows: cover sets would save nothing
    data = _rows_active_on(rng, [range(8)] * 60 + [range(7)] * 3)
    _in_calls_of(spec, data, np.arange(1 << 8), 32)
    assert rows_per_pass[:1] == [Pass(63, tuple(range(8)), 32)]


def test_inactive_rows_share_the_first_cover_set(rows_per_pass):
    rng = np.random.default_rng(24)
    spec = _pass_through(rng)
    data = _rows_active_on(rng, [()] * 20 + [range(3)] * 90 + [range(3, 8)] * 90)
    _in_calls_of(spec, data, np.arange(1 << 8), 32)
    # the largest active set comes first and takes the inactive rows
    assert rows_per_pass[:2] == [Pass(110, (3, 4, 5, 6, 7), 32), Pass(90, (0, 1, 2), 32)]


def test_every_row_inactive(rows_per_pass):
    rng = np.random.default_rng(25)
    spec = _pass_through(rng)
    data = _rows_active_on(rng, [()] * 30)
    char_fn = accuracy_char_fn(spec, data)
    # only a call without masks takes the direct path here (one mask pays
    # for the one-entry table): no column is active, so it is one pass over
    # every unit rather than a product over none
    assert char_fn(np.array([], dtype=np.uint64)).shape == (0,)
    assert rows_per_pass == [Pass(30, tuple(range(8)), 0)]
    masks = np.arange(1 << 8, dtype=np.uint64)
    reference = reference_char_fn(spec, data)
    assert np.array_equal(char_fn(masks), [reference(m) for m in masks.tolist()])


Restriction = namedtuple("Restriction", "units given evaluated")


@pytest.fixture
def restrictions(monkeypatch):
    """Every hit-count pass as a ``Restriction``: the bitmask of the units
    whose columns it reads, the masks it was given and the list of mask
    arrays it evaluated the net on."""
    log = []
    pass_hits, run_pass = toynet.AccuracyPayoff._pass_hits, toynet.AccuracyPayoff._run_pass

    def given(payoff, p, masks):
        units = int(np.bitwise_or.reduce(np.uint64(1) << p.cols))
        log.append(Restriction(units, masks, []))
        return pass_hits(payoff, p, masks)

    def evaluated(payoff, p, masks):
        log[-1].evaluated.append(masks)
        return run_pass(payoff, p, masks)

    monkeypatch.setattr(toynet.AccuracyPayoff, "_pass_hits", given)
    monkeypatch.setattr(toynet.AccuracyPayoff, "_run_pass", evaluated)
    return log


def test_each_pass_evaluates_each_distinct_restriction_once(restrictions):
    spec, data = detector_net(np.random.default_rng(32)), _blobs(n_per_class=200)
    char_fn = accuracy_char_fn(spec, data)
    masks = _chains_and_random(32, seed=44, chains=4, random=60)
    char_fn(masks[:2])
    # masks that differ from the first 30 only outside the narrowest cover set
    narrow = min(restrictions, key=lambda r: r.units.bit_count()).units
    assert 0 < narrow.bit_count() < 32
    rng = np.random.default_rng(45)
    outside = rng.integers(0, 1 << 32, size=30, dtype=np.uint64) & np.uint64(~narrow & 0xFFFFFFFF)
    # chains, random masks, those variants and repeated masks in one call
    call = np.concatenate([masks, masks[:30] ^ outside, masks[::3]])
    restrictions.clear()
    reference = reference_char_fn(spec, data)
    assert np.array_equal(char_fn(call), [reference(m) for m in call.tolist()])
    assert len(restrictions) > 1
    for r in restrictions:
        units = np.uint64(r.units)
        assert r.given.size == call.size and len(r.evaluated) == 1
        assert np.array_equal(r.evaluated[0] & units, np.unique(r.given & units))
    evaluated = {r.units: r.evaluated[0].size for r in restrictions}
    # the variants and the repeats add no restriction to the narrow set's
    assert evaluated[narrow] == np.unique(masks & np.uint64(narrow)).size
    assert all(size < call.size for size in evaluated.values())


def test_table_builds_and_one_mask_calls_take_no_sharing_step(restrictions):
    spec, data = sparse_net(), _blobs()
    char_fn = accuracy_char_fn(spec, data)
    masks = np.arange(1 << 12, dtype=np.uint64)
    reference = reference_char_fn(spec, data)
    # one-mask calls take the direct path: the tables hold more entries
    for mask in (0, 1234, (1 << 12) - 1):
        assert char_fn(np.array([mask], dtype=np.uint64)).tolist() == [reference(mask)]
    single = list(restrictions)
    restrictions.clear()
    assert np.array_equal(char_fn(masks), [reference(m) for m in masks.tolist()])
    tables = list(restrictions)
    assert single and all(r.given.size == 1 for r in single)
    # a table build gives each group's pass every coalition of its units
    assert tables and all(r.given.size == 1 << r.units.bit_count() for r in tables)
    for r in single + tables:
        assert len(r.evaluated) == 1 and r.evaluated[0] is r.given


@pytest.mark.parametrize("elements", [1, 977, toynet._BLOCK_ELEMENTS])
def test_payoffs_do_not_depend_on_the_block_budget(monkeypatch, elements):
    spec, data = detector_net(np.random.default_rng(32)), _blobs(n_per_class=100)
    masks = _chains_and_random(32, seed=26, chains=4, random=100)
    expected = accuracy_char_fn(spec, data)(masks)
    monkeypatch.setattr(toynet, "_BLOCK_ELEMENTS", elements)
    assert np.array_equal(accuracy_char_fn(spec, data)(masks), expected)
    assert_bit_identical(spec, data, masks)


# -- the float32 screen -----------------------------------------------------


@pytest.fixture
def screen_log(monkeypatch):
    """Counts of what the screened route did: ``routes`` holds whether each
    pass ran screened; ``bias_path`` and ``recomputed`` count the uncertain
    pairs that took the bias path's prediction or a float64 one, and
    ``recomputed_pairs`` lists the latter as (row, mask)."""
    log = {"routes": [], "bias_path": 0, "recomputed": 0, "recomputed_pairs": []}
    pass_hits = toynet.AccuracyPayoff._pass_hits
    uncertain_hits = toynet.AccuracyPayoff._uncertain_hits

    def recording_pass(payoff, p, masks):
        log["routes"].append(payoff.screened)
        return pass_hits(payoff, p, masks)

    def recording_pairs(payoff, rows, masks):
        redo = np.flatnonzero(masks & payoff.row_codes[rows])
        log["recomputed"] += redo.size
        log["recomputed_pairs"] += zip(rows[redo].tolist(), masks[redo].tolist())
        log["bias_path"] += rows.size - redo.size
        return uncertain_hits(payoff, rows, masks)

    monkeypatch.setattr(toynet.AccuracyPayoff, "_pass_hits", recording_pass)
    monkeypatch.setattr(toynet.AccuracyPayoff, "_uncertain_hits", recording_pairs)
    return log


def _nudged(spec, size, seed, lead=0.0):
    """``spec`` with the head's class 2 a copy of class 1 but for a nudge of
    about ``size`` to its weights, so the two near-tie where they lead, and
    ``lead`` added to both biases."""
    head = spec.layers[-1]
    weights, bias = head.weights.copy(), head.bias.copy()
    weights[2] = weights[1] + size * np.random.default_rng(seed).standard_normal(weights.shape[1])
    bias[2] = bias[1]
    bias[1:3] += lead
    return ModelSpec([*spec.layers[:-1], Layer("dense", weights, bias, head.activation)])


@pytest.mark.parametrize("nudge", [None, 3e-4])
def test_screened_logits_moved_by_half_their_bound_change_no_payoff(monkeypatch, screen_log,
                                                                       nudge):
    # each row's threshold T is twice the bound on any of its logits'
    # errors: a payoff must not move when every logit moves by up to half
    # that bound (T / 4) on top of its rounding.  With classes 1 and 2
    # leading every row, a nudge of about T puts a few hundred margins
    # within a quarter of it, so some cross the threshold
    spec = sparse_net() if nudge is None else _nudged(sparse_net(), nudge, seed=40, lead=3.0)
    data = _blobs()
    masks = _chains_and_random(12, seed=41, chains=2, random=30)
    assert_bit_identical(spec, data, masks)
    first = len(screen_log["recomputed_pairs"])
    steady = set(screen_log["recomputed_pairs"])
    assert all(screen_log["routes"])
    rng = np.random.default_rng(42)
    pass_hits, margins = toynet.AccuracyPayoff._pass_hits, toynet._margins
    bounds = []

    def with_bounds(payoff, p, masks):
        bounds.append(p.bounds)
        return pass_hits(payoff, p, masks)

    def moved(logits, slices):
        shift = rng.uniform(-0.25, 0.25, logits.shape).astype(np.float32) * bounds[-1]
        return margins(logits + shift, slices)

    monkeypatch.setattr(toynet.AccuracyPayoff, "_pass_hits", with_bounds)
    monkeypatch.setattr(toynet, "_margins", moved)
    assert_bit_identical(spec, data, masks)
    if nudge is not None:
        assert set(screen_log["recomputed_pairs"][first:]) != steady


@pytest.mark.parametrize("nudge, lead", [(1e-12, 0.0), (1e-7, 3.0)])
def test_a_near_tie_head_is_recomputed_in_float64(screen_log, nudge, lead):
    # a nudge of 1e-12 is far below float32's rounding of these logits and
    # far above float64's; one of 1e-7, with classes 1 and 2 leading every
    # row, is about that rounding, so a float32 argmax taken without the
    # screen would get some rows wrong
    spec, data = _nudged(sparse_net(), nudge, seed=30, lead=lead), _blobs()
    masks = _chains_and_random(12, seed=31, chains=2, random=20)
    assert_bit_identical(spec, data, masks)
    assert screen_log["recomputed"] > 0 and all(screen_log["routes"])


def _zero_biases(spec):
    return ModelSpec([spec.layers[0]] + [
        Layer("dense", layer.weights, np.zeros(layer.out_units), layer.activation, layer.norm)
        for layer in spec.layers[1:]
    ])


@pytest.mark.parametrize("suffix_layers", [1, 2])
def test_exact_ties_of_the_bias_path(screen_log, suffix_layers):
    # with every suffix bias zero, a coalition that holds none of a row's
    # active units gives it four zero logits, an exact tie that only the
    # bias path's prediction (class 0) resolves without a recomputation
    rng = np.random.default_rng(43)
    prefix = Layer("dense", rng.standard_normal((10, 2)), -0.4 - rng.uniform(0, 2, 10))
    hidden = [_dense(rng, 6, 10)] if suffix_layers == 2 else []
    spec = _zero_biases(ModelSpec([prefix, *hidden, _dense(rng, 4, hidden[0].out_units if hidden
                                                            else 10, "softmax-logits")]))
    data = _blobs()
    masks = _chains_and_random(10, seed=44, chains=2, random=30)
    assert_bit_identical(spec, data, masks)
    assert screen_log["bias_path"] > 0 and all(screen_log["routes"])
    # the tables' every coalition of a group over its units, the empty one too
    screen_log["bias_path"] = 0
    assert_bit_identical(spec, data, np.arange(1 << 10))
    assert screen_log["bias_path"] >= data.size


@pytest.mark.parametrize("scale", [1e30, 1e-35])
def test_parameters_out_of_float32_range_take_the_per_coalition_route(screen_log, scale):
    # 1e30 weights would overflow float32 two layers on; 1e-35 weights lie
    # in its subnormal range, where the bound's relative terms do not hold
    spec = net_32()
    layers = [spec.layers[0], _scaled(spec.layers[1], scale), spec.layers[2]]
    masks = np.random.default_rng(45).integers(0, 1 << 32, size=60, dtype=np.uint64)
    assert_bit_identical(ModelSpec(layers), _blobs(n_per_class=30), masks)
    assert screen_log["routes"] and not any(screen_log["routes"])
    assert screen_log["bias_path"] == screen_log["recomputed"] == 0


def _scaled(layer, scale):
    return Layer(layer.kind, layer.weights * scale, layer.bias, layer.activation, layer.norm)
