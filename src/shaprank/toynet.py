"""A tiny feed-forward network whose units can be masked per coalition.

The point of this module is to turn a network layer into a coalition game:
the players are the units (dense) or output channels (conv), and the payoff
of a coalition is the classification accuracy of the network with every
non-member zeroed out.  A masked unit contributes exactly zero downstream,
including through any supplied normalization statistics, because the zeroing
happens on the layer's final output.

Also included: a deliberately small trainer (hand-written gradients, plain
full-batch gradient descent) so the repository can generate its own model
fixtures, and a balanced synthetic blob dataset.  The files of models and
datasets are read and written by :mod:`shaprank.formats`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import TrainingDivergedError
from .games import Game

ACTIVATIONS = ("relu", "identity", "softmax-logits")
# about this many float64 (1 MiB) per block of coalitions in the accuracy
# payoff: in all the arrays of a GEMM block together, in each array of a
# per-coalition block
_BLOCK_ELEMENTS = 1 << 17


@dataclass
class Normalization:
    """Per-unit affine normalization applied between the linear op and the
    activation (inference only; statistics are supplied, never trained)."""

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def apply(self, z: np.ndarray, channel_axis: int) -> np.ndarray:
        shape = [1] * z.ndim
        shape[channel_axis] = -1
        scale = self.gamma / np.sqrt(self.var + self.eps)
        return (z - self.mean.reshape(shape)) * scale.reshape(shape) + self.beta.reshape(shape)


@dataclass
class Layer:
    kind: str  # "dense" or "conv2d"
    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"
    norm: Optional[Normalization] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kind == "dense":
            if self.weights.ndim != 2:
                raise ValueError("dense weights must be (out, in)")
        elif self.kind == "conv2d":
            if self.weights.ndim != 4:
                raise ValueError("conv2d weights must be (out, in, kh, kw)")
        else:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.bias.shape != (self.out_units,):
            raise ValueError("bias must have one entry per output unit")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.norm is not None:
            vectors = (self.norm.mean, self.norm.var, self.norm.gamma, self.norm.beta)
            if any(np.shape(v) != (self.out_units,) for v in vectors):
                raise ValueError("norm vectors must have one entry per output unit")

    @property
    def out_units(self) -> int:
        return int(self.weights.shape[0])

    @property
    def in_units(self) -> int:
        return int(self.weights.shape[1])


@dataclass
class ModelSpec:
    layers: list[Layer]
    prunable_layer: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if not 0 <= self.prunable_layer < len(self.layers):
            raise ValueError("prunable_layer out of range")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.kind == "dense" and cur.kind == "conv2d":
                raise ValueError("a conv2d layer cannot follow a dense one, whose output is flat")
            if cur.in_units != prev.out_units:
                raise ValueError(
                    f"layer shapes do not compose: {prev.out_units} outputs "
                    f"feed {cur.in_units} inputs"
                )

    @property
    def n_players(self) -> int:
        """Unit (or channel) count of the layer whose units are the players."""
        return self.layers[self.prunable_layer].out_units

    def with_prunable_layer(self, index: int) -> "ModelSpec":
        return dataclasses.replace(self, prunable_layer=index)


@dataclass
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must align")
        if len(self.inputs) < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def size(self) -> int:
        return int(len(self.labels))


def _global_average_pool(x: np.ndarray) -> np.ndarray:
    # (M, C, H, W) -> (M, C); no-op for already-flat activations
    if x.ndim == 4:
        return x.mean(axis=(2, 3))
    return x


def _conv2d_same(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stride-1 zero-padded correlation: (M, Cin, H, W) -> (M, Cout, H, W)."""
    kh, kw = weights.shape[2], weights.shape[3]
    pad = ((0, 0), (0, 0), (kh // 2, (kh - 1) // 2), (kw // 2, (kw - 1) // 2))
    padded = np.pad(x, pad)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    return np.einsum("mcxykl,ockl->moxy", windows, weights)


def _apply_layer(layer: Layer, x: np.ndarray) -> np.ndarray:
    if layer.kind == "dense":
        x = _global_average_pool(x)
        if x.shape[1] != layer.in_units:
            raise ValueError(
                f"input has {x.shape[1]} features, layer expects {layer.in_units}"
            )
        z = x @ layer.weights.T + layer.bias
    else:
        if x.ndim != 4 or x.shape[1] != layer.weights.shape[1]:
            raise ValueError("conv2d input must be (batch, in_channels, H, W)")
        z = _conv2d_same(x, layer.weights) + layer.bias[None, :, None, None]
    return _activate(layer, z, 1)


def _activate(layer: Layer, z: np.ndarray, channel_axis: int) -> np.ndarray:
    """Normalization and activation of a layer's freshly computed
    pre-activations ``z``, which are overwritten."""
    if layer.norm is not None:
        z = layer.norm.apply(z, channel_axis)
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def accuracy_char_fn(spec: ModelSpec, data: LabeledDataset):
    """Characteristic function: coalition bitmasks -> accuracy fractions.

    Takes a 1-D ``uint64`` array of bitmasks and returns a float64 array of
    as many accuracies.  The layers up to and including the prunable one are
    evaluated once and reused for every coalition; only the downstream
    layers run, for a block of coalitions at a time.

    When the downstream layers are dense (and the prunable layer's outputs
    and the first downstream layer's weights are finite), the first of them
    is one GEMM per block against a stack of copies of its weights, each
    with the absent units' columns zeroed.  Every term of each dot product
    is then the same ``output * weight`` or a zero as with the absent
    outputs zeroed instead, in the same order, so the payoffs are
    bit-identical to evaluating one mask at a time, given a BLAS that sums
    each dot product in one order whatever the matrix shapes
    (``tests/test_batched_payoff.py`` checks this).  Later layers run on
    every row of the block at once.  Otherwise (no downstream layer, a conv
    one, or non-finite outputs or weights, where ``inf * 0`` would give NaN)
    the absent outputs are zeroed and the downstream layers run once per
    coalition of the block.

    A row's active units are those whose output on it is not zero (at any
    spatial position of a channel; NaN and inf count).  Masking an inactive
    unit changes at most the sign of a zero, which no later bias,
    normalization, ReLU, product, pooling or argmax comparison tells apart,
    so the row's prediction depends only on which of its active units are
    present.  Rows with the same active set form a group, and a group's
    table holds its rows' hit count for every coalition of its active units;
    a mask's payoff is then the sum of one entry per group over the row
    count, the same integer over the same count as the direct path.  The
    tables are built on the first call for which they cost no more row
    evaluations than the call itself (``sum |G| * 2**a_G <= rows * masks``)
    and hold no more entries than it has masks (``sum 2**a_G <= masks``),
    and are kept for every later call; until then each call takes the
    direct path.

    On the GEMM route a direct call of several masks multiplies only the
    columns that are active on its rows.  The groups, largest active set
    first and then by code, each join the first "cover set" that holds
    their active set, or start one; a pass runs a cover set's rows against
    its units' columns only.  Cover sets of fewer than ``rows / units``
    rows share one pass over the union of their units, so there are at
    most ``units + 1`` passes.  Where the passes would read no fewer
    products than one full-width pass (a dense net), or no column at all
    (every row inactive), the call is one pass over every row and unit, as
    is a call of one mask, which cannot repay building the passes.  The
    passes' prefix blocks are built on the first direct call of several
    masks, never for a payoff that a warm cache serves.

    The block size follows from the shape of the rows a pass evaluates,
    never from the number of masks requested: on the GEMM route a block
    holds at most ``_BLOCK_ELEMENTS`` values in all its arrays together
    (the weight stack, the products, every later layer's output and the
    hit counts' arrays); the per-coalition route bounds each array by it.

    Which route, and which block, a mask meets depends on the call it
    arrives in: one mask, several, or the tables.  The terms a
    cover-set pass drops are exact zeros, so under the BLAS condition
    above every route gives the same bits.  OpenBLAS 0.3.31 does not meet
    it at these shapes: the restricted products can differ in the last
    bits from a full-width pass.  A mask's payoff is then the same on
    every route only while no row's top two logits lie within that
    rounding of each other (``tests/test_batched_payoff.py`` checks near
    ties far above it); nothing here certifies the margin.
    """
    prefix = np.asarray(data.inputs, dtype=np.float64)
    for layer in spec.layers[: spec.prunable_layer + 1]:
        prefix = _apply_layer(layer, prefix)
    suffix = spec.layers[spec.prunable_layer + 1:]
    if not suffix or suffix[0].kind == "dense":
        # zeroing a channel commutes with pooling it
        prefix = _global_average_pool(prefix)
    # inf * 0 is NaN: a non-finite output or weight must meet the zero as
    # in the per-coalition path
    gemm = (
        bool(suffix)
        and suffix[0].kind == "dense"
        and bool(np.isfinite(prefix).all())
        and bool(np.isfinite(suffix[0].weights).all())
    )
    labels = data.labels
    n_rows, n_units = prefix.shape[:2]
    bits = np.arange(n_units, dtype=np.uint64)

    # one uint64 code per row: its active units (NaN != 0, so NaN counts)
    active = (prefix != 0).reshape(n_rows, n_units, -1).any(axis=2)
    codes, group_of_row, group_rows = np.unique(
        np.bitwise_or.reduce(active << bits, axis=1), return_inverse=True, return_counts=True
    )
    group_units = [int(code).bit_count() for code in codes.tolist()]
    table_entries = sum(1 << a for a in group_units)
    table_cost = sum(int(rows) << a for rows, a in zip(group_rows.tolist(), group_units))
    tables = passes = None
    # the direct path's one pass of every row and unit (columns None)
    whole = [(prefix, labels, None)]

    def build_tables() -> list:
        built = []
        by_group = np.argsort(group_of_row, kind="stable")
        for code, rows in zip(codes.tolist(), np.split(by_group, np.cumsum(group_rows)[:-1])):
            units = [u for u in range(n_units) if code >> u & 1]
            # coalition j of the group's units: bit k of j is unit units[k]
            j = np.arange(1 << len(units), dtype=np.uint64)
            subsets = np.zeros_like(j)
            for k, u in enumerate(units):
                subsets |= (j >> k & 1) << u
            built.append((units, _pass_hits(suffix, gemm, prefix[rows], labels[rows], subsets)))
        return built

    def build_passes() -> list:
        """The direct path's ``(prefix block, labels, columns)`` passes: one
        per cover set, or ``whole``."""
        if not gemm:
            return whole
        # largest active sets first, then by code: each group joins the
        # first cover set that holds its active set, or starts one
        covers = []
        cover_of_group = np.empty(codes.size, dtype=np.intp)
        for g in sorted(range(codes.size), key=lambda g: -group_units[g]):
            code = int(codes[g])
            cover_of_group[g] = next(
                (i for i, cover in enumerate(covers) if code & ~cover == 0), len(covers)
            )
            if cover_of_group[g] == len(covers):
                covers.append(code)
        cover_of_row = cover_of_group[group_of_row]
        # a set of fewer than rows / units rows saves less than its own pass
        # costs: such sets share one pass, over the union of their units, so
        # there are at most units + 1 passes
        small = np.flatnonzero(np.bincount(cover_of_row) * n_units < n_rows)
        for i in small[1:].tolist():
            covers[small[0]] |= covers[i]
        merged = np.arange(len(covers))
        merged[small] = small[:1]
        cover_of_row = merged[cover_of_row]
        blocks = [
            (np.flatnonzero(cover_of_row == i), bits[np.uint64(covers[i]) >> bits & 1 == 1])
            for i in np.flatnonzero(np.bincount(cover_of_row)).tolist()
        ]
        # no saving (a dense net), or no column at all (every row inactive:
        # no K = 0 product)
        if not 0 < sum(rows.size * cols.size for rows, cols in blocks) < n_rows * n_units:
            return whole
        return [(prefix[np.ix_(rows, cols)], labels[rows], cols) for rows, cols in blocks]

    def char_fn(masks):
        nonlocal tables, passes
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.size and int(masks.max()) >> n_units:
            raise ValueError(f"mask {int(masks.max()):#x} has bits above unit {n_units - 1}")
        current = tables
        if current is None and table_entries <= masks.size and table_cost <= n_rows * masks.size:
            # published whole: a concurrent call sees every table or none
            current = tables = build_tables()
        if current is None:
            if masks.size > 1:
                # built on the first direct call of several masks, never
                # for a payoff that a warm cache serves; published whole,
                # as the tables are
                direct = passes = passes or build_passes()
            else:
                # one mask cannot repay building them (Game's start-up
                # calls, for the empty and the grand coalition)
                direct = whole
            hits = sum(
                _pass_hits(suffix, gemm, x, row_labels, masks, cols)
                for x, row_labels, cols in direct
            )
        else:
            hits = np.zeros(masks.size, dtype=np.int64)
            for units, table in current:
                index = np.zeros(masks.size, dtype=np.uint64)
                for k, u in enumerate(units):
                    index |= (masks >> u & 1) << k
                hits += table[index]
        # the mean of 0/1 values is an integer count over the row count, as
        # np.mean computes it
        return hits / labels.size

    return char_fn


def _pass_hits(suffix: list[Layer], gemm: bool, x: np.ndarray, labels: np.ndarray,
               masks: np.ndarray, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Hits among rows ``x`` of the prefix outputs, against ``labels``,
    under each of ``masks``, running the ``suffix`` layers a block of
    coalitions at a time (as one GEMM per block where ``gemm``).

    ``x`` holds every unit's outputs, or those of units ``cols`` only (a
    cover-set pass, GEMM route only).
    """
    n_cols = x.shape[1]
    spatial = math.prod(x.shape[2:])
    widths = [layer.out_units * (spatial if layer.kind == "conv2d" else 1) for layer in suffix]
    if gemm:
        first = suffix[0].weights if cols is None else suffix[0].weights[:, cols]
        # C order, as the (out, block, units) stack must be for its GEMM view
        weights = np.ascontiguousarray(first)[:, None, :]
        # the weight stack, the products, every later layer's output and
        # the hit counts' arrays hold at most _BLOCK_ELEMENTS values together
        per_coalition = widths[0] * n_cols + len(x) * (sum(widths) + 2)
    else:
        weights = None
        # one coalition at a time: every (width, block, rows) array holds
        # at most _BLOCK_ELEMENTS values
        per_coalition = max(len(x), n_cols) * max(widths or [n_cols])
    # unless one coalition alone needs more
    block = max(1, _BLOCK_ELEMENTS // per_coalition)
    if cols is None:
        cols = np.arange(n_cols, dtype=np.uint64)
    out = np.empty(masks.size, dtype=np.int64)
    for start in range(0, masks.size, block):
        members = ((masks[start:start + block, None] >> cols) & 1).astype(bool)
        out[start:start + members.shape[0]] = _hit_counts(
            _block_logits(suffix, x, members, weights), labels, members.shape[0]
        )
    return out


def _block_logits(suffix: list[Layer], x: np.ndarray, members: np.ndarray,
                  weights: Optional[np.ndarray]) -> np.ndarray:
    """Logits of rows ``x`` under a ``(B, units)`` block of coalitions,
    class-major: ``(classes, B * rows)``, coalition by coalition.

    ``weights`` is the first suffix layer's ``(out, 1, units)`` weights for
    the GEMM route, ``None`` to run every coalition on its own.
    """
    if weights is not None:
        stack = np.where(members, weights, 0.0)
        z = stack.reshape(-1, members.shape[1]) @ x.T
        y = _finish_unit_major(suffix[0], z.reshape(suffix[0].out_units, -1))
        for layer in suffix[1:]:
            y = _finish_unit_major(layer, layer.weights @ y)
        return y
    keep = members.reshape(members.shape + (1,) * (x.ndim - 2))
    logits = []
    for k in keep:
        y = np.where(k, x, 0.0)
        for layer in suffix:
            y = _apply_layer(layer, y)
        logits.append(_global_average_pool(y).T)
    return np.stack(logits, axis=1).reshape(len(logits[0]), -1)


def _finish_unit_major(layer: Layer, z: np.ndarray) -> np.ndarray:
    """Bias, normalization and activation of a dense layer's products
    ``z``, one row per unit, which are overwritten."""
    z += layer.bias[:, None]
    return _activate(layer, z, 0)


def _hit_counts(by_class: np.ndarray, labels: np.ndarray, n_coalitions: int) -> np.ndarray:
    """Correct predictions per coalition of class-major
    ``(classes, coalitions * rows)`` logits, against ``labels`` (one per
    row).

    The prediction is the first maximum, as ``np.argmax`` picks it, found
    with a few contiguous passes per class.
    """
    best = by_class[0].copy()
    # the narrowest type that holds the classes, as these passes run on
    # every row of every coalition; it meets the int64 labels by value, so
    # a label no class takes never matches
    preds = np.zeros(best.size, dtype=np.min_scalar_type(by_class.shape[0] - 1))
    above = np.empty_like(preds)
    for c in range(1, by_class.shape[0]):
        np.greater(by_class[c], best, out=above)
        # c exceeds every earlier class: the max takes it where it beat best
        np.maximum(preds, np.multiply(above, c, out=above), out=preds)
        np.maximum(best, by_class[c], out=best)
    # np.maximum propagates NaN, so a NaN in best marks a row whose logits
    # hold one; np.argmax picks the first NaN there, the comparisons do not
    if np.isnan(best).any():
        preds = np.argmax(by_class, axis=0)
    hits = preds.reshape(n_coalitions, -1) == labels
    return np.count_nonzero(hits, axis=1)


def make_accuracy_game(spec: ModelSpec, data: LabeledDataset) -> Game:
    return Game(spec.n_players, accuracy_char_fn(spec, data))


# ---------------------------------------------------------------------------
# Training and fixtures
# ---------------------------------------------------------------------------


def make_blobs_dataset(
    seed: int = 0,
    n_per_class: int = 100,
    n_classes: int = 3,
    spread: float = 0.9,
    radius: float = 3.0,
) -> LabeledDataset:
    """Balanced 2-D Gaussian blobs, one cluster per class, fully seeded."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    inputs = np.concatenate(
        [center + spread * rng.standard_normal((n_per_class, 2)) for center in centers]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(inputs=inputs, labels=labels)


def check_hidden(hidden: Sequence[int]) -> tuple[int, ...]:
    """The trainer's hidden widths: at most two layers of 1 to 32 units."""
    hidden = tuple(int(h) for h in hidden)
    if len(hidden) > 2:
        raise ValueError("at most 2 hidden layers (3 layers total)")
    if any(h < 1 or h > 32 for h in hidden):
        raise ValueError("hidden layer widths must be in [1, 32]")
    return hidden


def train_toy_model(
    hidden: Sequence[int],
    data: LabeledDataset,
    epochs: int = 200,
    lr: float = 0.1,
    seed: int = 0,
) -> ModelSpec:
    """Train a small dense classifier with full-batch gradient descent.

    At most two hidden layers of at most 32 units each (three layers total
    counting the head).  Gradients are hand written; softmax cross-entropy
    loss.  Raises :class:`TrainingDivergedError` if the loss goes non-finite.
    """
    hidden = check_hidden(hidden)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    x = np.asarray(data.inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("trainer expects flat feature vectors")
    y = data.labels
    classes = int(y.max()) + 1
    m = x.shape[0]

    rng = np.random.default_rng(seed)
    dims = [x.shape[1], *hidden, classes]
    weights = [
        rng.standard_normal((dims[i + 1], dims[i])) * np.sqrt(2.0 / dims[i])
        for i in range(len(dims) - 1)
    ]
    biases = [np.zeros(d) for d in dims[1:]]
    onehot = np.zeros((m, classes))
    onehot[np.arange(m), y] = 1.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            # forward
            activations = [x]
            pre = []
            for li, (w, b) in enumerate(zip(weights, biases)):
                z = activations[-1] @ w.T + b
                pre.append(z)
                activations.append(np.maximum(z, 0.0) if li < len(weights) - 1 else z)
            logits = activations[-1]
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            loss = -np.mean(np.log(probs[np.arange(m), y] + 1e-300))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch
                )
            # backward
            delta = (probs - onehot) / m
            for li in range(len(weights) - 1, -1, -1):
                grad_w = delta.T @ activations[li]
                grad_b = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ weights[li]) * (pre[li - 1] > 0)
                weights[li] = weights[li] - lr * grad_w
                biases[li] = biases[li] - lr * grad_b

    layers = [
        Layer(kind="dense", weights=w, bias=b, activation="relu")
        for w, b in zip(weights[:-1], biases[:-1])
    ]
    layers.append(
        Layer(kind="dense", weights=weights[-1], bias=biases[-1], activation="softmax-logits")
    )
    return ModelSpec(layers=layers, prunable_layer=0)


def split_dataset(
    data: LabeledDataset,
    fractions: tuple[float, float, float],
    seed: int = 0,
) -> dict[str, Optional[LabeledDataset]]:
    """Shuffle deterministically and partition into train/val/test parts.

    Fractions are normalized; empty parts come back as ``None``.
    """
    fracs = np.asarray(fractions, dtype=np.float64)
    if fracs.size != 3 or np.any(fracs < 0) or fracs.sum() <= 0:
        raise ValueError("fractions must be three non-negative numbers, not all zero")
    fracs = fracs / fracs.sum()
    m = data.size
    perm = np.random.default_rng(seed).permutation(m)
    n_train = int(np.floor(fracs[0] * m))
    n_val = int(np.floor(fracs[1] * m))
    pieces = {
        "train": perm[:n_train],
        "val": perm[n_train:n_train + n_val],
        "test": perm[n_train + n_val:],
    }
    out: dict[str, Optional[LabeledDataset]] = {}
    for name, idx in pieces.items():
        out[name] = (
            LabeledDataset(inputs=data.inputs[idx], labels=data.labels[idx])
            if idx.size
            else None
        )
    return out
