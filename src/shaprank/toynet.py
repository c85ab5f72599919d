"""A tiny feed-forward network whose units can be masked per coalition.

The point of this module is to turn a network layer into a coalition game:
the players are the units (dense) or output channels (conv), and the payoff
of a coalition is the classification accuracy of the network with every
non-member zeroed out.  A masked unit contributes exactly zero downstream,
including through any supplied normalization statistics, because the zeroing
happens on the layer's final output.

Also included: a balanced synthetic blob dataset and a seeded split of a
dataset into parts.  The files of models and datasets are read and written
by :mod:`shaprank.formats`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .games import Game, as_masks

ACTIVATIONS = ("relu", "identity", "softmax-logits")
# about this many values per block of coalitions in the accuracy payoff: in
# all the float32 arrays of a screened block together (512 KiB), in each
# float64 array of a recomputation (1 MiB)
_BLOCK_ELEMENTS = 1 << 17
# float32's unit roundoff, and a bound on the absolute error of a float32
# conversion or product in the subnormal range
_U32 = 2.0 ** -24
_ETA32 = 2.0 ** -149
# the screened route takes nets whose parameters and value bounds lie within
# these magnitudes (or are zero): far from float32's overflow, and its
# parameters clear of the subnormal range
_TINY32, _HUGE32 = 2.0 ** -100, 2.0 ** 64


@dataclass
class Normalization:
    """Per-unit affine normalization applied between the linear op and the
    activation (inference only; statistics are supplied, never trained)."""

    mean: np.ndarray
    var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    @property
    def scale(self) -> np.ndarray:
        return self.gamma / np.sqrt(self.var + self.eps)

    def apply(self, z: np.ndarray, channel_axis: int) -> np.ndarray:
        shape = [1] * z.ndim
        shape[channel_axis] = -1
        scale = self.scale.reshape(shape)
        return (z - self.mean.reshape(shape)) * scale + self.beta.reshape(shape)


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
            # NaN passes, as NaN parameters do elsewhere
            if np.any(self.norm.var + self.norm.eps <= 0):
                raise ValueError("norm var + eps must be positive")

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


class _Pass(NamedTuple):
    """The rows that one hit-count pass evaluates, and the prunable units
    whose columns it reads: a cover set's rows and units, or every row and
    unit, on a direct call; a group's rows and active units when the
    tables are built.

    On the per-coalition route ``x`` holds the rows' float64 prefix outputs
    over every unit.  On the screened route ``rows`` are the rows' indices,
    sorted by label (stable) and without those of a label that no class
    takes, which never hit; ``slices`` holds each label's
    ``(label, other classes, start, stop)`` among them.  ``x`` is their float32
    ``(cols + 1, rows)`` block, whose last row of ones meets the first
    suffix layer's bias as the last column of ``first``, its float32
    ``(out, cols + 1)`` weights; ``bounds`` holds the rows' thresholds.
    """

    labels: np.ndarray
    cols: np.ndarray
    x: np.ndarray
    rows: Optional[np.ndarray] = None
    first: Optional[np.ndarray] = None
    bounds: Optional[np.ndarray] = None
    slices: tuple = ()


def accuracy_char_fn(spec: ModelSpec, data: LabeledDataset) -> "AccuracyPayoff":
    """The accuracy payoff of ``spec``'s prunable layer on ``data``."""
    return AccuracyPayoff(spec, data)


class AccuracyPayoff:
    """Characteristic function of a model game: called on a 1-D ``uint64``
    array of coalition bitmasks, it returns a float64 array of as many
    accuracies.  README's "Notes on scale" describes its routes.

    ``codes`` holds each row group's active units as a bitmask, ascending,
    and ``group_rows`` its row count.
    """

    def __init__(self, spec: ModelSpec, data: LabeledDataset):
        prefix = np.asarray(data.inputs, dtype=np.float64)
        for layer in spec.layers[: spec.prunable_layer + 1]:
            prefix = _apply_layer(layer, prefix)
        self.layers = layers = spec.layers[spec.prunable_layer + 1:]
        if not layers or layers[0].kind == "dense":
            # zeroing a channel commutes with pooling it
            prefix = _global_average_pool(prefix)
        self.prefix, self.labels = prefix, data.labels
        n_rows, n_units = prefix.shape[:2]
        self.bits = np.arange(n_units, dtype=np.uint64)

        # one uint64 code per row: its active units (NaN != 0, so NaN counts)
        active = (prefix != 0).reshape(n_rows, n_units, -1).any(axis=2)
        self.codes, self.group_of_row, self.group_rows = np.unique(
            np.bitwise_or.reduce(active << self.bits, axis=1), return_inverse=True,
            return_counts=True)
        self.row_codes = self.codes[self.group_of_row]
        units = [int(code).bit_count() for code in self.codes.tolist()]
        self.table_entries = sum(1 << a for a in units)
        self.table_cost = sum(int(rows) << a for rows, a in zip(self.group_rows.tolist(), units))
        self._tables = self._passes = self._bounds = None

        self.screened = _screenable(layers, prefix)
        # bounds and float32 blocks are built this many rows at a time, so
        # that each float64 array they need holds an eighth of
        # _BLOCK_ELEMENTS values
        widths = [n_units] + [layer.out_units for layer in layers]
        self._step = max(1, _BLOCK_ELEMENTS // (8 * max(widths)))
        if self.screened:
            # each layer's float32 weights, bias column (none for the
            # first, whose bias is a GEMM term, or for a zero one: adding
            # zero changes nothing), normalization columns and ReLU flag
            self.params32 = [
                (layer.weights.astype(np.float32),
                 layer.bias.astype(np.float32)[:, None] if i and layer.bias.any() else None,
                 layer.norm and tuple(v.astype(np.float32)[:, None] for v in
                                      (layer.norm.mean, layer.norm.scale, layer.norm.beta)),
                 layer.activation == "relu")
                for i, layer in enumerate(layers)
            ]
            # the prediction of a row whose present units are all inactive
            self.bias_class = int(np.argmax(_fixed_order_logits(layers, np.zeros((1, n_units)))))

    def __call__(self, masks) -> np.ndarray:
        masks = as_masks(masks, self.bits.size)
        tables = self._tables
        if (tables is None and self.table_entries <= masks.size
                and self.table_cost <= self.labels.size * masks.size):
            tables = self.tables()
        if tables is None:
            # built on the first direct call, never for a payoff that a warm
            # cache serves; published whole, as the tables are
            passes = self._passes = self._passes or self._direct_passes()
            hits = sum(self._pass_hits(p, masks) for p in passes)
        else:
            hits = np.zeros(masks.size, dtype=np.int64)
            for units, table in tables:
                index = np.zeros(masks.size, dtype=np.uint64)
                for k, u in enumerate(units):
                    index |= (masks >> u & 1) << k
                hits += table[index]
        # the mean of 0/1 values is an integer count over the row count, as
        # np.mean computes it
        return hits / self.labels.size

    def tables(self) -> list:
        """For each group of ``codes``, in order, its active units
        (ascending) and its rows' hit counts under every coalition of them,
        bit k of an index being unit ``units[k]``.  Built on the first call
        and published whole: a concurrent call sees every table or none."""
        if self._tables is None:
            built = []
            by_group = np.argsort(self.group_of_row, kind="stable")
            groups = np.split(by_group, np.cumsum(self.group_rows)[:-1])
            for code, rows in zip(self.codes.tolist(), groups):
                units = [u for u in range(self.bits.size) if code >> u & 1]
                # coalition j of the group's units: bit k of j is unit units[k]
                j = np.arange(1 << len(units), dtype=np.uint64)
                subsets = np.zeros_like(j)
                for k, u in enumerate(units):
                    subsets |= (j >> k & 1) << u
                built.append((units, self._pass_hits(self._make_pass(rows, self.bits[units]),
                                                     subsets)))
            self._tables = built
        return self._tables

    def _direct_passes(self) -> list:
        """The direct path's passes: one per cover set, or one of every row
        and unit."""
        bits, n_rows = self.bits, self.labels.size
        if not self.screened:
            return [self._make_pass(None, bits)]
        # largest active sets first, then by code: each group joins the
        # first cover set that holds its active set, or starts one
        covers = []
        cover_of_group = np.empty(self.codes.size, dtype=np.intp)
        for g in sorted(range(self.codes.size), key=lambda g: -int(self.codes[g]).bit_count()):
            code = int(self.codes[g])
            cover_of_group[g] = next(
                (i for i, cover in enumerate(covers) if code & ~cover == 0), len(covers)
            )
            if cover_of_group[g] == len(covers):
                covers.append(code)
        cover_of_row = cover_of_group[self.group_of_row]
        # a set of fewer than rows / units rows saves less than its own pass
        # costs: such sets share one pass, over the union of their units, so
        # there are at most units + 1 passes
        small = np.flatnonzero(np.bincount(cover_of_row) * bits.size < n_rows)
        for i in small[1:].tolist():
            covers[small[0]] |= covers[i]
        merged = np.arange(len(covers))
        merged[small] = small[:1]
        cover_of_row = merged[cover_of_row]
        blocks = [
            (np.flatnonzero(cover_of_row == i), bits[np.uint64(covers[i]) >> bits & 1 == 1])
            for i in np.flatnonzero(np.bincount(cover_of_row)).tolist()
        ]
        # no saving (a dense net), or no column at all (every row inactive)
        if not 0 < sum(rows.size * cols.size for rows, cols in blocks) < n_rows * bits.size:
            return [self._make_pass(None, bits)]
        return [self._make_pass(rows, cols) for rows, cols in blocks]

    def _row_bounds(self) -> np.ndarray:
        """Every row's threshold, computed on the first call."""
        if self._bounds is None:
            self._bounds = np.concatenate([
                _thresholds(self.layers, self.prefix[start:start + self._step])
                for start in range(0, len(self.prefix), self._step)
            ])
        return self._bounds

    def _make_pass(self, rows: Optional[np.ndarray], cols: np.ndarray) -> _Pass:
        """The pass of the prefix rows ``rows`` (every row where None) over
        the columns of units ``cols``."""
        if not self.screened:
            if rows is None:
                return _Pass(self.labels, cols, self.prefix)
            return _Pass(self.labels[rows], cols, self.prefix[rows])
        if rows is None:
            rows = np.arange(self.labels.size)
        rows = rows[np.argsort(self.labels[rows], kind="stable")]
        n_classes = self.layers[-1].out_units
        edges = np.searchsorted(self.labels[rows], np.arange(n_classes + 1))
        rows = rows[edges[0]:edges[-1]]
        slices = tuple((label, [c for c in range(n_classes) if c != label],
                        int(start - edges[0]), int(stop - edges[0]))
                       for label, (start, stop) in enumerate(zip(edges[:-1], edges[1:]))
                       if stop > start)
        k = cols.size
        x = np.empty((k + 1, rows.size), dtype=np.float32)
        for start in range(0, rows.size, self._step):
            x[:k, start:start + self._step] = self.prefix[np.ix_(rows[start:start + self._step],
                                                                 cols)].T
        x[k] = 1.0
        first = np.empty((self.layers[0].out_units, k + 1), dtype=np.float32)
        first[:, :k] = self.layers[0].weights[:, cols]
        first[:, k] = self.layers[0].bias
        return _Pass(self.labels[rows], cols, x, rows, first, self._row_bounds()[rows], slices)

    def _pass_hits(self, p: _Pass, masks: np.ndarray) -> np.ndarray:
        """Hits among the rows of pass ``p`` under each of ``masks``, which
        depend only on each mask's restriction to the pass's units: each
        distinct restriction runs once.  Restrictions that are distinct and
        ascending already (one mask, a table build's coalitions) run as the
        masks come."""
        restricted = masks & np.bitwise_or.reduce(np.uint64(1) << p.cols)
        if restricted.size > 1 and not np.all(restricted[1:] > restricted[:-1]):
            distinct, inverse = np.unique(restricted, return_inverse=True)
            return self._run_pass(p, distinct)[inverse]
        return self._run_pass(p, masks)

    def _run_pass(self, p: _Pass, masks: np.ndarray) -> np.ndarray:
        """Hits among the rows of pass ``p`` under each of ``masks``, a block
        of coalitions at a time."""
        if not self.screened:
            return _per_coalition_hits(self.layers, p.x, p.labels, masks)
        n_rows = p.labels.size
        out = np.zeros(masks.size, dtype=np.int64)
        if not n_rows:
            return out
        first = p.first
        width, k1 = first.shape
        n_classes = self.layers[-1].out_units
        # the weight stack, the products, every later layer's output and the
        # margins' arrays hold at most _BLOCK_ELEMENTS values together, unless
        # one coalition alone needs more
        per_coalition = width * k1 + n_rows * (sum(layer.out_units for layer in self.layers) + 2)
        block = max(1, _BLOCK_ELEMENTS // per_coalition)
        col_bits = np.uint64(1) << p.cols
        # the bias column is present in every coalition
        present = np.ones((min(block, masks.size), k1), dtype=bool)
        for start in range(0, masks.size, block):
            chunk = masks[start:start + block]
            b = chunk.size
            np.not_equal(chunk[:, None] & col_bits, 0, out=present[:b, :-1])
            stack = first[:, None, :] * present[:b]
            y = self._finish32((stack.reshape(-1, k1) @ p.x).reshape(width, -1))
            margins = _margins(y.reshape(n_classes, b, n_rows), p.slices)
            out[start:start + b] = np.add.reduce(margins > p.bounds, axis=1)
            unsure = np.abs(margins, out=margins) <= p.bounds
            if unsure.any():
                coalition, at = np.nonzero(unsure)
                hits = self._uncertain_hits(p.rows[at], chunk[coalition])
                out[start:start + b] += np.bincount(coalition[hits], minlength=b)
        return out

    def _finish32(self, y: np.ndarray) -> np.ndarray:
        """The screened route from the first layer's products ``y``,
        ``(units, coalitions * rows)``, which are overwritten, to its
        logits."""
        for i, (weights, bias, norm, relu) in enumerate(self.params32):
            if i:
                y = weights @ y
            if bias is not None:
                y += bias
            if norm is not None:
                mean, scale, beta = norm
                y -= mean
                y *= scale
                y += beta
            if relu:
                np.maximum(y, 0.0, out=y)
        return y

    def _uncertain_hits(self, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Whether row ``rows[i]`` hits under ``masks[i]``, for pairs the
        screen leaves uncertain: the bias path's prediction where the mask
        holds none of the row's active units, else a fixed-order float64
        one."""
        labels = self.labels[rows]
        hits = labels == self.bias_class
        redo = np.flatnonzero(masks & self.row_codes[rows])
        # one (pairs, out, in) product array at a time holds at most
        # _BLOCK_ELEMENTS values
        step = max(1, _BLOCK_ELEMENTS // max(layer.weights.size for layer in self.layers))
        for start in range(0, redo.size, step):
            at = redo[start:start + step]
            present = (masks[at, None] >> self.bits & 1).astype(bool)
            x = np.where(present, self.prefix[rows[at]], 0.0)
            hits[at] = np.argmax(_fixed_order_logits(self.layers, x), axis=1) == labels[at]
        return hits


def _screenable(layers: list[Layer], prefix: np.ndarray) -> bool:
    """Whether the screened route's bounds hold for ``layers`` on
    ``prefix``: dense layers whose every weight, bias and normalization
    mean, scale and beta is zero or of magnitude in ``[_TINY32,
    _HUGE32]``, and finite prefix outputs whose values stay within
    ``_HUGE32`` through every layer (bounded by the largest row sum of
    ``|weights|`` times the largest input, plus the largest ``|bias|``)."""
    if not layers or layers[0].kind != "dense" or not np.isfinite(prefix).all():
        return False
    bound = float(np.abs(prefix).max(initial=0.0))
    for layer in layers:
        norm = layer.norm
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = [layer.weights, layer.bias] + ([] if norm is None else
                                                   [norm.mean, norm.scale, norm.beta])
        for term in terms:
            size = np.abs(term)
            if not ((size == 0) | ((size >= _TINY32) & (size <= _HUGE32))).all():
                return False
        top = [float(np.abs(term).max(initial=0.0)) for term in terms[1:]]
        bound = float(np.abs(layer.weights).sum(axis=1).max(initial=0.0)) * bound + top[0]
        if norm is not None:
            bound = top[2] * (bound + top[1]) + top[3]
        if not bound <= _HUGE32:
            return False
    return True


def _gamma(n: int) -> float:
    """Higham's ``gamma_n`` for float32: ``n u / (1 - n u)``."""
    return n * _U32 / (1.0 - n * _U32)


def _thresholds(layers: list[Layer], prefix: np.ndarray) -> np.ndarray:
    """Each row's threshold ``T``, as float32: twice the largest bound, over
    its logits, on a float32 logit's distance from exact arithmetic under
    any coalition.

    ``a`` bounds the exact values' magnitudes and ``e`` their float32
    errors, layer by layer (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1, propagated as in interval bound propagation).
    A dense layer of ``K`` inputs sums ``K`` products and its bias with its
    parameters rounded to float32, within ``gamma_{K+3}``; a normalization
    is one more affine map, within ``gamma_5``; ``_ETA32`` per product or
    conversion covers float32's subnormal range; ReLU leaves both bounds as
    they are.  Masking only removes terms from these sums of non-negative
    terms, so they hold for every coalition and every subset of columns.
    The float64 arithmetic here is rounded up by the factor ``1 + 2**-20``,
    which also covers the rounding of the float32 margin itself.
    """
    a = np.abs(prefix.T)
    e = _U32 * a + _ETA32
    for layer in layers:
        weights, bias, k = np.abs(layer.weights), np.abs(layer.bias)[:, None], layer.in_units
        wa, we = weights @ a, weights @ e
        e = we + _gamma(k + 3) * (wa + we + bias) + (k + 3) * _ETA32
        a = wa + bias
        if layer.norm is not None:
            mean, scale, beta = (np.abs(v)[:, None] for v in
                                 (layer.norm.mean, layer.norm.scale, layer.norm.beta))
            e = scale * e + _gamma(5) * (scale * (a + e + mean) + beta) + 2 * _ETA32
            a = scale * (a + mean) + beta
    t = (2.0 * (1.0 + 2.0 ** -20)) * e.max(axis=0)
    t32 = t.astype(np.float32)
    return np.where(t32 < t, np.nextafter(t32, np.float32(np.inf)), t32)


def _fixed_order_logits(layers: list[Layer], y: np.ndarray) -> np.ndarray:
    """Float64 logits ``(rows, classes)`` of dense ``layers`` on the
    ``(rows, units)`` inputs ``y``, each dot product summed by
    ``np.add.reduce`` over every input in one fixed order, never by BLAS."""
    for layer in layers:
        z = np.add.reduce(y[:, None, :] * layer.weights, axis=2)
        z += layer.bias
        y = _activate(layer, z, 1)
    return y


def _margins(logits: np.ndarray, slices: tuple) -> np.ndarray:
    """Each row's own logit minus its largest other one, ``(B, rows)``,
    from class-major ``(classes, B, rows)`` logits of rows sorted by label
    into ``slices``: ``(label, other classes, start, stop)``."""
    margins = np.empty(logits.shape[1:], dtype=logits.dtype)
    for label, others, start, stop in slices:
        block = logits[:, :, start:stop]
        best = margins[:, start:stop]
        if not others:
            # a one-class head predicts its class on every row
            best.fill(np.inf)
            continue
        np.maximum(block[others[0]], block[others[-1]], out=best)
        for c in others[1:-1]:
            np.maximum(best, block[c], out=best)
        np.subtract(block[label], best, out=best)
    return margins


def _per_coalition_hits(suffix: list[Layer], x: np.ndarray, labels: np.ndarray,
                        masks: np.ndarray) -> np.ndarray:
    """Hits among rows ``x`` of the prefix outputs, against ``labels``,
    under each of ``masks``, running the ``suffix`` layers in float64 once
    per coalition.  The prediction is ``np.argmax``'s: the first maximum,
    or the first NaN."""
    # bit u of a mask keeps unit (or channel) u, at every spatial position
    bits = np.arange(x.shape[1], dtype=np.uint64).reshape((-1,) + (1,) * (x.ndim - 2))
    out = np.empty(masks.size, dtype=np.int64)
    for i, mask in enumerate(masks):
        y = np.where(mask >> bits & 1 == 1, x, 0.0)
        for layer in suffix:
            y = _apply_layer(layer, y)
        out[i] = np.count_nonzero(np.argmax(_global_average_pool(y), axis=1) == labels)
    return out


def make_accuracy_game(spec: ModelSpec, data: LabeledDataset) -> Game:
    return Game(spec.n_players, accuracy_char_fn(spec, data))


# ---------------------------------------------------------------------------
# Datasets
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
