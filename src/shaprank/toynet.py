"""A tiny feed-forward network whose units can be masked per coalition.

The point of this module is to turn a network layer into a coalition game:
the players are the units (dense) or output channels (conv), and the payoff
of a coalition is the classification accuracy of the network with every
non-member zeroed out.  A masked unit contributes exactly zero downstream,
including through any supplied normalization statistics, because the zeroing
happens on the layer's final output.

Also included: a deliberately small trainer (hand-written gradients, plain
full-batch gradient descent) so the repository can generate its own model
fixtures, a balanced synthetic blob dataset, and file formats for models and
datasets.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError, TrainingDivergedError
from .games import Coalition, Game

ACTIVATIONS = ("relu", "identity", "softmax-logits")
MODEL_FORMAT = "shaprank-model-v1"
INLINE_PARAM_LIMIT = 8192
# about this many float64 per intermediate array of a block of coalitions
# in the accuracy payoff (1 MiB)
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
class MaskedModel:
    """A model plus the coalition of prunable units that stays switched on."""

    spec: ModelSpec
    mask: Coalition

    def __post_init__(self):
        if self.mask.n_players != self.spec.n_players:
            raise ValueError(
                f"mask covers {self.mask.n_players} units, layer has {self.spec.n_players}"
            )


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


def _zero_masked(x: np.ndarray, mask: Coalition) -> np.ndarray:
    off = [i for i in range(mask.n_players) if not mask.contains(i)]
    if off:
        x = x.copy()
        x[:, off] = 0.0
    return x


def forward_batch(model: MaskedModel, inputs: np.ndarray) -> np.ndarray:
    """Final-layer outputs for a batch, with masked units zeroed."""
    x = np.asarray(inputs, dtype=np.float64)
    for idx, layer in enumerate(model.spec.layers):
        x = _apply_layer(layer, x)
        if idx == model.spec.prunable_layer:
            x = _zero_masked(x, model.mask)
    return x


def accuracy(model: MaskedModel, data: LabeledDataset) -> float:
    logits = _global_average_pool(forward_batch(model, data.inputs))
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def accuracy_char_fn(spec: ModelSpec, data: LabeledDataset):
    """Characteristic function: coalition bitmasks -> accuracy fractions.

    Takes a ``uint64`` array of bitmasks and returns a float64 array; called
    with one int it returns a float.  The layers up to and including the
    prunable one are evaluated once and reused for every coalition; only the
    downstream layers run, for a block of coalitions at a time.

    When the downstream layers are dense (and the prunable layer's outputs
    and the first downstream layer's weights are finite), the first of them is one GEMM per block against a stack of
    copies of its weights, each with the absent units' columns zeroed.
    Every term of each dot product is then the same ``output * weight`` or a
    zero as with the absent outputs zeroed instead, in the same order, so
    the payoffs are bit-identical to evaluating one mask at a time, given a
    BLAS that sums each dot product in one order whatever the matrix shapes
    (``tests/test_batched_payoff.py`` checks this).  Later
    layers run on every row of the block at once.  Otherwise (no downstream
    layer, a conv one, or non-finite outputs or weights, where ``inf * 0``
    would give NaN) the absent outputs are zeroed and the downstream layers run once
    per coalition of the block.

    The block size follows from the data shape alone, never from the
    number of masks requested, so no payoff depends on how masks are
    batched.  Suitable for :class:`~shaprank.games.Game` with
    ``batched=True``.
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
    n_classes = spec.layers[-1].out_units
    n_rows, n_units = prefix.shape[:2]
    spatial = int(np.prod(prefix.shape[2:]))
    # coalitions per block: every (width, block, rows) intermediate and the
    # (out, block, units) weight stack hold at most _BLOCK_ELEMENTS values,
    # unless one coalition alone needs more
    widths = [layer.out_units * (spatial if layer.kind == "conv2d" else 1) for layer in suffix]
    block = max(1, _BLOCK_ELEMENTS // (max(n_rows, n_units) * max(widths or [n_units])))
    bits = np.arange(n_units, dtype=np.uint64)

    def block_logits(members: np.ndarray) -> np.ndarray:
        """Logits of a ``(B, units)`` block of coalitions, class-major:
        ``(classes, B * rows)``, coalition by coalition."""
        if gemm:
            first = suffix[0]
            weights = np.where(members, first.weights[:, None, :], 0.0)
            z = weights.reshape(-1, n_units) @ prefix.T
            x = _finish_unit_major(first, z.reshape(first.out_units, -1))
            for layer in suffix[1:]:
                x = _finish_unit_major(layer, layer.weights @ x)
            return x
        keep = members.reshape(members.shape + (1,) * (prefix.ndim - 2))
        logits = []
        for k in keep:
            x = np.where(k, prefix, 0.0)
            for layer in suffix:
                x = _apply_layer(layer, x)
            logits.append(_global_average_pool(x).T)
        return np.stack(logits, axis=1).reshape(n_classes, -1)

    def char_fn(masks):
        masks = np.asarray(masks, dtype=np.uint64)
        flat = masks.ravel()
        if flat.size and int(flat.max()) >> n_units:
            raise ValueError(f"mask {int(flat.max()):#x} has bits above unit {n_units - 1}")
        out = np.empty(flat.size)
        for start in range(0, flat.size, block):
            members = ((flat[start:start + block, None] >> bits) & 1).astype(bool)
            out[start:start + members.shape[0]] = _accuracies(
                block_logits(members), data.labels, members.shape[0]
            )
        return float(out[0]) if masks.ndim == 0 else out.reshape(masks.shape)

    return char_fn


def _finish_unit_major(layer: Layer, z: np.ndarray) -> np.ndarray:
    """Bias, normalization and activation of a dense layer's products
    ``z``, one row per unit, which are overwritten."""
    z += layer.bias[:, None]
    return _activate(layer, z, 0)


def _accuracies(by_class: np.ndarray, labels: np.ndarray, n_coalitions: int) -> np.ndarray:
    """Accuracy per coalition of class-major ``(classes, coalitions * rows)``
    logits.

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
    # the mean of 0/1 values is an integer count over the row count, as
    # np.mean computes it
    return np.count_nonzero(hits, axis=1) / labels.size


def make_accuracy_game(spec: ModelSpec, data: LabeledDataset) -> Game:
    return Game(spec.n_players, accuracy_char_fn(spec, data), batched=True)


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


def train_toy_model(
    hidden: Sequence[int],
    data: LabeledDataset,
    epochs: int = 200,
    lr: float = 0.1,
    seed: int = 0,
    n_classes: Optional[int] = None,
) -> ModelSpec:
    """Train a small dense classifier with full-batch gradient descent.

    At most two hidden layers of at most 32 units each (three layers total
    counting the head).  Gradients are hand written; softmax cross-entropy
    loss.  Raises :class:`TrainingDivergedError` if the loss goes non-finite.
    """
    hidden = tuple(int(h) for h in hidden)
    if len(hidden) > 2:
        raise ValueError("at most 2 hidden layers (3 layers total)")
    if any(h < 1 or h > 32 for h in hidden):
        raise ValueError("hidden layer widths must be in [1, 32]")
    x = np.asarray(data.inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("trainer expects flat feature vectors")
    y = data.labels
    classes = int(n_classes if n_classes is not None else y.max() + 1)
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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_dataset_csv(data: LabeledDataset, path) -> None:
    """Rows are ``x0,...,xD-1,label``; image inputs are flattened."""
    flat = data.inputs.reshape(data.size, -1)
    header = ",".join(f"x{i}" for i in range(flat.shape[1])) + ",label"
    lines = [header]
    for row, label in zip(flat, data.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset_csv(path) -> LabeledDataset:
    text = Path(path).read_text(encoding="utf-8").strip()
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[-1] != "label" or not all(c.startswith("x") for c in header[:-1]):
        raise FormatError(f"{path}: expected header 'x0,...,label'")
    if len(lines) == 1:
        raise FormatError(f"{path}: header but no samples")
    n_features = len(header) - 1
    inputs, labels = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_features + 1:
            raise FormatError(f"{path}:{ln}: expected {n_features + 1} columns")
        try:
            inputs.append([float(v) for v in parts[:-1]])
            labels.append(int(parts[-1]))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from exc
    return LabeledDataset(inputs=np.array(inputs), labels=np.array(labels))


_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def load_idx(path) -> np.ndarray:
    """Read one array in the classic IDX byte format (e.g. MNIST files)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[0] != 0 or raw[1] != 0:
        raise FormatError(f"{path}: not an IDX file")
    type_code, ndim = raw[2], raw[3]
    if type_code not in _IDX_DTYPES:
        raise FormatError(f"{path}: unsupported IDX type byte {type_code:#x}")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    dtype = _IDX_DTYPES[type_code]
    expected = int(np.prod(dims)) * dtype.itemsize
    if len(raw) - header_end != expected:
        raise FormatError(f"{path}: payload size mismatch")
    return np.frombuffer(raw, dtype=dtype, offset=header_end).reshape(dims)


def load_idx_dataset(images_path, labels_path) -> LabeledDataset:
    """Pair IDX image and label files; unsigned-byte images are scaled to [0, 1]."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise FormatError("IDX image and label files do not align")
    inputs = images.astype(np.float64)
    if images.dtype == np.dtype(">u1"):
        inputs /= 255.0
    if inputs.ndim == 3:  # (M, H, W) -> single-channel (M, 1, H, W)
        inputs = inputs[:, None, :, :]
    return LabeledDataset(inputs=inputs, labels=labels.astype(np.int64))


def _norm_to_json(norm: Optional[Normalization]):
    if norm is None:
        return None
    return {
        "mean": norm.mean.tolist(),
        "var": norm.var.tolist(),
        "gamma": norm.gamma.tolist(),
        "beta": norm.beta.tolist(),
        "eps": norm.eps,
    }


def _norm_from_json(doc) -> Optional[Normalization]:
    if doc is None:
        return None
    return Normalization(
        mean=np.array(doc["mean"], dtype=np.float64),
        var=np.array(doc["var"], dtype=np.float64),
        gamma=np.array(doc["gamma"], dtype=np.float64),
        beta=np.array(doc["beta"], dtype=np.float64),
        eps=float(doc.get("eps", 1e-5)),
    )


def write_flat_binary(tensors: Sequence[np.ndarray], path) -> None:
    """Little-endian float32 tensors behind a one-line JSON header."""
    header = json.dumps(
        {"dtype": "f32le", "shapes": [list(t.shape) for t in tensors]},
        sort_keys=True,
    ).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    Path(path).write_bytes(header + b"\n" + payload)


def read_flat_binary(path) -> list[np.ndarray]:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing binary header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
        shapes = [tuple(int(d) for d in s) for s in header["shapes"]]
        if header["dtype"] != "f32le":
            raise KeyError("dtype")
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad binary header") from exc
    payload = raw[newline + 1:]
    expected = sum(int(np.prod(s)) * 4 for s in shapes)
    if len(payload) != expected:
        raise FormatError(f"{path}: payload size mismatch")
    tensors = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        tensors.append(arr.astype(np.float64).reshape(shape))
        offset += count * 4
    return tensors


def save_model(model: MaskedModel | ModelSpec, path, inline_limit: int = INLINE_PARAM_LIMIT) -> None:
    """Write a model as JSON; large weight sets go to a binary sidecar.

    Small models embed every tensor in the JSON document (exact float64
    round trip); above ``inline_limit`` total parameters the weights and
    biases move to ``<path>.bin`` in the flat float32 format.
    """
    if isinstance(model, MaskedModel):
        spec, mask = model.spec, model.mask
    else:
        spec, mask = model, None
    path = Path(path)
    n_params = sum(l.weights.size + l.bias.size for l in spec.layers)
    doc = {
        "format": MODEL_FORMAT,
        "prunable_layer": spec.prunable_layer,
        "mask": None
        if mask is None or mask.bits == (1 << mask.n_players) - 1
        else {"layer": spec.prunable_layer, "removed": list(mask.complement().members())},
        "layers": [],
        "binary_weights": None,
    }
    tensors: list[np.ndarray] = []
    inline = n_params <= inline_limit
    for layer in spec.layers:
        entry = {
            "kind": layer.kind,
            "activation": layer.activation,
            "norm": _norm_to_json(layer.norm),
        }
        if inline:
            entry["weights"] = layer.weights.tolist()
            entry["bias"] = layer.bias.tolist()
        else:
            entry["weights"] = {"tensor": len(tensors)}
            tensors.append(layer.weights)
            entry["bias"] = {"tensor": len(tensors)}
            tensors.append(layer.bias)
        doc["layers"].append(entry)
    if not inline:
        sidecar = path.with_suffix(path.suffix + ".bin")
        write_flat_binary(tensors, sidecar)
        doc["binary_weights"] = sidecar.name
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_model(path) -> MaskedModel:
    """Read a model file; absent mask means every unit stays on."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} file")
    tensors: list[np.ndarray] = []
    if doc.get("binary_weights"):
        tensors = read_flat_binary(path.parent / doc["binary_weights"])

    def fetch(node) -> np.ndarray:
        if isinstance(node, dict):
            return tensors[int(node["tensor"])]
        return np.array(node, dtype=np.float64)

    try:
        layers = [
            Layer(
                kind=entry["kind"],
                weights=fetch(entry["weights"]),
                bias=fetch(entry["bias"]),
                activation=entry["activation"],
                norm=_norm_from_json(entry.get("norm")),
            )
            for entry in doc["layers"]
        ]
        spec = ModelSpec(layers=layers, prunable_layer=int(doc["prunable_layer"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model document: {exc}") from exc
    mask_doc = doc.get("mask")
    if mask_doc is None:
        mask = Coalition.grand(spec.n_players)
    else:
        removed = set(int(i) for i in mask_doc["removed"])
        mask = Coalition.from_members(
            (i for i in range(spec.n_players) if i not in removed), spec.n_players
        )
    return MaskedModel(spec=spec, mask=mask)


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
