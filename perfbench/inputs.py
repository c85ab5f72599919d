"""Seeded inputs for the benchmark workloads, written with the benchmark's own
code in the file formats of ``docs/formats.md``.

Nothing here imports shaprank: a change to shaprank's trainer or writers
must not change what the benchmark measures.  The same ``seed`` always gives
byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TABLE_LARGE_N = 20
TABLE_SMALL_N = 10
BLOB_CLASSES = 4
BLOB_ROWS_PER_CLASS = 700  # 2 800 validation rows in all


def popcounts(n_players: int) -> np.ndarray:
    """Coalition size of every bitmask in ``[0, 2**n_players)``."""
    pc = np.zeros(1 << n_players, dtype=np.int64)
    for i in range(n_players):
        pc[1 << i:2 << i] = pc[:1 << i] + 1
    return pc


# ---------------------------------------------------------------------------
# Payoff tables
# ---------------------------------------------------------------------------


def random_table(n_players: int, rng: np.random.Generator) -> np.ndarray:
    """Payoffs shaped like an accuracy game: a size trend from 10 to 90 plus
    uniform per-coalition noise of +-10."""
    sizes = popcounts(n_players).astype(np.float64)
    return 10.0 + 80.0 * sizes / n_players + rng.uniform(-10.0, 10.0, size=1 << n_players)


def write_table(table: np.ndarray, path: Path) -> None:
    n_players = int(table.size).bit_length() - 1
    doc = {"n_players": n_players, "values": {str(m): float(v) for m, v in enumerate(table)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def band_values(table: np.ndarray, sizes) -> np.ndarray:
    """Per-player weighted marginal sum over the given subset sizes.

    With every size ``0..N-1`` this is the exact Shapley value; with fewer it
    is the renormalized size-band sum of ``rank --method partial``.  Player
    ``i``'s pairs ``(S, S + i)`` are the two halves of
    ``table.reshape(-1, 2, 2**i)``.
    """
    n = int(table.size).bit_length() - 1
    weights = np.zeros(n)
    for k in sizes:
        weights[k] = 1.0 / (n * math.comb(n - 1, k))
    mass = sum(math.comb(n - 1, k) * weights[k] for k in sizes)
    pc = popcounts(n)
    phi = np.empty(n)
    for i in range(n):
        pairs = table.reshape(-1, 2, 1 << i)
        without = pc.reshape(-1, 2, 1 << i)[:, 0, :]
        phi[i] = np.sum(weights[without] * (pairs[:, 1, :] - pairs[:, 0, :]))
    return phi / mass


def best_removal_values(table: np.ndarray, k_range) -> dict[int, float]:
    """``max v(N \\ S)`` over coalitions ``S`` of each size (oracle, remove)."""
    n = int(table.size).bit_length() - 1
    pc = popcounts(n)
    grand = (1 << n) - 1
    masks = np.arange(table.size)
    return {k: float(table[grand ^ masks[pc == k]].max()) for k in k_range}


# ---------------------------------------------------------------------------
# Blob data and detector networks
# ---------------------------------------------------------------------------


def blob_data(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Four overlapping 2-D Gaussian blobs on a circle of radius 3."""
    angles = 2.0 * np.pi * np.arange(BLOB_CLASSES) / BLOB_CLASSES
    centers = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    inputs = np.concatenate(
        [c + 1.2 * rng.standard_normal((BLOB_ROWS_PER_CLASS, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(BLOB_CLASSES), BLOB_ROWS_PER_CLASS)
    return inputs, labels


def write_csv(inputs: np.ndarray, labels: np.ndarray, path: Path) -> None:
    lines = ["x0,x1,label"]
    lines += [f"{float(a)!r},{float(b)!r},{int(c)}" for (a, b), c in zip(inputs, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Dense:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray
    activation: str  # "relu" or "softmax-logits"


def _detectors(rng: np.random.Generator, per_class: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ReLU units that each fire on one blob: a jittered class direction and
    a negative threshold.  Returns weights, biases and each unit's class."""
    cls = np.repeat(np.arange(BLOB_CLASSES), per_class)
    angles = 2.0 * np.pi * cls / BLOB_CLASSES + rng.normal(0.0, 0.15, cls.size)
    weights = np.stack([np.cos(angles), np.sin(angles)], axis=1) * rng.uniform(0.8, 1.2, (cls.size, 1))
    bias = -rng.uniform(0.0, 1.0, cls.size)
    return weights, bias, cls


def detector_net_14(rng: np.random.Generator) -> list[Dense]:
    """2 -> 14 -> 4.  Units 0-3 detect one class each; two of them are split
    into half-amplitude twins (units 4-5), and units 6-13 are weak random
    units, so the layer has critical, redundant and near-dummy players."""
    w1, b1, cls = _detectors(rng, 1)
    w2 = np.eye(BLOB_CLASSES)
    twins = rng.permutation(BLOB_CLASSES)[:2]
    w2[:, twins] /= 2.0
    extra_w1 = [w1[t] for t in twins] + [rng.standard_normal(2) for _ in range(8)]
    extra_b1 = [b1[t] for t in twins] + list(rng.normal(0.0, 0.5, 8))
    extra_w2 = [w2[:, t] for t in twins] + [0.05 * rng.standard_normal(BLOB_CLASSES) for _ in range(8)]
    return [
        Dense(np.vstack([w1, np.array(extra_w1)]), np.concatenate([b1, extra_b1]), "relu"),
        Dense(np.hstack([w2, np.array(extra_w2).T]), np.zeros(BLOB_CLASSES), "softmax-logits"),
    ]


def detector_net_32(rng: np.random.Generator) -> list[Dense]:
    """2 -> 32 -> 16 -> 4.  Eight jittered detectors per class feed four
    second-layer units per class, which feed the head; the prunable layer is
    the first, so every payoff re-runs two layers."""
    w1, b1, cls1 = _detectors(rng, 8)
    cls2 = np.repeat(np.arange(BLOB_CLASSES), 4)
    w2 = rng.uniform(0.0, 0.5, (16, 32)) * (cls2[:, None] == cls1[None, :])
    w2 += 0.05 * rng.standard_normal((16, 32))
    b2 = rng.normal(0.0, 0.1, 16)
    w3 = (np.arange(BLOB_CLASSES)[:, None] == cls2[None, :]).astype(np.float64)
    w3 += 0.1 * rng.standard_normal((BLOB_CLASSES, 16))
    return [
        Dense(w1, b1, "relu"),
        Dense(w2, b2, "relu"),
        Dense(w3, np.zeros(BLOB_CLASSES), "softmax-logits"),
    ]


def write_model(layers: list[Dense], path: Path) -> None:
    """Model file with inline tensors and the first layer prunable."""
    doc = {
        "binary_weights": None,
        "format": "shaprank-model-v1",
        "layers": [
            {
                "activation": layer.activation,
                "bias": layer.bias.tolist(),
                "kind": "dense",
                "norm": None,
                "weights": layer.weights.tolist(),
            }
            for layer in layers
        ],
        "mask": None,
        "prunable_layer": 0,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


class NetPayoff:
    """Accuracy of a dense net with the first layer's non-members zeroed.

    An independent re-implementation of the payoff shaprank computes for a
    model game, used only to check reports.
    """

    def __init__(self, layers: list[Dense], inputs: np.ndarray, labels: np.ndarray):
        first = layers[0]
        self.hidden = np.maximum(inputs @ first.weights.T + first.bias, 0.0)
        self.rest = layers[1:]
        self.labels = labels
        self.n_players = first.weights.shape[0]

    def __call__(self, mask: int) -> float:
        off = [i for i in range(self.n_players) if not (mask >> i) & 1]
        x = self.hidden.copy()
        x[:, off] = 0.0
        for layer in self.rest:
            x = x @ layer.weights.T + layer.bias
            if layer.activation == "relu":
                x = np.maximum(x, 0.0)
        return float(np.mean(np.argmax(x, axis=1) == self.labels))

    def high_band_values(self, high_d: int) -> np.ndarray:
        """Renormalized band sum over the ``high_d`` largest subset sizes,
        evaluating only the coalitions the band touches."""
        n = self.n_players
        grand = (1 << n) - 1
        sizes = range(n - high_d, n)
        weights = {k: 1.0 / (n * math.comb(n - 1, k)) for k in sizes}
        mass = sum(math.comb(n - 1, k) * weights[k] for k in sizes)
        value = functools.lru_cache(maxsize=None)(self)
        phi = np.zeros(n)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for k in sizes:
                gains = 0.0
                for dropped in itertools.combinations(others, n - 1 - k):
                    without = grand & ~(1 << i) & ~sum(1 << j for j in dropped)
                    gains += value(without | (1 << i)) - value(without)
                phi[i] += weights[k] * gains
        return phi / mass


# ---------------------------------------------------------------------------
# One workload's inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files into ``directory``; return the
    references its checks need."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, {"tables": 0, "toynet-n14": 1, "toynet-n32": 2}[workload]])
    if workload == "tables":
        large = random_table(TABLE_LARGE_N, rng)
        small = random_table(TABLE_SMALL_N, rng)
        write_table(large, directory / "table20.json")
        write_table(small, directory / "table10.json")
        n = TABLE_LARGE_N
        return {
            "large_target": float(large[-1] - large[0]),
            "small_target": float(small[-1] - small[0]),
            "large_exact": band_values(large, range(n)),
            "large_partial": band_values(large, sorted(set(range(2)) | set(range(n - 6, n)))),
            "small_exact": band_values(small, range(TABLE_SMALL_N)),
            "large_best_removal": best_removal_values(large, range(1, 4)),
        }

    inputs, labels = blob_data(rng)
    layers = detector_net_14(rng) if workload == "toynet-n14" else detector_net_32(rng)
    write_model(layers, directory / "model.json")
    write_csv(inputs, labels, directory / "blobs.csv")
    payoff = NetPayoff(layers, inputs, labels)
    grand = (1 << payoff.n_players) - 1
    refs = {"target": payoff(grand) - payoff(0), "grand_value": payoff(grand)}
    if workload == "toynet-n32":
        refs["partial"] = payoff.high_band_values(2)
    return refs
