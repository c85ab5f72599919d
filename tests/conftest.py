import hypothesis
import numpy as np
import pytest

from shaprank.games import TableGame, masks_of_size

hypothesis.settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=40
)
hypothesis.settings.load_profile("ci")


def random_table_game(n_players: int, seed: int, noise: float = 10.0) -> TableGame:
    """Random payoff table shaped like an accuracy game: payoffs trend upward
    with coalition size (10 -> 90) plus per-coalition noise, so the target
    quantity is comfortably away from zero."""
    rng = np.random.default_rng(seed)
    sizes = np.empty(1 << n_players)
    for k in range(n_players + 1):
        sizes[masks_of_size(n_players, k)] = k
    base = 10.0 + 80.0 * sizes / n_players
    return TableGame(base + rng.uniform(-noise, noise, size=1 << n_players))


def additive_table_game(weights) -> TableGame:
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    table = [
        float(sum(weights[j] for j in range(n) if (mask >> j) & 1))
        for mask in range(1 << n)
    ]
    return TableGame(table)


# Game files the loader must refuse, as (JSON text, FormatError message).
# Every key here is accepted by int(), so only the canonical-key check
# rejects it; the payoffs cover every JSON type that is not a number.
MALFORMED_GAME_SPECS = [
    ('{"n_players": 1, "values": {"0": 1.0, "01": 2.0}}',
     "game spec must contain exactly the 2 coalition keys; missing ['1'], unexpected ['01']"),
    ('{"n_players": 1, "values": {"0": 1.0, "+1": 2.0}}',
     "game spec must contain exactly the 2 coalition keys; missing ['1'], unexpected ['+1']"),
    ('{"n_players": 1, "values": {"0": 1.0, " 1": 2.0}}',
     "game spec must contain exactly the 2 coalition keys; missing ['1'], unexpected [' 1']"),
    ('{"n_players": 2, "values": {"0": 1.0, "1": 2.0, "2": 3.0, "1_0": 4.0}}',
     "game spec must contain exactly the 4 coalition keys; missing ['3'], unexpected ['1_0']"),
    ('{"n_players": 1, "values": {"0": 1.0, "\\u0661": 2.0}}',
     "game spec must contain exactly the 2 coalition keys; missing ['1'], unexpected ['\u0661']"),
    ('{"n_players": 1, "values": {"0": 1.0, "1": true}}',
     "payoff for coalition 1 is not a number"),
    ('{"n_players": 1, "values": {"0": null, "1": 2.0}}',
     "payoff for coalition 0 is not a number"),
    ('{"n_players": 1, "values": {"0": 1.0, "1": "2.0"}}',
     "payoff for coalition 1 is not a number"),
    ('{"n_players": 1, "values": {"0": 1.0, "1": NaN}}',
     "game spec contains non-finite payoffs"),
    ('{"n_players": 1, "values": {"0": -Infinity, "1": 2.0}}',
     "game spec contains non-finite payoffs"),
    ('{"n_players": 1, "values": {"0": 1.0, "0": 3.0}}',
     "game spec must contain exactly the 2 coalition keys; missing ['1'], unexpected []"),
    ('{"n_players": 1.9, "values": {"0": 1.0, "1": 2.0}}',
     "game spec needs integer 'n_players' and 'values'"),
    ('{"n_players": true, "values": {"0": 1.0, "1": 2.0}}',
     "game spec needs integer 'n_players' and 'values'"),
    ('{"n_players": "1", "values": {"0": 1.0, "1": 2.0}}',
     "game spec needs integer 'n_players' and 'values'"),
]


def per_mask(payoff):
    """``payoff``, a function of one int mask, as ``Game`` calls a payoff:
    on an array of masks, returning one payoff per mask.  ``payoff`` runs
    once per mask, in the array's order."""
    return lambda masks: np.array([payoff(mask) for mask in masks.tolist()], dtype=np.float64)


def greedy_oracle_rank(oracle):
    """``build_oracle_rank``'s greedy construction, which runs when the
    optimal search's prefixes exceed the enumeration budget: here a budget
    of 0, set only for this call, so the oracle must already be computed."""
    from shaprank.oracle import build_oracle_rank

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("shaprank.oracle.ENUMERATION_BUDGET", 0)
        return build_oracle_rank(oracle)


def constant_table_game(n_players: int, value: float = 7.5) -> TableGame:
    return TableGame(np.full(1 << n_players, value))


@pytest.fixture
def fig2():
    from shaprank.games import make_fig2_game

    return make_fig2_game()


def build_redundancy_game(seed: int, n_pairs: int, total: int = 10):
    """A 10-unit detector network with injected twin redundancy.

    Six hidden ReLU units each detect one blob class (one-hot head), so every
    detector is structurally critical.  ``n_pairs`` detectors are split into
    two half-amplitude copies (the network function is unchanged, but either
    copy alone suffices at reduced amplitude), and the layer is padded to
    ``total`` units with zero-outgoing-weight dummies.  Single-removal scores
    see twin copies as nearly worthless; averaged marginal contributions give
    each copy half the detector's worth.
    """
    from shaprank.toynet import Layer, ModelSpec, make_accuracy_game, make_blobs_dataset

    n_classes = 6
    data = make_blobs_dataset(seed=seed, n_per_class=60, n_classes=n_classes, spread=0.5)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    w1 = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    b1 = np.full(n_classes, -2.0)
    w2 = np.eye(n_classes)

    rng = np.random.default_rng(seed + 777)
    duplicated = rng.permutation(n_classes)[:n_pairs]
    extra_w1, extra_b1, extra_w2 = [], [], []
    for unit in duplicated:
        w2[:, unit] /= 2.0
        extra_w1.append(w1[unit].copy())
        extra_b1.append(b1[unit])
        extra_w2.append(w2[:, unit].copy())
    for _ in range(total - n_classes - n_pairs):
        extra_w1.append(rng.standard_normal(2))
        extra_b1.append(0.0)
        extra_w2.append(np.zeros(n_classes))
    spec = ModelSpec(
        layers=[
            Layer(
                "dense",
                np.vstack([w1] + [np.asarray(r)[None, :] for r in extra_w1]),
                np.concatenate([b1, np.asarray(extra_b1)]),
                "relu",
            ),
            Layer(
                "dense",
                np.hstack([w2] + [np.asarray(c)[:, None] for c in extra_w2]),
                np.zeros(n_classes),
                "softmax-logits",
            ),
        ],
        prunable_layer=0,
    )
    return make_accuracy_game(spec, data)
