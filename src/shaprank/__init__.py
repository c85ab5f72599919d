"""Shapley-value attribution over coalition games, with estimators at every
cost point (exact enumeration, size-banded sums, permutation sampling,
kernel-weighted regression), a brute-force oracle benchmark for rankings,
and a maskable toy network that turns layers into games."""

from .errors import (
    BudgetError,
    CapacityError,
    CharacteristicFunctionError,
    FormatError,
    InvalidBandError,
    ShapRankError,
    SingularSystemError,
)
from .exact import shapley_exact_permutations, shapley_exact_subsets
from .formats import load_game_json, load_model, save_game_json, save_model
from .games import (
    Game,
    Ranking,
    ShapleyEstimate,
    TableGame,
    make_fig2_game,
)
from .oracle import (
    OracleSubsets,
    RankScore,
    build_oracle_rank,
    compute_oracle_subsets,
    jaccard,
    score_ranking,
)
from .partial import SizeBand, leave_one_out, shapley_partial
from .regression import RegressionConfig, shapley_kernel_weight, shapley_regression
from .sampling import EarlyStop, SamplingConfig, shapley_sample_permutations
from .toynet import (
    LabeledDataset,
    Layer,
    ModelSpec,
    accuracy_char_fn,
    make_accuracy_game,
    make_blobs_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CapacityError",
    "CharacteristicFunctionError",
    "EarlyStop",
    "FormatError",
    "Game",
    "InvalidBandError",
    "LabeledDataset",
    "Layer",
    "ModelSpec",
    "OracleSubsets",
    "RankScore",
    "Ranking",
    "RegressionConfig",
    "SamplingConfig",
    "ShapRankError",
    "ShapleyEstimate",
    "SingularSystemError",
    "SizeBand",
    "TableGame",
    "accuracy_char_fn",
    "build_oracle_rank",
    "compute_oracle_subsets",
    "jaccard",
    "leave_one_out",
    "load_game_json",
    "load_model",
    "make_accuracy_game",
    "make_blobs_dataset",
    "make_fig2_game",
    "save_game_json",
    "save_model",
    "score_ranking",
    "shapley_exact_permutations",
    "shapley_exact_subsets",
    "shapley_kernel_weight",
    "shapley_partial",
    "shapley_regression",
    "shapley_sample_permutations",
]
