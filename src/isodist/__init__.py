"""Distance metrics from randomized isolation-tree ensembles.

Fits Isolation-Forest-style trees (single-variable or hyperplane splits)
to mixed numeric/categorical data with missing values, and turns average
pair separation depth into a standardized distance in (0, 1].
"""

from .baselines import (
    cosine_distance_matrix,
    euclidean_matrix,
    gower_matrix,
    mahalanobis_matrix,
    mean_impute,
    pearson_corr,
)
from .data import Column, Dataset, deduplicate, load_csv
from .depth import (
    expected_isolation,
    expected_separation_direct,
    expected_separation_incremental,
    standardize_isolation,
    standardize_separation,
)
from .distance import anomaly_scores, pair_distance, separation_matrix
from .forest import Forest, ForestParams, fit_forest, load_model, save_model
from .matrix import CondensedMatrix

__all__ = [
    "Column",
    "CondensedMatrix",
    "Dataset",
    "Forest",
    "ForestParams",
    "anomaly_scores",
    "cosine_distance_matrix",
    "deduplicate",
    "euclidean_matrix",
    "expected_isolation",
    "expected_separation_direct",
    "expected_separation_incremental",
    "fit_forest",
    "gower_matrix",
    "load_csv",
    "load_model",
    "mahalanobis_matrix",
    "mean_impute",
    "pair_distance",
    "pearson_corr",
    "save_model",
    "separation_matrix",
    "standardize_isolation",
    "standardize_separation",
]

__version__ = "0.1.0"
