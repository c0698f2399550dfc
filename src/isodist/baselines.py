"""Reference distance metrics and helpers for the benchmark comparisons.

Euclidean / Mahalanobis / Cosine require fully observed numeric data (run
mean_impute first when needed); Gower handles mixed types and missingness
natively via pairwise-complete columns.  pearson_corr compares two
condensed matrices cell-by-cell, skipping jointly missing (NaN) cells.
The three metrics built on scipy's `pdist` import it when called, so that
importing the package does not load scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Column, Dataset
from .matrix import CondensedMatrix


class BaselineError(ValueError):
    pass


def _numeric_array(ds: Dataset) -> np.ndarray:
    cols = []
    for name, c in zip(ds.names, ds.columns):
        if c.kind != "numeric":
            raise BaselineError(f"column {name!r} is categorical; impute/drop first")
        if c.missing.any():
            raise BaselineError(f"column {name!r} has missing values; impute first")
        cols.append(c.values)
    return np.column_stack(cols)


def euclidean_matrix(ds: Dataset) -> CondensedMatrix:
    from scipy.spatial.distance import pdist

    X = _numeric_array(ds)
    return CondensedMatrix(ds.n_rows, pdist(X, "euclidean"))


@dataclass
class CovarianceModel:
    mean: np.ndarray
    cov: np.ndarray
    inv: np.ndarray  # inverse, or pseudo-inverse when singular


def fit_covariance(X: np.ndarray, sv_tol: float = 1e-10) -> CovarianceModel:
    """Covariance (n-1 denominator) with a pseudo-inverse fallback."""
    n, p = X.shape
    cov = np.cov(X, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    if n < p + 1:
        warnings.warn(
            f"only {n} rows for {p} columns; covariance is singular, "
            "using a pseudo-inverse",
            stacklevel=2,
        )
        inv = np.linalg.pinv(cov, rcond=sv_tol)
    else:
        sv = np.linalg.svd(cov, compute_uv=False)
        if sv.min() <= sv_tol * sv.max():
            inv = np.linalg.pinv(cov, rcond=sv_tol)
        else:
            inv = np.linalg.inv(cov)
    return CovarianceModel(mean=X.mean(axis=0), cov=cov, inv=inv)


def mahalanobis_matrix(ds: Dataset) -> CondensedMatrix:
    from scipy.spatial.distance import pdist

    X = _numeric_array(ds)
    model = fit_covariance(X)
    return CondensedMatrix(ds.n_rows, pdist(X, "mahalanobis", VI=model.inv))


def cosine_distance_matrix(ds: Dataset) -> CondensedMatrix:
    from scipy.spatial.distance import pdist

    X = _numeric_array(ds)
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise BaselineError("zero-norm row; cosine distance undefined")
    return CondensedMatrix(ds.n_rows, pdist(X, "cosine"))


def gower_matrix(ds: Dataset) -> CondensedMatrix:
    """Gower dissimilarity with pairwise-complete columns.

    Per pair: mean over columns where both cells are present of
    |x_i - x_j| / range for numeric and 0/1 mismatch for categorical.
    Pairs sharing no observed column get NaN.
    """
    n = ds.n_rows
    num = np.zeros((n, n))
    den = np.zeros((n, n))
    for name, c in zip(ds.names, ds.columns):
        present = ~c.missing
        both = np.outer(present, present)
        if c.kind == "numeric":
            vals = c.values[present]
            rng = vals.max() - vals.min() if vals.size else 0.0
            if rng == 0.0:
                warnings.warn(
                    f"column {name!r} has zero range; skipped in Gower",
                    stacklevel=2,
                )
                continue
            diff = np.abs(c.values[:, None] - c.values[None, :]) / rng
        else:
            diff = (c.values[:, None] != c.values[None, :]).astype(float)
        num += np.where(both, diff, 0.0)
        den += both
    with np.errstate(invalid="ignore"):
        sq = num / den
    np.fill_diagonal(sq, 0.0)
    return CondensedMatrix.from_square(sq)


def mean_impute(ds: Dataset) -> Dataset:
    """Numeric missing -> column mean; categorical -> modal category
    (lowest code on ties)."""
    cols = []
    for name, c in zip(ds.names, ds.columns):
        if not c.missing.any():
            cols.append(c)
            continue
        present = ~c.missing
        if not present.any():
            raise BaselineError(f"column {name!r} is entirely missing")
        if c.kind == "numeric":
            fill = c.values[present].mean()
        else:
            fill = np.bincount(c.values[present]).argmax()
        vals = np.where(c.missing, fill, c.values)
        cols.append(Column(c.kind, vals, np.zeros(len(vals), dtype=bool), c.labels))
    return Dataset(cols, list(ds.names), ds.weights)


def pearson_corr(a: CondensedMatrix, b: CondensedMatrix) -> float:
    """Pearson correlation over jointly non-missing condensed cells."""
    if a.n != b.n:
        raise BaselineError(f"matrix sizes differ: {a.n} vs {b.n}")
    mask = np.isfinite(a.values) & np.isfinite(b.values)
    if mask.sum() < 2:
        raise BaselineError("fewer than 2 jointly observed cells")
    x = a.values[mask]
    y = b.values[mask]
    if x.std() == 0 or y.std() == 0:
        raise BaselineError("zero variance; correlation undefined")
    return float(np.corrcoef(x, y)[0, 1])
