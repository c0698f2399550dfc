"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single CRITERION line (visible via pytest -rA or on
failure) summarizing the measured values next to the required band.
"""

import time

import numpy as np
import pytest
from test_depth import simulate_pair_separation

from isodist import baselines
from isodist.bench import generate_scenario
from isodist.data import Column, Dataset
from isodist.depth import (
    expected_separation_direct,
    expected_separation_incremental,
    standardize_separation,
)
from isodist.distance import (
    anomaly_scores,
    pair_distance,
    separation_matrix,
    tree_depth_sums,
)
from isodist.forest import ForestParams, fit_forest


def _line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num:02d} {desc}: {status}{suffix}")


def _num_col(values):
    values = np.asarray(values, dtype=np.float64)
    return Column("numeric", values, np.zeros(values.shape, dtype=bool))


def _normal_dataset(n, rng, cols=2):
    return Dataset(
        columns=[_num_col(rng.normal(size=n)) for _ in range(cols)],
        names=[f"x{i + 1}" for i in range(cols)],
    )


def _fit_and_matrix(ds, trees=100, seed=0, kind="single", ndim=1, threads=1):
    params = ForestParams(
        n_trees=trees, ndim=ndim, seed=seed, model_kind=kind
    )
    forest = fit_forest(ds, params, threads=threads)
    return forest, separation_matrix(forest, ds, threads=threads)


@pytest.fixture(scope="module")
def cloud500():
    """Fully observed standard-normal 2-d data, n=500, t=100 (criteria 4-6)."""
    rng = np.random.default_rng(42)
    ds = _normal_dataset(500, rng)
    forest, matrix = _fit_and_matrix(ds, trees=100, seed=7)
    return ds, forest, matrix


def test_criterion_01_depth_math_equivalence():
    t0 = time.perf_counter()
    direct = np.array([expected_separation_direct(n) for n in range(1, 257)])
    incremental = np.array(
        [expected_separation_incremental(n) for n in range(1, 257)]
    )
    gap = float(np.max(np.abs(direct - incremental)))
    increasing = bool(np.all(np.diff(direct) > 0))
    bounded = bool(np.all(direct < 3))
    e3 = abs(expected_separation_direct(3) - 4 / 3)
    e4 = abs(expected_separation_direct(4) - 14 / 9)
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-9 and increasing and bounded and e3 < 1e-12 and e4 < 1e-12 \
        and elapsed < 1.0
    _line(1, "depth-math equivalence", ok,
          f"max gap {gap:.2e}, anchors {e3:.2e}/{e4:.2e}, {elapsed:.2f}s")
    assert gap < 1e-9
    assert increasing and bounded
    assert e3 < 1e-12 and e4 < 1e-12
    assert elapsed < 1.0


def test_criterion_02_monte_carlo_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (2, 3, 5, 10):
        mean, se = simulate_pair_separation(n, 200_000, rng)
        z = abs(mean - expected_separation_direct(n)) / se if se else 0.0
        worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 60.0
    _line(2, "Monte-Carlo oracle", ok, f"worst z {worst:.2f}, {elapsed:.1f}s")
    assert worst <= 3.0
    assert elapsed < 60.0


def test_criterion_03_transform_anchors():
    f1 = standardize_separation(1.0)
    f3 = standardize_separation(3.0)
    ok = f1 == 1.0 and f3 == 0.5
    _line(3, "transform anchors", ok, f"f(1)={f1!r}, f(3)={f3!r}")
    assert f1 == 1.0
    assert f3 == 0.5


def test_criterion_04_metric_properties(cloud500):
    ds, forest, matrix = cloud500
    sq = matrix.to_square()
    n = ds.n_rows
    zero_diag = bool(np.all(np.diag(sq) == 0.0))
    symmetric = bool(np.array_equal(sq, sq.T))
    off = sq[np.triu_indices(n, k=1)]
    in_range = bool(np.all((off > 0.0) & (off <= 1.0)))

    rng = np.random.default_rng(1)
    triples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(1000)]
    )
    ultra_bad = 0
    tri_bad = 0
    for t in range(forest.params.n_trees):
        idx = np.unique(triples)
        # raw per-tree separation depths for every sampled triple
        depths = tree_depth_sums(forest, t, ds.take(idx))
        pos = {int(v): k for k, v in enumerate(idx)}
        for a, b, c in triples:
            ia, ib, ic = pos[int(a)], pos[int(b)], pos[int(c)]
            s = sorted([depths[ia, ib], depths[ib, ic], depths[ia, ic]])
            if s[0] != s[1]:
                ultra_bad += 1
            # triangle on raw depths: s(a,c) <= s(a,b) + s(b,c) in all 3 roles
            if (
                s[2] > s[0] + s[1]
            ):
                tri_bad += 1
        break  # per-tree property; one tree over 1,000 triples

    big = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(10_000)]
    )
    d_ab = sq[big[:, 0], big[:, 1]]
    d_bc = sq[big[:, 1], big[:, 2]]
    d_ac = sq[big[:, 0], big[:, 2]]
    viol = (
        (d_ac > d_ab + d_bc + 1e-12)
        | (d_ab > d_ac + d_bc + 1e-12)
        | (d_bc > d_ab + d_ac + 1e-12)
    )
    avg_rate = viol.mean()

    ok = (
        zero_diag and symmetric and in_range
        and ultra_bad == 0 and tri_bad == 0 and avg_rate <= 0.001
    )
    _line(
        4, "metric properties", ok,
        f"ultrametric bad {ultra_bad}/1000, raw triangle bad {tri_bad}/1000, "
        f"averaged violation rate {avg_rate:.4%}",
    )
    assert zero_diag and symmetric and in_range
    assert avg_rate <= 0.001
    assert ultra_bad == 0
    # Known red: the raw per-tree depth triangle is not a theorem (a third
    # point can leave the shared path at depth k while the pair separates at
    # depth > 2k); the transformed per-tree distance is the actual metric.
    assert tri_bad == 0


def test_criterion_05_scale_equivariance(cloud500):
    ds, _, matrix = cloud500
    shifted = Dataset(
        columns=[_num_col(100.0 * c.values + 7.0) for c in ds.columns],
        names=ds.names,
    )
    _, matrix2 = _fit_and_matrix(shifted, trees=100, seed=7)
    ok = bool(np.array_equal(matrix.values, matrix2.values))
    _line(5, "scale equivariance", ok, "x -> 100x + 7, bit-identical")
    assert ok


def test_criterion_06_third_point_independence(cloud500):
    ds, forest, matrix = cloud500
    rng = np.random.default_rng(2)
    bad = 0
    for _ in range(100):
        i, j = rng.choice(ds.n_rows, size=2, replace=False)
        if pair_distance(forest, ds, int(i), int(j)) != matrix[int(i), int(j)]:
            bad += 1
    _line(6, "third-point independence", bad == 0, f"{bad}/100 mismatches")
    assert bad == 0


def test_criterion_07_scenario_t2():
    t0 = time.perf_counter()
    iso_mah, iso_euc = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ds = generate_scenario("t2", 1000, rng)["dataset"]
        _, iso = _fit_and_matrix(ds, trees=100, seed=seed)
        imp = baselines.mean_impute(ds)
        mah = baselines.mahalanobis_matrix(imp)
        euc = baselines.euclidean_matrix(imp)
        iso_mah.append(baselines.pearson_corr(iso, mah))
        iso_euc.append(baselines.pearson_corr(iso, euc))
    m, e = float(np.mean(iso_mah)), float(np.mean(iso_euc))
    elapsed = time.perf_counter() - t0
    ok = m >= 0.85 and m > e and elapsed < 300.0
    _line(7, "scenario t2 correlation band", ok,
          f"corr(Iso,Mah)={m:.3f}, corr(Iso,Euc)={e:.3f}, {elapsed:.0f}s")
    assert m >= 0.85
    assert m > e
    assert elapsed < 300.0


def test_criterion_08_scenario_t5_group_structure():
    wa, wb, bt = [], [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        out = generate_scenario("t5", 500, rng)
        ds, groups = out["dataset"], out["groups"]
        _, matrix = _fit_and_matrix(ds, trees=100, seed=seed)
        sq = matrix.to_square()
        iu = np.triu_indices(ds.n_rows, k=1)
        gi, gj = groups[iu[0]], groups[iu[1]]
        cells = sq[iu]
        wa.append(cells[gi & gj].mean())
        wb.append(cells[~gi & ~gj].mean())
        bt.append(cells[gi != gj].mean())
    wa, wb, bt = float(np.mean(wa)), float(np.mean(wb)), float(np.mean(bt))
    rel = abs(wa - wb) / min(wa, wb)
    ratio = bt / max(wa, wb)
    ok = rel <= 0.20 and ratio >= 1.5
    _line(8, "scenario t5 group structure", ok,
          f"within a/b {wa:.3f}/{wb:.3f} (gap {rel:.1%}), "
          f"between/within ratio {ratio:.2f}")
    assert rel <= 0.20
    assert ratio >= 1.5


def test_criterion_09_scenario_t4_missingness():
    iso_corr, ext_corr = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        out = generate_scenario("t4", 300, rng)
        full, na = out["dataset"], out["na"]
        _, iso_full = _fit_and_matrix(full, trees=100, seed=seed)
        _, iso_na = _fit_and_matrix(na, trees=100, seed=seed)
        _, ext_full = _fit_and_matrix(
            full, trees=100, seed=seed, kind="extended", ndim=2
        )
        _, ext_na = _fit_and_matrix(
            na, trees=100, seed=seed, kind="extended", ndim=2
        )
        iso_corr.append(baselines.pearson_corr(iso_na, iso_full))
        ext_corr.append(baselines.pearson_corr(ext_na, ext_full))
    iso_c, ext_c = float(np.mean(iso_corr)), float(np.mean(ext_corr))
    ok = ext_c >= 0.75 and ext_c > iso_c
    _line(9, "scenario t4 NA robustness", ok,
          f"corr(IsoExt NA, full)={ext_c:.3f}, corr(Iso NA, full)={iso_c:.3f}")
    assert ext_c >= 0.75
    # Known red: both-branch weighted routing makes the single-variable model
    # at least as NA-robust as the hyperplane model here, reversing the
    # required strict ordering.
    assert ext_c > iso_c


def test_criterion_10_anomaly_sanity():
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(500, 2))
        cols = [
            _num_col(np.append(base[:, 0], 10.0)),
            _num_col(np.append(base[:, 1], 10.0)),
        ]
        ds = Dataset(columns=cols, names=["x1", "x2"])
        forest = fit_forest(ds, ForestParams(n_trees=100, seed=seed))
        scores = anomaly_scores(forest, ds)
        if int(np.argmax(scores)) == 500:
            hits += 1
    _line(10, "anomaly sanity", hits == 5, f"outlier top-ranked in {hits}/5 seeds")
    assert hits == 5


def test_criterion_11_performance_and_threads():
    rng = np.random.default_rng(3)
    ds = _normal_dataset(1000, rng)
    t0 = time.perf_counter()
    forest, serial = _fit_and_matrix(ds, trees=100, seed=11)
    elapsed = time.perf_counter() - t0
    threaded = separation_matrix(forest, ds, threads=4)
    gap = float(np.max(np.abs(serial.values - threaded.values)))
    ok = elapsed < 60.0 and gap <= 1e-12
    _line(11, "performance", ok,
          f"n=1000 fit+matrix {elapsed:.1f}s, thread gap {gap:.1e}")
    assert elapsed < 60.0
    assert gap <= 1e-12


def test_criterion_12_mixed_gower_correlation():
    corrs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ds = generate_scenario("mixed", 500, rng)["dataset"]
        _, ext = _fit_and_matrix(ds, trees=100, seed=seed, kind="extended",
                                 ndim=2)
        gower = baselines.gower_matrix(ds)
        corrs.append(baselines.pearson_corr(ext, gower))
    mean = float(np.mean(corrs))
    finite = bool(np.all(np.isfinite(corrs)))
    ok = finite and mean > 0.3
    _line(12, "mixed-type Gower correlation", ok,
          f"mean corr(IsoExt, Gower)={mean:.3f} over 5 seeds")
    assert finite
    assert mean > 0.3
