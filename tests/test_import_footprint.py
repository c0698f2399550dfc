"""Which features load scipy: only the baselines and the weighted path of
the separation matrix.  Each case runs in a fresh interpreter, since the
test process has imported scipy already."""

from child import run_python

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_numpy_only_paths_do_not_import_scipy(tmp_path):
    proc = run_python(f"""
        import sys
        import numpy as np
        import isodist
        import isodist.cli
        from isodist.bench import generate_scenario

        ds = generate_scenario("t4", 120, np.random.default_rng(0))["dataset"]
        for params in (isodist.ForestParams(n_trees=4, seed=1),
                       isodist.ForestParams(n_trees=4, seed=1, model_kind="extended", ndim=2)):
            forest = isodist.fit_forest(ds, params)
            isodist.separation_matrix(forest, ds)
            isodist.anomaly_scores(forest, ds)
            isodist.save_model(forest, {str(tmp_path / "model.npz")!r})
            isodist.anomaly_scores(isodist.load_model({str(tmp_path / "model.npz")!r}), ds)
        print({SCIPY_LOADED})
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_paths_import_it_on_demand():
    # A matrix over rows with missing cells takes the weighted path, which
    # needs scipy.sparse; the Euclidean baseline needs scipy.spatial.
    proc = run_python(f"""
        import sys
        import numpy as np
        import isodist
        from isodist.bench import generate_scenario

        ds = generate_scenario("mixed", 80, np.random.default_rng(0))["dataset"]
        assert any(c.missing.any() for c in ds.columns)
        forest = isodist.fit_forest(ds, isodist.ForestParams(n_trees=4, seed=1))
        print({SCIPY_LOADED})
        m = isodist.separation_matrix(forest, ds)
        assert np.all((m.values > 0) & (m.values <= 1))
        print({SCIPY_LOADED})
        t4 = generate_scenario("t4", 50, np.random.default_rng(1))["dataset"]
        assert np.all(isodist.euclidean_matrix(t4).values > 0)
        print({SCIPY_LOADED})
    """)
    assert proc.returncode == 0, proc.stderr
    before, weighted, baseline = proc.stdout.splitlines()
    assert before == "[]"
    assert "'scipy.sparse'" in weighted and "'scipy.spatial'" not in weighted
    assert "'scipy.spatial'" in baseline
