import numpy as np
import pytest

from isodist.depth import (
    HARMONIC_SUM_MAX,
    expected_isolation,
    expected_separation_direct,
    expected_separation_incremental,
    harmonic,
    standardize_isolation,
    standardize_separation,
)


def simulate_pair_separation(n, n_trees, rng):
    """Independent oracle: mean separation depth of a random pair under
    uniform-random-split trees (a Uniform{1..m-1} count goes left as a
    uniformly random subset). Returns (mean, standard error)."""
    m = np.full(n_trees, n)
    depths = np.zeros(n_trees)
    active = m >= 2
    level = 0
    while active.any():
        level += 1
        ma = m[active]
        k = rng.integers(1, ma)  # left-branch size
        # The tracked pair is an exchangeable random pair: P(both left) =
        # k(k-1)/(m(m-1)), P(both right) symmetric, else separated here.
        u = rng.random(ma.shape)
        p_ll = k * (k - 1) / (ma * (ma - 1))
        p_rr = (ma - k) * (ma - k - 1) / (ma * (ma - 1))
        both_left = u < p_ll
        both_right = u >= 1.0 - p_rr
        separated = ~(both_left | both_right)
        idx = np.flatnonzero(active)
        depths[idx[separated]] = level
        m[idx] = np.where(both_left, k, np.where(both_right, ma - k, 0))
        active[idx] = m[idx] >= 2
    return depths.mean(), depths.std(ddof=1) / np.sqrt(n_trees)


def test_base_cases():
    assert expected_separation_direct(1) == 0.0
    assert expected_separation_direct(2) == 1.0
    assert expected_separation_incremental(1) == 0.0
    assert expected_separation_incremental(2) == 1.0


def test_hand_evaluated_values():
    # direct evaluation of the combinatorial sum:
    # E[s_3] = 1 + (1/2) * 2 * (1/3) * E[s_2] = 4/3
    # E[s_4] = 1 + (1/3) * (2 * (1/2) * E[s_3] + 2 * (1/6) * E[s_2]) = 14/9
    assert expected_separation_direct(3) == pytest.approx(4 / 3, abs=1e-12)
    assert expected_separation_direct(4) == pytest.approx(14 / 9, abs=1e-12)
    assert expected_separation_incremental(3) == pytest.approx(4 / 3, abs=1e-12)
    assert expected_separation_incremental(4) == pytest.approx(14 / 9, abs=1e-12)


def test_recursions_agree_up_to_256():
    for n in range(1, 257):
        assert expected_separation_direct(n) == pytest.approx(
            expected_separation_incremental(n), abs=1e-9
        )


def test_monotone_and_bounded():
    vals = [expected_separation_direct(n) for n in range(2, 257)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < 3.0 for v in vals)


def test_limit_approaches_three():
    assert expected_separation_incremental(100_000) == pytest.approx(3.0, abs=1e-3)
    assert expected_separation_incremental(100_000) < 3.0


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_monte_carlo_oracle(n):
    rng = np.random.default_rng(1234 + n)
    mean, se = simulate_pair_separation(n, 50_000, rng)
    assert abs(mean - expected_separation_direct(n)) <= 3 * se


def test_invalid_arguments():
    for fn in (
        expected_separation_direct,
        expected_separation_incremental,
        expected_isolation,
        harmonic,
    ):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        standardize_separation(0.5)
    with pytest.raises(ValueError):
        standardize_isolation(1.0, 1)
    with pytest.raises(ValueError):
        standardize_isolation(-1.0, 5)


def test_expected_isolation():
    assert expected_isolation(1) == 0.0
    assert expected_isolation(2) == 1.0
    assert expected_isolation(10) == pytest.approx(3.8579365079365075, abs=1e-12)


def test_standardize_separation_anchors():
    assert standardize_separation(1.0) == 1.0
    assert standardize_separation(3.0) == 0.5
    assert standardize_separation(5.0) == 0.25


def test_standardize_separation_strictly_decreasing_onto_unit_interval():
    xs = np.linspace(1.0, 60.0, 500)
    ys = standardize_separation(xs)
    assert np.all(np.diff(ys) < 0)
    assert ys[0] == 1.0
    assert np.all(ys > 0.0)


def test_standardize_isolation_anchors():
    n = 32
    assert standardize_isolation(expected_isolation(n), n) == pytest.approx(0.5)
    assert standardize_isolation(0.0, n) == 1.0
    assert standardize_isolation(1e6, n) == pytest.approx(0.0, abs=1e-12)


def test_harmonic_closed_form_meets_the_sum():
    # Just past the switch-over, the closed form less its last term is the
    # summed value at the switch-over.
    n = HARMONIC_SUM_MAX
    assert harmonic(n + 1) - 1.0 / (n + 1) == pytest.approx(harmonic(n), rel=1e-12)
    assert harmonic(10**9) == pytest.approx(np.log(1e9) + np.euler_gamma, rel=1e-9)
