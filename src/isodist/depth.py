"""Expected separation / isolation depths and the standardizing transforms.

Separation depth counts the random splits needed to put two points into
different branches (the shared-node count including the root).  Its
expectation under uniformly random splitting admits both a combinatorial
recursion and a cheaper incremental one; both are memoized here and must
agree.  The limit for an infinite sample is 3, which is what the tree
traversal adds when a pair reaches a terminal node together.
"""

from __future__ import annotations

import math

import numpy as np

# Memo tables, index n (entry 0 unused).  Extended lazily; safe for
# concurrent reads once populated, extension is not thread-safe.
_SEP_DIRECT: list[float] = [0.0, 0.0, 1.0]
_SEP_INCR: list[float] = [0.0, 0.0, 1.0]
_HARMONIC: list[float] = [0.0, 1.0]

# Above this n, `harmonic` uses its asymptotic expansion instead of the
# memoized sum; the next term, 1/(120 n^4), is below 1e-20 there.
HARMONIC_SUM_MAX = 1 << 16


def harmonic(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, summed for n <= HARMONIC_SUM_MAX and
    ln n + gamma + 1/(2n) - 1/(12n^2) above, so that a large n costs
    neither time nor memory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARMONIC_SUM_MAX:
        return math.log(n) + np.euler_gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)
    while len(_HARMONIC) <= n:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[k - 1] + 1.0 / k)
    return _HARMONIC[n]


def expected_separation_direct(n: int) -> float:
    """E[s_n] via the combinatorial recursion.

    E[s_n] = 1 + (1/(n-1)) * sum_{i=1}^{n-1} [ C(i,2)/C(n,2) * E[s_i]
                                             + C(n-i,2)/C(n,2) * E[s_{n-i}] ]
    with E[s_1] = 0 and E[s_2] = 1.  Binomial ratios are evaluated as
    i(i-1)/(n(n-1)) so no large integers appear.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(_SEP_DIRECT) <= n:
        m = len(_SEP_DIRECT)
        denom = m * (m - 1)
        acc = 0.0
        for i in range(1, m):
            acc += (i * (i - 1) / denom) * _SEP_DIRECT[i]
            j = m - i
            acc += (j * (j - 1) / denom) * _SEP_DIRECT[j]
        _SEP_DIRECT.append(1.0 + acc / (m - 1))
    return _SEP_DIRECT[n]


def expected_separation_incremental(n: int) -> float:
    """E[s_n] via the O(1)-per-step recursion.

    E[s_n] = E[s_{n-1}] + (-n*E[s_{n-1}] + 3n - 4) / (n(n-1))

    Evaluated as an increment on top of E[s_{n-1}]; the increment alone
    does not reproduce E[s_3] = 4/3.  Approaches 3 from below.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(_SEP_INCR) <= n:
        m = len(_SEP_INCR)
        prev = _SEP_INCR[m - 1]
        _SEP_INCR.append(prev + (-m * prev + 3.0 * m - 4.0) / (m * (m - 1)))
    return _SEP_INCR[n]


def expected_isolation(n: int) -> float:
    """Expected isolation depth for a random point among n: 2(H_n - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * (harmonic(n) - 1.0)


def standardize_separation(avg_depth):
    """Map an average separation depth in [1, inf) onto a distance in (0, 1].

    f(s) = 2^(-(s-1)/2); f(1) = 1, f(3) = 0.5 (the expected depth for two
    random points under an infinite sample).  Accepts scalars or arrays.
    """
    s = np.asarray(avg_depth, dtype=np.float64)
    if np.any(s < 1.0):
        raise ValueError("average separation depth must be >= 1")
    out = 2.0 ** (-(s - 1.0) / 2.0)
    if np.isscalar(avg_depth) or s.ndim == 0:
        return float(out)
    return out


def standardize_isolation(avg_depth, n: int):
    """Standardized outlier score 2^(-depth / E[isolation depth among n]).

    1 marks instantly-isolated points, 0.5 the expectation, ~0 deep points.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    s = np.asarray(avg_depth, dtype=np.float64)
    if np.any(s < 0.0):
        raise ValueError("average isolation depth must be >= 0")
    out = 2.0 ** (-s / expected_isolation(n))
    if np.isscalar(avg_depth) or s.ndim == 0:
        return float(out)
    return out
