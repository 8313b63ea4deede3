"""Independent references for the benchmark's correctness gates.

Nothing here imports hahnkit.  Univariate Hahn values come from the
terminating 3F2 form (Koekoek, Lesky, Swarttouw, *Hypergeometric Orthogonal
Polynomials*, section 9.5), bivariate values from the nested product of two
such values, and the simplex weight from its closed form, all over
``fractions.Fraction``.  The float-plane references are properties a correct
result must have: the overlap matrix is orthogonal and equals the product of
the two chain factors.  numpy is imported only by those two checks, because
child.py imports ``simplex`` from here and hahnkit itself does not load numpy.
"""
from __future__ import annotations

import os
from fractions import Fraction
from math import factorial

FLOAT_TOL = 1e-10

# PERFBENCH_PERTURB=1 shifts every reference value, so that every gate must
# report failed operations; test_gates.py runs the benchmark this way.
SHIFT = Fraction(1, 10**9) if os.environ.get("PERFBENCH_PERTURB") == "1" else Fraction(0)


def expect(value):
    """The reference value as the gates compare it (shifted when perturbed)."""
    return value + SHIFT


def poch(a, n: int) -> Fraction:
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


def hahn_3f2(n: int, x: int, alpha, beta, N: int) -> Fraction:
    """h_n(x) = (alpha+1)_n (-N)_n 3F2(-n, n+alpha+beta+1, -x; alpha+1, -N; 1).

    Defined for 0 <= n <= N, where no denominator Pochhammer vanishes.
    """
    if not 0 <= n <= N:
        raise ValueError(f"3F2 form needs 0 <= n <= N, got n={n}, N={N}")
    alpha, beta = Fraction(alpha), Fraction(beta)
    total = term = Fraction(1)
    for j in range(n):
        term = term * (j - n) * (n + alpha + beta + 1 + j) * (j - x)
        term = term / ((alpha + 1 + j) * (j - N) * (j + 1))
        total += term
    return poch(alpha + 1, n) * poch(-N, n) * total


def p2_nested(m: int, n: int, i: int, k: int, a1, a2, a3, N: int) -> Fraction:
    """Bivariate P_{m,n}(i, k) as a product of two 3F2 values over (-N)_{m+n}.

    Needs the inner degree within the inner level, m <= i + k.
    """
    a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
    inner = hahn_3f2(m, i, a1, a2, i + k)
    outer = hahn_3f2(n, i + k - m, 2 * m + a1 + a2 + 1, a3, N - m)
    return inner * outer / poch(-N, m + n)


def simplex_weight(i: int, k: int, a1, a2, a3, N: int) -> Fraction:
    """w(i, k) = N!/(i! k! (N-i-k)!) (a1+1)_i (a2+1)_k (a3+1)_{N-i-k} / (a1+a2+a3+3)_N."""
    a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
    rest = N - i - k
    return (
        Fraction(factorial(N), factorial(i) * factorial(k) * factorial(rest))
        * poch(a1 + 1, i)
        * poch(a2 + 1, k)
        * poch(a3 + 1, rest)
        / poch(a1 + a2 + a3 + 3, N)
    )


def simplex(N: int) -> list[tuple[int, int]]:
    """Pairs (a, b) with a + b <= N, second index major (the package's colex order)."""
    return [(a, b) for b in range(N + 1) for a in range(N - b + 1)]


def gram_defect(table, weights) -> Fraction:
    """Largest |sum_g w(g) P_d(g) P_e(g) - expect(0)| over d != e, plus a positivity test.

    ``table[d][g]`` holds P_d at grid point g.  Returns a nonzero defect when
    a diagonal entry is not positive, so a degenerate table cannot pass.
    """
    weighted = [[w * v for w, v in zip(weights, row)] for row in table]
    worst = Fraction(0)
    for d, row in enumerate(weighted):
        if sum(a * b for a, b in zip(row, table[d])) <= 0:
            return Fraction(1)
        for e in range(d):
            worst = max(worst, abs(sum(a * b for a, b in zip(row, table[e])) - expect(0)))
    return worst


def orthogonality_defect(matrix) -> float:
    """max |M^T M - I| and |M M^T - I| entrywise, against the shifted identity."""
    import numpy as np

    eye = np.eye(matrix.shape[0]) + float(SHIFT)
    return float(max(np.abs(matrix.T @ matrix - eye).max(), np.abs(matrix @ matrix.T - eye).max()))


def chain_defect(first, second, overlap) -> float:
    """max |first @ second - overlap| against the shifted overlap."""
    import numpy as np

    return float(np.abs(first @ second - (overlap + float(SHIFT))).max())
