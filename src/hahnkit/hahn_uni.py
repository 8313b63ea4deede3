"""Univariate Hahn polynomials on the grid {0, ..., N}.

Evaluation, hypergeometric-distribution weight, norm, and mechanical checks
of orthogonality and the two generating functions, all in exact arithmetic.

Values and normalizations are integer-cleared.  The parameters are cleared
to one common denominator q; a value is one integer sum over n! q^(2n)
(eval_total, hahn_table), and the weight and the norm are each one rational
of integer rising products (numeric.rising).  The orthogonality check sums
integer Gram numerators and compares them with the norms by cross
multiplication, after showing its scale nonzero; it makes a rational only to
report a failure.  The two generating-function checks work the same way:
their polynomial sides are int tuples over one denominator each
(numeric's univariate helpers keep ints as ints), compared crosswise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import jacobi_coeffs
from .numeric import (
    Rat,
    _ZERO,
    _poly_add,
    _poly_mul,
    format_rational,
    nonzero,
    rising,
)
from .reports import CheckResult, VerificationReport, _guarded


@dataclass(frozen=True)
class UniParams:
    alpha: object
    beta: object
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Rat(self.alpha))
        object.__setattr__(self, "beta", Rat(self.beta))
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError("N must be a nonnegative integer")
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("parameters must exceed -1")

    def echo(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "N": self.N,
        }


def _cleared(*values):
    """A common denominator q of rational values, and the integers q*v."""
    q = math.lcm(*(int(v.denominator) for v in values))
    return q, [int(v.numerator) * (q // int(v.denominator)) for v in values]


def _coefficients(n: int, q: int, A, B, K) -> list:
    """The point-independent part c_0..c_n of the cleared Hahn sum.

    With A = q*alpha, B = q*beta and K = q*M, every factor of the sum below
    is linear in j, so q clears all of them at once:

        c_j = prod_{i<j} (i-n) (q(n+1+i) + A + B)
              * prod_{j<=i<n} (i+1) (A + q(i+1)) (q*i - K)

    The first product is a prefix, (-n)_j (n+a+b+1)_j; the second a suffix,
    (n!/j!) (a+j+1)_{n-j} (-M+j)_{n-j}.  Each term carries q^(2n) in all.
    """
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * ((i + 1) * (A + q * (i + 1)) * (q * i - K))
    coeffs = []
    prefix = 1
    for j in range(n + 1):
        coeffs.append(prefix * suffix[j])
        prefix = prefix * ((j - n) * (q * (n + 1 + j) + A + B))
    return coeffs


def _point_sum(coeffs: list, q: int, X):
    """sum_j c_j prod_{i<j} (q*i - X), the point part being (-x)_j cleared by q^j."""
    total = 0
    point = 1
    for j, c in enumerate(coeffs):
        total = total + c * point
        point = point * (q * j - X)
        if point == 0:  # x is a grid point below j: every later term vanishes
            break
    return total


def _denominator(n: int, q: int) -> int:
    return math.factorial(n) * q ** (2 * n)


def eval_total(n: int, x, alpha, beta, M):
    """Hahn value as a division-free sum; total in x, both parameters, and M.

    sum_j (-n)_j (n+a+b+1)_j (-x)_j (a+j+1)_{n-j} (-M+j)_{n-j} / j!

    Equivalent to the prefactored 3F2 form wherever that one is defined (the
    parameter Pochhammers in the denominator are absorbed via the splits
    (a+1)_n = (a+1)_j (a+j+1)_{n-j} and (-M)_n = (-M)_j (-M+j)_{n-j}), but
    stays meaningful for n > M and for level shifts below zero, which the
    bivariate chain needs.

    Rational arguments are cleared to a common denominator q, the sum of
    n!/j! times each term runs over Python ints with prefix and suffix
    products (O(n) multiplications), and the one division is by n! q^(2n).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    q, (X, A, B, K) = _cleared(x, alpha, beta, M)
    total = _point_sum(_coefficients(n, q, A, B, K), q, X)
    return Rat(total, _denominator(n, q))


def hahn_eval(n: int, x, p: UniParams):
    """h_n(x) for 0 <= n <= N; x may sit off the grid (polynomial extension).

    One call of the kernel: nothing is cached, so a sweep over the grid
    should read hahn_table instead.
    """
    if not 0 <= n <= p.N:
        raise ValueError(f"degree {n} outside 0..{p.N}")
    return eval_total(n, Rat(x), p.alpha, p.beta, p.N)


def hahn_table(p: UniParams) -> tuple:
    """Every grid value, as one (numerators, denominator) pair per degree.

    Row n holds the integers t_0..t_N with h_n(x) = t_x / d_n; the
    coefficients of the sum are built once per degree and shared by all
    N+1 points.
    """
    q, (A, B, K) = _cleared(p.alpha, p.beta, p.N)
    rows = []
    for n in range(p.N + 1):
        coeffs = _coefficients(n, q, A, B, K)
        nums = tuple(_point_sum(coeffs, q, q * x) for x in range(p.N + 1))
        rows.append((nums, _denominator(n, q)))
    return tuple(rows)


def hahn_weight(x: int, p: UniParams):
    """The hypergeometric-distribution weight C(N, x) (a+1)_x (b+1)_{N-x} / (a+b+2)_N.

    With a = A/q and b = B/q, each rising factorial is a cleared integer
    product over q^(its length); the q^N above and below cancel, so the
    weight is one rational of two integer products.
    """
    if not 0 <= x <= p.N:
        raise ValueError(f"grid point {x} outside 0..{p.N}")
    N = p.N
    q, (A, B) = _cleared(p.alpha, p.beta)
    return Rat(
        math.comb(N, x) * rising(A + q, x, q) * rising(B + q, N - x, q),
        rising(A + B + 2 * q, N, q),
    )


def hahn_norm(n: int, p: UniParams):
    """Norm of h_n under the weight, in the cancellation-safe arrangement.

    The textbook prefactor (a+b+1)/(a+b+1)_n is 0/0 at a+b+1 = 0; for n >= 1
    it equals 1/(a+b+2)_{n-1}, which is what gets evaluated here:

        N! n! / (N-n)! (a+1)_n (b+1)_n (N+a+b+2)_n / ((2n+a+b+1) (a+b+2)_{n-1}),

    as one rational of cleared integer products, the q^(3n) above against
    the q^n below leaving q^(2n) in the denominator.
    """
    if not 0 <= n <= p.N:
        raise ValueError(f"degree {n} outside 0..{p.N}")
    if n == 0:
        return Rat(1)
    N = p.N
    q, (A, B) = _cleared(p.alpha, p.beta)
    return Rat(
        math.perm(N, n)
        * math.factorial(n)
        * rising(A + q, n, q)
        * rising(B + q, n, q)
        * rising(A + B + (N + 2) * q, n, q),
        q ** (2 * n) * (A + B + (2 * n + 1) * q) * rising(A + B + 2 * q, n - 1, q),
    )


def _check_orthogonality(p: UniParams) -> CheckResult:
    """Gram sums on integer numerators over one common weight denominator.

    With w_x = omega_x / W and h_n(x) = t_{n,x} / d_n, the pair (n, m) sums
    acc = sum_x omega_x t_{n,x} t_{m,x} over ints.  Once the scale
    W d_n d_m is shown nonzero, an off-diagonal pair passes when acc is 0
    and a diagonal one when acc den(norm) = num(norm) W d_n d_m; rationals
    are made only to report a failure.
    """
    N = p.N
    W, omega = _cleared(*(hahn_weight(x, p) for x in range(N + 1)))
    table = hahn_table(p)
    for n in range(N + 1):
        nums_n, den_n = table[n]
        weighted = [o * t for o, t in zip(omega, nums_n)]
        for m in range(n + 1):
            nums_m, den_m = table[m]
            scale = nonzero(W * den_n * den_m, "the Gram scale W d_n d_m")
            acc = sum(v * t for v, t in zip(weighted, nums_m))
            want = hahn_norm(n, p) if n == m else _ZERO
            if acc * int(want.denominator) != int(want.numerator) * scale:
                got = Rat(acc, scale)
                return CheckResult.failure(
                    "orthogonality",
                    residual=f"{abs(float(got - want)):.17g}",
                    indices=[n, m],
                    lhs=format_rational(got),
                    rhs=format_rational(want),
                )
    return CheckResult.exact_pass("orthogonality")


def _check_genfun(p: UniParams) -> CheckResult:
    """1F1(-x; a+1; -t) 1F1(x-N; b+1; t) against sum_n h_n t^n / ((a+1)_n (b+1)_n n!).

    With a = A/q, b = B/q, r_j = q^j (a+1)_j and s_j = q^j (b+1)_j, the t^j
    coefficients of the two 1F1 are C(x, j) q^j / r_j and
    (-1)^j C(N-x, j) q^j / s_j, integers over r_x and s_{N-x}.  The right
    side's t^n coefficient is t_{n,x} q^(2n) / (d_n r_n s_n n!).  Both are
    compared multiplied crosswise; rationals are made only to report a
    failure.
    """
    N = p.N
    q, (A, B) = _cleared(p.alpha, p.beta)
    r = [rising(A + q, j, q) for j in range(N + 1)]
    s = [rising(B + q, j, q) for j in range(N + 1)]
    table = hahn_table(p)
    scales = [
        nonzero(den * r[n] * s[n] * math.factorial(n), "the scale d_n r_n s_n n!")
        for n, (_, den) in enumerate(table)
    ]
    for x in range(N + 1):
        left_one = tuple(math.comb(x, j) * q**j * (r[x] // r[j]) for j in range(x + 1))
        left_two = tuple(
            (-1) ** j * math.comb(N - x, j) * q**j * (s[N - x] // s[j]) for j in range(N - x + 1)
        )
        lhs, lhs_den = _poly_mul(left_one, left_two), r[x] * s[N - x]
        for n, (nums, _) in enumerate(table):
            left = lhs[n] if n < len(lhs) else 0
            right = nums[x] * q ** (2 * n)
            if left * scales[n] != right * lhs_den:
                left, right = Rat(left, lhs_den), Rat(right, scales[n])
                return CheckResult.failure(
                    "genfun",
                    residual=f"{abs(float(left - right)):.17g}",
                    indices=[x, n],
                    lhs=format_rational(left),
                    rhs=format_rational(right),
                )
    return CheckResult.exact_pass("genfun")


def _check_dual_genfun(p: UniParams) -> CheckResult:
    """(-N)_n n! (1+t)^N P_n((1-t)/(1+t)) against sum_x C(N,x) h_n(x) t^x.

    The Jacobi argument is cleared exactly: each z^i becomes (1-t)^i (1+t)^(N-i).
    The Jacobi coefficients are cleared to integers over one denominator,
    the powers are int tuples, and the two sides are compared multiplied
    crosswise; rationals are made only to report a failure.
    """
    N = p.N
    plus = [(1,)]
    minus = [(1,)]
    for _ in range(N):
        plus.append(_poly_mul(plus[-1], (1, 1)))
        minus.append(_poly_mul(minus[-1], (1, -1)))
    bases = [_poly_mul(minus[i], plus[N - i]) for i in range(N + 1)]
    for n, (nums, den) in enumerate(hahn_table(p)):
        nonzero(den, "the table denominator d_n")
        jac_den, coeffs = _cleared(*jacobi_coeffs(n, p.alpha, p.beta))
        lhs = (0,)
        for c, base in zip(coeffs, bases):
            if c != 0:
                lhs = _poly_add(lhs, tuple(c * v for v in base))
        scale = rising(-N, n) * math.factorial(n)
        for x, t in enumerate(nums):
            left = scale * (lhs[x] if x < len(lhs) else 0)
            right = math.comb(N, x) * t
            if left * den != right * jac_den:
                left, right = Rat(left, jac_den), Rat(right, den)
                return CheckResult.failure(
                    "dual-genfun",
                    residual=f"{abs(float(left - right)):.17g}",
                    indices=[n, x],
                    lhs=format_rational(left),
                    rhs=format_rational(right),
                )
    return CheckResult.exact_pass("dual-genfun")


_CHECKS = {
    "orthogonality": _check_orthogonality,
    "genfun": _check_genfun,
    "dual-genfun": _check_dual_genfun,
}

UNI_CHECK_NAMES = tuple(_CHECKS)


def verify_uni(check: str, p: UniParams) -> VerificationReport:
    if check not in _CHECKS:
        raise ValueError(f"unknown check: {check}")
    return VerificationReport(suite="uni", params=p.echo(), checks=(_guarded(check, _CHECKS[check], p),))
