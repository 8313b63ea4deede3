"""The simplex table layer, one copy for every d, on Python ints.

The d-variable Hahn polynomials are a chain of univariate Hahn factors,
orthogonal under one multivariate hypergeometric weight on the simplex
i_1 + ... + i_d <= N; d = 1 and d = 2 are its first cases.  Here are the
univariate kernel (eval_total and its parts), the cleared Jacobi
expansion (jacobi_cleared), the one point ordering (simplex_points), its
one position map (simplex_positions), the one check that a degree or grid
tuple lies on the simplex (require_point), the chain table (ChainTable),
the weight (simplex_weight), the closed-form squared norm of a chain
(chain_norm), the Gram sums (gram_entries) and their one comparison with
that norm (gram_pieces, gram_mismatch), the overlap coefficients between
the Cartesian and the orthonormal basis, as floats and as exact signed
squares (overlap_floats, overlap_squares), the joint-eigenbasis
certificate (eigen_mismatch), and the generating function
(genfun_mismatch); hahn_uni, hahn_bi, hahn_multi and the oracle read them
and decide every comparison on the integers crosswise.  The sparse
polynomials of sparse_mul and sparse_sum, {exponent key: coefficient} in
any ring, are the package's one polynomial form.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import accumulate
from operator import mul

from .numeric import Rat, nonzero, rising


def cleared(*values):
    """A common denominator q of rational values, and the integers q*v."""
    q = math.lcm(*(int(v.denominator) for v in values))
    return q, [int(v.numerator) * (q // int(v.denominator)) for v in values]


def hahn_coefficients(n: int, q: int, A, B, K) -> list:
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


def point_sums(coeffs: list, q: int, points) -> list:
    """sum_j c_j prod_{i<j} (q*i - X) at each X of points, the point part
    being (-x)_j cleared by q^j, by Horner's rule.  At a grid point x = X/q
    below the degree every term past j = x vanishes, so the rule starts
    there."""
    top, out = len(coeffs) - 1, []
    for X in points:
        j = X // q if X % q == 0 and 0 <= X < q * top else top
        total, step = coeffs[j], q * j - X
        while j:
            j, step = j - 1, step - q
            total = coeffs[j] + step * total
        out.append(total)
    return out


def denominator(n: int, q: int) -> int:
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
    q, (X, A, B, K) = cleared(x, alpha, beta, M)
    (total,) = point_sums(hahn_coefficients(n, q, A, B, K), q, (X,))
    return Rat(total, denominator(n, q))


def jacobi_cleared(n: int, alpha, beta) -> tuple:
    """The coefficients of the degree-n Jacobi polynomial in z as integers
    over one denominator, (den, {power: coefficient}), zeros dropped.

    Expanded from a form polynomial in both parameters, so the raising
    relations may shift alpha or beta down to -1 and below without hitting a
    division: sum_j (-n)_j (n+a+b+1)_j (a+j+1)_{n-j} / (n! j!) ((1-z)/2)^j.
    With a = A/q and b = B/q, term j times den = q^n 2^n n! is

        (-1)^j C(n, j) 2^(n-j) prefix_j suffix_j (1 - z)^j,

    with the prefix prod_{i<j} (q(n+1+i) + A + B) = q^j (n+a+b+1)_j and the
    suffix prod_{j<=i<n} (A + q(i+1)) = q^(n-j) (a+j+1)_{n-j}, built as
    hahn_coefficients builds its own; the powers of 1 - z are summed
    by Horner's rule.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    q, (A, B) = cleared(Rat(alpha), Rat(beta))
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * (A + q * (i + 1))
    terms, prefix = [], 1
    for j in range(n + 1):
        terms.append((-1) ** j * math.comb(n, j) * prefix * suffix[j] << (n - j))
        prefix *= q * (n + 1 + j) + A + B
    total = [0] * (n + 1)
    for term in reversed(terms):  # total = total (1 - z) + term, in place
        for i in range(n, 0, -1):
            total[i] -= total[i - 1]
        total[0] += term
    return q**n * 2**n * math.factorial(n), {i: c for i, c in enumerate(total) if c}


def simplex_points(N: int, d: int):
    """Tuples of d nonnegative integers summing to at most N.

    Last coordinate major: at d = 2 the points (i, k) run k major, i minor.
    Serves for grid points and degree tuples alike; the implicit final
    component N - sum is never stored.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if d == 1:
        for i in range(N + 1):
            yield (i,)
        return
    for last in range(N + 1):
        for head in simplex_points(N - last, d - 1):
            yield head + (last,)


def simplex_positions(level: int, d: int) -> dict:
    """Each point of simplex_points(level, d) mapped to its position there;
    a point off the simplex is not a key."""
    return {pt: g for g, pt in enumerate(simplex_points(level, d))}


def require_point(entries, level: int, d: int, what: str) -> tuple:
    """entries as a tuple, if they are d nonnegative ints summing to at most
    level (a degree or grid tuple of simplex_points(level, d)); ValueError
    otherwise."""
    entries = tuple(entries)
    ok = len(entries) == d and all(isinstance(e, int) and e >= 0 for e in entries)
    if not ok or sum(entries) > level:
        raise ValueError(f"{what} {entries!r} off the simplex of level {level}, d={d}")
    return entries


class ChainTable:
    """Chain values at one parameter tuple, as integers; the lines and heads
    are kept as they are first read, the rows made afresh on each read.

    Factor k (from 1) is h_{n_k}(|i_<=k| - |n_<k|) with parameters
    (2|n_<k| + alpha_1 + ... + alpha_k + k - 1, alpha_{k+1}) and level
    |i_<=k+1| - |n_<k|, where |i_<=d+1| is the level the value is read at;
    arguments and levels can leave the classical range.  The tuple is
    cleared to one denominator Q (cleared, as the function cleared gives
    it), and each factor built with the univariate kernel: a line, the
    factor at |i_<=k| = 0..|i_<=k+1| from its coefficient list, once per
    (k, n_k, |n_<k|, |i_<=k+1|).  A head, the product of a degree prefix's
    factors over simplex_points(level, d), is made once per prefix and
    level from the prefix one shorter; a row is the head of its first d - 1
    degrees times its last factor's line read at each point's |i|, one
    product per point, and it lives only as long as its caller keeps it.
    num(degs, pts, level) / den(degs) is one value, its d point sums
    multiplied directly; at d = 1 row n is the univariate grid of h_n.
    """

    def __init__(self, alphas):
        self.d = len(alphas) - 1
        self.cleared = self.Q, cleared_alphas = cleared(*alphas)
        self._partial = list(accumulate(cleared_alphas, initial=0))
        self._beta = cleared_alphas[1:]
        self._lines, self._sums, self._heads = {}, {}, {}

    def points(self, level: int) -> tuple:
        return tuple(simplex_points(level, self.d))

    def den(self, degs) -> int:
        return math.prod(denominator(n, self.Q) for n in degs)

    def _coefficients(self, k: int, n: int, nsum: int, top: int) -> list:
        Q = self.Q
        return hahn_coefficients(n, Q, Q * (2 * nsum + k) + self._partial[k + 1], self._beta[k], Q * (top - nsum))

    def num(self, degs, pts, level: int) -> int:
        """The chain numerator at one point: the product of its d point sums."""
        Q, out, nsum = self.Q, 1, 0
        sums = [*accumulate(pts), level]
        for k, n in enumerate(degs):
            (value,) = point_sums(self._coefficients(k, n, nsum, sums[k + 1]), Q, (Q * (sums[k] - nsum),))
            out *= value
            nsum += n
        return out

    def _line(self, k: int, n: int, nsum: int, top: int) -> list:
        """Factor k + 1, of degree n after the degree sum nsum, at |i_<=k+1|
        = 0..top: its values at the points whose |i_<=k+2| is top (for
        factor d, top is the level)."""
        key = (k, n, nsum, top)
        line = self._lines.get(key)
        if line is None:
            Q, coeffs = self.Q, self._coefficients(k, n, nsum, top)
            line = self._lines[key] = point_sums(coeffs, Q, range(-Q * nsum, Q * (top + 1 - nsum), Q))
        return line

    def _partial_sums(self, level: int) -> list:
        """|i_<=k+1| at each point of simplex_points(level, d), k = 0..d-1;
        the empty prefix's head, all ones, is laid down with them."""
        sums = self._sums.get(level)
        if sums is None:
            points = self.points(level)
            sums = self._sums[level] = [[sum(pt[: k + 1]) for pt in points] for k in range(self.d)]
            self._heads[(), level] = [1] * len(points)
        return sums

    def _head(self, prefix: tuple, level: int) -> list:
        """The product of the factors of a degree prefix shorter than d over
        simplex_points(level, d): the head of the prefix one shorter times
        the new factor k + 1's lines, one per |i_<=k+2|, read at |i_<=k+1|."""
        key = (prefix, level)
        head = self._heads.get(key)
        if head is None:
            k, sums = len(prefix) - 1, self._partial_sums(level)
            lines = [self._line(k, prefix[k], sum(prefix[:k]), top) for top in range(level + 1)]
            head = self._heads[key] = [
                h * lines[top][isum] for h, isum, top in zip(self._head(prefix[:k], level), sums[k], sums[k + 1])
            ]
        return head

    def row(self, degs, level: int) -> tuple:
        """The numerators of degree tuple degs over simplex_points(level, d),
        made on each call from the kept head and line; a row is not kept,
        so a caller that reads it again makes it again."""
        isums = self._partial_sums(level)[-1]
        line = self._line(self.d - 1, degs[-1], sum(degs[:-1]), level)
        # A list first: tuple() of an iterator grows by resizing, and the
        # freed rows then pile up on the tuple free lists (0.2 MB of peak on
        # the uni sweep).
        return tuple([h * line[isum] for h, isum in zip(self._head(degs[:-1], level), isums)])


def simplex_weight(alphas, N: int) -> tuple:
    """The multivariate hypergeometric weight on the level-N simplex, as
    (numerators over simplex_points(N, d), one denominator).

    With i_{d+1} = N - |i|, w_i = N!/(i_1! ... i_{d+1}!) prod_k
    (alpha_k + 1)_{i_k} / (alpha_1 + ... + alpha_{d+1} + d + 1)_N.  Cleared
    to A_k = Q alpha_k, each rising factorial is rising(., ., Q) over Q^(its
    length), and the Q^N above and below cancel.
    """
    d = len(alphas) - 1
    Q, A = cleared(*alphas)
    rises = [list(accumulate((a + Q * j for j in range(1, N + 1)), mul, initial=1)) for a in A]
    fact = [math.factorial(j) for j in range(N + 1)]
    nums = []
    for pts in simplex_points(N, d):
        full = pts + (N - sum(pts),)
        multinomial = fact[N] // math.prod(fact[i] for i in full)
        nums.append(multinomial * math.prod(rise[i] for rise, i in zip(rises, full)))
    return tuple(nums), rising(sum(A) + (d + 1) * Q, N, Q)


def chain_norm(params, degs, N: int) -> tuple[int, int]:
    """The squared norm sum_g w_g (row_g / den)^2 of the bare chain of degree
    tuple degs at level N, in closed form, as one integer numerator and
    denominator; params is the tuple cleared to Q, (Q, A) as cleared gives it.

    Summing out factor k's variable along each line of its level leaves the
    univariate norm of h_{n_k} with parameters (a_k, alpha_{k+1}), and what
    remains is the chain of one variable fewer with parameters (a_k +
    alpha_{k+1} + 2 n_k + 1, alpha_{k+2}, ...) at level N - n_k, whose
    weight has the denominator (T + 2 n_k)_{N - n_k} where this one has
    (T)_N, T = alpha_1 + ... + alpha_{d+1} + d + 1.  So factor k
    contributes, with N and T its own level and start,

        n! (a+1)_n (b+1)_n (a+b+n+1)_n N!/(N-n)! (N+T)_n / (T)_{2n},

    and at the last factor T = a + b + 2.  Every divisor is positive, as each
    parameter exceeds -1.  Each factor's rising products carry Q^(4n) above
    and Q^(2n) below, so Q^(2n) is left below.
    """
    Q, A = params
    a, T = A[0], sum(A) + (len(degs) + 1) * Q
    num = den = 1
    for n, b in zip(degs, A[1:]):
        if n:  # a factor of degree 0 contributes 1
            num *= (
                math.factorial(n)
                * math.perm(N, n)
                * rising(a + Q, n, Q)
                * rising(b + Q, n, Q)
                * rising(a + b + (n + 1) * Q, n, Q)
                * rising(T + N * Q, n, Q)
            )
            den *= Q ** (2 * n) * rising(T, 2 * n, Q)
        a, T, N = a + b + (2 * n + 1) * Q, T + 2 * n * Q, N - n
    return num, den


def gram_entries(weight, rows, dens):
    """Integer Gram sums of values rows[a][g] / dens[a] under a weight
    (omega, W) of simplex_weight's form, w_g = omega_g / W.

    Entry (a, b) is acc / scale, with acc = sum_g omega_g rows[a][g]
    rows[b][g] summed over ints and scale = W dens[a] dens[b].  Yields
    (a, b, acc, scale) for every diagonal and every nonzero off-diagonal
    entry with b <= a, a major and b minor.  Each yielded scale is shown
    nonzero; a zero scale of an entry not yielded shows at a diagonal too.
    """
    omega, W = weight
    for a, row in enumerate(rows):
        weighted = list(map(mul, omega, row))
        for b in range(a + 1):
            acc = sum(map(mul, weighted, rows[b]))
            if a == b or acc:
                yield a, b, acc, nonzero(W * dens[a] * dens[b], "the Gram scale W d_n d_m")


def gram_pieces(alphas, N: int) -> tuple:
    """The Gram check's integer pieces at level N, degree tuples in
    simplex_points order: (simplex_weight (omega, W), the ChainTable rows,
    their dens, chain_norm's pairs (norm, nd)).  The orthonormal value of
    degree n at grid point g, under w_g = omega_g / W, is rows[n][g] /
    dens[n] sqrt(nd / norm)."""
    table = ChainTable(alphas)
    degs = table.points(N)
    return (
        simplex_weight(alphas, N), [table.row(n, N) for n in degs],
        [table.den(n) for n in degs], [chain_norm(table.cleared, n, N) for n in degs],
    )


def gram_mismatch(weight, rows, dens, norms):
    """The first Gram sum (gram_entries) off its norm: pair (a, b) passes at
    sum 0 off the diagonal, at acc nd = norm W d_a d_b on it, with (norm, nd)
    = norms[a].  None, or ([a, b], acc / scale, norm / nd), the row indices
    and two rationals made only to report."""
    for a, b, acc, scale in gram_entries(weight, rows, dens):
        num, den = norms[a] if a == b else (0, 1)
        if acc * den != num * scale:
            return [a, b], Rat(acc, scale), Rat(num, den)
    return None


def overlap_floats(weight, rows, dens, norms) -> list:
    """The overlaps <g|n> = sqrt(w_g) P_n(g) / sqrt(Lambda_n) of gram_pieces'
    orthonormal system as floats: per degree tuple, the list over the grid
    points of rows[n][g] / dens[n] sqrt(omega_g nd / (W norm)).  Each is two
    int true divisions, rounded as float() of the reduced rational is; a
    zero entry is +0.0."""
    omega, W = weight
    out = []
    for row, den, (norm, nd) in zip(rows, dens, norms):
        scale = W * norm
        out.append([v / den * math.sqrt(w * nd / scale) if v and w else 0.0 for v, w in zip(row, omega)])
    return out


def overlap_squares(weight, rows, dens, norms) -> list:
    """The overlaps of overlap_floats exactly, each as its signed square
    x|x|, which determines x: per degree tuple, (the numerators v|v| omega_g
    nd over the grid points, one denominator den^2 W norm shown nonzero)."""
    omega, W = weight
    return [
        ([v * abs(v) * w * nd for v, w in zip(row, omega)], nonzero(den * den * W * norm, "the overlap scale"))
        for row, den, (norm, nd) in zip(rows, dens, norms)
    ]


def eigen_mismatch(operators: dict, labels, row):
    """The certificate that candidate rows are the joint eigenbasis of
    commuting operators, on ints.

    operators maps a name to (rows, eigenvalues): sparse rows, {column:
    entry} per row, and one eigenvalue per label of labels in its order, all
    integers over one denominator of that operator's own, which A v = lambda
    v drops.  row(label) makes the label's integer candidate row.  As
    eigenvectors of distinct eigenvalue tuples are independent, P nonzero
    candidates that pass span the space of dimension P, and each joint
    eigenspace is the line of its candidate.

    Raises ArithmeticError at two labels with one eigenvalue tuple, before
    any row is made, or at the first zero candidate.  Each candidate is made
    once, in label order, applied to every operator that could still fail
    first, and dropped.  Returns None, or the first failing (name, label,
    row, (A v)_row, lambda v_row), operators in their order, then labels,
    then rows.
    """
    labels, ops = tuple(labels), list(operators.items())
    seen = {}
    for label, key in zip(labels, zip(*(eigs for _, (_, eigs) in ops))):
        if key in seen:
            raise ArithmeticError(f"degenerate joint spectrum: {seen[key]} vs {label}")
        seen[key] = label
    first = None  # (operator position, failure) of the least (operator, label) failing so far
    for j, label in enumerate(labels):
        vec = row(label)
        if not any(vec):
            raise ArithmeticError(f"the candidate at {label} is zero")
        # at a later label only an earlier operator can fail first
        for o, (name, (rows, eigs)) in enumerate(ops[: len(ops) if first is None else first[0]]):
            sides = ((r, sum(a * vec[c] for c, a in cols.items()), eigs[j] * vec[r]) for r, cols in enumerate(rows))
            bad = next((side for side in sides if side[1] != side[2]), None)
            if bad is not None:
                first = o, (name, label, *bad)
                break
    return None if first is None else first[1]


def sparse_mul(f: dict, g: dict) -> dict:
    """The product of sparse polynomials {monomial key: coefficient}, a key
    holding the exponents as digits of one base that none may reach."""
    out = {}
    get = out.get
    for a, u in f.items():
        for b, v in g.items():
            out[a + b] = get(a + b, 0) + u * v
    return out


def sparse_sum(coeffs, polys) -> dict:
    """sum_j coeffs[j] * polys[j], skipping the zero coefficients."""
    out = {}
    get = out.get
    for c, poly in zip(coeffs, polys):
        if c:
            for key, v in poly.items():
                out[key] = get(key, 0) + c * v
    return out


def _exponents(degs, N: int) -> tuple:
    """The powers E_k of genfun_mismatch: m_k for k < d, N - |m_<d| last."""
    return degs[:-1] + (N - sum(degs[:-1]),)


def genfun_mismatch(alphas, N: int):
    """The generating function of the d-variable family at level N, on ints.

    For each degree tuple m and grid point g, both in simplex_points(N, d)
    order, with n = (g, N - |g|) and P_m the ChainTable row over den,

        sum_g N!/(n_1! ... n_{d+1}!) P_m(g) z^g = (-N)_{|m|} m_1! ... m_d! prod_k F_k,
        F_k = (s_k + z_{k+1})^E_k J_{m_k}^(a_k, alpha_{k+1})((z_{k+1} - s_k) / (s_k + z_{k+1})),

    with s_k = z_1 + ... + z_k, z_{d+1} = 1, a_k = 2|m_<k| + alpha_1 + ... +
    alpha_k + k - 1 and E_k from _exponents.  With J cleared (jacobi_cleared),
    F_k = sum_i c_i (z_{k+1} - s_k)^i (s_k + z_{k+1})^(E_k - i) on ints; z^a
    is keyed sum_k a_k (N+1)^(k-1), and as the E_k sum to N no key carries.
    Base products are made once per (k, i, E).  Each factor is expanded where
    it is read: once per degree prefix shorter than d, whose product of
    factors (its head) is kept, and the last once per (m_d, |m_<d|), kept
    from its first reader to its last.
    Returns None when every side agrees crosswise, else the first failing
    (m, g, product side, grid side), the sides as rationals.
    """
    d, base = len(alphas) - 1, N + 1
    table = ChainTable(alphas)
    points = table.points(N)
    partial = list(accumulate(alphas, initial=0))
    fact = [math.factorial(j) for j in range(N + 1)]
    keys = [sum(a * base**k for k, a in enumerate(g)) for g in points]
    weights = [fact[N] // (fact[N - sum(g)] * math.prod(fact[a] for a in g)) for g in points]
    powers = []  # per k: the powers 0..N of z_{k+1} - s_k and of s_k + z_{k+1}
    for k in range(d):
        top = base ** (k + 1) if k + 1 < d else 0
        sums = [{base**j: sign for j in range(k + 1)} | {top: 1} for sign in (-1, 1)]
        powers.append([list(accumulate([s] * N, sparse_mul, initial={0: 1})) for s in sums])

    @functools.cache
    def product(k, i, E):
        minus, plus = powers[k]
        return sparse_mul(minus[i], plus[E - i])

    def expansion(k, m, E):
        """F_k of degree tuple m, as (den, poly)."""
        den, coeffs = jacobi_cleared(m[k], 2 * sum(m[:k]) + partial[k + 1] + k, alphas[k + 1])
        return den, sparse_sum(coeffs.values(), [product(k, i, E[k]) for i in coeffs])

    heads = {(): (1, {0: 1})}  # per degree prefix shorter than d, where E_k = m_k: its factors' product and den
    # F_d depends on (m_d, |m_<d|) alone (E_d = N - |m_<d|): kept from its first reader to its last
    readers, lasts = Counter((m[-1], sum(m[:-1])) for m in points), {}
    for m in points:
        E, last = _exponents(m, N), (m[-1], sum(m[:-1]))
        for k in range(d - 1):
            if m[: k + 1] not in heads:
                (den, head), (f_den, f) = heads[m[:k]], expansion(k, m, E)
                heads[m[: k + 1]] = den * f_den, sparse_mul(head, f)
        readers[last] -= 1
        (den, head), (f_den, f) = heads[m[:-1]], lasts.pop(last, None) or expansion(d - 1, m, E)
        if readers[last]:
            lasts[last] = f_den, f
        den, poly = den * f_den, sparse_mul(head, f)
        scale = rising(-N, sum(m)) * math.prod(fact[n] for n in m)
        row, row_den = table.row(m, N), nonzero(table.den(m), "the table denominator")
        for g, key, w, v in zip(points, keys, weights, row):
            left, right = scale * poly.get(key, 0), w * v
            if left * row_den != right * den:
                return m, g, Rat(left, den), Rat(right, row_den)
    return None
