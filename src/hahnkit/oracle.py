"""Independent verification plane for the two-variable family.

Instead of evaluating explicit polynomials, this module builds the two
difference operators as exact sparse rows over the simplex grid and
certifies on ints that the ChainTable rows are their joint eigenbasis at
the known eigenvalues (simplex.eigen_mismatch): as the eigenvalue pairs are
pairwise distinct, that makes every joint eigenspace one line, spanned by
its row.  The overlap matrix is factored through the intermediate
(cylindrical) basis, one product of two univariate overlaps per entry, and
the underlying algebra is realized as truncated su(1,1) actions in a
square-root-free basis.

Each check does its work once: the certificate is joint-eigenvectors'
alone, and the chain checks decide on the integer pieces of the factors'
blocks (_factor_blocks, each simplex.gram_pieces); chain-composition reads
their overlaps as exact signed squares (simplex.overlap_squares), and
chain_matrices the same overlaps as floats (simplex.overlap_floats).

The operator coefficient tables are written out here on purpose, not
imported from the evaluation module: the whole point of the oracle is that
the two routes share nothing but the grid ordering and the candidate rows
it certifies.
"""
from __future__ import annotations

from typing import NamedTuple

from .hahn_bi import BiParams
from .numeric import Rat, RationalMatrix, format_rational
from .reports import CheckResult, VerificationReport, _guarded
from .simplex import (
    ChainTable, cleared, eigen_mismatch, gram_mismatch, gram_pieces, overlap_floats, overlap_squares, simplex_points,
)

# The largest level whose seven oracle checks fit in 60 s, criterion 03's
# budget for a whole suite at one level, on the fractions backend (cost
# curve in the README, chain-composition the largest part); verify_oracle
# refuses a level above it.
MAX_ORACLE_LEVEL = 63

OPERATOR_LABELS = ("L1", "L2")


def _shift_coeffs(label: str, i, k, a1, a2, a3, N):
    """Off-diagonal coefficients keyed by grid displacement.

    The diagonal is minus their sum, so constants are annihilated by
    construction; every factor vanishes exactly where its shift would
    leave the simplex.
    """
    if label == "L1":
        return {
            (-1, 1): i * (k + a2 + 1),
            (1, -1): k * (i + a1 + 1),
        }
    return {
        (1, 0): (i + a1 + 1) * (N - i - k),
        (0, 1): (k + a2 + 1) * (N - i - k),
        (-1, 0): i * (N - i - k + a3 + 1),
        (0, -1): k * (N - i - k + a3 + 1),
        (1, -1): k * (i + a1 + 1),
        (-1, 1): i * (k + a2 + 1),
    }


def build_operator(label: str, p: BiParams) -> tuple:
    """One difference operator as sparse rows: for each point of
    simplex_points(N, 2), {column: entry} over its nonzero entries, columns
    in the same order and ascending.  A row has at most 3 (L1) or 7 (L2)
    entries: the distinct shifts of _shift_coeffs and the diagonal."""
    if label not in OPERATOR_LABELS:
        raise ValueError(f"unknown operator label {label!r}")
    points = tuple(simplex_points(p.N, 2))
    index = {g: t for t, g in enumerate(points)}
    rows = []
    for i, k in points:
        row = {}
        diag = Rat(0)
        coeffs = _shift_coeffs(label, Rat(i), Rat(k), p.alpha1, p.alpha2, p.alpha3, p.N)
        for (di, dk), c in coeffs.items():
            diag -= c
            target = (i + di, k + dk)
            if target in index:
                row[index[target]] = c
            elif c != 0:
                raise ArithmeticError(
                    f"{label} coefficient {format_rational(c)} leaks off the "
                    f"simplex at {(i, k)} toward {target}"
                )
        row[index[(i, k)]] = diag
        rows.append({c: v for c, v in sorted(row.items()) if v})
    return tuple(rows)


def eigenvalue(label: str, d, p: BiParams):
    """Known spectrum: -m(m+a12+1) for L1, -(m+n)(m+n+a123+2) for L2."""
    m, n = d
    if label == "L1":
        return -Rat(m) * (m + p.a12 + 1)
    if label == "L2":
        return -Rat(m + n) * (m + n + p.a123 + 2)
    raise ValueError(f"unknown operator label {label!r}")


def _combination(weights: dict, vectors: list) -> dict:
    """sum_j weights[j] * vectors[j], all sparse."""
    out = {}
    for j, w in weights.items():
        for r, v in vectors[j].items():
            out[r] = out.get(r, 0) + w * v
    return out


def _eigen_failure(p: BiParams) -> tuple:
    """The ChainTable rows of every degree pair, and the first failure of
    simplex.eigen_mismatch on them as the joint (L1, L2) eigenbasis, or None.

    Each operator's rows and eigenvalues are cleared once, over one
    denominator.  A failure is (indices, (A v)_row, lambda v_row), its
    sides in units of the value row / ChainTable.den; a repeated eigenvalue
    pair or a zero row raises ArithmeticError.
    """
    table = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    degs = tuple(simplex_points(p.N, 2))
    candidates = {d: table.row(d, p.N) for d in degs}
    operators, dens = {}, {}
    for label in OPERATOR_LABELS:
        rows, eigs = build_operator(label, p), [eigenvalue(label, d, p) for d in degs]
        dens[label], ints = cleared(*eigs, *(v for row in rows for v in row.values()))
        entries = iter(ints[len(eigs):])
        operators[label] = [{c: next(entries) for c in row} for row in rows], ints[: len(eigs)]
    bad = eigen_mismatch(operators, candidates)
    if bad is not None:
        label, d, r, lhs, rhs = bad
        scale = dens[label] * table.den(d)
        bad = {"operator": label, "degree": list(d), "row": r}, Rat(lhs, scale), Rat(rhs, scale)
    return candidates, bad


def joint_eigenvectors(p: BiParams) -> dict:
    """Generator of each joint (L1, L2) eigenspace, first nonzero entry 1,
    keyed by degree pair: the ChainTable rows, certified first
    (_eigen_failure).  Raises ArithmeticError if they fail."""
    candidates, bad = _eigen_failure(p)
    if bad is not None:
        indices, lhs, rhs = bad
        raise ArithmeticError(
            f"{indices['operator']} v != lambda v at degree {tuple(indices['degree'])}, "
            f"row {indices['row']}: {format_rational(lhs)} vs {format_rational(rhs)}"
        )
    leads = {d: next(v for v in row if v) for d, row in candidates.items()}
    return {d: tuple(Rat(v, leads[d]) for v in row) for d, row in candidates.items()}


# ---------------------------------------------------------------------------
# cylindrical chain


def cylindrical_pairs(N: int):
    """Intermediate-basis labels (p, q) with 0 <= p <= q <= N, q major."""
    for q in range(N + 1):
        for p in range(q + 1):
            yield (p, q)


class ChainMatrix(NamedTuple):
    """Float change-of-basis matrix with labeled rows and columns."""

    params: BiParams
    rows: tuple
    cols: tuple
    entries: tuple

    @property
    def side(self) -> int:
        return len(self.rows)


def _factor_blocks(p: BiParams) -> tuple:
    """Both chain factors' blocks on ints, each the Gram pieces of a d = 1
    orthonormal system (simplex.gram_pieces): (alpha1, alpha2) at level q =
    0..N for the first, (2m + a12 + 1, alpha3) at level N - m for the second.
    Entry (n, x) of a block is its overlap (simplex.overlap_floats)."""
    return (
        [gram_pieces((p.alpha1, p.alpha2), q) for q in range(p.N + 1)],
        [gram_pieces((2 * m + p.a12 + 1, p.alpha3), p.N - m) for m in range(p.N + 1)],
    )


def chain_matrices(p: BiParams) -> tuple[ChainMatrix, ChainMatrix]:
    """(cartesian -> cylindrical, cylindrical -> spherical) overlap factors.

    The first is block diagonal in q = i + k, the second in m = p; their
    product is the full overlap matrix.  Both are orthogonal because each
    block is a univariate orthonormal system (_factor_blocks), whose floats
    are simplex.overlap_floats.
    """
    N = p.N
    grid = degs = tuple(simplex_points(N, 2))
    cyl = tuple(cylindrical_pairs(N))
    lines, columns = ([overlap_floats(*block) for block in blocks] for blocks in _factor_blocks(p))
    first = tuple(tuple(lines[q][pp][i] if q == i + k else 0.0 for pp, q in cyl) for i, k in grid)
    second = tuple(tuple(columns[m][n][q - m] if m == pp else 0.0 for m, n in degs) for pp, q in cyl)
    return (
        ChainMatrix(params=p, rows=grid, cols=cyl, entries=first),
        ChainMatrix(params=p, rows=cyl, cols=degs, entries=second),
    )


def chain_blocks(first: ChainMatrix, second: ChainMatrix) -> tuple:
    """Each float factor's blocks, {key: (row indices, column indices)}, both
    ascending.  first couples a grid point (i, k) only to the labels (m, q)
    with q = i + k, and second couples (m, q) only to the degree pairs
    (m, n), so the key is q for first and m for second (chain_product).

    Raises ArithmeticError naming the first entry off the blocks, first
    factor before second and row-major, that is not exactly 0.0.
    """
    out = []
    for which, factor, row_key, col_key in (
        ("first", first, sum, lambda c: c[1]),
        ("second", second, lambda r: r[0], lambda c: c[0]),
    ):
        col_keys = [col_key(c) for c in factor.cols]
        blocks = {}
        for c, key in enumerate(col_keys):
            blocks.setdefault(key, ([], []))[1].append(c)
        for r, (g, row) in enumerate(zip(factor.rows, factor.entries)):
            key = row_key(g)
            blocks.setdefault(key, ([], []))[0].append(r)
            for c, value in enumerate(row):
                if value and col_keys[c] != key:
                    raise ArithmeticError(
                        f"the {which} chain factor is {value!r} off its blocks at row {g}, col {factor.cols[c]}"
                    )
        out.append(blocks)
    return tuple(out)


def chain_product(first: ChainMatrix, second: ChainMatrix) -> tuple:
    """The overlap matrix first * second, one product per entry: by the
    blocks of chain_blocks (which raises on an entry off them), the entry at
    ((i, k), (m, n)) is first[(i, k), (m, i + k)] * second[(m, i + k), (m, n)],
    or 0.0 when m > i + k."""
    chain_blocks(first, second)
    middle = {label: j for j, label in enumerate(first.cols)}
    out = []
    for (i, k), row in zip(first.rows, first.entries):
        q = i + k
        # 0 + turns a product -0.0 into 0.0, as a sum from 0 does
        out.append(tuple(
            0 + row[middle[m, q]] * second.entries[middle[m, q]][c] if m <= q else 0.0
            for c, (m, n) in enumerate(second.cols)
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# truncated su(1,1)


class Su11Module(NamedTuple):
    """Positive-discrete-series actions on span(f_0 .. f_nmax).

    Basis without square roots: K+ f_n = f_{n+1}, K- f_n = n(n+2nu-1) f_{n-1},
    K0 f_n = (n+nu) f_n.  Related to the orthonormal convention by the
    diagonal rescaling f_n = sqrt(n! (2nu)_n) e_n, which leaves commutation
    relations and the Casimir untouched.
    """

    nu: object
    nmax: int
    k0: RationalMatrix
    kplus: RationalMatrix
    kminus: RationalMatrix

    def casimir(self) -> RationalMatrix:
        return self.k0.matmul(self.k0) - self.kplus.matmul(self.kminus) - self.k0


def su11_build(nu, nmax: int) -> Su11Module:
    nu = Rat(nu)
    if nu <= 0:
        raise ValueError("weight nu must be positive")
    if not isinstance(nmax, int) or nmax < 1:
        raise ValueError("truncation nmax must be a positive integer")
    size = nmax + 1
    k0 = [[Rat(n) + nu if r == n else Rat(0) for n in range(size)] for r in range(size)]
    kplus = [[Rat(1) if r == n + 1 else Rat(0) for n in range(size)] for r in range(size)]
    kminus = [
        [Rat(n) * (n + 2 * nu - 1) if r == n - 1 else Rat(0) for n in range(size)]
        for r in range(size)
    ]
    return Su11Module(
        nu=nu,
        nmax=nmax,
        k0=RationalMatrix(k0),
        kplus=RationalMatrix(kplus),
        kminus=RationalMatrix(kminus),
    )


# ---------------------------------------------------------------------------
# verification suite


def _check_annihilate_constants(p: BiParams) -> CheckResult:
    name = "annihilate-constants"
    for label in OPERATOR_LABELS:
        for g, row in zip(simplex_points(p.N, 2), build_operator(label, p)):
            value = sum(row.values())
            if value != 0:
                return CheckResult.mismatch(name, {"label": label, "point": list(g)}, value, 0)
    return CheckResult.exact_pass(name)


def _check_commutation(p: BiParams) -> CheckResult:
    """L1 L2 = L2 L1, compared row by row as sparse products; a failure
    names the first defect in row-major order."""
    name = "commutation"
    l1, l2 = build_operator("L1", p), build_operator("L2", p)
    for r, (row1, row2) in enumerate(zip(l1, l2)):
        left, right = _combination(row1, l2), _combination(row2, l1)
        bad = [c for c in left.keys() | right.keys() if left.get(c, 0) != right.get(c, 0)]
        if bad:
            c = min(bad)
            return CheckResult.mismatch(name, {"row": r, "col": c}, left.get(c, 0), right.get(c, 0))
    return CheckResult.exact_pass(name)


def _check_joint_eigenvectors(p: BiParams) -> CheckResult:
    """Every ChainTable row a joint (L1, L2) eigenvector at its known
    eigenvalues, on ints; a failure names the operator, degree pair and row,
    with (A v)_row against lambda v_row."""
    name = "joint-eigenvectors"
    bad = _eigen_failure(p)[1]
    return CheckResult.exact_pass(name) if bad is None else CheckResult.mismatch(name, *bad)


def _check_chain_orthogonality(p: BiParams) -> CheckResult:
    """Each block of both factors orthonormal, on ints: sqrt(nd_a nd_b /
    (norm_a norm_b)) is common to every term of (F^T F)_ab, so the block's
    Gram sums decide it (gram_mismatch); a failure names the factor, its
    block key (q or m) and the degree pair."""
    name = "chain-orthogonality"
    for which, blocks in zip(("first", "second"), _factor_blocks(p)):
        for key, block in enumerate(blocks):
            bad = gram_mismatch(*block)
            if bad is not None:
                indices, lhs, rhs = bad
                indices = {"factor": which, "block": key, "degrees": indices}
                return CheckResult.mismatch(name, indices, lhs, rhs)
    return CheckResult.exact_pass(name)


def _check_chain_composition(p: BiParams) -> CheckResult:
    """The overlap at ((i, k), (m, n)) against first[(i, k), (m, q)]
    second[(m, q), (m, n)], q = i + k, and against 0 for m > q.  Every
    radicand is positive (each parameter exceeds -1), so each side is
    compared as its signed square x|x| (simplex.overlap_squares of each
    block, and of the d = 2 pieces one degree pair's row at a time, so no
    more than one row of squares is held), which determines x, crosswise on
    ints."""
    name = "chain-composition"
    weight, rows, dens, norms = gram_pieces((p.alpha1, p.alpha2, p.alpha3), p.N)
    first, second = ([overlap_squares(*block) for block in blocks] for blocks in _factor_blocks(p))
    points = tuple(simplex_points(p.N, 2))
    index = {g: t for t, g in enumerate(points)}
    for a, (m, n) in enumerate(points):
        ((row, scale),) = overlap_squares(weight, rows[a : a + 1], dens[a : a + 1], norms[a : a + 1])
        tails, tail_scale = second[m][n]
        for q in range(p.N + 1):
            chain, left = [0] * (q + 1), 1  # the product vanishes for m > q
            if m <= q:
                heads, head_scale = first[q][m]
                right, left = tails[q - m] * scale, head_scale * tail_scale
                chain = [v * right for v in heads]
            for i, c in enumerate(chain):
                value = row[index[i, q - i]]
                if value * left != c:
                    lhs, rhs = Rat(value, scale), Rat(c, scale * left)
                    return CheckResult.mismatch(name, {"point": [i, q - i], "degrees": [m, n]}, lhs, rhs)
    return CheckResult.exact_pass(name)


def _check_su11_casimir(p: BiParams) -> CheckResult:
    """Module actions built from the parameter weights nu_i = (alpha_i+1)/2:
    the Casimir, [K0, K+] = K+ and, below the truncated top row, [K-, K+] =
    2 K0, each compared entry by entry; a failure names the relation and its
    first differing entry, row-major."""
    name = "su11-casimir"
    nmax = max(p.N, 1) + 1
    for alpha in (p.alpha1, p.alpha2, p.alpha3):
        mod = su11_build((alpha + 1) / 2, nmax)
        relations = (
            ("casimir", mod.casimir(), RationalMatrix.identity(nmax + 1).scale(mod.nu * (mod.nu - 1)), nmax + 1),
            ("[K0,K+]", mod.k0.matmul(mod.kplus) - mod.kplus.matmul(mod.k0), mod.kplus, nmax + 1),
            ("[K-,K+]", mod.kminus.matmul(mod.kplus) - mod.kplus.matmul(mod.kminus), mod.k0.scale(2), nmax),
        )
        for relation, lhs, rhs, rows in relations:
            for r in range(rows):
                for c in range(nmax + 1):
                    if lhs.entry(r, c) != rhs.entry(r, c):
                        indices = {"nu": format_rational(mod.nu), "relation": relation, "row": r, "col": c}
                        return CheckResult.mismatch(name, indices, lhs.entry(r, c), rhs.entry(r, c))
    return CheckResult.exact_pass(name)


def su11_spectrum_check(p: BiParams) -> VerificationReport:
    """Exact match of the grid-operator spectra with the Casimir predictions.

    The first operator eigenvalue at (m, n) equals the two-factor Casimir
    value nu12(nu12-1) minus a12(a12+2)/4 with nu12 = m + nu1 + nu2; the
    second equals the three-factor value shifted by (s+1)(s+3)/4 with
    nu = m + n + nu1 + nu2 + nu3 and s = a123.  Checked as rational
    identities degree by degree; that the eigenvalues belong to joint
    eigenvectors of the grid operators is the joint-eigenvectors check.
    """
    nu1, nu2, nu3 = ((a + 1) / 2 for a in (p.alpha1, p.alpha2, p.alpha3))
    checks = []
    for name, label, nu_of, shift in (
        ("casimir-first", "L1", lambda m, n: m + nu1 + nu2, p.a12 * (p.a12 + 2) / 4),
        ("casimir-second", "L2", lambda m, n: m + n + nu1 + nu2 + nu3, (p.a123 + 1) * (p.a123 + 3) / 4),
    ):
        check = CheckResult.exact_pass(name)
        for d in simplex_points(p.N, 2):
            nu = nu_of(*d)
            lhs, rhs = nu * (nu - 1) - shift, -eigenvalue(label, d, p)
            if lhs != rhs:
                check = CheckResult.mismatch(name, {"degree": list(d)}, lhs, rhs)
                break
        checks.append(check)
    return VerificationReport(suite="su11", params=p.echo(), checks=tuple(checks))


_ORACLE_CHECKS = {
    "annihilate-constants": _check_annihilate_constants,
    "commutation": _check_commutation,
    "joint-eigenvectors": _check_joint_eigenvectors,
    "chain-orthogonality": _check_chain_orthogonality,
    "chain-composition": _check_chain_composition,
    "su11-casimir": _check_su11_casimir,
}

ORACLE_CHECK_NAMES = tuple(_ORACLE_CHECKS) + ("su11-spectrum",)


def verify_oracle(check: str, p: BiParams) -> VerificationReport:
    """One oracle check; a level above MAX_ORACLE_LEVEL is refused with
    ValueError before any matrix is built."""
    if check not in ORACLE_CHECK_NAMES:
        raise ValueError(f"unknown check: {check}")
    if p.N > MAX_ORACLE_LEVEL:
        raise ValueError(f"the oracle checks at level {p.N} are refused; the cap is {MAX_ORACLE_LEVEL}")
    if check == "su11-spectrum":
        report = su11_spectrum_check(p)
        return VerificationReport(suite="oracle", params=p.echo(), checks=report.checks)
    result = _guarded(check, _ORACLE_CHECKS[check], p)
    return VerificationReport(suite="oracle", params=p.echo(), checks=(result,))
