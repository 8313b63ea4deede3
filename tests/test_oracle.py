"""Oracle route: operator rows, the eigen-certificate, chain, su(1,1)."""
import math
import re

import numpy as np
import pytest

import hahnkit.oracle as oracle_mod
from hahnkit.hahn_bi import BiParams, bigLambda, overlap2, p2_eval, weight2
from hahnkit.numeric import Rat, RationalMatrix, format_rational
from hahnkit.oracle import (
    ORACLE_CHECK_NAMES,
    ChainMatrix,
    Su11Module,
    build_operator,
    chain_matrices,
    chain_product,
    cylindrical_pairs,
    eigenvalue,
    joint_eigenvectors,
    su11_build,
    su11_spectrum_check,
    verify_oracle,
)
from hahnkit.simplex import ChainTable, cleared, eigen_mismatch, simplex_points

TRIPLES = [(0, 0, 0), (Rat(1, 2), Rat(-1, 2), 3), (Rat(7, 3), 1, Rat(1, 2))]
# TRIPLES, three more, and the large-magnitude triple of the float plane's
# open false failures
DEFECT_TRIPLES = TRIPLES + [
    (Rat(-1, 2), Rat(-1, 2), Rat(-1, 2)),
    (3, 3, 3),
    (0, Rat(1, 2), Rat(7, 3)),
    (Rat(999983, 1000003), Rat(-1, 999983), Rat(123456789, 1000)),
]


def qa(p):
    """The cleared parameter tuple (Q, A) of p, as build_operator reads it."""
    return cleared(p.alpha1, p.alpha2, p.alpha3)


def p_vector(d, p):
    return [p2_eval(d, g, p) for g in simplex_points(p.N, 2)]


def dense(rows):
    """Sparse operator rows as the square matrix they stand for."""
    return RationalMatrix([[row.get(c, 0) for c in range(len(rows))] for row in rows])


def apply(rows, vec):
    """Sparse operator rows times the column vector vec, exactly."""
    return tuple(sum((a * vec[c] for c, a in row.items()), Rat(0)) for row in rows)


def dense_operator(label, p):
    """L1 or L2 as the dense P x P matrix of its hand-written displacement
    table, every entry filled, zeros included: the reference that the one
    formula of build_operator replaced.  The diagonal is minus the sum of the
    off-diagonal coefficients, each of which vanishes where its shift would
    leave the simplex."""
    points = tuple(simplex_points(p.N, 2))
    index = {g: t for t, g in enumerate(points)}
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    rows = []
    for i, k in points:
        j = p.N - i - k
        if label == "L1":
            coeffs = {(-1, 1): i * (k + a2 + 1), (1, -1): k * (i + a1 + 1)}
        else:
            coeffs = {
                (1, 0): (i + a1 + 1) * j,
                (0, 1): (k + a2 + 1) * j,
                (-1, 0): i * (j + a3 + 1),
                (0, -1): k * (j + a3 + 1),
                (1, -1): k * (i + a1 + 1),
                (-1, 1): i * (k + a2 + 1),
            }
        row = [Rat(0)] * len(points)
        for (di, dk), c in coeffs.items():
            row[index[(i, k)]] -= c
            if (i + di, k + dk) in index:
                row[index[(i + di, k + dk)]] += c
        rows.append(row)
    return RationalMatrix(rows)


def off_block(factor, row, col):
    """factor with 1e-3 at (row, col), where it must have exactly 0.0."""
    entries = [list(r) for r in factor.entries]
    assert entries[row][col] == 0.0
    entries[row][col] = 1e-3
    return ChainMatrix(factor.params, factor.rows, factor.cols, tuple(map(tuple, entries)))


def dense_chain_product(first, second):
    """The P^3 triple loop that chain_product replaced, kept as its reference."""
    cols = list(zip(*second.entries))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in first.entries]


class TestBuildOperator:
    def test_trivial_level(self):
        assert build_operator(1, qa(BiParams(0, 0, 0, 0)), 0) == ({},)

    def test_first_operator_hand_matrix(self):
        # N=1, alpha=0: rows (0,0),(1,0),(0,1)
        rows = build_operator(1, qa(BiParams(0, 0, 0, 1)), 1)
        assert rows == ({}, {1: -1, 2: 1}, {1: 1, 2: -1})
        assert dense(rows) == RationalMatrix([[0, 0, 0], [0, -1, 1], [0, 1, -1]])

    # DEFECT_TRIPLES holds TRIPLES
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("triple", DEFECT_TRIPLES)
    def test_rows_are_q_times_the_tables(self, k, triple):
        for N in range(7):
            p = BiParams(*triple, N)
            Q = qa(p)[0]
            want = tuple({c: Q * v for c, v in enumerate(row) if v} for row in dense_operator(f"L{k}", p).data)
            rows = build_operator(k, qa(p), N)
            assert rows == want
            assert all(type(v) is int for row in rows for v in row.values())
            assert [list(row) for row in rows] == [sorted(row) for row in rows]
            assert max(map(len, rows)) <= (3 if k == 1 else 7)

    @pytest.mark.parametrize("triple", DEFECT_TRIPLES)
    def test_eigenvalues_are_q_times_the_known_spectrum(self, triple):
        p = BiParams(*triple, 6)
        Q = qa(p)[0]
        for m, n in simplex_points(6, 2):
            first, second = (eigenvalue(k, (m, n), qa(p)) for k in (1, 2))
            assert type(first) is int and type(second) is int
            assert first == Q * -(m * (m + p.a12 + 1))
            assert second == Q * -((m + n) * (m + n + p.a123 + 2))

    def test_first_operator_eigenaction(self):
        rows = build_operator(1, qa(BiParams(0, 0, 0, 1)), 1)
        assert apply(rows, [0, -1, 1]) == (0, 2, -2)

    def test_second_operator_spectrum_via_eigenbasis(self):
        p = BiParams(0, 0, 0, 1)
        rows = build_operator(2, qa(p), 1)
        for d, eig in [((0, 0), 0), ((1, 0), -3), ((0, 1), -3)]:
            vec = p_vector(d, p)
            assert apply(rows, vec) == tuple(eig * v for v in vec)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("triple", TRIPLES)
    def test_eigenaction_full_simplex(self, k, triple):
        p = BiParams(*triple, 4)
        rows = build_operator(k, qa(p), 4)
        for d in simplex_points(4, 2):
            vec = p_vector(d, p)
            eig = eigenvalue(k, d, qa(p))
            assert apply(rows, vec) == tuple(eig * v for v in vec)

    def test_annihilates_constants(self):
        for triple in TRIPLES:
            p = BiParams(*triple, 3)
            for k in (1, 2):
                assert all(sum(row.values()) == 0 for row in build_operator(k, qa(p), 3))

    def test_operators_commute(self):
        for triple in TRIPLES:
            p = BiParams(*triple, 4)
            l1, l2 = (dense(build_operator(k, qa(p), 4)) for k in (1, 2))
            assert l1.matmul(l2) == l2.matmul(l1)

    def test_leak_off_the_simplex_raises(self, monkeypatch):
        orig = oracle_mod._rate

        def tampered(full, a, b, params):
            if full == (0, 2, 0) and (a, b) == (2, 1):
                return 5  # toward (0, 3), off the level N = 2
            return orig(full, a, b, params)

        monkeypatch.setattr(oracle_mod, "_rate", tampered)
        with pytest.raises(ArithmeticError, match=r"^L2 coefficient 5 leaks off the simplex at \(0, 2\) toward \(0, 3\)$"):
            build_operator(2, qa(BiParams(0, 0, 0, 2)), 2)

    # one parameter tuple per d, each a tuple of the mv or uni suites
    OTHER_D = [
        ((Rat(1, 2), Rat(7, 3)), 12),
        ((Rat(1, 2), 0, 3, Rat(7, 3)), 6),
        ((Rat(1, 3), Rat(1, 2), 2, 0, Rat(-1, 2)), 5),
        ((Rat(1, 2),) * 7, 3),
    ]

    @pytest.mark.parametrize("alphas, N", OTHER_D)
    def test_the_formula_at_other_d(self, alphas, N):
        """At d = 1, 3, 4 and 6 the ChainTable rows are joint eigenvectors of
        L_1 .. L_d, certified on ints, and every pair of them commutes."""
        table = ChainTable(alphas)
        d = table.d
        degs = tuple(simplex_points(N, d))
        operators = {
            k: (build_operator(k, table.cleared, N), [eigenvalue(k, m, table.cleared) for m in degs])
            for k in range(1, d + 1)
        }
        assert eigen_mismatch(operators, degs, lambda m: table.row(m, N)) is None
        for j in range(1, d + 1):
            for k in range(j + 1, d + 1):
                first, second = operators[j][0], operators[k][0]
                for row1, row2 in zip(first, second):
                    left, right = oracle_mod._combination(row1, second), oracle_mod._combination(row2, first)
                    assert {c: v for c, v in left.items() if v} == {c: v for c, v in right.items() if v}


def stacked_joint_eigenvectors(p):
    """The dense route the nested solve replaced, kept as its reference: one
    kernel of the stacked 2P x P matrix [L1 - lambda1; L2 - lambda2] per
    degree pair, in simplex_points order."""
    ops = {k: dense(build_operator(k, qa(p), p.N)).data for k in (1, 2)}
    out = {}
    for d in simplex_points(p.N, 2):
        rows = [
            [a - eigenvalue(k, d, qa(p)) if r == c else a for c, a in enumerate(row)]
            for k, matrix in ops.items()
            for r, row in enumerate(matrix)
        ]
        basis = RationalMatrix(rows).nullspace()
        assert len(basis) == 1
        out[d] = basis[0]
    return out


class TestJointEigenvectors:
    @pytest.mark.parametrize("triple", TRIPLES + [(0, Rat(1, 2), Rat(7, 3))])
    def test_nested_solve_equals_stacked_reference(self, triple):
        for N in range(7):
            p = BiParams(*triple, N)
            assert list(joint_eigenvectors(p).items()) == list(stacked_joint_eigenvectors(p).items())

    def test_degenerate_spectrum_refused_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "eigenvalue", lambda k, degs, params: 0)

        def no_solve(self):
            raise AssertionError("a kernel was solved")

        monkeypatch.setattr(RationalMatrix, "nullspace", no_solve)
        with pytest.raises(ArithmeticError, match=r"^degenerate joint spectrum: \(0, 0\) vs \(1, 0\)$"):
            joint_eigenvectors(BiParams(0, 0, 0, 2))

    def test_no_kernel_is_solved(self, monkeypatch):
        # the certificate alone: the whole suite passes, and the eigenvectors
        # come back, with RationalMatrix.nullspace unusable
        def no_solve(self):
            raise AssertionError("a kernel was solved")

        monkeypatch.setattr(RationalMatrix, "nullspace", no_solve)
        triple = (Rat(1, 2), Rat(-1, 2), 3)
        assert all(verify_oracle(name, BiParams(*triple, 6)).passed for name in ORACLE_CHECK_NAMES)
        for N in range(7):
            assert list(joint_eigenvectors(BiParams(*triple, N))) == list(simplex_points(N, 2))

    @pytest.mark.parametrize("entry", ["check", "joint_eigenvectors"])
    def test_each_row_made_once_in_simplex_points_order(self, monkeypatch, entry):
        """The certificate makes each degree pair's ChainTable row once, in
        simplex_points order, and joint_eigenvectors returns the rows it
        made, over their first nonzero entries."""
        honest, made = ChainTable.row, []

        def spy(self, degs, level):
            row = honest(self, degs, level)
            made.append((degs, level, row))
            return row

        monkeypatch.setattr(ChainTable, "row", spy)
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 5)
        if entry == "check":
            assert verify_oracle("joint-eigenvectors", p).passed
        else:
            vecs = joint_eigenvectors(p)
            lead = [next(v for v in row if v) for _, _, row in made]
            assert list(vecs.items()) == [
                (d, tuple(Rat(v, a) for v in row)) for (d, _, row), a in zip(made, lead)
            ]
        assert [(d, level) for d, level, _ in made] == [(d, 5) for d in simplex_points(5, 2)]

    def test_constant_member(self):
        vecs = joint_eigenvectors(BiParams(Rat(1, 2), 0, 3, 2))
        assert vecs[(0, 0)] == (Rat(1),) * 6

    def test_hand_vector(self):
        vecs = joint_eigenvectors(BiParams(0, 0, 0, 1))
        # P_{1,0} grid values (0,-1,1), rescaled to first nonzero 1
        assert vecs[(1, 0)] == (0, 1, -1)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_proportional_to_evaluation_route(self, triple):
        for N in range(5):
            p = BiParams(*triple, N)
            vecs = joint_eigenvectors(p)
            for d, vec in vecs.items():
                vals = p_vector(d, p)
                lead = next(v for v in vals if v != 0)
                assert vec == tuple(v / lead for v in vals)


class TestChain:
    def test_trivial_level(self):
        first, second = chain_matrices(BiParams(0, 0, 0, 0))
        assert first.entries == ((1.0,),)
        assert second.entries == ((1.0,),)

    def test_cylindrical_ordering(self):
        assert list(cylindrical_pairs(2)) == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
        assert len(list(cylindrical_pairs(9))) == 55

    def test_hand_matrices(self):
        first, second = chain_matrices(BiParams(0, 0, 0, 1))
        r2, r3, r6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
        assert np.allclose(
            first.entries, [[1, 0, 0], [0, 1 / r2, 1 / r2], [0, 1 / r2, -1 / r2]], atol=1e-15
        )
        assert np.allclose(
            second.entries, [[1 / r3, 0, -2 / r6], [2 / r6, 0, 1 / r3], [0, 1, 0]], atol=1e-15
        )

    def test_delta_structure(self):
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 5)
        first, second = chain_matrices(p)
        for (i, k), row in zip(first.rows, first.entries):
            for (pp, q), value in zip(first.cols, row):
                if q != i + k:
                    assert value == 0.0
        for (pp, q), row in zip(second.rows, second.entries):
            for (m, n), value in zip(second.cols, row):
                if m != pp:
                    assert value == 0.0

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_factors_orthogonal(self, triple):
        p = BiParams(*triple, 6)
        for factor in chain_matrices(p):
            a = np.array(factor.entries)
            assert np.max(np.abs(a.T @ a - np.eye(factor.side))) < 1e-12

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_product_equals_dense_loop(self, triple):
        # TRIPLES are the three triples of acceptance criterion 06
        for N in range(11):
            first, second = chain_matrices(BiParams(*triple, N))
            want = [[f"{v:.17g}" for v in row] for row in dense_chain_product(first, second)]
            assert [[f"{v:.17g}" for v in row] for row in chain_product(first, second)] == want

    @pytest.mark.parametrize("which, row, col", [("first", 1, 3), ("second", 2, 5)])
    def test_off_block_entry_raises(self, which, row, col):
        factors = dict(zip(("first", "second"), chain_matrices(BiParams(0, 0, 0, 2))))
        factors[which] = tampered = off_block(factors[which], row, col)
        message = (
            f"the {which} chain factor is 0.001 off its blocks at "
            f"row {tampered.rows[row]}, col {tampered.cols[col]}"
        )
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            chain_product(factors["first"], factors["second"])

    def test_level_above_the_overlap_cap_is_refused_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block was built")

        for name in ("_factor_blocks", "gram_pieces"):
            monkeypatch.setattr(oracle_mod, name, no_blocks)
        cap = oracle_mod.MAX_OVERLAP_LEVEL
        with pytest.raises(ValueError, match=f"^the chain factors at level {cap + 1} are refused; the cap is {cap}$"):
            chain_matrices(BiParams(Rat(1, 2), Rat(-1, 2), 3, cap + 1))
        with pytest.raises(AssertionError, match="a block was built"):
            chain_matrices(BiParams(Rat(1, 2), Rat(-1, 2), 3, cap))

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_composition_is_overlap(self, triple):
        for N in range(6):
            p = BiParams(*triple, N)
            first, second = chain_matrices(p)
            product = np.array(first.entries) @ np.array(second.entries)
            target = np.array(overlap2(p, mode="float").entries)
            assert np.max(np.abs(product - target)) < 1e-12


class TestSu11:
    @pytest.mark.parametrize("nu", [Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(2)])
    def test_casimir_exact(self, nu):
        mod = su11_build(nu, 12)
        expected = RationalMatrix.identity(13).scale(nu * (nu - 1))
        assert mod.casimir() == expected

    def test_casimir_value_example(self):
        mod = su11_build(Rat(3, 4), 5)
        assert mod.casimir().entry(2, 2) == Rat(-3, 16)

    def test_height_commutators_exact_everywhere(self):
        mod = su11_build(Rat(7, 3), 6)
        assert mod.k0.matmul(mod.kplus) - mod.kplus.matmul(mod.k0) == mod.kplus
        assert mod.k0.matmul(mod.kminus) - mod.kminus.matmul(mod.k0) == mod.kminus.scale(-1)

    def test_ladder_commutator_interior_rows(self):
        nu, nmax = Rat(3, 4), 5
        mod = su11_build(nu, nmax)
        ladder = mod.kminus.matmul(mod.kplus) - mod.kplus.matmul(mod.kminus)
        two_k0 = mod.k0.scale(2)
        for r in range(nmax):
            for c in range(nmax + 1):
                assert ladder.entry(r, c) == two_k0.entry(r, c)

    def test_ladder_commutator_top_row_artifact(self):
        nu, nmax = Rat(3, 4), 5
        mod = su11_build(nu, nmax)
        defect = mod.kminus.matmul(mod.kplus) - mod.kplus.matmul(mod.kminus) - mod.k0.scale(2)
        for c in range(nmax + 1):
            expected = 0 if c != nmax else -nmax * (nmax + 2 * nu - 1) - 2 * (nmax + nu)
            assert defect.entry(nmax, c) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            su11_build(0, 4)
        with pytest.raises(ValueError):
            su11_build(Rat(-1, 2), 4)
        with pytest.raises(ValueError):
            su11_build(Rat(1, 2), 0)


class TestSpectrumCheck:
    @pytest.mark.parametrize("triple", TRIPLES)
    def test_passes_on_lattice(self, triple):
        report = su11_spectrum_check(BiParams(*triple, 4))
        assert report.passed
        assert report.suite == "su11"
        assert [c.name for c in report.checks] == ["casimir-first", "casimir-second"]

    def test_solves_no_kernel(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a kernel was solved")

        monkeypatch.setattr(oracle_mod, "joint_eigenvectors", no_solve)
        monkeypatch.setattr(RationalMatrix, "nullspace", no_solve)
        assert verify_oracle("su11-spectrum", BiParams(Rat(1, 2), Rat(-1, 2), 3, 6)).passed

    def test_failure_report_pinned(self, monkeypatch):
        # L2's eigenvalue at (1, 1) one unit higher, Q on the integers: the
        # three-factor Casimir value there against it
        honest = oracle_mod.eigenvalue

        def tampered(k, degs, params):
            return honest(k, degs, params) + (params[0] if (k, degs) == (2, (1, 1)) else 0)

        monkeypatch.setattr(oracle_mod, "eigenvalue", tampered)
        report = verify_oracle("su11-spectrum", BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)).to_dict()
        assert report["status"] == "fail"
        assert report["checks"] == [
            {"name": "casimir-first", "status": "pass", "max_residual": "0"},
            {
                "name": "casimir-second",
                "status": "fail",
                "max_residual": "1",
                "counterexample": {"indices": {"degree": [1, 1]}, "lhs": "14", "rhs": "13"},
            },
        ]

    def test_exact_residuals(self):
        report = su11_spectrum_check(BiParams(Rat(1, 2), Rat(7, 3), 0, 3))
        assert all(c.max_residual == "0" for c in report.checks)


class TestVerifyOracle:
    @pytest.mark.parametrize("name", ORACLE_CHECK_NAMES)
    def test_all_checks_pass(self, name):
        assert verify_oracle(name, BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)).passed
        assert verify_oracle(name, BiParams(0, 0, 0, 4)).passed

    @pytest.mark.parametrize("name", ORACLE_CHECK_NAMES)
    def test_oversized_level_refused_before_any_matrix(self, name, monkeypatch):
        def no_build(*args):
            raise AssertionError("a matrix was built")

        for attr in ("build_operator", "chain_matrices", "_factor_blocks", "su11_build"):
            monkeypatch.setattr(oracle_mod, attr, no_build)
        cap = oracle_mod.MAX_ORACLE_LEVEL
        with pytest.raises(ValueError, match=f"^the oracle checks at level {cap + 1} are refused; the cap is {cap}$"):
            verify_oracle(name, BiParams(Rat(1, 2), Rat(-1, 2), 3, cap + 1))

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            verify_oracle("spectral-flow", BiParams(0, 0, 0, 1))

    def test_suite_list_is_frozen(self):
        assert ORACLE_CHECK_NAMES == (
            "annihilate-constants",
            "commutation",
            "joint-eigenvectors",
            "chain-orthogonality",
            "chain-composition",
            "su11-casimir",
            "su11-spectrum",
        )

    @staticmethod
    def _tamper_l1_within_line(monkeypatch):
        """L1 at (1, 1) toward (2, 0) gains 1, Q on the integer rows: a fault
        on one line i + k = 2.  The rate is the formula's one for that move,
        so L2's entry there gains it too."""
        orig = oracle_mod._rate

        def tampered(full, a, b, params):
            out = orig(full, a, b, params)
            return out + params[0] if full[:2] == (1, 1) and (a, b) == (1, 0) else out

        monkeypatch.setattr(oracle_mod, "_rate", tampered)

    @staticmethod
    def _raise_entry(monkeypatch, k, row, col, by):
        """build_operator(k, ...) with by, Q * by on its integer rows, added at
        (row, col): a fault that no rate of the formula can make."""
        orig = oracle_mod.build_operator

        def tampered(j, params, N):
            rows = orig(j, params, N)
            if j != k:
                return rows
            rows = list(rows)
            rows[row] = {**rows[row], col: rows[row].get(col, 0) + by * params[0]}
            return tuple(rows)

        monkeypatch.setattr(oracle_mod, "build_operator", tampered)

    def test_fault_injection_reports_failure(self, monkeypatch):
        self._tamper_l1_within_line(monkeypatch)
        p = BiParams(0, 0, 0, 3)
        commutation = verify_oracle("commutation", p)
        assert not commutation.passed
        eigen = verify_oracle("joint-eigenvectors", p)
        assert not eigen.passed
        assert eigen.checks[0].counterexample is not None

    @classmethod
    def _tamper_l1_across_lines(cls, monkeypatch):
        """L1 at (1, 1) gains 1 toward (1, 2), off the line i + k = 2, and its
        diagonal loses it; at N = 3 those are row 5's columns 8 and 5."""
        cls._raise_entry(monkeypatch, 1, 5, 8, 1)
        cls._raise_entry(monkeypatch, 1, 5, 5, -1)

    # the cross-line tamper at N = 3: L1 row 5, at (1, 1), reads P_{1,0}(1, 2)
    # = -1 from the line i + k = 3, where lambda P_{1,0}(1, 1) = 0
    LINE_COUPLING = {
        "name": "joint-eigenvectors",
        "status": "fail",
        "max_residual": "-1",
        "counterexample": {"indices": {"operator": "L1", "degree": [1, 0], "row": 5}, "lhs": "-1", "rhs": "0"},
    }

    def test_l1_coupling_two_lines_is_refused(self, monkeypatch):
        self._tamper_l1_across_lines(monkeypatch)
        p = BiParams(0, 0, 0, 3)
        with pytest.raises(ArithmeticError, match=r"^L1 v != lambda v at degree \(1, 0\), row 5: -1 vs 0$"):
            joint_eigenvectors(p)
        assert verify_oracle("joint-eigenvectors", p).to_dict()["checks"] == [self.LINE_COUPLING]

    # the cross-line L1 tamper with L2's first diagonal entry raised by 1:
    # L2 fails at the first degree pair, (0, 0), which is made and applied
    # first, but operators come before degree pairs, so L1 at (1, 0) is
    # reported, as when every row was held at once
    TWO_OPERATORS = [
        ((0, 0, 0), {"max_residual": "-1", "lhs": "-1", "rhs": "0"}),
        ((Rat(1, 2), Rat(-1, 2), 3), {"max_residual": "-3/2", "lhs": "1/2", "rhs": "2"}),
    ]

    @pytest.mark.parametrize("triple, report", TWO_OPERATORS)
    def test_two_operators_failing_at_two_degrees_report_the_first_operator(self, monkeypatch, triple, report):
        self._tamper_l1_across_lines(monkeypatch)
        self._raise_entry(monkeypatch, 2, 0, 0, 1)
        check = verify_oracle("joint-eigenvectors", BiParams(*triple, 3)).checks[0]
        assert check.to_dict() == {
            "name": "joint-eigenvectors",
            "status": "fail",
            "max_residual": report["max_residual"],
            "counterexample": {
                "indices": {"operator": "L1", "degree": [1, 0], "row": 5}, "lhs": report["lhs"], "rhs": report["rhs"],
            },
        }

    def test_l2_tamper_fails_joint_eigenvectors(self, monkeypatch):
        orig = oracle_mod._rate

        def tampered(full, a, b, params):
            # the move from i_3 to i_1, L2's alone: 1 more, Q on the rows
            out = orig(full, a, b, params)
            return out + params[0] if full[:2] == (1, 1) and (a, b) == (2, 0) else out

        monkeypatch.setattr(oracle_mod, "_rate", tampered)
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)
        # L1 holds everywhere; L2 row 5, at (1, 1), first feels the raised
        # entry toward (2, 1) at the first degree pair nonzero there
        check = verify_oracle("joint-eigenvectors", p).checks[0]
        assert check.max_residual == "1/2"
        assert check.counterexample == {
            "indices": {"operator": "L2", "degree": [1, 0], "row": 5}, "lhs": "13/2", "rhs": "6",
        }
        assert not verify_oracle("commutation", p).passed

    @pytest.mark.parametrize("triple", DEFECT_TRIPLES)
    def test_chain_checks_are_exact(self, triple):
        for N in range(9):
            for name in ("chain-orthogonality", "chain-composition"):
                check = verify_oracle(name, BiParams(*triple, N)).checks[0]
                assert check.passed and check.max_residual == "0", (name, N)

    @pytest.mark.parametrize("name", ["chain-orthogonality", "chain-composition"])
    def test_chain_checks_take_no_float_path(self, monkeypatch, name):
        def no_float(*args):
            raise AssertionError("a float was made")

        monkeypatch.setattr(oracle_mod, "chain_matrices", no_float)
        monkeypatch.setattr(oracle_mod, "overlap_floats", no_float)
        monkeypatch.setattr(math, "sqrt", no_float)
        check = verify_oracle(name, BiParams(Rat(1, 2), Rat(-1, 2), 3, 6)).checks[0]
        assert check.passed and check.max_residual == "0"

    # (1/2, -1/2, 3) at N = 4: the first factor's block q = 3 is the d = 1
    # system (1/2, -1/2) at level 3, the second's block m = 1 is (3, 3) at
    # level 3
    CHAIN = BiParams(Rat(1, 2), Rat(-1, 2), 3, 4)

    @staticmethod
    def _tamper_block(monkeypatch, args, n, x=None):
        """The integer block at args reads one more at row n, entry x, or,
        with x None, in the numerator of norm n."""
        honest = oracle_mod.gram_pieces

        def block(alphas, level):
            weight, rows, dens, norms = honest(alphas, level)
            if (*alphas, level) == args:
                rows, norms = list(rows), list(norms)
                if x is None:
                    norms[n] = (norms[n][0] + 1, norms[n][1])
                else:
                    rows[n] = rows[n][:x] + (rows[n][x] + 1,) + rows[n][x + 1:]
            return weight, rows, dens, norms

        monkeypatch.setattr(oracle_mod, "gram_pieces", block)

    @pytest.mark.parametrize("case, args, n, x, orthogonality, composition", [
        # row 1 of first block 3 at x = 2: the pair (1, 0) of that block, and
        # the overlap at grid point (2, 1) of the first degree pair (1, .)
        ("row", (Rat(1, 2), Rat(-1, 2), 3), 1, 2,
         {"factor": "first", "block": 3, "degrees": [1, 0]}, {"point": [2, 1], "degrees": [1, 0]}),
        # norm 2 of second block 1: its diagonal (2, 2), and the overlap of
        # degree pair (1, 2) on the first line q = m = 1
        ("norm", (Rat(3), Rat(3), 3), 2, None,
         {"factor": "second", "block": 1, "degrees": [2, 2]}, {"point": [0, 1], "degrees": [1, 2]}),
        # row 1 of second block 2, the system (5, 3) at level 0..2, at x = 0:
        # the pair (1, 0) of that block, and the overlap of degree pair
        # (2, 1) on the line q = m + x = 2
        ("second-row", (Rat(5), Rat(3), 2), 1, 0,
         {"factor": "second", "block": 2, "degrees": [1, 0]}, {"point": [0, 2], "degrees": [2, 1]}),
        # norm 1 of first block 2: its diagonal (1, 1), and the first degree
        # pair (1, 0) that reads row 1 of that block
        ("first-norm", (Rat(1, 2), Rat(-1, 2), 2), 1, None,
         {"factor": "first", "block": 2, "degrees": [1, 1]}, {"point": [0, 2], "degrees": [1, 0]}),
    ])
    def test_tampered_block_fails_both_chain_checks(self, monkeypatch, case, args, n, x, orthogonality, composition):
        self._tamper_block(monkeypatch, args, n, x)
        for name, indices in (("chain-orthogonality", orthogonality), ("chain-composition", composition)):
            check = verify_oracle(name, self.CHAIN).checks[0]
            assert not check.passed and check.max_residual not in ("0", "inf"), name
            assert check.counterexample["indices"] == indices, name

    def test_composition_squares_one_overlap_row_per_call(self, monkeypatch):
        """chain-composition squares the d = 2 overlap one degree pair's row
        at a time, so it never holds more than one row of squares; the
        blocks' calls (at most N + 1 grid points) are not counted."""
        honest, calls = oracle_mod.overlap_squares, []
        points = len(list(simplex_points(self.CHAIN.N, 2)))

        def squares(weight, rows, dens, norms):
            if len(weight[0]) == points:
                calls.append(len(rows))
            return honest(weight, rows, dens, norms)

        monkeypatch.setattr(oracle_mod, "overlap_squares", squares)
        assert verify_oracle("chain-composition", self.CHAIN).checks[0].passed
        assert calls == [1] * points

    @classmethod
    def _tamper_overlap(cls, monkeypatch, d, g):
        """The overlap's integer row of degree pair d (the oracle's d = 2
        ChainTable row, which chain-composition makes in its loop) reads one
        more at grid point g."""
        cls._tamper_table(monkeypatch, d, list(simplex_points(4, 2)).index(g))

    def test_tampered_overlap_inside_the_blocks_fails_composition(self, monkeypatch):
        # m = 1 <= i + k = 3
        self._tamper_overlap(monkeypatch, (1, 2), (2, 1))
        check = verify_oracle("chain-composition", self.CHAIN).checks[0]
        assert not check.passed and check.max_residual == "7681/5662310400"
        assert check.counterexample == {
            "indices": {"point": [2, 1], "degrees": [1, 2]}, "lhs": "14753281/5662310400", "rhs": "1/384",
        }
        assert verify_oracle("chain-orthogonality", self.CHAIN).checks[0].max_residual == "0"

    def test_tampered_overlap_below_the_blocks_fails_composition(self, monkeypatch):
        # m = 3 > i + k = 1, where the chain product is 0: the report is the
        # signed square of the overlap entry 1 / den, w_g / (den^2 Lambda),
        # against 0
        self._tamper_overlap(monkeypatch, (3, 0), (1, 0))
        p, d, g = self.CHAIN, (3, 0), (1, 0)
        square = weight2(g, p) / (Rat(ChainTable((p.alpha1, p.alpha2, p.alpha3)).den(d)) ** 2 * bigLambda(d, p))
        assert format_rational(square) == "1/1045094400"
        assert verify_oracle("chain-composition", p).to_dict()["checks"] == [{
            "name": "chain-composition",
            "status": "fail",
            "max_residual": format_rational(square),
            "counterexample": {
                "indices": {"point": [1, 0], "degrees": [3, 0]},
                "lhs": format_rational(square),
                "rhs": "0",
            },
        }]

    def test_su11_casimir_failure_names_its_entry(self, monkeypatch):
        """K0 raised by 1 at (1, 1) for nu = 3/4: the Casimir first differs
        there, (2 + nu)^2 - 2 nu - (2 + nu) against nu (nu - 1)."""
        honest = oracle_mod.su11_build

        def tampered(nu, nmax):
            mod = honest(nu, nmax)
            rows = [list(row) for row in mod.k0.data]
            rows[1][1] += 1
            return mod._replace(k0=RationalMatrix(rows))

        monkeypatch.setattr(oracle_mod, "su11_build", tampered)
        (check,) = verify_oracle("su11-casimir", BiParams(Rat(1, 2), Rat(-1, 2), 3, 2)).checks
        assert check.to_dict() == {
            "name": "su11-casimir",
            "status": "fail",
            "max_residual": "7/2",
            "counterexample": {
                "indices": {"nu": "3/4", "relation": "casimir", "row": 1, "col": 1},
                "lhs": "53/16",
                "rhs": "-3/16",
            },
        }

    @pytest.mark.parametrize("case", ["line-coupling", "degenerate", "zero-row"])
    def test_failed_solve_report_pinned(self, case, monkeypatch):
        # a refused spectrum or row keeps the message it had as the
        # "joint-diagonalization" report, with residual "inf"; the cross-line
        # tamper is an L1 residual
        if case == "line-coupling":
            self._tamper_l1_across_lines(monkeypatch)
            report = verify_oracle("joint-eigenvectors", BiParams(0, 0, 0, 3)).to_dict()["checks"]
            assert report == [self.LINE_COUPLING]
            return
        if case == "degenerate":
            monkeypatch.setattr(oracle_mod, "eigenvalue", lambda k, degs, params: 0)
            message = "degenerate joint spectrum: (0, 0) vs (1, 0)"
        else:
            self._tamper_table(monkeypatch, (1, 1), None)
            message = "the candidate at (1, 1) is zero"
        report = verify_oracle("joint-eigenvectors", BiParams(0, 0, 0, 2)).to_dict()["checks"]
        assert report == [{
            "name": "joint-eigenvectors",
            "status": "fail",
            "max_residual": "inf",
            "counterexample": {"indices": {}, "lhs": message, "rhs": ""},
        }]

    @staticmethod
    def _tamper_table(monkeypatch, d, g):
        """The oracle's ChainTable row of degree pair d reads one more at
        entry g, or, with g None, all zeros."""

        class Tampered(ChainTable):
            def row(self, degs, level):
                row = super().row(degs, level)
                if degs != d:
                    return row
                return (0,) * len(row) if g is None else row[:g] + (row[g] + 1,) + row[g + 1:]

        monkeypatch.setattr(oracle_mod, "ChainTable", Tampered)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_tampered_table_row_fails_the_certificate(self, triple, monkeypatch):
        # the last entry of row (N, 0), at (0, N), raised by 1: L1 first
        # feels it at row (1, N - 1), whose entry toward (0, N) it is, in
        # units of the value row / den
        for N in range(1, 7):
            p, d, last = BiParams(*triple, N), (N, 0), (N + 1) * (N + 2) // 2 - 1
            self._tamper_table(monkeypatch, d, last)
            check = verify_oracle("joint-eigenvectors", p).checks[0]
            assert check.counterexample["indices"] == {"operator": "L1", "degree": [N, 0], "row": last - 1}
            table = ChainTable((p.alpha1, p.alpha2, p.alpha3))
            entry = build_operator(1, table.cleared, N)[last - 1][last]
            assert check.max_residual == format_rational(Rat(entry, table.Q * table.den(d)))
            with pytest.raises(ArithmeticError, match=rf"^L1 v != lambda v at degree \({N}, 0\), row {last - 1}: "):
                joint_eigenvectors(p)

    def test_tampered_table_row_named_by_l2(self, monkeypatch):
        # L1 moves nothing off (0, 0) and vanishes at m = 0, so entry (0, 0)
        # of row (0, 1) raised by 1 passes L1.  L2's diagonal at (0, 0) is -6,
        # its eigenvalue at (0, 1), so its row 1, at (1, 0), is the first to
        # see it
        self._tamper_table(monkeypatch, (0, 1), 0)
        check = verify_oracle("joint-eigenvectors", BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)).checks[0]
        assert check.counterexample["indices"] == {"operator": "L2", "degree": [0, 1], "row": 1}
        assert check.max_residual not in ("0", "inf")

    def test_commutation_failure_report_pinned(self, monkeypatch):
        # the first defect of L1 L2 - L2 L1 in row-major order, as the
        # dense product reported it
        self._tamper_l1_within_line(monkeypatch)
        check = verify_oracle("commutation", BiParams(0, 0, 0, 3)).checks[0]
        assert check.max_residual == "-2"
        assert check.counterexample == {"indices": {"row": 1, "col": 2}, "lhs": "-4", "rhs": "-2"}

    # At Q = 2 a report that read the integer rows without their Q would
    # show it: these are the reports of the rational operators.
    def test_within_line_tamper_pinned_at_q_two(self, monkeypatch):
        self._tamper_l1_within_line(monkeypatch)
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)
        check = verify_oracle("commutation", p).checks[0]
        assert check.max_residual == "-1"
        assert check.counterexample == {"indices": {"row": 1, "col": 2}, "lhs": "-5/2", "rhs": "-3/2"}
        check = verify_oracle("joint-eigenvectors", p).checks[0]
        assert check.max_residual == "2"
        assert check.counterexample == {
            "indices": {"operator": "L1", "degree": [1, 0], "row": 5}, "lhs": "4", "rhs": "2",
        }

    def test_raised_diagonal_pinned_at_q_two(self, monkeypatch):
        # L2's diagonal at (0, 1), row 4 at N = 3, raised by 1
        self._raise_entry(monkeypatch, 2, 4, 4, 1)
        check = verify_oracle("annihilate-constants", BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)).checks[0]
        assert check.max_residual == "1"
        assert check.counterexample == {"indices": {"label": "L2", "point": [0, 1]}, "lhs": "1", "rhs": "0"}
