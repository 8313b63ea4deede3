"""The simplex table layer: its one position map and point check, its one
weight against the retired forms, the overlap at every d, the
eigen-certificate, and the layering that keeps its kernels in one module
below the families."""
import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hahn_bi import weight2_retired
from test_hahn_uni import hahn_weight_retired

from hahnkit.hahn_bi import BiParams
from hahnkit.hahn_uni import UniParams
from hahnkit.numeric import RadicalScalar, Rat, binomial_general
from hahnkit.simplex import (
    ChainTable,
    eigen_mismatch,
    gram_pieces,
    overlap_floats,
    overlap_squares,
    require_point,
    simplex_points,
    simplex_positions,
    simplex_weight,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hahnkit"

# parameters > -1 with small denominators, so the tuple clears to a few Q
params = st.fractions(min_value=-1, max_value=6, max_denominator=7).filter(lambda f: f > -1).map(
    lambda f: Rat(f.numerator, f.denominator)
)


def mv_weight_reference(i, alphas, N):
    """The d-variable weight as the product of generalized binomials it was."""
    full = tuple(i) + (N - sum(i),)
    out = Rat(1)
    for i_k, a_k in zip(full, alphas):
        out *= binomial_general(a_k + i_k, i_k)
    return out / binomial_general(sum(alphas) + N + len(alphas) - 1, N)


class TestPositions:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 6), level=st.integers(0, 6), data=st.data())
    def test_positions_are_the_enumeration_order(self, d, level, data):
        points = list(simplex_points(level, d))
        positions = simplex_positions(level, d)
        assert list(positions.items()) == [(pt, g) for g, pt in enumerate(points)]
        for pt in points:
            assert require_point(list(pt), level, d, "point") == pt
        # every point moved one unit along one axis, off the simplex or on it
        pt = data.draw(st.sampled_from(points), label="point")
        axis = data.draw(st.integers(0, d - 1), label="axis")
        for step in (-1, 1):
            moved = pt[:axis] + (pt[axis] + step,) + pt[axis + 1 :]
            inside = moved[axis] >= 0 and sum(moved) <= level
            assert (moved in positions) == inside, moved
            if inside:
                assert points[positions[moved]] == moved

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 6), level=st.integers(0, 6), data=st.data())
    def test_require_point_refuses_what_is_off_the_simplex(self, d, level, data):
        pt = data.draw(st.sampled_from(list(simplex_points(level, d))), label="point")
        axis = data.draw(st.integers(0, d - 1), label="axis")
        bad = [
            pt + (0,),
            pt[:-1],
            pt[:axis] + (-1,) + pt[axis + 1 :],
            pt[:axis] + (Rat(pt[axis]),) + pt[axis + 1 :],
            pt[:axis] + (float(pt[axis]),) + pt[axis + 1 :],
            pt[:axis] + (pt[axis] + level + 1 - sum(pt),) + pt[axis + 1 :],
        ]
        for entries in bad:
            with pytest.raises(ValueError, match=r"^degree tuple .* off the simplex of level"):
                require_point(entries, level, d, "degree tuple")


class TestSimplexWeight:
    @settings(max_examples=120, deadline=None)
    @given(d=st.integers(1, 4), N=st.integers(0, 5), data=st.data())
    def test_matches_retired_forms(self, d, N, data):
        alphas = tuple(data.draw(st.lists(params, min_size=d + 1, max_size=d + 1), label="alphas"))
        nums, den = simplex_weight(alphas, N)
        points = tuple(simplex_points(N, d))
        assert len(nums) == len(points)
        assert all(isinstance(w, int) for w in nums) and isinstance(den, int)
        for g, w in zip(points, nums):
            want = mv_weight_reference(g, alphas, N)
            assert Rat(w, den) == want, g
            if d == 1:
                assert Rat(w, den) == hahn_weight_retired(g[0], UniParams(*alphas, N))
            if d == 2:
                assert Rat(w, den) == weight2_retired(g, BiParams(*alphas, N))
        # a probability distribution: positive, summing to one
        assert den > 0 and all(w > 0 for w in nums)
        assert sum(nums) == den


# (alphas, N) at d = 1, 2, 3, 3 and 4
UNITARY = [
    ((Rat(1, 2), Rat(7, 3)), 8),
    ((Rat(1, 2), Rat(-1, 2), Rat(3)), 6),
    ((Rat(1, 2), Rat(0), Rat(3), Rat(7, 3)), 4),
    ((Rat(0),) * 4, 5),
    ((Rat(1, 3), Rat(1, 2), Rat(2), Rat(0), Rat(-1, 2)), 3),
]


def unitarity_defects(alphas, N):
    """The columns (degree tuples) and the rows (grid points) of the
    overlap_squares matrix whose absolute values do not sum to exactly 1;
    the row sums are the dual orthogonality."""
    squares = overlap_squares(*gram_pieces(alphas, N))
    columns = [n for n, (nums, den) in enumerate(squares) if sum(map(abs, nums)) != den]
    rows = [g for g in range(len(squares)) if sum(Rat(abs(nums[g]), den) for nums, den in squares) != 1]
    return columns, rows


class TestOverlap:
    @pytest.mark.parametrize("alphas, N", UNITARY)
    def test_exactly_unitary(self, alphas, N):
        assert unitarity_defects(alphas, N) == ([], [])

    def test_a_doubled_row_breaks_unitarity(self, monkeypatch):
        """Row 5 of the d = 3 chain table doubled: column 5 sums to 4, and
        every row where that chain value is nonzero sums above 1."""
        alphas, N = UNITARY[2]
        doubled = list(simplex_points(N, 3))[5]
        honest = ChainTable.row

        def row(self, degs, level):
            values = honest(self, degs, level)
            return tuple(2 * v for v in values) if degs == doubled else values

        monkeypatch.setattr(ChainTable, "row", row)
        columns, rows = unitarity_defects(alphas, N)
        assert columns == [5]
        assert rows == [g for g, v in enumerate(row(ChainTable(alphas), doubled, N)) if v]
        assert len(rows) == 34

    @pytest.mark.parametrize("alphas, N", UNITARY)
    def test_floats_are_float_of_the_radical_entries(self, alphas, N):
        """Each float is float() of rows[n][g] / den sqrt(w_g / Lambda_n),
        built exactly, the sign of a zero included; its signed square is
        the overlap_squares entry."""
        (omega, W), rows, dens, norms = pieces = gram_pieces(alphas, N)
        squares = overlap_squares(*pieces)
        for floats, row, den, (norm, nd), (nums, scale) in zip(overlap_floats(*pieces), rows, dens, norms, squares):
            for x, v, w, num in zip(floats, row, omega, nums):
                exact = RadicalScalar(Rat(v, den), Rat(w * nd, W * norm))
                assert repr(x) == repr(float(exact))
                assert exact.signed_square() == Rat(num, scale)


# A/2 and B on the plane, A = [[2, 1], [1, 2]] and B = [[0, 1], [1, 0]]:
# (1, 1) has eigenvalues 3/2 and 1, (1, -1) 1/2 and -1; A/2 is cleared over 2
HALF_A = ([{0: 2, 1: 1}, {0: 1, 1: 2}], [3, 1])
B = ([{1: 1}, {0: 1}], [1, -1])
PAIR = {"even": (1, 1), "odd": (3, -3)}


def made(candidates, calls):
    """A row maker that reads candidates and records each label it makes."""

    def row(label):
        calls.append(label)
        return candidates[label]

    return row


class TestEigenMismatch:
    def test_a_joint_eigenbasis_passes(self):
        calls = []
        assert eigen_mismatch({"A": HALF_A, "B": B}, PAIR, made(PAIR, calls)) is None
        assert calls == ["even", "odd"]

    def test_a_wrong_entry_is_named(self):
        # B's row 1 reads 2 at column 0: B (1, 1) is (1, 2) against (1, 1),
        # and A, checked first, passes
        wrong = ([{1: 1}, {0: 2}], [1, -1])
        assert eigen_mismatch({"A": HALF_A, "B": wrong}, PAIR, PAIR.get) == ("B", "even", 1, 2, 1)

    def test_the_first_operator_wins_over_the_first_label(self):
        # A fails at "odd" alone (its eigenvalue there is 2, not 1) and B at
        # "even" (its row 1 reads 2 at column 0).  "even" is made and applied
        # first, but operators come before labels, so A at "odd" is reported,
        # as when every row was held at once; each row is made once, in
        # label order
        a = (HALF_A[0], [3, 2])
        b = ([{1: 1}, {0: 2}], [1, -1])
        calls = []
        assert eigen_mismatch({"A": a, "B": b}, PAIR, made(PAIR, calls)) == ("A", "odd", 0, 3, 6)
        assert calls == ["even", "odd"]

    def test_a_zero_candidate_is_refused(self):
        with pytest.raises(ArithmeticError, match="^the candidate at odd is zero$"):
            eigen_mismatch({"A": HALF_A, "B": B}, PAIR, {"even": (1, 1), "odd": (0, 0)}.get)

    def test_a_zero_candidate_is_refused_after_a_failure(self):
        # a failure at "even" does not hide the zero candidate after it
        wrong = ([{1: 1}, {0: 2}], [1, -1])
        with pytest.raises(ArithmeticError, match="^the candidate at odd is zero$"):
            eigen_mismatch({"A": HALF_A, "B": wrong}, PAIR, {"even": (1, 1), "odd": (0, 0)}.get)

    def test_a_repeated_tuple_is_refused_before_any_row(self):
        # rows that would raise IndexError if applied
        off = ([{5: 1}, {5: 1}], [3, 3])
        calls = []
        with pytest.raises(ArithmeticError, match="^degenerate joint spectrum: even vs odd$"):
            eigen_mismatch({"A": off, "B": (off[0], [1, 1])}, PAIR, made(PAIR, calls))
        assert calls == []
        # one operator apart is enough: A's repeated 3 is then a residual
        assert eigen_mismatch({"A": (HALF_A[0], [3, 3]), "B": B}, PAIR, PAIR.get) == ("A", "odd", 0, 3, 9)


# The modules whose underscore names stay their own.
_GUARDED = {"hahn_uni", "hahn_bi", "hahn_multi", "simplex"}


def _imports(path: pathlib.Path):
    """(imported module, imported names) for every import of a hahnkit module
    in path, and the attribute names read off an imported hahnkit module."""
    tree = ast.parse(path.read_text())
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "hahnkit":
                    continue
                base = base.removeprefix("hahnkit").lstrip(".")
            if base:
                found.append((base, [a.name for a in node.names]))
            else:  # from . import module
                for a in node.names:
                    found.append((a.name, []))
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("hahnkit."):
                    module = a.name.removeprefix("hahnkit.")
                    found.append((module, []))
                    if a.asname:
                        aliases[a.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append((aliases[node.value.id], [node.attr]))
    return found


class TestLayering:
    MODULES = sorted(SRC.glob("*.py"))

    def test_modules_found(self):
        assert {"hahn_uni", "hahn_bi", "hahn_multi", "simplex"} <= {m.stem for m in self.MODULES}

    @pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
    def test_no_private_name_crosses_a_module(self, path):
        for module, names in _imports(path):
            if module in _GUARDED and module != path.stem:
                private = [n for n in names if n.startswith("_")]
                assert not private, f"{path.name} imports {private} from {module}"

    @pytest.mark.parametrize("name", ["hahn_bi", "hahn_multi"])
    def test_families_do_not_import_the_univariate_module(self, name):
        modules = {module for module, _ in _imports(SRC / f"{name}.py")}
        assert "hahn_uni" not in modules
        assert "simplex" in modules

    @pytest.mark.parametrize("name", ["hahn_uni", "hahn_bi", "hahn_multi"])
    def test_families_share_one_generating_function(self, name):
        """Each family checks its generating function through the simplex
        layer's one routine, and none builds a product of its own."""
        imported = {n for module, names in _imports(SRC / f"{name}.py") if module == "simplex" for n in names}
        assert "genfun_mismatch" in imported
        built = {n for _, names in _imports(SRC / f"{name}.py") for n in names}
        assert not {"jacobi_cleared", "sparse_mul", "sparse_sum", "_poly_add", "_poly_mul"} & built

    @pytest.mark.parametrize("name", ["hahn_bi", "oracle"])
    def test_one_overlap_routine(self, name):
        """The d = 2 overlap, the chain factors and chain-composition read
        the simplex layer's overlaps, and take no square root of their own."""
        imported = {n for module, names in _imports(SRC / f"{name}.py") if module == "simplex" for n in names}
        assert {"overlap_floats", "overlap_squares"} <= imported
        assert "math.sqrt" not in (SRC / f"{name}.py").read_text()

    def test_no_bivariate_polynomial_helpers_left(self):
        import hahnkit.numeric as numeric

        assert not hasattr(numeric, "_poly2_mul") and not hasattr(numeric, "_poly2_sum")
        assert not {"_poly_trim", "_poly_add", "_poly_mul"} & set(dir(numeric))
