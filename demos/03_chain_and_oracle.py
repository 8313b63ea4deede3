"""
The oracle route: operators, the eigen-certificate, and the two-step chain
==========================================================================

Instead of trusting the explicit polynomials, build the two difference
operators as exact sparse rows and prove on integers that the chain table's
rows are their joint eigenvectors.  Then factor the overlap matrix through
the intermediate basis and realize the underlying su(1,1) ladder.
"""
import numpy as np

from hahnkit.hahn_bi import BiParams, overlap2, p2_eval
from hahnkit.numeric import Rat, format_rational
from hahnkit.oracle import (
    build_operator,
    chain_matrices,
    chain_product,
    eigenvalue,
    joint_eigenvectors,
    su11_build,
    su11_spectrum_check,
    verify_oracle,
)
from hahnkit.simplex import ChainTable, simplex_points

p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)

# The first operator moves mass between the two coordinates at fixed
# level; the second moves it between the surface and the interior.
# Each row holds only its nonzero entries: at most 3 for L1, 7 for L2.
points = tuple(simplex_points(3, 2))
row = build_operator("L1", p)[points.index((1, 1))]
print("L1 row for grid point (1,1):")
for c, value in row.items():
    print(f"  coefficient of f{points[c]} = {format_rational(value)}")

# The certificate: each chain-table row v satisfies L1 v = lambda1 v and
# L2 v = lambda2 v exactly, and the eigenvalue pairs are pairwise distinct,
# so the rows are the whole joint eigenbasis, one line per degree pair.
# Here is L1 v = lambda1 v for degree (1,1), on the rationals.
table = ChainTable((p.alpha1, p.alpha2, p.alpha3))
v = [Rat(x, table.den((1, 1))) for x in table.row((1, 1), p.N)]
L1v = [sum((a * v[c] for c, a in r.items()), Rat(0)) for r in build_operator("L1", p)]
lam = eigenvalue("L1", (1, 1), p)
print("\nL1 v against lambda1 v at degree (1,1), lambda1 =", format_rational(lam))
for g, lhs, x in zip(points, L1v, v):
    print(f"  {g}: {format_rational(lhs):>12} {format_rational(lam * x):>12}")
print("joint-eigenvectors:", "pass" if verify_oracle("joint-eigenvectors", p).passed else "FAIL")

# joint_eigenvectors returns the certified rows scaled to first nonzero
# entry 1; they match the evaluation route up to overall scale.
vec = joint_eigenvectors(p)[(1, 1)]
direct = [p2_eval((1, 1), g, p) for g in points]
lead = next(x for x in direct if x != 0)
print("\njoint eigenvector at degree (1,1):")
print("  ", [format_rational(x) for x in vec])
print("matches P_{1,1}/lead exactly:", vec == tuple(x / lead for x in direct))

# The overlap factors through the intermediate basis: both factors are
# orthogonal, and each entry of their product is one product of two
# univariate overlaps, which reproduces the one-step matrix.
product = np.array(chain_product(*chain_matrices(p)))
target = np.array(overlap2(p, mode="float").entries)
print("\nchain factorization defect:", f"{np.max(np.abs(product - target)):.3g}")

# Truncated su(1,1): the Casimir is a scalar exactly, including the top
# row; only the ladder commutator feels the truncation there.
mod = su11_build(Rat(3, 4), 8)
cas = mod.casimir()
print("\nCasimir diagonal entry:", format_rational(cas.entry(5, 5)), "= nu(nu-1)")
report = su11_spectrum_check(p)
print("spectrum cross-check:", "pass" if report.passed else "FAIL")
for check in report.checks:
    print(f"  {check.name}: {'pass' if check.passed else 'FAIL'}")
