"""
The oracle route: operators, nullspaces, and the two-step chain
===============================================================

Instead of trusting the explicit polynomials, build the two difference
operators as exact sparse rows, ask exact linear algebra for their joint
eigenvectors, and compare.  Then factor the overlap matrix through the
intermediate basis and realize the underlying su(1,1) ladder.
"""
import numpy as np

from hahnkit.hahn_bi import BiParams, overlap2, p2_eval
from hahnkit.numeric import Rat, format_rational
from hahnkit.oracle import (
    build_operator,
    chain_matrices,
    chain_product,
    joint_eigenvectors,
    su11_build,
    su11_spectrum_check,
)
from hahnkit.simplex import simplex_points

p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)

# The first operator moves mass between the two coordinates at fixed
# level; the second moves it between the surface and the interior.
# Each row holds only its nonzero entries: at most 3 for L1, 7 for L2.
points = tuple(simplex_points(3, 2))
row = build_operator("L1", p)[points.index((1, 1))]
print("L1 row for grid point (1,1):")
for c, value in row.items():
    print(f"  coefficient of f{points[c]} = {format_rational(value)}")

# Joint eigenvectors from nested nullspaces (L1 one line i + k = s at a
# time, then L2 on each L1 eigenspace), no polynomial evaluation involved.
# They match the evaluation route up to overall scale.
vecs = joint_eigenvectors(p)
vec = vecs[(1, 1)]
direct = [p2_eval((1, 1), g, p) for g in points]
lead = next(v for v in direct if v != 0)
print("\nnullspace eigenvector at degree (1,1):")
print("  ", [format_rational(v) for v in vec])
print("matches P_{1,1}/lead exactly:", vec == tuple(v / lead for v in direct))

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
