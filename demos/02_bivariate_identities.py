"""
Two-variable Hahn polynomials on the triangle
=============================================

The family lives on the simplex i + k <= N and comes in three
normalizations: the rational P plane where identities hold with literal
zero residual, the factorial rescaling H, and the orthonormal Q plane
whose ladder coefficients carry square roots.  Every identity of either
plane is checked exactly, the Q-plane ones by square classes of their
terms.
"""
from hahnkit.hahn_bi import (
    BI_CHECK_NAMES,
    BiParams,
    overlap2,
    p2_eval,
    q2_eval,
    verify_bi,
    weight2,
)
from hahnkit.numeric import Rat, format_rational
from hahnkit.simplex import simplex_points

p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 4)
print("parameters:", p.echo())

# The grid and the degree set are the same simplex, in the same order.
print("grid points:", list(simplex_points(2, 2)))
print("degree pairs:", list(simplex_points(2, 2)))

# Exact values of the first few polynomials.
print("\nP_{1,0} on the level-4 grid:")
for g in simplex_points(4, 2):
    print(f"  P(1,0)@{g} = {format_rational(p2_eval((1, 0), g, p))}")

# The weight sums to one; orthogonality holds with zero residual.
total = sum(weight2(g, p) for g in simplex_points(4, 2))
print("\nweight total =", format_rational(total))

# The orthonormal plane carries radical scalars: exact sign and squared
# value, float on demand.
q = q2_eval((1, 1), (2, 1), p)
print("Q_{1,1}(2,1) squared (signed) =", format_rational(q.signed_square()))
print("Q_{1,1}(2,1) as float        =", float(q))

# Every shipped identity, the rational ones first, then the orthonormal ones.
print("\nfull verification battery at N=4:")
for name in BI_CHECK_NAMES:
    report = verify_bi(name, p)
    worst = max(float(c.max_residual) for c in report.checks)
    print(f"  {name:35s} {'pass' if report.passed else 'FAIL'}  residual {worst:.3g}")

# The float overlap matrix is orthogonal; column norms are exactly one in
# the squared-rational mode.
squared = overlap2(p, mode="squared")
col = [row[3] for row in squared.entries]
print("\ncolumn 3 of the squared overlap sums to", format_rational(sum(abs(v) for v in col)))
