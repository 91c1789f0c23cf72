"""Toric models: monomial parametrizations and their defining binomials.

A constraint matrix A turns a parameter vector theta into a distribution
p_j proportional to prod_i theta_i^(A[i][j]).  The set of distributions
reachable this way is cut out by binomial equations, and those can be
computed exactly from the integer kernel of A.
"""

import random
from fractions import Fraction

from toricmaxent import (
    ConstraintMatrix,
    integer_kernel_basis,
    poly_to_text,
    toric_ideal_generators,
    toric_param,
    verify_model_membership,
)

# Two binary features recorded jointly: cells (1,1), (1,2), (2,1), (2,2).
# Rows fix both marginals.
independence = ConstraintMatrix(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
)

print("constraint matrix rows:")
for row in independence.rows:
    print("  ", row)


kernel = integer_kernel_basis(independence)
print("integer kernel basis:", kernel)

gens = toric_ideal_generators(independence)
print("ideal generators:")
for g in gens:
    print("  ", poly_to_text(g))

# The single quadric p1*p4 - p2*p3 is the classical independence test:
# cross products of a rank-one table agree.
theta = [Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)]
p = toric_param(independence, theta)
print("\nparametrized point:", [str(v) for v in p])
print("generator value there:", gens[0].evaluate(list(p)))

# Membership of a positive point needs no ideal.  The model is log-linear:
# p is on it exactly when log(p / h) is a combination of the rows of A and
# the all-ones row.  The residuals are the per-symbol errors of the best
# such combination, so they do not depend on how p or h is scaled.
report = verify_model_membership(list(p), independence)
print("\non the model?", report.member, " max residual:", report.max_residual)

# The correlated table misses by ln 2 in every cell: its log cross ratio
# ln(0.4 * 0.4 / (0.1 * 0.1)) = 4 ln 2 is spread evenly over the 4 cells.
off = [0.4, 0.1, 0.1, 0.4]
report = verify_model_membership(off, independence)
print("correlated table on the model?", report.member, " residuals:", report.residuals)

# A prior h reweights the model; the same test applies to log(p / h).
prior = [1, 2, 3, 4]
weighted = toric_param(independence, theta, h=prior)
print("prior-weighted point, with its prior?", verify_model_membership(list(weighted), independence, prior=prior).member)
print("prior-weighted point, without it?", verify_model_membership(list(weighted), independence).member)

# A table with an empty cell has no logarithm there, so it counts as off the
# model, even though it satisfies p1*p4 - p2*p3 = 0.
print("table with zeros on the model?", verify_model_membership([0.5, 0.5, 0, 0], independence).member)

# Saturation matters.  For the monomial curve below, the kernel basis
# binomials generate a strictly smaller ideal than the model's full ideal;
# saturating by the coordinates recovers the missing quadric p1*p4 - p2*p3.
curve = ConstraintMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
print("\nmonomial curve kernel:", integer_kernel_basis(curve))
print("saturated generators:")
for g in toric_ideal_generators(curve):
    print("  ", poly_to_text(g))

# Spot check: random parameters always land on the variety of every generator.
rng = random.Random(0)
worst = 0.0
for _ in range(200):
    point = toric_param(curve, [rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)])
    for g in toric_ideal_generators(curve):
        worst = max(worst, abs(g.evaluate(point.as_floats())))
print("worst generator residual over 200 random points:", worst)
