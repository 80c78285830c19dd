"""Walk through the basic objects: the concept class C(m, d), the
reference measure, the parity-based smooth family, and what Hölder
smoothness means for densities over concepts.

Run:  python demos/01_constructions.py
"""

import numpy as np

from priorlab import (
    SmoothPriorParams,
    density_table,
    enumerate_concepts,
    holder_check,
    reference_prior,
    rho,
    smooth_prior,
    uniform_distribution,
    verify_vc_dimension,
)

# The instance space is {1, 2, 3}; concepts label at most d = 2 points +1.
space = enumerate_concepts(3, 2)
print(f"C(3, 2) has {len(space)} concepts:")
for c in space:
    print(f"  positives={set(c.positives) or '{}'}")

print("\nVC dimension is exactly d (brute-force check):", verify_vc_dimension(space))

D = uniform_distribution(3)
h, g = space.concept(0b001), space.concept(0b011)
print(f"\nrho({{1}}, {{1,2}}) under uniform D = {rho(h, g, D):.4f}")

# The reference measure: pick a d-subset uniformly, a parity coin at 1/2,
# then a uniform subset of that parity.
pi0 = reference_prior(space, exact=True)
print("\nreference measure:")
for c in space:
    print(f"  mass({set(c.positives) or '{}'}) = {pi0.exact_mass_of(c.mask)}")

# One smooth family member: bias the parity coin of each d-subset by
# gamma = (L/2)(1/m)^alpha in the direction of its sign.
params = SmoothPriorParams(b=(1, -1, 1), L=1.0, alpha=1.0, m=3, d=2)
pb = smooth_prior(params, space, exact=True)
print(f"\nsmooth member with b = {params.b}, gamma = {params.gamma_m:.4f}:")
for c, f in zip(space, density_table(pb, pi0)):
    print(f"  mass={float(pb.mass_of(c)):.6f}  density vs reference = {f:.4f}")

print("\ndensities stay inside [1 - gamma, 1 + gamma] and the family is")
print(f"(L, alpha)-Hölder: {holder_check(pb, pi0, 1.0, 1.0, D).ok}")

# Smoothness has teeth: a point mass fails the same check badly.
from priorlab.priors import point_mass, uniform_prior

pm = point_mass(space, 0b011)
rep = holder_check(pm, uniform_prior(space), 1.0, 1.0, D)
print(f"\npoint mass vs uniform is Hölder(1, 1)? {rep.ok}  "
      f"(worst ratio {rep.max_ratio:.1f})")
