"""The Lipschitz regularization of a covariance nonlinearity and its
convex conjugates.

For xi(r) = r^2 the regularization has a closed piecewise form
(quadratic, then the chord max(x^2, 8(x-1)), then affine); its scalar
conjugate is finite on a bounded slope interval.  The grid-level
Fenchel-Moreau harness certifies convex monotone functions by exact
double conjugation and refuses non-monotone ones with a witness.
"""

import numpy as np

from conehj import (CovarianceModel, GridFunction, Partition, fm_verify,
                    mono_conjugate, regularize, xi_star_vec)

model = CovarianceModel.sk(1.0)          # xi(r) = r^2
reg = regularize(model)
print(f"Lipschitz constant of xi on [-2, 2]: L = {reg.L}")

for a in (0.5, 1.0, 1.1716, 1.5, 3.0):
    print(f"  xibar({a:5.3f}) = {reg(a):8.4f}   (xi = {model(a):8.4f})")

# the conjugate: quadratic branch r^2/4 for small slopes, then a chord
# to the slope cap 2L, then +infinity
rs = np.array([-1.0, 0.5, 2.0, 2.343, 7.9, 8.5])
for r, v in zip(rs, xi_star_vec(reg, rs)):
    print(f"  xibar*({r:6.3f}) = {v:10.4f}")

# Fenchel-Moreau on the monotone lattice: convex + dual-monotone data
# is recovered by double conjugation up to the lattice resolution
j = Partition.uniform(2)
good = GridFunction.from_callable(
    j, lambda x: float(np.sum(j.widths * (0.5 * x + 0.3 * x ** 2))), steps=9)
rep = fm_verify(good)
print("convex monotone function verified:", rep["pass"])

gg = mono_conjugate(mono_conjugate(good))
print(f"double-conjugation gap: {np.abs(gg.values - good.values).max():.2e} "
      f"(grid step {good.step})")

# a decreasing function cannot be a supremum of nonneg-slope pairings;
# the harness refuses it and points at a violating pair
bad = GridFunction.from_callable(
    j, lambda x: float(-np.sum(j.widths * x)), steps=9)
rep = fm_verify(bad)
print("decreasing function refused:", not rep["pass"],
      "witness:", rep["witness"])
