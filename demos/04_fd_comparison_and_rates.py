"""Cross-validation against a finite-difference scheme, the quantified
comparison principle, and refinement convergence rates.

A monotone Lax-Friedrichs discretization of the scalar equation
f_t = xibar(f_x) provides an independent oracle: the variational value
must match it to first order in the mesh.  A penalized comparison
functional certifies the ordering of two solution surfaces, and a
refinement study fits the decay rate of the restriction error along a
chain of nested partitions.
"""

import numpy as np

from conehj import (CovarianceModel, InitialCondition, Partition,
                    comparison_check, fd_vs_hopf_lax, rate_study,
                    seeded_test_points)

model = CovarianceModel.sk(1.0)


def phi(xv):
    xv = np.asarray(xv, dtype=float)
    return 0.3 * xv + 0.4 * np.maximum(xv - 0.8, 0.0)


# --- finite differences vs the variational solver ----------------------
# the Hopf-Lax and Lax-Friedrichs surfaces on every fifth node of [0, 5]
dx, T = 1.0 / 200, 1.0
u, v = fd_vs_hopf_lax(phi, model, x_max=5.0, dx=dx, T=T, slope_cap=1.0)
near = u.xs <= 2.0
gap = np.abs(u.values[-1, near] - v.values[-1, near]).max()
print(f"fd vs variational at T={T}, x <= 2: max gap {gap:.2e} "
      f"(budget {10 * dx * (1 + T):.2e})")

# --- quantified comparison --------------------------------------------
rep = comparison_check(u, v, L=1.0, model=model, tol=10 * dx * (1 + T))
print(f"comparison check: pass={rep.passed}, argmax t*={rep.t_star}, "
      f"margin={rep.margin:.2e}")

# --- refinement rates --------------------------------------------------
chain = [Partition.uniform(n) for n in (4, 8, 16, 32)]
pts = seeded_test_points(0, count=8, radius=3.0, fine=64)
psi = InitialCondition.softplus([0.5], [0.8], [0.5])
study = rate_study(psi, model, chain, pts)
print("restriction errors along 4 -> 8 -> 16 -> 32:",
      [f"{e:.2e}" for e in study.errors])
print(f"fitted decay slope: {study.slope:.2f}")

# linear data factors through the one-cell grid, so the error vanishes
lin = InitialCondition.separable(lambda r: 0.25 * np.asarray(r, float),
                                 lip=0.25)
flat = rate_study(lin, model, chain, pts)
print(f"factoring datum max error: {flat.errors.max():.1e}")
