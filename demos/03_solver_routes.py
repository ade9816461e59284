"""Four independent routes to the same Hamilton-Jacobi value.

The equation lives on the cone of monotone step paths; its value admits
a sup-inf (Hopf-Lax) form, a conjugate-dual (Hopf) form for convex
data, a coordinate-separable reduction, and a one-dimensional
reduction through quantile paths.  On separable convex data all four
agree to optimizer precision, and linear data has a closed form.
"""

import numpy as np

from conehj import (ConePoint, ConjugateModel, CovarianceModel,
                    InitialCondition, Partition, StepPath, bold_xi, hopf,
                    hopf_lax, hopf_lax_1d, hopf_lax_separable, regularize,
                    solve_surface)

model = CovarianceModel.sk(1.0)
reg = regularize(model)
conj = ConjugateModel(reg)
rng = np.random.default_rng(1)

# a smooth increasing convex separable datum (softplus mixture)
psi = InitialCondition.softplus([0.4, 0.5], [0.3, 1.2], [0.4, 0.8])

j = Partition.uniform(3)
x = ConePoint(j, np.cumsum(rng.uniform(0.0, 0.8, 3)))
t = 0.5

v1 = hopf_lax(psi, reg, j, t, x)
v2 = hopf_lax_separable(psi, reg, j, t, x)
v3 = hopf(psi, model, j, t, x)
v4 = hopf_lax_1d(psi, conj, j, t, x, rng=rng)
print(f"hopf_lax            {v1:.12f}")
print(f"hopf_lax_separable  {v2:.12f}  (gap {abs(v2 - v1):.1e})")
print(f"hopf                {v3:.12f}  (gap {abs(v3 - v1):.1e})")
print(f"hopf_lax_1d         {v4:.12f}  (gap {abs(v4 - v1):.1e})")

# linear data: f(t, x) = <x, h> + t sum_k w_k xibar(h_k) exactly
h = StepPath(j, np.array([0.2, 0.5, 0.9]))
lin = InitialCondition.linear(h)
hj = ConePoint(j, h.values)
closed = x.inner(hj) + t * bold_xi(hj, reg)
print(f"linear closed form  {closed:.12f}  "
      f"(solver gap {abs(hopf_lax(lin, reg, j, t, x) - closed):.1e})")

# a small space-time table of values
samples = [ConePoint(j, np.cumsum(rng.uniform(0.0, 0.6, 3))) for _ in range(3)]
surf = solve_surface(psi, reg, j, [0.0, 0.25, 0.5, 1.0], samples,
                     method="hopf_lax_separable")
print("solution surface (rows = times, cols = samples):")
print(np.round(surf.values, 5))
