"""Four independent routes to the same Hamilton-Jacobi value.

The equation lives on the cone of monotone step paths; its value admits
a sup-inf (Hopf-Lax) form, a conjugate-dual (Hopf) form for convex
data, a coordinate-separable reduction, and a one-dimensional
reduction through quantile paths.  On separable convex data all four
agree to the precision of the DC ascent, and linear data has a closed
form.
"""

import numpy as np

from conehj import (ConePoint, CovarianceModel, InitialCondition, Partition,
                    StepPath, bold_xi, hopf, hopf_lax, hopf_lax_1d,
                    hopf_lax_separable, regularize, solve_surface)

# every route takes xi and solves the equation of its regularization xibar
model = CovarianceModel.sk(1.0)
rng = np.random.default_rng(1)

# a smooth increasing convex separable datum (softplus mixture)
psi = InitialCondition.softplus([0.4, 0.5], [0.3, 1.2], [0.4, 0.8])

# a point of H^j carries its partition j, and every route reads j from it
j = Partition.uniform(3)
x = ConePoint(j, np.cumsum(rng.uniform(0.0, 0.8, 3)))
t = 0.5

v1 = hopf_lax(psi, model, t, x)
v2 = hopf_lax_separable(psi, model, t, x)
v3 = hopf(psi, model, t, x)
v4 = hopf_lax_1d(psi, model, t, x)
print(f"hopf_lax            {v1:.12f}")
print(f"hopf_lax_separable  {v2:.12f}  (gap {abs(v2 - v1):.1e})")
print(f"hopf                {v3:.12f}  (gap {abs(v3 - v1):.1e})")
print(f"hopf_lax_1d         {v4:.12f}  (gap {abs(v4 - v1):.1e})")

# linear data: f(t, x) = <x, h> + t sum_k w_k xibar(h_k) exactly
h = StepPath(j, np.array([0.2, 0.5, 0.9]))
lin = InitialCondition.linear(h)
hj = ConePoint(j, h.values)
closed = x.inner(hj) + t * bold_xi(hj, regularize(model))
print(f"linear closed form  {closed:.12f}  "
      f"(solver gap {abs(hopf_lax(lin, model, t, x) - closed):.1e})")

# a small space-time table of values, one batch over every (t, x)
samples = [ConePoint(j, np.cumsum(rng.uniform(0.0, 0.6, 3))) for _ in range(3)]
surf = solve_surface(psi, model, [0.0, 0.25, 0.5, 1.0], samples,
                     method="hopf_lax_separable")
print("solution surface (rows = times, cols = samples):")
print(np.round(surf.values, 5))
