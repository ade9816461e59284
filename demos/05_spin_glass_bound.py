"""Validating the Hamilton-Jacobi value against SK free energies.

For small N the enriched Sherrington-Kirkpatrick free energy is
computed exactly over all 2^N spin configurations, averaged over
disorder replicas driven by a Poisson-Dirichlet cascade.  The
variational solver evaluated at the quantile path of the overlap
measure must lower-bound these averages (up to Monte Carlo error and a
1/N correction), with a gap that shrinks as N grows.
"""

import numpy as np

from conehj import (CascadeSpec, CovarianceModel, DiscreteMeasure, Partition,
                    SkInstance, bound_check, free_energy, hopf_lax_1d,
                    measure_to_quantile, one_spin_initial_condition,
                    one_spin_psi, project_pj)

beta, t = 0.5, 0.25
measure = DiscreteMeasure(np.array([0.0, 0.3]), np.array([0.0, 0.5, 1.0]))
spec = CascadeSpec.for_measure(measure)

# sanity: one-spin Monte Carlo at t = 0 against the deterministic
# cascade recursion
inst1 = SkInstance(1, beta, 0.0, measure)
est1 = free_energy(inst1, spec, 2000, seed=0, threads=4)
print(f"one-spin MC {est1.mean:.4f} +/- {est1.se:.4f}, "
      f"recursion {one_spin_psi(measure):.4f}")

# the HJ-side value at the overlap measure's quantile path
psi = one_spin_initial_condition()
j = Partition.uniform(4)
mu = project_pj(measure_to_quantile(measure), j)
f = hopf_lax_1d(psi, CovarianceModel.sk(beta), j, t, mu)
print(f"variational value f = {f:.5f} at t = {t}")

# exact-enumeration free energies for increasing N
ests = []
for N in (6, 8, 10):
    est = free_energy(SkInstance(N, beta, t, measure), spec, 400,
                      seed=100 + N, threads=4)
    ests.append(est)
    print(f"  N={N:2d}: F_bar = {est.mean:.5f} +/- {est.se:.5f} "
          f"(gap {est.mean - f:+.5f})")

rep = bound_check(ests, f)
print(f"lower bound holds: {rep['pass']} (c = {rep['c']:.3f}), "
      f"gap nonincreasing: {rep['trend_nonincreasing']}")
