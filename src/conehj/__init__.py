"""Numerics for Hamilton-Jacobi equations on cones of monotone matrix paths."""

from .cones import (ConePoint, DiscreteMeasure, InvalidInputError, Partition,
                    StepPath, UnsupportedOperationError, is_in_cone,
                    is_in_dual, lift_lj, measure_to_quantile, project_pj,
                    rearrange_sharp, wasserstein_p)
from .conjugates import (GridFunction, dual_increasing_check, fm_verify,
                         mono_conjugate, monotone_lattice)
from .fd_oracle import (ComparisonReport, FdGrid, FdSurface, comparison_check,
                        fd_solve, fd_vs_hopf_lax)
from .limits import (RefinementStudy, lipschitz_audit, rate_study,
                     seeded_test_points)
from .nonlinearity import (CovarianceModel, Regularization, bold_xi, h_eval,
                           regularize, xi_star_vec)
from .solvers import (InitialCondition, SolutionSurface, hopf, hopf_lax,
                      hopf_lax_1d, hopf_lax_pointwise, hopf_lax_separable,
                      solve_surface)
from .spin_glass import (CascadeSpec, FreeEnergyEstimate, SkInstance,
                         bound_check, free_energy, moment_normalization,
                         one_spin_initial_condition, one_spin_psi,
                         sample_cascade)

__version__ = "0.1.0"
