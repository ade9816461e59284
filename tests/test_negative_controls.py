"""Negative controls: a subtly wrong kernel must make its acceptance gate fail.

Each row monkeypatches one kernel that an acceptance criterion calls and
runs the criterion at a reduced size, which must then report
``pass=False``; with the true kernels the same run passes.
"""

from dataclasses import replace

import numpy as np
import pytest

from conehj import (ConePoint, acceptance, bold_xi, cli, conjugates,
                    fd_oracle, is_in_cone, limits, solvers, spin_glass)
from conehj.nonlinearity import (Regularization, h_eval, regularize,
                                 xi_star_vec)


def _h_sorted_without_pooling(kappa, reg):
    # sorting keeps the weighted total but is not the least feasible point
    if is_in_cone(kappa):
        return bold_xi(kappa, reg)
    x = np.maximum(np.sort(kappa.scalars), 0.0)
    return float(kappa.partition.widths @ reg(x))


def _h_shifted_off_cone(kappa, reg):
    return h_eval(kappa, reg) + (0.0 if is_in_cone(kappa) else 1e-6)


def _xi_star_raised(reg, r):
    # lowers only the bracket's lower side
    return xi_star_vec(reg, r) + 1e-9


def _rearrange_one_swap_short(x):
    s = np.sort(x.scalars)
    s[-2:] = s[-2:][::-1]   # the last two entries swapped back
    return ConePoint(x.partition, s)


def _regularize_l_off(model):
    return Regularization(model, regularize(model).L * (1.0 + 1e-6))


def _xi_star_shifted(reg, r):
    return xi_star_vec(reg, r) + 1e-8


_true_deriv = Regularization.deriv


def _deriv_steep(reg, r):
    # xibar', which places each step of hopf_lax's ascent, 1e-3 too steep;
    # the values the ascent compares stay exact
    return (1.0 + 1e-3) * _true_deriv(reg, r)


_true_solve = limits._solve


def _coarse_values_raised(psi, model, cases):
    # cases alternate fine and coarse, so every gap is 1e-3 / (t + |x|)
    f = _true_solve(psi, model, cases)
    f[1::2] = f[0::2] + 1e-3
    return f


def _hopf_lax_1d_shifted(*args, **kwargs):
    return solvers.hopf_lax_1d(*args, **kwargs) + 1e-8


def _hopf_lax_1d_nan(*args, **kwargs):
    return np.nan


def _hopf_lax_1d_batch_raised(psi, model, cases):
    # f raised by 0.0224: at seed 11 and 200 replicas the smallest raise
    # that fails the bound is 0.02234, as c/N takes back N0/N of it
    return solvers.hopf_lax_1d_batch(psi, model, cases) + 0.0224


class _FluxRaised(Regularization):
    """xibar (1 + 3e-3) as the Lax-Friedrichs flux; slope cap 2L unchanged."""

    def __call__(self, r):
        return (1.0 + 3e-3) * super().__call__(r)


def _regularize_flux_raised(model):
    # the gap stays under 10 dx (1 + T); the Richardson ratio falls to 1.15
    return _FluxRaised(model, regularize(model).L)


class _PlainXi(Regularization):
    """xi in place of xibar: only ``hopf`` reads xibar's values."""

    def __call__(self, r):
        return self.base(r)


def _regularize_plain_xi(model):
    # hopf's linear rows with slopes past the seam s0 leave the closed form
    return _PlainXi(model, regularize(model).L)


def _dual_increasing_accepts_all(g):
    return True, None


def _mono_conjugate_pairing_scaled(g):
    # the pairing <x, y> taken 1.5 times
    fin = g.finite_mask()
    X = g.nodes[fin] * g.weights
    vals = np.max(1.5 * g.nodes @ X.T - g.values[fin], axis=1)
    return replace(g, values=vals)


def _lipschitz_audit_halved(surface, psi, model):
    halved = replace(psi, lip_l1=0.5 * psi.lip_l1, lip_h=0.5 * psi.lip_h)
    return limits.lipschitz_audit(surface, halved, model)


def _free_energy_reversed_when_threaded(inst, spec, replicas, seed, threads=1):
    est = spin_glass.free_energy(inst, spec, replicas, seed, threads)
    if threads <= 1:
        return est
    # the same replicas, summed from the last index down
    S = spin_glass._sign_matrix(inst.N)
    vals = [spin_glass._replica_value(inst, spec, S, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(r,))))
        for r in reversed(range(replicas))]
    return replace(est, mean=float(sum(vals) / replicas))


CONTROLS = [
    # (criterion, its reduced-size arguments, module holding the kernel,
    #  kernel name, wrong kernel)
    (acceptance.crit_rearrangement, {"seed": 2, "cases": 300}, acceptance,
     "rearrange_sharp", _rearrange_one_swap_short),
    (acceptance.crit_h_properties, {"seed": 4}, acceptance, "h_eval",
     _h_sorted_without_pooling),
    (acceptance.crit_h_properties, {"seed": 4}, acceptance, "h_eval",
     _h_shifted_off_cone),
    (acceptance.crit_h_properties, {"seed": 4}, acceptance, "xi_star_vec",
     _xi_star_raised),
    (acceptance.crit_regularization, {"seed": 4}, acceptance, "regularize",
     _regularize_l_off),
    (acceptance.crit_variational, {"seed": 5, "instances": 6}, solvers,
     "xi_star_vec", _xi_star_shifted),
    (acceptance.crit_variational, {"seed": 5, "instances": 6}, solvers,
     "regularize", _regularize_plain_xi),
    # the steep step moves hopf_lax off its max, and past the box where a
    # slope reaches the cap; both parts of criterion 5 fail at seed 24
    (acceptance.crit_variational, {"seed": 24, "instances": 2}, Regularization,
     "deriv", _deriv_steep),
    (acceptance.crit_1d_reduction, {"seed": 26, "instances": 3}, Regularization,
     "deriv", _deriv_steep),
    (acceptance.crit_1d_reduction, {"seed": 6, "instances": 6}, acceptance,
     "hopf_lax_1d", _hopf_lax_1d_shifted),
    (acceptance.crit_1d_reduction, {"seed": 6, "instances": 6}, acceptance,
     "hopf_lax_1d", _hopf_lax_1d_nan),
    (acceptance.crit_pde_oracle, {"seed": 7}, fd_oracle, "regularize",
     _regularize_flux_raised),
    (acceptance.crit_rate, {"seed": 8}, limits, "_solve",
     _coarse_values_raised),
    (acceptance.crit_fm, {"seed": 10}, conjugates, "dual_increasing_check",
     _dual_increasing_accepts_all),
    (acceptance.crit_fm, {"seed": 10}, conjugates, "mono_conjugate",
     _mono_conjugate_pairing_scaled),
    (acceptance.crit_lipschitz, {"seed": 11}, acceptance, "lipschitz_audit",
     _lipschitz_audit_halved),
    (acceptance.crit_spin_glass, {"seed": 11, "replicas": 200}, acceptance,
     "hopf_lax_1d_batch", _hopf_lax_1d_batch_raised),
    (acceptance.crit_determinism, {"seed": 13, "threads": 2}, cli,
     "free_energy", _free_energy_reversed_when_threaded),
]
REDUCED_RUNS = []   # each (criterion, arguments) pair once
for _crit, _args, *_ in CONTROLS:
    if (_crit, _args) not in REDUCED_RUNS:
        REDUCED_RUNS.append((_crit, _args))


@pytest.mark.parametrize("crit, args, module, name, wrong", CONTROLS,
                         ids=[f"{c.__name__}-{n}-{w.__name__}"
                              for c, _, _, n, w in CONTROLS])
def test_wrong_kernel_fails_its_gate(monkeypatch, crit, args, module, name, wrong):
    monkeypatch.setattr(module, name, wrong)
    rep = crit(**args)
    assert not rep["pass"], rep


@pytest.mark.parametrize("crit, args", REDUCED_RUNS,
                         ids=[f"{c.__name__}-{a['seed']}" for c, a in REDUCED_RUNS])
def test_true_kernels_pass_the_reduced_run(crit, args):
    rep = crit(**args)
    assert rep["pass"], rep
