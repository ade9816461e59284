"""Release gate: thirteen self-contained criterion runners.

Each runner draws its own seeded randomness, exercises the public API
against independent formulas or oracles, and returns a report dict with
``criterion``, ``name``, ``pass``, ``seconds`` and criterion-specific
details.  ``run_all`` executes a chosen subset in order.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from .cones import (ConePoint, DiscreteMeasure, Partition, StepPath,
                    averaging_matrix, is_in_cone, is_in_dual, lift_lj,
                    measure_to_quantile, project_pj, rearrange_sharp,
                    refinement_index)
from .conjugates import GridFunction, fm_verify
from .fd_oracle import FdGrid, FdSurface, comparison_check, fd_solve
from .limits import lipschitz_audit, rate_study, seeded_test_points
from .nonlinearity import (ConjugateModel, CovarianceModel, bold_xi, h_eval,
                           h_eval_bruteforce, regularize)
from .solvers import (InitialCondition, hopf, hopf_lax, hopf_lax_1d,
                      hopf_lax_pointwise, hopf_lax_separable, solve_surface)
from .spin_glass import (CascadeSpec, SkInstance, bound_check, free_energy,
                         moment_normalization, one_spin_initial_condition,
                         one_spin_psi, pd_squared_weight)


def _report(criterion: int, name: str, t0: float, passed: bool, **details):
    out = {"criterion": criterion, "name": name, "pass": bool(passed),
           "seconds": round(time.perf_counter() - t0, 2)}
    out.update(details)
    return out


def _rel_err(a, b):
    """|a - b| / (1 + max(|a|, |b|)), elementwise for arrays."""
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------------------
# random scene generators

def _random_partition(rng, n_max=16) -> Partition:
    n = int(rng.integers(1, n_max + 1))
    if n == 1 or rng.random() < 0.3:
        return Partition.uniform(n)
    cuts = np.sort(rng.uniform(0.05, 0.95, n - 1))
    cuts = np.unique(np.round(cuts, 6))
    return Partition(np.concatenate((cuts, [1.0])))


def _random_sym(rng, shape, D):
    """Random symmetric (D, D) matrices stacked in ``shape``."""
    a = rng.normal(size=(*shape, D, D))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _random_monotone_values(rng, shape, D):
    """PSD-increasing sequences along the last axis of ``shape``."""
    b = rng.normal(size=(*shape, D, D))
    inc = b @ np.swapaxes(b, -1, -2)
    return np.cumsum(inc, axis=-3)


def _random_dual_values(rng, j: Partition, D, batch=()):
    """Values whose weighted tail sums are the prescribed PSD matrices."""
    m = j.size
    b = rng.normal(size=(*batch, m + 1, D, D))
    tails = b @ np.swapaxes(b, -1, -2)
    tails[..., m, :, :] = 0.0
    return (tails[..., :-1, :, :] - tails[..., 1:, :, :]) \
        / j.widths[:, None, None]


# ---------------------------------------------------------------------------
# criterion 1: cone algebra
#
# Stacked paths have shape (B, n, D, D): B cases of n cells each.

def _apply(op, values):
    """Apply a (k, n) cell operator to every stacked path."""
    B, n, D, _ = values.shape
    return (op @ values.reshape(B, n, D * D)).reshape(B, op.shape[0], D, D)


def _pairings(widths, a, b):
    """Weighted inner products sum_k w_k a_k . b_k, one per case."""
    return np.sum(a * b, axis=(2, 3)) @ widths


def _coord_err(a, b):
    """Worst max |a - b| / (1 + max |b|) over the cases."""
    gap = np.abs(a - b).max(axis=(1, 2, 3))
    return float(np.max(gap / (1.0 + np.abs(b).max(axis=(1, 2, 3)))))


def _all_psd_per_case(mats, scale):
    """Per case: every matrix PSD within the tolerance of ``default_psd_tol``."""
    tol = 1e-9 * (1.0 + np.sqrt(np.sum(scale ** 2, axis=(1, 2, 3))))
    mins = mats[..., 0, 0] if mats.shape[-1] == 1 \
        else np.linalg.eigvalsh(mats)[..., 0]
    return np.all(mins >= -tol[:, None], axis=1)


def _cone_algebra_public_case(upd, g, j, dyadic_pair, iota, x, mono, dual):
    """One case through the public projection, lift and membership API."""
    iota, x = StepPath(g, iota), ConePoint(j, x)
    p_iota = project_pj(iota, j)
    upd("adjoint", _rel_err(p_iota.inner(x), iota.inner(lift_lj(x))))
    upd("isometry", _rel_err(lift_lj(x).norm(), x.norm()))
    upd("contraction",
        max(0.0, p_iota.norm() - iota.norm()) / (1.0 + iota.norm()))
    rt = project_pj(lift_lj(x), j)
    upd("left_inverse", _coord_err(rt.coords[None], x.coords[None]))
    jc, jf = dyadic_pair
    a = project_pj(lift_lj(project_pj(iota, jf)), jc)
    b = project_pj(iota, jc)
    upd("projectivity", _coord_err(a.coords[None], b.coords[None]))
    if not is_in_cone(project_pj(StepPath(g, mono), j)):
        upd("cone_image", 1.0)
    if not is_in_dual(project_pj(StepPath(g, dual), j)):
        upd("dual_image", 1.0)


def crit_cone_algebra(seed=0, cases=10_000, tol=1e-10, tol_scale=1.0,
                      averaging=averaging_matrix, lift=refinement_index):
    """Seven identities of the projection/lift pair on random scenes.

    Case i runs on scene i % 48 and dyadic pair i % 10.  The cases of a
    scene run as one stacked batch: ``averaging(src, dst)`` is the matrix
    of p_dst on paths over ``src`` and ``lift(src, grid)`` the cell gather
    that re-expresses a path over ``src`` on a refining grid; both default
    to the operators behind ``project_pj`` and ``StepPath.refine_to``.
    The first case of each scene also runs through the public API.
    Wrong operators passed in must fail the gate (its negative control).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    tol = tol * tol_scale
    scenes = []
    for _ in range(48):
        D = int(rng.integers(1, 4))
        scenes.append((_random_partition(rng), _random_partition(rng), D))
    dyadics = [(Partition.dyadic(a), Partition.dyadic(b))
               for a in range(0, 4) for b in range(a + 1, 5)]
    worst = {}

    def upd(prop, err):
        worst[prop] = max(worst.get(prop, 0.0), float(err))

    for s, (g, j, D) in enumerate(scenes):
        case_ids = np.arange(s, cases, len(scenes))
        B = case_ids.size
        if B == 0:
            continue
        iota = _random_sym(rng, (B, g.size), D)
        x = _random_sym(rng, (B, j.size), D)
        mono = _random_monotone_values(rng, (B, g.size), D)
        dual = _random_dual_values(rng, g, D, batch=(B,))
        # both sides lifted onto the union grid u
        u = g.union(j)
        iota_u, x_u = iota[:, lift(g, u)], x[:, lift(j, u)]
        p_iota = _apply(averaging(g, j), iota)
        # adjointness: <p_j iota, x> = <iota, l_j x>
        upd("adjoint", np.max(_rel_err(_pairings(j.widths, p_iota, x),
                                       _pairings(u.widths, iota_u, x_u))))
        # isometry of the lift
        upd("isometry", np.max(_rel_err(np.sqrt(_pairings(u.widths, x_u, x_u)),
                                        np.sqrt(_pairings(j.widths, x, x)))))
        # contraction of the projection
        iota_norm = np.sqrt(_pairings(g.widths, iota, iota))
        p_norm = np.sqrt(_pairings(j.widths, p_iota, p_iota))
        upd("contraction",
            np.max(np.maximum(0.0, p_norm - iota_norm) / (1.0 + iota_norm)))
        # p_j l_j = id
        upd("left_inverse", _coord_err(_apply(averaging(u, j), x_u), x))
        # projectivity on a nested dyadic pair
        pair_ids = case_ids % len(dyadics)
        for d in np.unique(pair_ids):
            jc, jf = dyadics[d]
            sel = iota[pair_ids == d]
            a = _apply(averaging(jf, jc), _apply(averaging(g, jf), sel))
            upd("projectivity", _coord_err(a, _apply(averaging(g, jc), sel)))
        # cone and dual-cone preservation
        p_mono = _apply(averaging(g, j), mono)
        steps = np.diff(p_mono, axis=1, prepend=np.zeros((B, 1, D, D)))
        if not np.all(_all_psd_per_case(steps, p_mono)):
            upd("cone_image", 1.0)
        p_dual = _apply(averaging(g, j), dual)
        tails = np.cumsum((j.widths[:, None, None] * p_dual)[:, ::-1],
                          axis=1)[:, ::-1]
        if not np.all(_all_psd_per_case(tails, p_dual)):
            upd("dual_image", 1.0)
        _cone_algebra_public_case(upd, g, j, dyadics[s % len(dyadics)],
                                  iota[0], x[0], mono[0], dual[0])
    worst_err = max(worst.values())
    return _report(1, "cone-algebra", t0, worst_err <= tol,
                   cases=cases, worst=worst, tol=tol)


# ---------------------------------------------------------------------------
# criterion 2: rearrangement

def crit_rearrangement(seed=1, cases=10_000, tol=1e-12, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    tol = tol * tol_scale
    worst = {"dual": 0.0, "stats": 0.0, "idempotent": 0.0}
    for i in range(cases):
        n = int(rng.integers(2, 17))
        x = ConePoint(Partition.uniform(n), rng.uniform(-2.0, 3.0, n))
        s = rearrange_sharp(x)
        # x_sharp - x lies in the dual cone: weighted tails nonnegative
        d = (s.scalars - x.scalars) / n
        tails = np.cumsum(d[::-1])[::-1]
        worst["dual"] = max(worst["dual"], float(-tails.min(initial=0.0)))
        if i % 97 == 0 and not is_in_dual(s - x, tol=1e-9):
            worst["dual"] = max(worst["dual"], 1.0)
        # coordinate statistics are preserved
        for p in (1, 2, 3):
            worst["stats"] = max(worst["stats"], _rel_err(
                float(np.sum(x.scalars ** p)), float(np.sum(s.scalars ** p))))
        ss = rearrange_sharp(s)
        worst["idempotent"] = max(worst["idempotent"],
                                  float(np.abs(ss.scalars - s.scalars).max()))
    worst_err = max(worst.values())
    return _report(2, "rearrangement", t0, worst_err <= tol,
                   cases=cases, worst=worst, tol=tol)


# ---------------------------------------------------------------------------
# criterion 3: regularization

def crit_regularization(seed=2, points=1000, pairs=10_000, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    L = reg.L

    a = rng.uniform(-1.0, 4.0, points)
    # closed piecewise form for xi(r) = r^2: max(a^2, 8(a-1)) up to the
    # trace seam at 2, the affine branch alone beyond
    affine = 0.0 + 2.0 * L * (a - 1.0)
    expected = np.where(a <= 2.0, np.maximum(1.0 * a ** 2, affine), affine)
    got = reg.eval_vec(a)
    exact_gap = float(np.abs(got - expected).max())

    u = rng.uniform(0.0, 1.0, points)
    coincide_gap = float(np.abs(reg.eval_vec(u) - u ** 2).max())

    p = rng.uniform(-2.0, 4.0, pairs)
    q = rng.uniform(-2.0, 4.0, pairs)
    lip_viol = float(np.max(np.abs(reg.eval_vec(p) - reg.eval_vec(q))
                            - 2.0 * L * np.abs(p - q)))
    mid = reg.eval_vec(0.5 * (p + q))
    conv_viol = float(np.max(mid - 0.5 * (reg.eval_vec(p) + reg.eval_vec(q))))

    tol = 1e-12 * tol_scale
    passed = (exact_gap == 0.0 and coincide_gap == 0.0
              and lip_viol <= tol and conv_viol <= tol)
    return _report(3, "regularization", t0, passed, L=L, exact_gap=exact_gap,
                   coincide_gap=coincide_gap, lipschitz_violation=lip_viol,
                   convexity_violation=conv_viol)


# ---------------------------------------------------------------------------
# criterion 4: extended nonlinearity H

def crit_h_properties(seed=3, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    tol = 1e-4 * tol_scale
    worst = {"monotone": 0.0, "lower": 0.0, "convex": 0.0,
             "coarsen": 0.0, "bruteforce": 0.0}
    xibar0 = reg(0.0)
    cases = 0
    for _ in range(260):
        n = int(rng.integers(1, 5))
        j = _random_partition(rng, n_max=4) if rng.random() < 0.5 \
            else Partition.uniform(n)
        kappa = ConePoint(j, rng.normal(0.0, 1.5, j.size))
        hk = h_eval(kappa, reg)
        cases += 1
        worst["lower"] = max(worst["lower"], xibar0 - hk)
        # monotone along the dual cone
        d = ConePoint(j, _random_dual_values(rng, j, 1))
        hk2 = h_eval(kappa + d, reg)
        cases += 1
        worst["monotone"] = max(worst["monotone"], hk - hk2)
        # convexity at midpoints
        kb = ConePoint(j, rng.normal(0.0, 1.5, j.size))
        hb = h_eval(kb, reg)
        hm = h_eval(0.5 * (kappa + kb), reg)
        cases += 2
        worst["convex"] = max(worst["convex"], hm - 0.5 * (hk + hb))
    for _ in range(160):
        # coarsening decreases H (conditional averaging + convexity)
        j4 = Partition.uniform(4)
        kappa = ConePoint(j4, rng.normal(0.0, 1.5, 4))
        kc = project_pj(lift_lj(kappa), Partition.uniform(2))
        cases += 2
        worst["coarsen"] = max(worst["coarsen"],
                               h_eval(kc, reg) - h_eval(kappa, reg))
    for _ in range(250):
        n = int(rng.integers(1, 3))
        j = Partition.uniform(n)
        kappa = ConePoint(j, rng.normal(0.0, 1.5, n))
        cases += 1
        worst["bruteforce"] = max(worst["bruteforce"],
                                  abs(h_eval(kappa, reg)
                                      - h_eval_bruteforce(kappa, reg)))
    passed = (max(worst["monotone"], worst["lower"], worst["convex"],
                  worst["coarsen"]) <= tol and worst["bruteforce"] <= tol)
    return _report(4, "extended-nonlinearity", t0, passed,
                   optimizer_cases=cases, worst=worst, tol=tol)


# ---------------------------------------------------------------------------
# shared instance family for criteria 5, 6, 11

def _random_softplus(rng, lip_target=None):
    m = int(rng.integers(1, 4))
    a = rng.uniform(0.2, 1.0, m)
    a *= (rng.uniform(0.5, 1.0) if lip_target is None else lip_target) / a.sum()
    th = rng.uniform(0.0, 2.0, m)
    tau = rng.uniform(0.2, 1.0, m)
    return InitialCondition.softplus(a, th, tau)


def _random_cone_scalars(rng, n, scale=1.5):
    return np.cumsum(rng.uniform(0.0, scale, n))


# criterion 5: hopf = hopf_lax, plus the linear closed form

def crit_variational(seed=4, instances=100, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    model = CovarianceModel.sk(1.0)
    reg = regularize(model)
    times = (0.1, 0.5, 1.0)
    worst = 0.0
    for i in range(instances):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        psi = _random_softplus(rng)
        x = ConePoint(j, _random_cone_scalars(rng, n, 1.0))
        t = times[i % 3]
        worst = max(worst, abs(hopf(psi, model, j, t, x)
                               - hopf_lax(psi, reg, j, t, x)))
    worst_lin = 0.0
    for i in range(30):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        h = StepPath(j, np.sort(rng.uniform(0.0, 1.5, n)))
        psi = InitialCondition.linear(h)
        x = ConePoint(j, _random_cone_scalars(rng, n, 1.0))
        t = times[i % 3]
        hj = ConePoint(j, h.values)
        closed = x.inner(hj) + t * bold_xi(hj, reg)
        worst_lin = max(worst_lin, abs(hopf_lax(psi, reg, j, t, x) - closed))
    tol, tol_lin = 1e-4 * tol_scale, 1e-6 * tol_scale
    return _report(5, "variational-agreement", t0,
                   worst <= tol and worst_lin <= tol_lin,
                   worst_hopf_gap=worst, worst_linear_gap=worst_lin,
                   tol=tol, tol_linear=tol_lin)


# criterion 6: 1d reduction

def crit_1d_reduction(seed=5, instances=100, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    conj = ConjugateModel(reg)
    times = (0.1, 0.5, 1.0)
    worst = 0.0
    for i in range(instances):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        if i % 2 == 0:
            psi = _random_softplus(rng)
        else:
            h = StepPath(j, np.sort(rng.uniform(0.0, 1.0, n)))
            psi = InitialCondition.linear(h)
        x = ConePoint(j, _random_cone_scalars(rng, n, 1.0))
        t = times[i % 3]
        a = hopf_lax_1d(psi, conj, j, t, x, rng=rng)
        b = hopf_lax(psi, reg, j, t, x)
        worst = max(worst, abs(a - b))
    tol = 1e-4 * tol_scale
    return _report(6, "1d-reduction", t0, worst <= tol,
                   instances=instances, worst_gap=worst, tol=tol)


# ---------------------------------------------------------------------------
# criteria 7 and 8: the finite-difference oracle

def _random_pwl_profile(rng):
    """Nondecreasing convex piecewise-linear profile with slope <= 1."""
    m = int(rng.integers(1, 4))
    s0 = rng.uniform(0.0, 0.3)
    amounts = rng.uniform(0.05, 1.0, m)
    amounts *= rng.uniform(0.3, 1.0) * (1.0 - s0) / amounts.sum()
    kinks = np.sort(rng.uniform(0.2, 2.0, m))

    def phi(r):
        r = np.asarray(r, dtype=float)[..., None]
        return s0 * r[..., 0] + np.sum(amounts * np.maximum(r - kinks, 0.0),
                                       axis=-1)

    return phi


def _fd_vs_hopf_lax(phi, reg, dx, T, x_lim=2.0):
    grid = FdGrid.make(reg, x_max=5.0, dx=dx, slope_cap=1.0)
    fd = fd_solve(phi, reg, grid, T)
    xs = fd.xs[fd.xs <= x_lim][::8]
    gap = 0.0
    for ti in (len(fd.times) // 2, len(fd.times) - 1):
        t = float(fd.times[ti])
        ref = hopf_lax_pointwise(phi, reg, t, xs, scan=513, zoom_rounds=7)
        sub = np.interp(xs, fd.xs, fd.values[ti])
        gap = max(gap, float(np.abs(sub - ref).max()))
    return gap


def crit_pde_oracle(seed=6, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    dx, T = 1.0 / 400, 1.0
    tol = 10.0 * dx * (1.0 + T) * tol_scale
    worst = 0.0
    for _ in range(10):
        worst = max(worst, _fd_vs_hopf_lax(_random_pwl_profile(rng), reg, dx, T))
    smooth = _random_softplus(rng, lip_target=0.9)
    g1 = _fd_vs_hopf_lax(smooth.phi, reg, dx, T)
    g2 = _fd_vs_hopf_lax(smooth.phi, reg, dx / 2, T)
    ratio = g1 / g2
    passed = worst <= tol and 1.5 <= ratio <= 3.0
    return _report(7, "pde-oracle", t0, passed, worst_gap=worst, tol=tol,
                   richardson_coarse=g1, richardson_fine=g2,
                   richardson_ratio=ratio)


def crit_comparison(seed=7, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    dx, T = 1.0 / 400, 1.0
    phi = _random_pwl_profile(rng)
    grid = FdGrid.make(reg, x_max=5.0, dx=dx, slope_cap=1.0)
    fd = fd_solve(phi, reg, grid, T)
    sub = slice(0, fd.xs.size, 10)
    xs = fd.xs[sub]
    vals = np.empty((fd.times.size, xs.size))
    for ti, t in enumerate(fd.times):
        if t == 0.0:
            vals[ti] = phi(xs)
        else:
            vals[ti] = hopf_lax_pointwise(phi, reg, float(t), xs,
                                          scan=513, zoom_rounds=7)
    u = FdSurface(fd.times, xs, vals, "hopf_lax")
    v = FdSurface(fd.times, xs, fd.values[:, sub], "fd_oracle")
    tol = 10.0 * dx * (1.0 + T) * tol_scale
    rep = comparison_check(u, v, L=1.0, reg=reg, tol=tol)
    # negative control: subtracting c t from the second solution must
    # push the penalized max strictly after t = 0
    drift = FdSurface(u.times, xs, u.values - 1.0 * u.times[:, None], "drift")
    neg = comparison_check(u, drift, L=1.0, reg=reg, tol=tol)
    passed = rep.passed and rep.t_star == 0.0 \
        and (not neg.passed) and neg.margin > 0.0
    return _report(8, "quantified-comparison", t0, passed,
                   margin=rep.margin, t_star=rep.t_star, tol=tol,
                   control_margin=neg.margin, control_failed=not neg.passed)


# ---------------------------------------------------------------------------
# criterion 9: convergence rate

def crit_rate(seed=8, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    reg = regularize(CovarianceModel.sk(1.0))
    chain = [Partition.uniform(n) for n in (4, 8, 16, 32, 64)]
    pts = seeded_test_points(seed, count=32, radius=4.0, fine=128)
    psi = _random_softplus(rng, lip_target=1.0)
    study = rate_study(psi, reg, chain, pts)
    slope_ok = study.slope <= -0.4 * tol_scale

    lin = InitialCondition.separable(lambda r: 0.3 * np.asarray(r, float),
                                     lip=0.3, name="factoring-linear")
    study_lin = rate_study(lin, reg, chain, pts)
    flat_ok = float(study_lin.errors.max()) <= 1e-9
    return _report(9, "convergence-rate", t0, slope_ok and flat_ok,
                   slope=study.slope, errors=study.errors.tolist(),
                   sizes=study.sizes.tolist(),
                   factoring_max_error=float(study_lin.errors.max()))


# ---------------------------------------------------------------------------
# criterion 10: Fenchel-Moreau harness

def crit_fm(seed=9, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    convex_fail = []
    for i in range(20):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        w = j.widths
        if i % 2 == 0:
            a, b = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5)
            fn = lambda x: float(np.sum(w * (a * x + b * x ** 2)))
        else:
            c = np.sort(rng.uniform(0.0, 1.0, n))
            fn = lambda x: float(np.sum(w * c * x))
        g = GridFunction.from_callable(j, fn, x_max=2.0, steps=9)
        rep = fm_verify(g, tol=None if tol_scale == 1.0 else
                        5.0 * g.step * 2.0 * tol_scale)
        if not rep["pass"]:
            convex_fail.append(rep)
    witnessed = 0
    for i in range(10):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        w = j.widths
        slope = rng.uniform(0.3, 1.0)
        fn = lambda x: float(-slope * np.sum(w * x))   # dual-decreasing
        g = GridFunction.from_callable(j, fn, x_max=2.0, steps=9)
        rep = fm_verify(g)
        if not rep["pass"] and rep.get("witness") is not None:
            witnessed += 1
    passed = not convex_fail and witnessed == 10
    return _report(10, "fenchel-moreau", t0, passed,
                   convex_failures=len(convex_fail),
                   nonmonotone_witnessed=witnessed)


# ---------------------------------------------------------------------------
# criterion 11: Lipschitz audits

def crit_lipschitz(seed=10, tol_scale=1.0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    model = CovarianceModel.sk(1.0)
    reg = regularize(model)
    times = [0.0, 0.25, 0.5, 1.0]
    audits = []
    # separable data on a moderately fine grid
    j16 = Partition.uniform(16)
    psi = _random_softplus(rng, lip_target=1.0)
    samples = [ConePoint(j16, _random_cone_scalars(rng, 16, 0.4))
               for _ in range(6)]
    surf = solve_surface(psi, reg, j16, times, samples,
                         method="hopf_lax_separable")
    audits.append(lipschitz_audit(surf, psi, reg, slack=1.01 * tol_scale))
    # linear data through the generic route
    j3 = Partition.uniform(3)
    h = StepPath(j3, np.array([0.2, 0.5, 0.9]))
    psi_lin = InitialCondition.linear(h)
    samples3 = [ConePoint(j3, _random_cone_scalars(rng, 3, 1.0))
                for _ in range(5)]
    surf_lin = solve_surface(psi_lin, reg, j3, times, samples3,
                             method="hopf_lax")
    audits.append(lipschitz_audit(surf_lin, psi_lin, reg,
                                  slack=1.01 * tol_scale))
    # convex separable data through the dual route
    psi_q = InitialCondition.quadratic_monotone(0.4, 0.3, 1.0)
    surf_q = solve_surface(psi_q, model, j3, times, samples3, method="hopf")
    audits.append(lipschitz_audit(surf_q, psi_q, reg, slack=1.01 * tol_scale))
    passed = all(a["pass"] for a in audits)
    return _report(11, "lipschitz-audits", t0, passed, audits=audits)


# ---------------------------------------------------------------------------
# criterion 12: spin glass

def _half_measure():
    return DiscreteMeasure(np.array([0.0, 0.3]), np.array([0.0, 0.5, 1.0]))


def crit_spin_glass(seed=11, replicas=1000, tol_scale=1.0, threads=1):
    t0 = time.perf_counter()
    beta = 0.5
    details = {}
    ok = True
    # (a) Gaussian moment normalization
    moments = [moment_normalization(N, beta, 0.5, 10_000, seed + N)
               for N in (2, 3, 4)]
    details["moment"] = moments
    ok &= all(m["pass"] for m in moments)
    # (b) single-spin t = 0 closed form
    half = _half_measure()
    spec = CascadeSpec.for_measure(half)
    inst1 = SkInstance(1, beta, 0.0, half)
    est1 = free_energy(inst1, spec, 4000, seed=seed + 100, threads=threads)
    psi_half = one_spin_psi(half)
    details["one_spin"] = {"mc": est1.mean, "se": est1.se, "exact": psi_half,
                           "pass": bool(abs(est1.mean - psi_half)
                                        <= 3.0 * est1.se)}
    ok &= details["one_spin"]["pass"]
    # (c) Poisson-Dirichlet identity E sum nu^2 = 1 - zeta
    rng = np.random.default_rng(seed + 200)
    sq = np.array([pd_squared_weight(spec, rng) for _ in range(800)])
    se = float(sq.std(ddof=1) / np.sqrt(sq.size))
    details["pd_identity"] = {"mean": float(sq.mean()), "se": se,
                              "target": 0.5,
                              "pass": bool(abs(sq.mean() - 0.5) <= 3.0 * se)}
    ok &= details["pd_identity"]["pass"]
    # (d) + (e) lower bound and gap trend per (t, measure)
    psi = one_spin_initial_condition()
    conj = ConjugateModel(CovarianceModel.sk(beta))
    j = Partition.uniform(4)
    bounds = {}
    for mname, measure in (("delta0", DiscreteMeasure.delta(0.0)),
                           ("half", half)):
        mspec = CascadeSpec.for_measure(measure)
        mu = project_pj(measure_to_quantile(measure), j)
        for t in (0.25, 0.5):
            f = hopf_lax_1d(psi, conj, j, t, mu,
                            rng=np.random.default_rng(seed))
            ests = [free_energy(SkInstance(N, beta, t, measure), mspec,
                                replicas, seed=seed + 17 * N + int(1000 * t),
                                threads=threads)
                    for N in (6, 8, 10, 12)]
            rep = bound_check(ests, f)
            bounds[f"{mname}_t{t}"] = rep
            ok &= rep["pass"] and rep["trend_nonincreasing"]
    details["bounds"] = bounds
    return _report(12, "spin-glass", t0, bool(ok), **details)


# ---------------------------------------------------------------------------
# criterion 13: determinism of the CLI artifacts

def _run_cli(args):
    from . import cli
    return cli.main(args)


def crit_determinism(seed=12, tol_scale=1.0, threads=4):
    t0 = time.perf_counter()
    config = {
        "N_list": [4, 6], "beta": 0.5, "t_list": [0.25],
        "measure": _half_measure().to_json(),
        "cascade": {"M": 256}, "replicas": 100, "hj_level": 2,
    }
    hashes = []
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        for run, nthreads in enumerate((1, threads)):
            out = Path(tmp) / f"run{run}"
            codes.append(_run_cli(["spinglass", "--config", str(cfg),
                                   "--out", str(out), "--seed", str(seed),
                                   "--threads", str(nthreads)]))
            digest = hashlib.sha256()
            for name in sorted(p.name for p in out.glob("*.csv")):
                digest.update((out / name).read_bytes())
            hashes.append(digest.hexdigest())
    passed = hashes[0] == hashes[1] and all(c in (0, 2) for c in codes)
    return _report(13, "determinism", t0, passed,
                   hashes=hashes, exit_codes=codes)


# ---------------------------------------------------------------------------

CRITERIA = {
    1: crit_cone_algebra, 2: crit_rearrangement, 3: crit_regularization,
    4: crit_h_properties, 5: crit_variational, 6: crit_1d_reduction,
    7: crit_pde_oracle, 8: crit_comparison, 9: crit_rate, 10: crit_fm,
    11: crit_lipschitz, 12: crit_spin_glass, 13: crit_determinism,
}


def run_all(seed=0, criteria=None, replicas=1000, tol_scale=1.0, threads=1):
    """Run the requested criteria (all by default) and collect reports."""
    wanted = sorted(CRITERIA) if criteria is None else [int(c) for c in criteria]
    reports = []
    for c in wanted:
        fn = CRITERIA[c]
        kwargs = {"seed": seed + c, "tol_scale": tol_scale}
        if c == 12:
            kwargs.update(replicas=replicas, threads=threads)
        if c == 13:
            kwargs.update(threads=max(threads, 2))
        reports.append(fn(**kwargs))
    return reports
