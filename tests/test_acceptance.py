"""Acceptance gate: one test per release criterion.

Each test prints a single line

    criterion NN  <name>  PASS|FAIL  (<elapsed>s of <budget>s)

and then asserts both the checked property and the runtime budget, so the
-v output of this file doubles as the release checklist.
"""

import time

import numpy as np

from ietistokes.analysis import InfSupStudy
from ietistokes.assembly import (
    assemble_global,
    manufactured_pressure,
    manufactured_rhs,
    manufactured_velocity,
    manufactured_velocity_gradient,
    taylor_hood_spaces,
    total_errors,
)
from ietistokes.bspline import UnivariateSplineSpace, promote_coefficients
from ietistokes.cli import RunConfig, _suite_algebra, _suite_fortin, _suite_skeleton
from ietistokes.cli import channel_inlet
from ietistokes.domains import parse_domain
from ietistokes.ieti import solve_stokes_ieti, verify_supmat


def _finish(num, name, ok, t0, budget, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("criterion %02d  %-28s %s  (%.1fs of %ds)%s"
          % (num, name, status, elapsed, budget,
             "  " + detail if detail else ""))
    assert ok, "criterion %d: %s %s" % (num, name, detail)
    assert elapsed < budget, "criterion %d over budget: %.1fs >= %ds" % (
        num, elapsed, budget)


def test_criterion_01_spline_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok, worst = True, 0.0
    for p in range(1, 7):
        for s in range(0, p):
            for m in (1, 2, 5):
                space = UnivariateSplineSpace(np.linspace(0, 1, m + 1), p, s)
                ok = ok and space.dim == (p + 1) + (m - 1) * (p - s)
    for p, s in ((2, 1), (4, 2), (6, 5)):
        space = UnivariateSplineSpace(np.linspace(0, 1, 6), p, s)
        pts = rng.uniform(0, 1, 60)
        worst = max(worst, np.abs(
            space.collocation(pts) @ np.ones(space.dim) - 1.0).max())
    ok = ok and worst < 1e-12
    space = UnivariateSplineSpace([0, 0.25, 0.5, 0.75, 1], 3, 1)
    c = rng.standard_normal(space.dim)
    h = 1e-6
    xs = rng.uniform(0.05, 0.95, 60)
    xs = xs[np.abs(((xs + h) % 0.25) - h) > 2 * h]  # keep stencils one-sided of breaks
    fd = (space.collocation(xs + h) @ c - space.collocation(xs - h) @ c) / (2 * h)
    err_fd = np.abs(space.collocation(xs, der=1) @ c - fd).max()
    ok = ok and err_fd < 1e-4
    fine = space.refine_uniform()
    cf = promote_coefficients(space, fine, c)
    xs = rng.uniform(0, 1, 100)
    err_nest = np.abs(space.collocation(xs) @ c - fine.collocation(xs) @ cf).max()
    ok = ok and err_nest < 1e-12
    _finish(1, "spline suite", ok, t0, 10,
            "pu %.1e fd %.1e nest %.1e" % (worst, err_fd, err_nest))


def test_criterion_02_convergence_orders():
    t0 = time.perf_counter()
    ok, parts = True, []
    mp = parse_domain("grid(1,1)")
    for p in (1, 2):
        errs_u, errs_p, hs = [], [], []
        for level in (2, 3, 4, 5):
            spaces = taylor_hood_spaces(mp, p, refinement=level)
            glob = assemble_global(mp, spaces, rhs=manufactured_rhs,
                                   dirichlet=manufactured_velocity)
            us, ps = glob.solve()
            h1u, _, l2p = total_errors(
                mp, spaces, us, ps, exact_u=manufactured_velocity,
                exact_grad_u=manufactured_velocity_gradient,
                exact_p=manufactured_pressure)
            errs_u.append(h1u)
            errs_p.append(l2p)
            hs.append(0.5 ** level)
        slope_u = np.polyfit(np.log(hs), np.log(errs_u), 1)[0]
        slope_p = np.polyfit(np.log(hs), np.log(errs_p), 1)[0]
        ok = ok and abs(slope_u - (p + 1)) <= 0.2
        ok = ok and abs(slope_p - (p + 1)) <= 0.3
        parts.append("p=%d H1 %.2f L2p %.2f" % (p, slope_u, slope_p))
    _finish(2, "convergence orders", ok, t0, 120, "; ".join(parts))


def test_criterion_03_infsup_grid_invariance():
    t0 = time.perf_counter()
    rows = InfSupStudy("grid(1,1)", degrees=[1, 2, 3, 4], levels=[1, 2, 3]).run()
    kappas = np.array([r["kappa"] for r in rows])
    spread = (kappas.max() - kappas.min()) / kappas.min()
    _finish(3, "inf-sup grid invariance", spread < 0.05, t0, 300,
            "spread %.3f%% over %d cells" % (100 * spread, len(rows)))


def test_criterion_04_elongation_trend():
    t0 = time.perf_counter()
    kappas = [InfSupStudy("strip(%d)" % L, [2], [1]).run_cell(2, 1)["kappa"]
              for L in (1, 2, 4, 8)]
    ok = all(b > a for a, b in zip(kappas, kappas[1:]))
    _finish(4, "elongation trend", ok, t0, 300,
            " -> ".join("%.2f" % k for k in kappas))


def _relative_velocity_difference(glob, us, us_ref):
    num = den = 0.0
    for k, s in enumerate(glob.systems):
        for c in (0, 1):
            d = us[k][c] - us_ref[k][c]
            num += d @ (s.Ks @ d)
            den += us_ref[k][c] @ (s.Ks @ us_ref[k][c])
    return np.sqrt(num / den)


def _mean_adjusted_pressure_difference(glob, ps, ps_ref):
    rows = [np.ones(s.Mp.shape[0]) @ s.Mp for s in glob.systems]
    area = sum(row.sum() for row in rows)
    shift = sum(row @ (ps[k] - ps_ref[k]) for k, row in enumerate(rows)) / area
    num = den = 0.0
    for k, s in enumerate(glob.systems):
        d = ps[k] - ps_ref[k] - shift
        num += d @ (s.Mp @ d)
        den += ps_ref[k] @ (s.Mp @ ps_ref[k])
    return np.sqrt(num / den)


def test_criterion_05_ieti_matches_monolithic():
    t0 = time.perf_counter()
    ok, parts = True, []
    for spec in ("grid(2,2)", "grid(3,3)"):
        mp = parse_domain(spec)
        spaces = taylor_hood_spaces(mp, 2, refinement=2)
        glob = assemble_global(mp, spaces, rhs=manufactured_rhs,
                               dirichlet=manufactured_velocity)
        us_ref, ps_ref = glob.solve()
        us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                        dirichlet=manufactured_velocity,
                                        tol=1e-6, systems=glob.systems)
        du = _relative_velocity_difference(glob, us, us_ref)
        dp = _mean_adjusted_pressure_difference(glob, ps, ps_ref)
        ok = ok and rep.converged and du < 1e-5 and dp < 1e-5
        parts.append("%s du %.1e dp %.1e" % (spec, du, dp))
    _finish(5, "ieti matches monolithic", ok, t0, 60, "; ".join(parts))


def test_criterion_06_algebraic_identities():
    t0 = time.perf_counter()
    config = RunConfig("verify", "grid(2,2)", [1, 2], [1, 2])
    checks = _suite_algebra(config)
    bad = [name for name, good, _ in checks if not good]
    _finish(6, "algebraic identities", not bad, t0, 60,
            "%d checks%s" % (len(checks), "" if not bad else "; failing: " + ", ".join(bad)))


def test_criterion_07_skeleton_spectral_bounds():
    t0 = time.perf_counter()
    checks = _suite_skeleton(RunConfig("verify", "grid(1,1)", [1, 2], [1, 2]))
    bad = [name for name, good, _ in checks if not good]
    _finish(7, "skeleton spectral bounds", not bad, t0, 120,
            "%d checks%s" % (len(checks), "" if not bad else "; failing: " + ", ".join(bad)))


def test_criterion_08_sup_representation():
    t0 = time.perf_counter()
    out = verify_supmat(seed=0, instances=50, nmax=8, tol=1e-8)
    _finish(8, "sup representation", out["ok"], t0, 10,
            "max rel err %.1e over %d instances" % (out["max_rel_err"], 50))


def test_criterion_09_interface_interpolant():
    t0 = time.perf_counter()
    checks = _suite_fortin(RunConfig("verify", "grid(2,2)", [2], [1]))
    bad = [name for name, good, _ in checks if not good]
    _finish(9, "interface interpolant", not bad, t0, 30,
            "%d checks%s" % (len(checks), "" if not bad else "; failing: " + ", ".join(bad)))


def test_criterion_10_benchmark_bands():
    t0 = time.perf_counter()
    ok, parts = True, []
    kappas = {}
    for p in (2, 3):
        for level in (2, 3, 4):
            mp = parse_domain("quarter_annulus(1,2,8,8)")
            spaces = taylor_hood_spaces(mp, p, refinement=level)
            us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                            dirichlet=manufactured_velocity,
                                            tol=1e-6)
            ok = ok and rep.converged and rep.iterations <= 35
            kappas[p, level] = rep.kappa
            parts.append("p%d l%d it%d k%.1f" % (p, level, rep.iterations, rep.kappa))
    ok = ok and 4.0 <= kappas[2, 2] <= 15.0
    for p in (2, 3):
        inc1 = kappas[p, 3] - kappas[p, 2]
        inc2 = kappas[p, 4] - kappas[p, 3]
        ok = ok and inc1 > 0 and inc2 > 0 and 0.4 <= inc2 / inc1 <= 2.5
    _finish(10, "benchmark bands", ok, t0, 600, " ".join(parts))


def test_criterion_11_channel_with_hole():
    t0 = time.perf_counter()
    mp = parse_domain("rectangle_with_hole")
    spaces = taylor_hood_spaces(mp, 2, refinement=2)
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=None,
                                    dirichlet=channel_inlet, tol=1e-6)
    ok = rep.converged and rep.iterations <= 25
    _finish(11, "channel with hole", ok, t0, 120,
            "it %d kappa %.2f" % (rep.iterations, rep.kappa))
