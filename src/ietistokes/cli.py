"""Command line driver: benchmarks, condition studies, solves, property checks.

Subcommands
-----------
bench-ieti    iteration counts and condition numbers of the IETI-DP solver
study-infsup  pressure Schur condition numbers over a (degree, level) grid
solve         one IETI-DP solve with a plain-text field export
verify        cross-module property suites

Each subcommand accepts only the options it reads (build_parser). Exit
codes: 0 success, 1 solver non-convergence (also of the eigensolve of
study-infsup), 2 invalid configuration or geometry, an unknown option
included, 3 property suite failure. The thread count can be overridden
with the IETISTOKES_THREADS environment variable.
"""

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import InfSupStudy, SpectrumError, local_infsup
from .assembly import (
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    fortin_correction,
    matched_side_dofs,
    manufactured_pressure,
    manufactured_rhs,
    manufactured_velocity,
    manufactured_velocity_gradient,
    taylor_hood_spaces,
    total_errors,
)
from .domains import load_domain as _load_domain
from .domains import parse_domain, quarter_annulus_patch
from .geometry import DegenerateJacobianError, TopologyError, bilinear_patch, grid_points
from .ieti import (
    IetiOperator,
    SingularLocalSystemError,
    solve_stokes_ieti,
    verify_supmat,
)

__all__ = ("RunConfig", "ConfigError", "main")

BENCH_COLUMNS = ("domain", "degree", "level", "iterations", "kappa",
                 "converged", "dofs", "seconds")
STUDY_COLUMNS = ("domain", "degree", "level", "kappa", "beta", "delta_h",
                 "dofs", "seconds")


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated parameters shared by all subcommands."""

    def __init__(self, command, domain, degrees, levels, smoothness=None,
                 tol=1e-6, max_iter=500, seed=42, output=None, threads=1,
                 zero_data=False, samples=9, suite="all"):
        self.command = command
        self.domain = domain
        self.degrees = list(degrees)
        self.levels = list(levels)
        self.smoothness = smoothness
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        self.output = output
        self.threads = int(threads)
        self.zero_data = bool(zero_data)
        self.samples = int(samples)
        self.suite = suite
        if not self.degrees or not self.levels:
            raise ConfigError("degree and level lists must be non-empty")
        if any(p < 1 for p in self.degrees):
            raise ConfigError("degrees must be at least 1")
        if any(l < 0 for l in self.levels):
            raise ConfigError("levels must be non-negative")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tolerance must lie in (0, 1)")
        if self.max_iter < 1:
            raise ConfigError("max iterations must be positive")
        if self.threads < 1:
            raise ConfigError("thread count must be positive")
        if self.samples < 2:
            raise ConfigError("need at least 2 sample points per direction")
        if command == "solve" and (len(self.degrees) > 1 or len(self.levels) > 1):
            raise ConfigError("solve takes one degree and one level, got degrees %s and levels %s"
                              % (self.degrees, self.levels))


def load_domain(spec):
    if spec is None:
        raise ConfigError("no domain given (use --domain)")
    return _load_domain(spec)


def channel_inlet(pts):
    """Boundary data of the channel benchmark: a sine profile on the left
    side x = -2, zero on the remaining Dirichlet boundary."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape)
    at_inlet = np.abs(pts[..., 0] + 2.0) < 1e-9
    out[..., 0] = np.where(at_inlet, np.sin(np.pi * (2.0 + pts[..., 1]) / 4.0), 0.0)
    return out


def _on_inlet(geo, side):
    """True when a patch side lies on the line x = -2 of channel_inlet: a
    spline (or NURBS) curve has constant x iff its control points do."""
    return bool(np.abs(geo.control[geo.space.side_dofs(side), 0] + 2.0).max() < 1e-9)


def problem_data(mp, config):
    """(rhs, dirichlet, manufactured) for a domain: the channel inflow data
    (f = 0) with a Neumann outlet, else the manufactured solution. The
    domain alone decides the pressure mean (MultiPatch.pressure_up_to_constant).
    The channel data is zero away from x = -2, so a domain with an outlet
    but no Dirichlet side on that line is a ConfigError, not the zero
    problem solved without a word; --zero-data asks for that one.
    """
    if config.zero_data:
        return None, None, False
    if mp.pressure_up_to_constant:
        return manufactured_rhs, manufactured_velocity, True
    if not any(tag == "dirichlet" and _on_inlet(mp.patches[k], side)
               for (k, side), tag in mp.boundary.items()):
        raise ConfigError("the domain has a Neumann side, and its channel inflow data is set "
                          "on Dirichlet sides on the line x = -2, of which it has none: "
                          "the data would be zero (pass --zero-data to solve that problem)")
    return None, channel_inlet, False


# ---------------------------------------------------------------------------
# output helpers


def write_csv(path, columns, rows):
    def emit(fh):
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([row[c] for c in columns])

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


def format_grid_table(rows, degrees, levels, cell_keys, cell_fmt):
    """Aligned table with one row per level and one column group per degree."""
    by_cell = {(r["degree"], r["level"]): r for r in rows}
    headers = ["level"]
    for p in degrees:
        headers += ["p=%d:%s" % (p, key) for key in cell_keys]
    lines = [headers]
    for l in levels:
        line = [str(l)]
        for p in degrees:
            r = by_cell[(p, l)]
            line += [cell_fmt[key](r[key]) for key in cell_keys]
        lines.append(line)
    widths = [max(len(line[j]) for line in lines) for j in range(len(headers))]
    return "\n".join(
        "  ".join(val.rjust(w) for val, w in zip(line, widths)) for line in lines
    )


# ---------------------------------------------------------------------------
# bench-ieti


def bench_cell(config, degree, level):
    t0 = time.perf_counter()
    mp = load_domain(config.domain)
    spaces = taylor_hood_spaces(mp, degree, config.smoothness, level)
    rhs, dirichlet, _ = problem_data(mp, config)
    us, ps, report = solve_stokes_ieti(
        mp, spaces, rhs=rhs, dirichlet=dirichlet, tol=config.tol,
        max_iter=config.max_iter, seed=config.seed)
    dofs = sum(t.n_local for t in spaces)
    return {
        "domain": config.domain,
        "degree": degree,
        "level": level,
        "iterations": report.iterations,
        "kappa": report.kappa,
        "converged": report.converged,
        "breakdown": report.breakdown,
        "dofs": dofs,
        "seconds": time.perf_counter() - t0,
    }


def run_bench(config):
    cells = [(p, l) for p in config.degrees for l in config.levels]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            rows = list(pool.map(lambda c: bench_cell(config, *c), cells))
    else:
        rows = [bench_cell(config, *c) for c in cells]
    table = format_grid_table(
        rows, config.degrees, config.levels, ("iterations", "kappa"),
        {"iterations": str, "kappa": lambda v: "%.2f" % v})
    print("domain: %s  tol=%g  seed=%d" % (config.domain, config.tol, config.seed))
    print(table)
    failed = [r for r in rows if not r["converged"]]
    for r in failed:
        print("not converged: degree=%d level=%d after %d iterations%s"
              % (r["degree"], r["level"], r["iterations"],
                 "" if r["breakdown"] is None else " (breakdown: %s)" % r["breakdown"]))
    write_csv(config.output, BENCH_COLUMNS, rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# study-infsup


def run_study(config):
    load_domain(config.domain)  # fail early on bad specs
    study = InfSupStudy(config.domain, config.degrees, config.levels,
                        smoothness=config.smoothness)
    rows = study.run(threads=config.threads)
    table = format_grid_table(
        rows, config.degrees, config.levels, ("kappa", "beta"),
        {"kappa": lambda v: "%.3f" % v, "beta": lambda v: "%.4f" % v})
    print("domain: %s" % config.domain)
    print(table)
    write_csv(config.output, STUDY_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# solve


def export_solution(path, mp, spaces, us, ps, samples):
    with open(path, "w") as fh:
        fh.write("# ietistokes field export\n")
        fh.write("# patches: %d\n" % mp.n_patches)
        ts = np.linspace(0.0, 1.0, samples)
        points = grid_points(mp.patches, ts, ts)  # [k, i, j]: at (ts[i], ts[j])
        for k in range(mp.n_patches):
            vel, pre = spaces[k].vel, spaces[k].pre
            fh.write("patch %d\n" % k)
            fh.write("velocity_coefficients 2 %d %d\n" % (vel.ny, vel.nx))
            for c in (0, 1):
                grid = us[k][c].reshape(vel.ny, vel.nx)
                for row in grid:
                    fh.write(" ".join("%.17g" % v for v in row) + "\n")
            fh.write("pressure_coefficients %d %d\n" % (pre.ny, pre.nx))
            for row in ps[k].reshape(pre.ny, pre.nx):
                fh.write(" ".join("%.17g" % v for v in row) + "\n")
            fh.write("samples %d %d\n" % (samples, samples))
            pts = points[k].transpose(1, 0, 2)
            Bu = [spaces[k].vel.space_x.collocation(ts),
                  spaces[k].vel.space_y.collocation(ts)]
            Bp = [pre.space_x.collocation(ts), pre.space_y.collocation(ts)]
            uvals = [Bu[1] @ us[k][c].reshape(vel.ny, vel.nx) @ Bu[0].T for c in (0, 1)]
            pvals = Bp[1] @ ps[k].reshape(pre.ny, pre.nx) @ Bp[0].T
            for j in range(samples):
                for i in range(samples):
                    fh.write("%.17g %.17g %.17g %.17g %.17g %.17g %.17g\n" % (
                        ts[i], ts[j], pts[j, i, 0], pts[j, i, 1],
                        uvals[0][j, i], uvals[1][j, i], pvals[j, i]))


def run_solve(config):
    mp = load_domain(config.domain)
    (degree,), (level,) = config.degrees, config.levels
    spaces = taylor_hood_spaces(mp, degree, config.smoothness, level)
    rhs, dirichlet, manufactured = problem_data(mp, config)
    us, ps, report = solve_stokes_ieti(
        mp, spaces, rhs=rhs, dirichlet=dirichlet, tol=config.tol,
        max_iter=config.max_iter, seed=config.seed)
    print("domain: %s  degree=%d  level=%d" % (config.domain, degree, level))
    print("iterations=%d  kappa=%.3f  converged=%s"
          % (report.iterations, report.kappa, report.converged))
    if report.breakdown is not None:
        print("breakdown: %s" % report.breakdown)
    if manufactured:
        h1u, l2u, l2p = total_errors(
            mp, spaces, us, ps, exact_u=manufactured_velocity,
            exact_grad_u=manufactured_velocity_gradient,
            exact_p=manufactured_pressure)
        print("H1 velocity error: %.6e" % h1u)
        print("L2 velocity error: %.6e" % l2u)
        print("L2 pressure error: %.6e" % l2p)
    if config.output:
        export_solution(config.output, mp, spaces, us, ps, config.samples)
        print("wrote fields to %s" % config.output)
    return 0 if report.converged else 1


# ---------------------------------------------------------------------------
# verify


def _interior_divergence_of_constants(system):
    """max |int_patch 1 * div v| over the interior velocity basis functions v
    of both components with zero trace: the column sums of [D_0 | D_1] on
    the interior dofs off the Neumann sides (those are classed interior, but
    their trace does not vanish)."""
    ths = system.ths
    trace = [ths.vel.side_dofs(side) for side, role in ths.side_roles.items()
             if role == "neumann"]
    zero = ~np.isin(ths.inner, np.concatenate(trace + [np.zeros(0, dtype=int)]))
    if not zero.any():
        return 0.0
    _, W = system.condensation_blocks()
    n = ths.n_inner + ths.n_gamma
    sums = W[n:, : ths.n_inner].reshape(2, ths.n_pressure, -1).sum(axis=1)
    return np.abs(sums[:, zero]).max()


def _suite_algebra(config):
    """Algebraic identities of the assembled and IETI-DP systems. Each holds
    up to the quadrature error, so on rational geometry the systems are
    assembled with nquad = velocity degree + 6 (the solver's default is
    velocity degree + 2); each check reports the nquad used."""
    checks = []
    for degree in config.degrees:
        for level in config.levels:
            tag = "p=%d l=%d" % (degree, level)
            mp = load_domain(config.domain)
            spaces = taylor_hood_spaces(mp, degree, config.smoothness, level)
            nquad = degree + 1 + (6 if any(g.is_rational for g in mp.patches) else 2)
            glob = assemble_global(mp, spaces, rhs=manufactured_rhs,
                                   dirichlet=manufactured_velocity, nquad=nquad)
            quad = ", nquad %d" % nquad
            worst_div = max(_interior_divergence_of_constants(s) for s in glob.systems)
            checks.append(("interior divergence of constants %s" % tag,
                           worst_div < 1e-12, "%.2e%s" % (worst_div, quad)))
            worst_ker = max(
                np.abs(s.Ks @ np.ones(s.Ks.shape[0])).max()
                / max(np.abs(s.Ks.data).max(), 1.0)
                for s in glob.systems)
            checks.append(("constant velocity in stiffness kernel %s" % tag,
                           worst_ker < 1e-12, "%.2e%s" % (worst_ker, quad)))
            op = IetiOperator(mp, spaces, glob.systems)
            # the averaging column of the primal basis, A^-1 [0; e_0], on the
            # patches without a Neumann side (an outlet fixes the pressure
            # level, so there the column need not be a constant pressure)
            worst_psi = 0.0
            for aug, ths in zip(op.locals_, spaces):
                if "neumann" in ths.side_roles.values():
                    continue
                e0 = np.zeros(aug.n_x + aug.n_mu)
                e0[aug.n_x] = 1.0
                psi = aug.lu.solve(e0)[: aug.n_x]
                nu = 2 * (ths.n_gamma + ths.n_inner)
                worst_psi = max(worst_psi, np.abs(psi[:nu]).max(initial=0.0),
                                np.abs(psi[nu:] - 1.0).max())
            checks.append(("averaging basis structure %s" % tag,
                           worst_psi < 1e-10, "%.2e%s" % (worst_psi, quad)))
            rng = np.random.default_rng(config.seed)
            B = op.B
            worst_b = 0.0
            for _ in range(100):
                jump = B @ np.concatenate([rng.standard_normal(2 * t.n_gamma) for t in spaces])
                back = B @ (0.5 * (B.T @ jump))
                worst_b = max(worst_b, np.abs(back - jump).max())
            checks.append(("jump operator projection identity %s" % tag,
                           worst_b < 1e-12, "%.2e" % worst_b))
            # B^T(Bv)/2 splits each inter-patch difference antisymmetrically.
            v = np.concatenate([rng.standard_normal(2 * t.n_gamma) for t in spaces])
            w = 0.5 * (B.T @ (B @ v))
            worst_j = 0.0
            for iface in op.constraints.interfaces:
                da, db = matched_side_dofs(mp, spaces, iface)
                for comp in (0, 1):
                    pa = (op.gamma_slices[iface.a].start
                          + spaces[iface.a].gamma_pos(comp, da[1:-1]))
                    pb = (op.gamma_slices[iface.b].start
                          + spaces[iface.b].gamma_pos(comp, db[1:-1]))
                    diff = v[pa] - v[pb]
                    worst_j = max(worst_j, np.abs(w[pa] - w[pb] - diff).max(),
                                  np.abs(w[pa] + w[pb]).max())
            checks.append(("jump carries inter-patch differences %s" % tag,
                           worst_j < 1e-12, "%.2e" % worst_j))
            worst_sym, psd_ok = 0.0, True
            for _ in range(100):
                l1 = rng.standard_normal(op.n_lambda)
                l2 = rng.standard_normal(op.n_lambda)
                f1 = op.apply_F(l1)
                s12 = f1 @ l2
                worst_sym = max(worst_sym,
                                abs(s12 - l1 @ op.apply_F(l2))
                                / max(1.0, abs(s12)))
                psd_ok = psd_ok and l1 @ f1 >= -1e-10 * np.linalg.norm(f1) * np.linalg.norm(l1)
            checks.append(("dual operator symmetric %s" % tag,
                           worst_sym < 1e-10, "%.2e" % worst_sym))
            checks.append(("dual operator positive semidefinite %s" % tag,
                           psd_ok, ""))
    return checks


def _suite_skeleton(config):
    from .analysis import skeleton_spectra as spectra

    floating = {s: "interface" for s in ("west", "east", "south", "north")}
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    patches = [
        ("unit square", bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))),
        ("quarter annulus", quarter_annulus_patch()),
    ]
    checks = []
    for name, geo in patches:
        for degree in config.degrees:
            for level in config.levels:
                ths_d = build_taylor_hood(geo, degree, refinement=level)
                beta = local_infsup(assemble_patch(geo, ths_d))
                ths_f = build_taylor_hood(geo, degree, refinement=level,
                                          side_roles=floating, gamma_corners=corners)
                ev = spectra(assemble_patch(geo, ths_f))
                lo, hi = ev.min(), ev.max()
                bound = 3.0 * 2.0 / beta**2
                ok = lo >= 1.0 - 1e-8 and hi <= bound + 1e-8
                checks.append(("skeleton spectra in [1, 6/beta^2] %s p=%d l=%d"
                               % (name, degree, level), ok,
                               "[%.3f, %.3f] bound %.3f" % (lo, hi, bound)))
    return checks


def _suite_supmat(config):
    out = verify_supmat(seed=0, instances=50, nmax=8, tol=1e-8)
    return [("sup representation identities (50 instances)", out["ok"],
             "max rel err %.2e" % out["max_rel_err"])]


def _suite_fortin(config):
    """The interface interpolant keeps the divergence averages of 20 random
    conforming fields, on grid(2,2) and grid(3,3) at every (degree, level)
    cell of the configuration."""
    checks = []
    rng = np.random.default_rng(config.seed)
    for degree in config.degrees:
        for level in config.levels:
            for spec in ("grid(2,2)", "grid(3,3)"):
                mp = parse_domain(spec)
                spaces = taylor_hood_spaces(mp, degree, config.smoothness, level)
                glob = assemble_global(mp, spaces)
                worst = 0.0
                for _ in range(20):
                    vals = np.zeros((2, glob.n_scalar))
                    vals[:, glob.free] = rng.standard_normal((2, len(glob.free)))
                    us = [vals[:, l2g] for l2g in glob.scalar_l2g]
                    proj = fortin_correction(mp, spaces, us)
                    for k, s in enumerate(glob.systems):
                        w = np.concatenate([us[k][c] - proj[k][c] for c in (0, 1)])
                        worst = max(worst, abs(np.ones(s.Mp.shape[0]) @ (s.D @ w)))
                checks.append(("interface interpolant preserves divergence averages %s p=%d l=%d"
                               % (spec, degree, level), worst < 1e-10, "%.2e" % worst))
    return checks


SUITES = {
    "algebra": _suite_algebra,
    "lemma3": _suite_skeleton,
    "supmat": _suite_supmat,
    "fortin": _suite_fortin,
}


def run_verify(config):
    names = list(SUITES) if config.suite == "all" else [config.suite]
    results = []
    for name in names:
        for check, ok, detail in SUITES[name](config):
            results.append((name, check, ok, detail))
    width = max(len(r[1]) for r in results)
    for name, check, ok, detail in results:
        print("%-8s %s  %s  %s" % (name, check.ljust(width),
                                   "pass" if ok else "FAIL", detail))
    failed = [r for r in results if not r[2]]
    print("%d checks, %d failed" % (len(results), len(failed)))
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argument handling


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


def build_parser():
    """The argument parser. Each subcommand takes --domain, --degrees,
    --levels and --smoothness, and only those of its other options that it
    reads; argparse refuses any other one (exit 2). An option left out is
    left out of the namespace too, so RunConfig's default applies."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--domain", help="built-in spec like grid(2,2) or a geometry file")
    common.add_argument("--degrees", type=_int_list, help="pressure degrees, e.g. 2,3")
    common.add_argument("--levels", type=_int_list, help="refinement levels, e.g. 2,3,4")
    common.add_argument("--smoothness", type=int, default=None)
    types = {"--tol": float, "--max-iter": int, "--seed": int, "--output": str, "--threads": int}

    parser = argparse.ArgumentParser(prog="ietistokes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, summary, options in (
            ("bench-ieti", "iteration counts and condition numbers",
             ("--tol", "--max-iter", "--seed", "--output", "--threads")),
            ("study-infsup", "pressure Schur condition study", ("--output", "--threads")),
            ("solve", "single solve with export", ("--tol", "--max-iter", "--seed", "--output")),
            ("verify", "property suites", ("--seed",))):
        subparsers[name] = own = sub.add_parser(name, parents=[common], help=summary,
                                                argument_default=argparse.SUPPRESS)
        for option in options:
            own.add_argument(option, type=types[option])
    subparsers["solve"].add_argument("--zero-data", action="store_true")
    subparsers["solve"].add_argument("--samples", type=int)
    subparsers["verify"].add_argument("--suite", choices=("all",) + tuple(sorted(SUITES)))
    return parser


def parse_config(argv):
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    if command == "verify":
        args["domain"] = args["domain"] or "grid(2,2)"
        args["degrees"] = args["degrees"] or [1, 2]
        args["levels"] = args["levels"] or [1, 2]
    else:
        if args["domain"] is None:
            raise ConfigError("%s requires --domain" % command)
        args["degrees"] = args["degrees"] or [2]
        args["levels"] = args["levels"] or [2]
    threads = os.environ.get("IETISTOKES_THREADS", args.get("threads", 1))
    try:
        args["threads"] = int(threads)
    except ValueError:
        raise ConfigError("IETISTOKES_THREADS must be an integer, got %r" % threads) from None
    return RunConfig(command, **args)


COMMANDS = {
    "bench-ieti": run_bench,
    "study-infsup": run_study,
    "solve": run_solve,
    "verify": run_verify,
}


def main(argv=None):
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return COMMANDS[config.command](config)
    except SpectrumError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError, SingularLocalSystemError,
            TopologyError, DegenerateJacobianError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
