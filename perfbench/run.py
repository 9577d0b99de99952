"""Benchmark of the two ietistokes solution paths.

One process runs one workload: it sets up, then repeats the workload's
operation for about ``--seconds`` seconds and prints every metric with its
unit. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics and installs no wrappers. ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced operations, wrapping the
library's public functions and methods from here (see ``tracer.py``), and
writes the raw spans to ``perfbench/out/``.

    python3 perfbench/run.py --workload annulus64-p2l2 --seed 1 --seconds 60 --trace 0

``--all`` runs every workload in its own process, traced and untraced, the
IETI workloads on a second seed too, and writes ``BENCHMARK.json`` and
``perfbench/baseline.json`` (machine, baseline numbers, seed spread, layer
table). The library is imported from ``src/`` of the checkout that holds this
file; BLAS runs on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 60
SETUP_PROBES = 5       # set-up time is the median over this many fresh processes
MIN_OPS = 2            # a traced run needs one untraced and one traced operation
IETI_TOL = 1e-6        # PCG relative residual, as `ietistokes solve` uses by default
MAX_ITERATIONS = 35    # the criterion-10 band
ERR_MARGIN = 0.5       # errors may exceed the largest recorded one by this share

WORKLOADS = {
    "annulus64-p2l2": {
        "kind": "ieti", "domain": "quarter_annulus(1,2,8,8)", "degree": 2, "level": 2,
        "why": "IETI-DP on 64 patches: patch assembly and errors take about a third, topology "
               "and primal constraints a quarter, spline tabulation a sixth, factor and PCG the rest",
    },
    "square-study": {
        "kind": "study", "domain": "grid(1,1)", "degrees": (1, 2), "levels": (2, 3, 4),
        "why": "monolithic path, no IETI, p 1-2 at levels 2-4: assembly and errors take about "
               "half, the dense pressure-Schur eigen-analysis and the saddle spsolve a fifth each",
    },
    # tiny instances of both paths, for the harness smoke check
    "smoke-ieti": {"kind": "ieti", "domain": "grid(2,2)", "degree": 1, "level": 1},
    "smoke-study": {"kind": "study", "domain": "grid(1,1)", "degrees": (1,), "levels": (1, 2, 3)},
}
MAIN_WORKLOADS = ("annulus64-p2l2", "square-study")

# name, unit, better, bound
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# per-layer metric, unit, source: ("self", span) is the span's self time per
# operation, ("calls", span) its call count, ("count", key) a count read from
# library objects after IETI setup, ("result", key) a value of the operation
PER_LAYER = (
    ("domains.parse_domain_s", "s", ("self", "domains.parse_domain")),
    ("geometry.n_interfaces", "count", ("result", "n_interfaces")),
    ("geometry.n_vertices", "count", ("result", "n_vertices")),
    ("bspline.tabulate_s", "s", ("self", "bspline.tabulate")),
    ("bspline.tabulate.calls", "count", ("calls", "bspline.tabulate")),
    ("bspline.collocation_s", "s", ("self", "bspline.collocation")),
    ("bspline.collocation.calls", "count", ("calls", "bspline.collocation")),
    ("assembly.taylor_hood_spaces_s", "s", ("self", "assembly.taylor_hood_spaces")),
    ("assembly.assemble_patch_s", "s", ("self", "assembly.assemble_patch")),
    ("assembly.assemble_patch.calls", "count", ("calls", "assembly.assemble_patch")),
    ("assembly.elements", "count", ("result", "elements")),
    ("assembly.patch_errors_s", "s", ("self", "assembly.patch_errors")),
    ("assembly.assemble_global_s", "s", ("self", "assembly.assemble_global")),
    ("assembly.global_solve_s", "s", ("self", "assembly.global_solve")),
    ("ieti.constraints_s", "s", ("self", "ieti.constraints")),
    ("ieti.jump_s", "s", ("self", "ieti.jump")),
    ("ieti.factor_s", "s", ("self", "ieti.factor")),
    ("ieti.factor.calls", "count", ("calls", "ieti.factor")),
    ("ieti.factor.fill_nnz", "count", ("count", "fill_nnz")),
    ("ieti.factor.fill_ratio", "ratio", ("count", "fill_ratio")),
    ("ieti.aug.rows", "count", ("count", "aug_rows")),
    ("ieti.aug.nnz", "count", ("count", "aug_nnz")),
    ("ieti.primal_basis_s", "s", ("self", "ieti.primal_basis")),
    ("ieti.coarse_self_s", "s", ("self", "ieti.operator")),
    ("ieti.n_primal", "count", ("count", "n_primal")),
    ("ieti.n_lambda", "count", ("count", "n_lambda")),
    ("ieti.prec_setup_s", "s", ("self", "ieti.prec_setup")),
    ("ieti.prec.fill_nnz", "count", ("count", "prec_fill_nnz")),
    ("ieti.rhs_s", "s", ("self", "ieti.rhs")),
    ("ieti.apply_F_s", "s", ("self", "ieti.apply_F")),
    ("ieti.apply_F.calls", "count", ("calls", "ieti.apply_F")),
    ("ieti.apply_prec_s", "s", ("self", "ieti.apply_prec")),
    ("ieti.apply_prec.calls", "count", ("calls", "ieti.apply_prec")),
    ("ieti.pcg_self_s", "s", ("self", "ieti.solve_pcg")),
    ("ieti.recover_s", "s", ("self", "ieti.recover")),
    ("ieti.iterations", "count", ("result", "iterations")),
    ("ieti.kappa", "ratio", ("result", "ieti_kappa")),
    ("analysis.schur_extremes_s", "s", ("self", "analysis.schur_extremes")),
    ("analysis.dense_calls", "count", ("result", "dense_calls")),
    ("analysis.iterative_calls", "count", ("result", "iterative_calls")),
    ("analysis.kappa", "ratio", ("result", "schur_kappa")),
    ("trace.op_s", "s", None),
    ("trace.overhead_s", "s", None),
)

# layer, its metrics, the end-to-end metric each should move, and on which
# workload it should show or not; `--all` records the measured shares
LAYER_TABLE = (
    ("domains/geometry", "domains.parse_domain_s, geometry.n_interfaces, geometry.n_vertices",
     "op_s", "about an eighth of annulus64-p2l2; none on square-study"),
    ("bspline", "bspline.tabulate_s, .calls, bspline.collocation_s, .calls",
     "op_s", "about a sixth of annulus64-p2l2; a tenth of square-study"),
    ("assembly", "assembly.taylor_hood_spaces_s, assemble_patch_s, .calls, elements, "
     "patch_errors_s, assemble_global_s, global_solve_s",
     "op_s", "assemble_patch and patch_errors: both workloads; assemble_global and "
     "global_solve: square-study only"),
    ("ieti setup", "ieti.constraints_s, jump_s, factor_s, factor.calls, factor.fill_nnz, "
     "factor.fill_ratio, aug.rows, aug.nnz, primal_basis_s, coarse_self_s, n_primal, "
     "n_lambda, prec_setup_s, prec.fill_nnz",
     "op_s, peak_rss_mb", "constraints (about a seventh) and factor: annulus64-p2l2; none "
     "on square-study"),
    ("ieti iterations", "ieti.rhs_s, apply_F_s, apply_F.calls, apply_prec_s, "
     "apply_prec.calls, pcg_self_s, recover_s, iterations, kappa",
     "op_s", "annulus64-p2l2; none on square-study; iterations and kappa stay "
     "the same under every non-solver change"),
    ("analysis", "analysis.schur_extremes_s, dense_calls, iterative_calls, kappa",
     "op_s", "square-study only"),
    ("harness", "trace.op_s, trace.overhead_s (traced op_s - untraced op_s)", "-", "all"),
)


def import_library():
    if not (SRC / "ietistokes" / "__init__.py").is_file():
        sys.exit("perfbench: no library sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ietistokes

    return ietistokes


# ---------------------------------------------------------------------------
# operations


def ieti_op(iso, wl, seed):
    """What `ietistokes solve` runs: domain, spaces, IETI-DP solve, errors."""
    mp = iso.parse_domain(wl["domain"])
    spaces = iso.taylor_hood_spaces(mp, wl["degree"], refinement=wl["level"])
    us, ps, report = iso.solve_stokes_ieti(
        mp, spaces, rhs=iso.manufactured_rhs, dirichlet=iso.manufactured_velocity,
        tol=IETI_TOL, seed=seed)
    h1, _, l2p = iso.total_errors(
        mp, spaces, us, ps, exact_u=iso.manufactured_velocity,
        exact_grad_u=iso.manufactured_velocity_gradient, exact_p=iso.manufactured_pressure)
    finite = all(np.isfinite(a).all() for a in us + ps) and np.isfinite(
        [h1, l2p, report.kappa]).all()
    return {
        "h1_err": h1, "l2p_err": l2p, "finite": bool(finite),
        "converged": report.converged, "iterations": report.iterations,
        "ieti_kappa": report.kappa, "n_interfaces": len(mp.interfaces),
        "n_vertices": len(mp.vertices), "elements": _elements(spaces),
    }


def study_op(iso, wl, seed):
    """Convergence and inf-sup sweep on the monolithic path; seed is unused."""
    mp = iso.parse_domain(wl["domain"])
    cells, elements = [], 0
    for p in wl["degrees"]:
        for level in wl["levels"]:
            spaces = iso.taylor_hood_spaces(mp, p, refinement=level)
            glob = iso.assemble_global(mp, spaces, rhs=iso.manufactured_rhs,
                                       dirichlet=iso.manufactured_velocity)
            us, ps = glob.solve()
            h1, _, l2p = iso.total_errors(
                mp, spaces, us, ps, exact_u=iso.manufactured_velocity,
                exact_grad_u=iso.manufactured_velocity_gradient,
                exact_p=iso.manufactured_pressure)
            spec = iso.pressure_schur_spectrum(glob)
            finite = all(np.isfinite(a).all() for a in us + ps)
            cells.append({"degree": p, "level": level, "h1_err": h1, "l2p_err": l2p,
                          "kappa": spec.kappa, "method": spec.method,
                          "finite": bool(finite and np.isfinite([h1, l2p, spec.kappa]).all())})
            elements += _elements(spaces)
    last = cells[-1]  # highest degree, finest level
    return {
        "h1_err": last["h1_err"], "l2p_err": last["l2p_err"], "schur_kappa": last["kappa"],
        "finite": all(c["finite"] for c in cells), "cells": cells,
        "dense_calls": sum(c["method"] == "dense" for c in cells),
        "iterative_calls": sum(c["method"] == "iterative" for c in cells),
        "n_interfaces": len(mp.interfaces), "n_vertices": len(mp.vertices),
        "elements": elements,
    }


def _elements(spaces):
    return sum(s.vel.space_x.nel * s.vel.space_y.nel for s in spaces)


OPERATIONS = {"ieti": ieti_op, "study": study_op}


# ---------------------------------------------------------------------------
# correctness gates


def check(wl, res, ref):
    """Reasons the operation's result is wrong; empty when it is correct."""
    problems = []
    if not res["finite"]:
        problems.append("non-finite value")
    for key in ("h1_err", "l2p_err"):
        if not res[key] <= ref[key] * (1.0 + ERR_MARGIN):
            problems.append("%s %.4e above reference %.4e by more than %g"
                            % (key, res[key], ref[key], ERR_MARGIN))
    if wl["kind"] == "ieti":
        if not res["converged"]:
            problems.append("PCG did not converge")
        if res["iterations"] > MAX_ITERATIONS:
            problems.append("%d iterations > %d" % (res["iterations"], MAX_ITERATIONS))
        return problems
    # criterion-2 bands on the convergence slopes, per degree
    for p in wl["degrees"]:
        cells = [c for c in res["cells"] if c["degree"] == p]
        logh = np.log([0.5 ** c["level"] for c in cells])
        for key, band in (("h1_err", 0.2), ("l2p_err", 0.3)):
            slope = np.polyfit(logh, np.log([c[key] for c in cells]), 1)[0]
            if not abs(slope - (p + 1)) <= band:
                problems.append("p=%d %s slope %.3f outside %d +- %.1f"
                                % (p, key, slope, p + 1, band))
    lo, hi = ref["kappa_band"]
    for c in res["cells"]:
        if not lo <= c["kappa"] <= hi:
            problems.append("p=%d l=%d inf-sup kappa %.4f outside [%.4f, %.4f]"
                            % (c["degree"], c["level"], c["kappa"], lo, hi))
    return problems


# ---------------------------------------------------------------------------
# tracing


def ieti_counts(result):
    """Counts read from the IETI operator and preconditioner after setup."""
    op, pc = result
    fill = sum(a.lu.L.nnz + a.lu.U.nnz for a in op.locals_)
    aug_nnz = sum(a.A3.nnz + 2 * a.C.nnz for a in op.locals_)
    return {
        "fill_nnz": fill,
        "fill_ratio": fill / aug_nnz,
        "aug_rows": sum(a.n_x + a.n_mu for a in op.locals_),
        "aug_nnz": aug_nnz,
        "n_primal": op.n_primal,
        "n_lambda": op.n_lambda,
        "prec_fill_nnz": sum(lu.L.nnz + lu.U.nnz for _, _, lu in pc.blocks if lu is not None),
    }


# module, function or Class.method, span name, hook on the return value;
# per-point functions such as eval_all_derivatives stay unwrapped (150k+
# calls a solve)
TRACE_TARGETS = (
    ("domains", "parse_domain", "domains.parse_domain", None),
    ("bspline", "UnivariateSplineSpace.tabulate", "bspline.tabulate", None),
    ("bspline", "UnivariateSplineSpace.collocation", "bspline.collocation", None),
    ("assembly", "taylor_hood_spaces", "assembly.taylor_hood_spaces", None),
    ("assembly", "assemble_patch", "assembly.assemble_patch", None),
    ("assembly", "total_errors", "assembly.total_errors", None),
    ("assembly", "patch_errors", "assembly.patch_errors", None),
    ("assembly", "assemble_global", "assembly.assemble_global", None),
    ("assembly", "GlobalStokesSystem.solve", "assembly.global_solve", None),
    ("ieti", "solve_stokes_ieti", "ieti.solve_stokes_ieti", None),
    ("ieti", "setup_ieti", "ieti.setup", ieti_counts),
    ("ieti", "IetiOperator.__init__", "ieti.operator", None),
    ("ieti", "PrimalConstraints.__init__", "ieti.constraints", None),
    ("ieti", "build_jump_operator", "ieti.jump", None),
    ("ieti", "AugmentedLocalSystem.__init__", "ieti.factor", None),
    ("ieti", "build_primal_basis", "ieti.primal_basis", None),
    ("ieti", "ScaledDirichletPreconditioner.__init__", "ieti.prec_setup", None),
    ("ieti", "IetiOperator.rhs", "ieti.rhs", None),
    ("ieti", "solve_pcg", "ieti.solve_pcg", None),
    ("ieti", "IetiOperator.apply_F", "ieti.apply_F", None),
    ("ieti", "ScaledDirichletPreconditioner.apply", "ieti.apply_prec", None),
    ("ieti", "IetiOperator.recover", "ieti.recover", None),
    ("analysis", "pressure_schur_spectrum", "analysis.schur_spectrum", None),
    ("analysis", "pressure_schur_extremes", "analysis.schur_extremes", None),
)


def layer_values(summary, counts, res):
    """Per-layer metrics of one traced operation."""
    out = {}
    for name, _, source in PER_LAYER:
        if source is None:
            continue
        kind, key = source
        if kind == "self":
            out[name] = summary.get(key, (0, 0.0, 0.0))[2]
        elif kind == "calls":
            out[name] = summary.get(key, (0, 0.0, 0.0))[0]
        elif kind == "count":
            out[name] = counts.get(key, 0)
        else:
            out[name] = res.get(key, 0)
    return out


# ---------------------------------------------------------------------------
# one run


def setup(name, seed):
    """Imports, reference data and a warm-up on the tiny instance of the path."""
    iso = import_library()
    wl = WORKLOADS[name]
    refs = json.loads((HERE / "reference.json").read_text())
    warm = "smoke-" + wl["kind"]
    OPERATIONS[wl["kind"]](iso, WORKLOADS[warm], seed)
    return iso, wl, refs[name]


def probe_setup(name, seed):
    """Seconds from starting a fresh process until its set-up is done."""
    start = time.time()  # wall clock: the probe reads the same clock
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit("perfbench: set-up probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1]) - start


def run(name, seed, seconds, trace):
    setup_times = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    iso, wl, ref = setup(name, seed)

    tracer = None
    if trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
    op = OPERATIONS[wl["kind"]]
    times = {False: [], True: []}
    layers, spans = [], []
    attempted = failed = 0
    peak_rss_mb = None
    result = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install("ietistokes", TRACE_TARGETS)
        t0 = time.perf_counter()
        try:
            res = op(iso, wl, seed)
            problems = check(wl, res, ref)
        except Exception:  # one failed operation must not end the run
            res, problems = None, [traceback.format_exc()]
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        attempted += 1
        times[traced].append(dt)
        if problems:
            failed += 1
            print("operation %d failed: %s" % (attempted, "; ".join(problems)), file=sys.stderr)
        else:
            result = res
            if traced:
                summary = summarize(tracer.spans)
                layers.append(layer_values(summary, tracer.counts, res))
                spans.append(tracer.spans)
        if peak_rss_mb is None:
            # read after the first operation, so it does not grow with the
            # number of operations that fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = times[False] + times[True]
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_OPS and elapsed + statistics.median(done) > seconds:
            break

    if trace:
        units = {key: unit for key, unit, _ in PER_LAYER}
        metrics = {key: statistics.median(v[key] for v in layers) for key in layers[0]} \
            if layers else {}
        if times[True] and times[False]:
            metrics["trace.op_s"] = statistics.median(times[True])
            metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(times[False])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / ("spans-%s-seed%d.json" % (name, seed))).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "operations": spans}))
    else:
        units = {key: unit for key, unit, _, _ in END_TO_END}
        metrics = {
            "op_s": statistics.median(times[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    print("workload %s  seed %d  trace %d  operations %d" % (name, seed, trace, attempted))
    print("operation seconds  untraced %s  traced %s" % (
        " ".join("%.3f" % t for t in times[False]), " ".join("%.3f" % t for t in times[True])))
    print("%-32s %.4f  (%d of %d)" % ("failed_frac", failed / attempted, failed, attempted))
    if result is not None:
        for key in ("h1_err", "l2p_err"):
            print("%-32s %.6g norm" % (key, result[key]))
    for key in units:
        if key in metrics:
            print("%-32s %.6g %s" % (key, metrics[key], units[key]))
    if spans:
        print("spans of the last correct traced operation:")
        for key, (calls, incl, own) in sorted(summary.items()):
            print("  %-28s calls %6d  incl %9.4f s  self %9.4f s" % (key, calls, incl, own))
    missing = sorted(set(units) - set(metrics))
    if missing:
        print("metrics missing: %s" % ", ".join(missing), file=sys.stderr)
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


# ---------------------------------------------------------------------------
# every workload, BENCHMARK.json and the baseline record


def benchmark_spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOADS[w]["why"]} for w in MAIN_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u, _ in PER_LAYER],
    }


def machine():
    import scipy

    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_all(seconds):
    record = {}
    for name in MAIN_WORKLOADS:
        seeds = (1, 2) if WORKLOADS[name]["kind"] == "ieti" else (1,)
        record[name] = {"why": WORKLOADS[name]["why"]}
        for seed in seeds:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                if proc.returncode != 0:
                    sys.exit("perfbench: %s seed %d trace %d exited with %d"
                             % (name, seed, trace, proc.returncode))
                lines = proc.stdout.strip().splitlines()
                out = json.loads(lines[-1])
                # the errors are printed, not end-to-end metrics: they depend on the seed
                out.update({line.split()[0]: float(line.split()[1]) for line in lines
                            if line.split()[:1] in (["h1_err"], ["l2p_err"])})
                record[name].setdefault("seed %d" % seed, {})["trace %d" % trace] = out
    spread = {}
    for name in MAIN_WORKLOADS:
        per_seed = [v for k, v in record[name].items() if k.startswith("seed")]
        if len(per_seed) > 1:
            spread[name] = {
                key: [s["trace 1"]["metrics"][key]["value"] for s in per_seed]
                for key in ("ieti.iterations", "ieti.kappa")}
            spread[name].update({key: [s["trace 0"][key] for s in per_seed]
                                 for key in ("h1_err", "l2p_err")})
    shares = {}
    for name in MAIN_WORKLOADS:
        traced = record[name]["seed 1"]["trace 1"]["metrics"]
        op_s = traced["trace.op_s"]["value"]
        shares[name] = {k: round(v["value"] / op_s, 4) for k, v in traced.items()
                        if v["unit"] == "s" and not k.startswith("trace.") and v["value"] > 0}
    baseline = {
        "machine": machine(),
        "run_seconds": seconds,
        "workloads": record,
        "seed_spread": spread,
        "layer_shares_of_traced_op_s": shares,
        "layers": [dict(zip(("layer", "metrics", "moves", "where"), row)) for row in LAYER_TABLE],
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
    print("wrote BENCHMARK.json and perfbench/baseline.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, write the records")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        run_all(args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload or --all is required")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(time.time()))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
