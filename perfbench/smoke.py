"""Smoke check of the benchmark harness, on tiny instances of both paths.

Runs ``run.py`` on the smoke workloads (``grid(2,2)``, p=1, l=1 through the
IETI path; ``grid(1,1)``, p=1, levels 1-3 through the monolithic study),
untraced and traced, and checks that every metric ``BENCHMARK.json`` names is
printed with its unit, that no operation failed, that the traced run reached
the spans the per-layer metrics come from, and that uninstalling the tracer
restores every binding. It also checks that the benchmark fails without a
result where the library sources are missing. Takes about half a minute.

    python3 perfbench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(proc, names):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    assert any(line.split()[:2] == ["failed_frac", "0.0000"] for line in lines), lines
    for name, unit in names:
        m = out["metrics"][name]
        assert m["unit"] == unit and math.isfinite(m["value"]), (name, m)
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines), name
    assert len(out["metrics"]) == len(names), sorted(out["metrics"])
    return {k: v["value"] for k, v in out["metrics"].items()}


def check_tracer_restores():
    iso = run.import_library()
    before = {id(m): dict(vars(m)) for m in _modules()}
    methods = dict(vars(iso.ieti.IetiOperator))
    tracer = Tracer()
    tracer.install("ietistokes", run.TRACE_TARGETS)
    assert iso.ieti.assemble_patch is not before[id(iso.ieti)]["assemble_patch"]
    assert iso.assembly.assemble_patch is iso.ieti.assemble_patch
    tracer.uninstall()
    for m in _modules():
        assert all(vars(m)[k] is v for k, v in before[id(m)].items()), m.__name__
    assert dict(vars(iso.ieti.IetiOperator)) == methods


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "ietistokes" or name.startswith("ietistokes.")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == run.benchmark_spec(), "BENCHMARK.json differs from run.benchmark_spec()"
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    check_tracer_restores()
    for workload in ("smoke-ieti", "smoke-study"):
        check_output(bench(workload, 0), e2e)
        values = check_output(bench(workload, 1), layers)
        if workload == "smoke-ieti":
            # setup_ieti calls assemble_patch through the ieti module's binding
            assert values["assembly.assemble_patch.calls"] == 4, values
            assert values["ieti.factor.calls"] == 4 and values["ieti.factor.fill_nnz"] > 0
            assert values["ieti.apply_F.calls"] == values["ieti.iterations"] + 1, values
        else:
            assert values["analysis.dense_calls"] == 3 and values["assembly.global_solve_s"] > 0
            assert values["ieti.factor.calls"] == 0, values

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("smoke-ieti", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("perfbench smoke check passed")


if __name__ == "__main__":
    main()
