import csv

import numpy as np
import pytest

from ietistokes.cli import (
    BENCH_COLUMNS,
    STUDY_COLUMNS,
    ConfigError,
    RunConfig,
    channel_inlet,
    main,
    parse_config,
    problem_data,
)
from ietistokes.domains import parse_domain, rectangle_with_hole_domain
from ietistokes.geometry import build_multipatch, save_multipatch


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def strip_timing(header, rows):
    keep = [j for j, name in enumerate(header) if name != "seconds"]
    return [[row[j] for j in keep] for row in rows]


def test_config_validation():
    ok = RunConfig("solve", "grid(1,1)", [1], [1])
    assert ok.tol == 1e-6 and ok.max_iter == 500 and ok.seed == 42
    with pytest.raises(ConfigError):
        RunConfig("solve", "grid(1,1)", [], [1])
    with pytest.raises(ConfigError):
        RunConfig("solve", "grid(1,1)", [1], [])
    with pytest.raises(ConfigError):
        RunConfig("solve", "grid(1,1)", [1], [1], tol=1.5)
    with pytest.raises(ConfigError):
        RunConfig("solve", "grid(1,1)", [1], [1], tol=0.0)
    with pytest.raises(ConfigError):
        RunConfig("solve", "grid(1,1)", [1], [1], threads=0)


def test_invalid_domain_exits_2(capsys):
    assert main(["solve", "--domain", "trefoil(3)"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec, reason", [
    ("grid(2.5,2)", "m must be an integer, got '2.5'"),
    ("grid()", "expected grid(m, n), got 0 arguments"),
    ("grid(2,2,3)", "expected grid(m, n), got 3 arguments"),
    ("rectangle_with_hole(3)", "expected rectangle_with_hole(), got 1 arguments"),
    ("quarter_annulus(1,2,8.0,8)", "m must be an integer, got '8.0'"),
])
def test_malformed_domain_spec_exits_2(spec, reason, capsys):
    # a wrong argument count or a non-integer patch count is refused, not
    # dropped or passed on to a builder that fails with a TypeError
    assert main(["solve", "--domain", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: domain spec %r: %s\n" % (spec, reason)


def write_bilinear_patches(path, quads):
    lines = ["patches %d" % len(quads)]
    for k, quad in enumerate(quads):
        lines += ["patch %d" % k, "degrees 1 1", "breakpoints_x 0 1", "breakpoints_y 0 1",
                  "controlpoints"] + ["%r %r" % p for p in quad]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("quads, reason", [
    # the corner (1, 1) of the left patches hangs on the right one
    ([((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 1), (1, 1), (0, 1.7), (1, 1.7)),
      ((1, 0), (2, 0), (1, 1.7), (2, 1.7))], "T-junction"),
    ([((0, 0), (1, 0), (1, 0.5), (0, 0.5))], "degenerate"),  # crossed quad
    ([], "at least one patch"),
], ids=["t_junction", "crossed_quad", "no_patches"])
def test_bad_geometry_file_exits_2(tmp_path, capsys, quads, reason):
    path = tmp_path / "bad.mp"
    write_bilinear_patches(path, quads)
    assert main(["solve", "--domain", str(path), "--degrees", "1", "--levels", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert len(err.strip().splitlines()) == 1


ONE_PATCH = """patches 1
patch 0
degrees 1 1
breakpoints_x 0 1
breakpoints_y 0 1
controlpoints
0 0
1 0
0 1
1 1
"""


@pytest.mark.parametrize("edit, reason", [
    (("degrees 1 1", "degrees 1"), "'degrees' with 2 values"),
    (("patches 1", "patches"), "'patches' with 1 value"),
    (("degrees 1 1", "degrees 1 1\nsmoothness 0"), "'smoothness' with 2 values"),
    (("1 1\n", "1 1\ninterfaces\n"), "'interfaces' with 1 value"),
    (("1 1\n", "1 1\nboundaries\n"), "'boundaries' with 1 value"),
    (("1 1\n", "1 1\nboundaries 1\n7 west neumann\n"), "'7 west'"),
    (("1 1\n", "1 1\nboundaries 1\n0 top neumann\n"), "'0 top'"),
    (("1 0\n", "1 nan\n"), "control points must be finite"),
    (("1 0\n", "1 inf\n"), "control points must be finite"),
    (("1 0\n", "1 0 0\n"), "line 8: control point line needs 2 fields, got '1 0 0'"),
    (("1 1\n", "1 1\nweights\n1\n1 1\n"), "line 13: weight line needs 1 field, got '1 1'"),
    (("1 1\n", "1 1\ninterfaces 1\n0 east 0 west\n"), "line 12: interface line needs 5"),
    (("1 1\n", "1 1\ninterfaces 1\n0 east 0 west revresed\n"),
     "line 12: interface orientation must be 'aligned' or 'reversed', got 'revresed'"),
    (("1 1\n", "1 1\nboundaries 1\n0 west\n"), "line 12: boundary line needs 3 fields"),
    (("1 1\n", "1 1\nboundaries 1\n0 west slip\n"),
     "unknown boundary tag 'slip' for side (0, 'west')"),
], ids=["degrees_one_value", "bare_patches", "smoothness_one_value", "bare_interfaces",
        "bare_boundaries", "boundary_missing_patch", "boundary_unknown_side", "nan_point",
        "inf_point", "three_coordinates", "two_weights", "four_field_interface",
        "orientation_typo", "two_field_boundary", "unknown_tag"])
def test_malformed_geometry_text_exits_2(tmp_path, capsys, edit, reason):
    # raw text a line away from ONE_PATCH; each edit replaces the last match
    head, sep, tail = ONE_PATCH.rpartition(edit[0])
    assert sep
    path = tmp_path / "bad.mp"
    path.write_text(head + edit[1] + tail)
    assert main(["solve", "--domain", str(path), "--degrees", "1", "--levels", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert len(err.strip().splitlines()) == 1


def test_missing_domain_exits_2(capsys):
    assert main(["bench-ieti"]) == 2


def test_non_integer_threads_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("IETISTOKES_THREADS", "two")
    with pytest.raises(ConfigError):
        parse_config(["study-infsup", "--domain", "grid(1,1)"])
    assert main(["study-infsup", "--domain", "grid(1,1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "IETISTOKES_THREADS" in err
    assert len(err.strip().splitlines()) == 1


def test_solve_with_more_than_one_cell_exits_2(capsys):
    # solve runs one (degree, level) pair; a list is refused, not truncated
    for grid in (["--degrees", "1,2", "--levels", "1"], ["--degrees", "1", "--levels", "1,2"]):
        assert main(["solve", "--domain", "grid(1,1)"] + grid) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.strip().splitlines()
        assert line.startswith("error: solve takes one degree and one level")


def test_study_eigensolve_failure_exits_1(monkeypatch, capsys):
    # the cell is above the (lowered) dense limit and its iterative
    # eigensolve fails; a condition number below one is refused the same way
    import ietistokes.analysis as analysis

    def not_converged(schur, Mp, deflate):
        raise analysis._NotConverged("forced")

    monkeypatch.setattr(analysis, "DENSE_LIMIT", 10)
    monkeypatch.setattr(analysis, "_iterative_extremes", not_converged)
    args = ["study-infsup", "--domain", "grid(1,1)", "--degrees", "1", "--levels", "2"]
    assert main(args) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == "error: iterative eigensolve failed on 123 dofs: forced"
    monkeypatch.undo()
    monkeypatch.setattr(analysis.InfSupStudy, "run_cell",
                        lambda self, p, l: {"kappa": 0.5, "degree": p, "level": l})
    assert main(args) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: condition number below one")


def test_pcg_breakdown_exits_1(monkeypatch, capsys):
    import ietistokes.ieti as ieti

    def broken_pcg(apply_op, apply_prec, g, **kwargs):
        return np.zeros(len(g)), ieti.SolveReport(
            0, [1.0], False, 1.0, 1.0, 1.0, breakdown="nonpositive curvature")

    monkeypatch.setattr(ieti, "solve_pcg", broken_pcg)
    args = ["--domain", "grid(2,1)", "--degrees", "1", "--levels", "1"]
    assert main(["solve"] + args) == 1
    assert "breakdown: nonpositive curvature" in capsys.readouterr().out
    assert main(["bench-ieti"] + args) == 1
    assert "breakdown: nonpositive curvature" in capsys.readouterr().out


def test_threads_env_override(monkeypatch):
    monkeypatch.setenv("IETISTOKES_THREADS", "3")
    config = parse_config(["study-infsup", "--domain", "grid(1,1)", "--threads", "1"])
    assert config.threads == 3
    monkeypatch.delenv("IETISTOKES_THREADS")
    config = parse_config(["study-infsup", "--domain", "grid(1,1)", "--threads", "2"])
    assert config.threads == 2


def test_channel_inlet_profile():
    pts = np.array([[-2.0, 0.0], [-2.0, 2.0], [5.0, 0.3]])
    vals = channel_inlet(pts)
    assert abs(vals[0, 0] - 1.0) < 1e-14
    assert abs(vals[1, 0]) < 1e-14
    assert np.abs(vals[:, 1]).max() == 0.0
    assert np.abs(vals[2]).max() == 0.0


def test_problem_data_modes():
    config = RunConfig("solve", "rectangle_with_hole", [2], [2])
    mp = rectangle_with_hole_domain()
    rhs, dirichlet, manufactured = problem_data(mp, config)
    # a Neumann outlet gets the channel data; the pressure level is the
    # domain's own (MultiPatch.pressure_up_to_constant)
    assert rhs is None and dirichlet is channel_inlet
    assert manufactured is False and not mp.pressure_up_to_constant


def _outlet_grid_file(tmp_path):
    # grid(2,1) saved as a geometry file with a Neumann east side: an outlet,
    # but no Dirichlet side on the channel inlet x = -2
    mp0 = parse_domain("grid(2,1)")
    tags = {(k, s): "dirichlet" for k in (0, 1) for s in ("west", "east", "south", "north")}
    tags[(1, "east")] = "neumann"
    path = tmp_path / "outlet.txt"
    save_multipatch(build_multipatch(mp0.patches, boundary=lambda k, s, m: tags[(k, s)]), path)
    return path


def test_outlet_without_the_channel_inlet_exits_2(tmp_path, capsys):
    # the channel data is zero away from x = -2, so solving with it here
    # would be the zero problem (0 iterations, every exported sample 0.0)
    path = _outlet_grid_file(tmp_path)
    out = tmp_path / "fields.txt"
    for command in ("solve", "bench-ieti"):
        assert main([command, "--domain", str(path), "--degrees", "1", "--levels", "1",
                     "--output", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--zero-data" in err[0]
        assert "iterations" not in captured.out
    assert not out.exists()
    # the zero problem itself is still there when asked for
    assert main(["solve", "--domain", str(path), "--degrees", "1", "--levels", "1",
                 "--zero-data"]) == 0


def test_channel_with_hole_still_gets_the_inflow(capsys):
    assert main(["solve", "--domain", "rectangle_with_hole", "--degrees", "2",
                 "--levels", "1"]) == 0
    assert "iterations=10 " in capsys.readouterr().out


@pytest.mark.parametrize("domain", ["rectangle_with_hole", "quarter_annulus(1,2,2,2)"])
def test_algebra_suite_holds_on_rational_and_outflow_domains(domain, capsys):
    # rectangle_with_hole: the Neumann side's dofs are interior with a
    # nonzero trace, and its patches' averaging columns need not be
    # constant; both domains are rational, so the suite assembles with
    # nquad = velocity degree + 6 and says so (3.78e-11 and 9.11e-09 with
    # the default quadrature on the annulus)
    assert main(["verify", "--suite", "algebra", "--domain", domain, "--degrees", "2",
                 "--levels", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "7 checks, 0 failed"
    assert all(line.endswith("nquad 9") for line in lines[:2])


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "grid(2,2)", "--no-global-pressure-mean"],
    ["study-infsup", "--domain", "grid(1,1)", "--method", "dense"],
    ["study-infsup", "--domain", "grid(1,1)", "--tol", "5"],
    ["study-infsup", "--domain", "grid(1,1)", "--max-iter", "3"],
    ["study-infsup", "--domain", "grid(1,1)", "--seed", "1"],
    ["verify", "--suite", "algebra", "--output", "/nonexistent/dir/x.csv"],
    ["verify", "--suite", "algebra", "--tol", "1e-3"],
    ["verify", "--suite", "algebra", "--max-iter", "3"],
    ["verify", "--suite", "algebra", "--threads", "2"],
    ["solve", "--domain", "grid(2,2)", "--threads", "2"],
], ids=["no-global-pressure-mean", "method", "study-tol", "study-max-iter", "study-seed",
        "verify-output", "verify-tol", "verify-max-iter", "verify-threads", "solve-threads"])
def test_removed_option_is_a_usage_error(argv, capsys):
    # the boundary tags decide the pressure level and the size the
    # eigensolver, and a subcommand takes only the options it reads; any
    # other option is an unknown argument, argparse's exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % " ".join(argv[3:]) in err
    assert "Traceback" not in err


def test_study_on_an_outflow_domain_reports_the_full_pencil(tmp_path, capsys):
    # rectangle_with_hole has a Neumann outlet: no constant is deflated, and
    # beta is the full pencil's (the deflated pencil read 0.1199)
    out = tmp_path / "study.csv"
    assert main(["study-infsup", "--domain", "rectangle_with_hole", "--degrees", "2",
                 "--levels", "1", "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["1", "20.857", "0.0571"]
    header, (row,) = read_csv(out)
    row = dict(zip(header, row))
    assert abs(float(row["beta"]) - 0.057052) < 1e-6


def test_bench_csv_schema_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench-ieti", "--domain", "grid(2,1)", "--degrees", "1",
            "--levels", "1,2"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    header1, rows1 = read_csv(out1)
    header2, rows2 = read_csv(out2)
    assert header1 == list(BENCH_COLUMNS)
    assert strip_timing(header1, rows1) == strip_timing(header2, rows2)
    table = capsys.readouterr().out
    assert "p=1:iterations" in table and "p=1:kappa" in table


def test_study_csv_schema(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study-infsup", "--domain", "grid(2,1)", "--degrees", "1",
                 "--levels", "1", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == list(STUDY_COLUMNS)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["kappa"]) >= 1.0
    assert 0.0 < float(row["beta"]) <= np.sqrt(2.0)
    assert float(row["delta_h"]) <= 2.0
    assert int(row["dofs"]) > 0


def test_study_reports_an_infsup_unstable_cell():
    # Q2/Q1 on one element (p=1, level 0) is inf-sup unstable and its
    # lam_min comes out at or below 0, so the cell reads kappa inf and beta
    # 0, with no sqrt warnings; a fresh interpreter shows what reaches stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ietistokes

    src = str(Path(ietistokes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ietistokes.cli", "study-infsup",
         "--domain", "grid(1,1)", "--degrees", "1", "--levels", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    head = lines.index(",".join(STUDY_COLUMNS))
    assert lines[head - 1].split() == ["0", "inf", "0.0000"]  # the table row
    (row,) = (dict(zip(STUDY_COLUMNS, r)) for r in csv.reader(lines[head + 1:]))
    assert float(row["kappa"]) == np.inf and float(row["beta"]) == 0.0


def test_study_on_a_cell_too_small_for_lobpcg_exits_1():
    # with the dense limit at 0 the cell goes to LOBPCG, for which its 9
    # pressure dofs are too few: a fresh interpreter shows one error line,
    # exit 1, no traceback and no warnings
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ietistokes

    src = str(Path(ietistokes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys; import ietistokes.analysis as a; from ietistokes.cli import main; "
            "a.DENSE_LIMIT = 0; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-c", code, "study-infsup",
         "--domain", "grid(1,1)", "--degrees", "1", "--levels", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: iterative eigensolve failed on 27 dofs: "
                           "9 pressure dofs are too few for lobpcg\n")


def test_solve_zero_data_exports_zero_fields(tmp_path, capsys):
    out = tmp_path / "fields.txt"
    assert main(["solve", "--domain", "grid(2,1)", "--degrees", "1",
                 "--levels", "1", "--zero-data", "--output", str(out)]) == 0
    text = out.read_text().splitlines()
    in_samples = False
    coeff_max = 0.0
    for line in text:
        if line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("patch", "velocity_coefficients", "pressure_coefficients"):
            in_samples = False
            continue
        if parts[0] == "samples":
            in_samples = True
            continue
        vals = [float(v) for v in parts]
        if in_samples:
            # u v x y ux uy p: the field columns must vanish, positions not
            assert max(abs(v) for v in vals[4:]) == 0.0
        else:
            coeff_max = max(coeff_max, max(abs(v) for v in vals))
    assert coeff_max == 0.0


def test_solve_export_matches_exact_solution(tmp_path, capsys):
    out = tmp_path / "fields.txt"
    assert main(["solve", "--domain", "grid(1,1)", "--degrees", "2",
                 "--levels", "3", "--output", str(out), "--samples", "5"]) == 0
    printed = capsys.readouterr().out
    assert "H1 velocity error" in printed
    lines = out.read_text().splitlines()
    start = lines.index("samples 5 5") + 1
    worst = 0.0
    for line in lines[start : start + 25]:
        u, v, x, y, ux, uy, p = map(float, line.split())
        worst = max(worst,
                    abs(ux + np.sin(np.pi * x) * np.cos(np.pi * y)),
                    abs(uy - np.cos(np.pi * x) * np.sin(np.pi * y)))
    assert worst < 5e-4


def test_solve_nonconvergence_exits_1(tmp_path, capsys):
    code = main(["solve", "--domain", "grid(2,2)", "--degrees", "1",
                 "--levels", "1", "--max-iter", "1", "--tol", "1e-12"])
    assert code == 1


def test_bench_nonconvergence_flagged(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench-ieti", "--domain", "grid(2,2)", "--degrees", "1",
                 "--levels", "1", "--max-iter", "1", "--tol", "1e-12",
                 "--output", str(out)])
    assert code == 1
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["converged"] == "False"
    assert "not converged" in capsys.readouterr().out


def test_verify_suite_filter(capsys):
    assert main(["verify", "--suite", "supmat"]) == 0
    printed = capsys.readouterr().out
    assert "supmat" in printed
    assert "lemma3" not in printed
    assert "0 failed" in printed


def test_verify_fortin_checks_every_cell(capsys):
    # one check per (degree, level) cell and grid, each tagged with its cell
    assert main(["verify", "--suite", "fortin", "--degrees", "1,2", "--levels", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "8 checks, 0 failed"
    cells = sorted(tuple(line.split()[-5:-2]) for line in lines[:-1])
    assert cells == sorted((spec, "p=%d" % p, "l=%d" % l) for spec in ("grid(2,2)", "grid(3,3)")
                           for p in (1, 2) for l in (1, 2))


def test_verify_lemma3_small(capsys):
    assert main(["verify", "--suite", "lemma3", "--degrees", "1",
                 "--levels", "1"]) == 0
    printed = capsys.readouterr().out
    assert "unit square" in printed and "quarter annulus" in printed


def test_bench_threaded_matches_serial(tmp_path):
    serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
    args = ["bench-ieti", "--domain", "grid(2,1)", "--degrees", "1,2",
            "--levels", "1"]
    assert main(args + ["--output", str(serial)]) == 0
    assert main(args + ["--threads", "2", "--output", str(threaded)]) == 0
    h1, r1 = read_csv(serial)
    h2, r2 = read_csv(threaded)
    assert strip_timing(h1, r1) == strip_timing(h2, r2)
