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
from ietistokes.domains import rectangle_with_hole_domain


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
], ids=["degrees_one_value", "bare_patches", "smoothness_one_value", "bare_interfaces",
        "bare_boundaries", "boundary_missing_patch", "boundary_unknown_side", "nan_point",
        "inf_point", "three_coordinates", "two_weights", "four_field_interface",
        "orientation_typo", "two_field_boundary"])
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
    rhs, dirichlet, use_mean, manufactured = problem_data(mp, config)
    # a Neumann outlet fixes the pressure level, so the mean constraint drops
    assert rhs is None and dirichlet is channel_inlet
    assert use_mean is False and manufactured is False


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


def _study_subprocess(method):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ietistokes

    src = str(Path(ietistokes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "ietistokes.cli", "study-infsup",
         "--domain", "grid(1,1)", "--degrees", "1", "--levels", "1", "--method", method],
        capture_output=True, text=True, env=env, timeout=120)


def test_study_iterative_on_a_tiny_cell_falls_back_to_dense():
    # 9 pressure dofs are too few for lobpcg's iterations; the cell is
    # solved on the dense path, without a traceback or warnings
    kappas = []
    for method in ("iterative", "dense"):
        proc = _study_subprocess(method)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        lines = proc.stdout.splitlines()
        head = lines.index(",".join(STUDY_COLUMNS))
        (row,) = (dict(zip(STUDY_COLUMNS, r)) for r in csv.reader(lines[head + 1:]))
        kappas.append(float(row["kappa"]))
    assert abs(kappas[0] - kappas[1]) <= 1e-12 * kappas[1]


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
