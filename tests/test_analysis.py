import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import ietistokes.analysis as analysis
from ietistokes.analysis import (
    InfSupStudy,
    SpectrumError,
    local_infsup,
    pressure_schur_extremes,
    pressure_schur_spectrum,
    skeleton_matrices,
    skeleton_spectra,
)
from ietistokes.assembly import (
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    manufactured_rhs,
    manufactured_velocity,
    taylor_hood_spaces,
)
from ietistokes.domains import build_domain, parse_domain, quarter_annulus_patch
from ietistokes.geometry import GeometryMap, bilinear_patch, build_multipatch
from ietistokes.ieti import solve_stokes_ieti

FLOATING = {s: "interface" for s in ("west", "east", "south", "north")}
ALL_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))


def dirichlet_patch_system(geo, degree, refinement):
    ths = build_taylor_hood(geo, degree, refinement=refinement)
    return assemble_patch(geo, ths)


def floating_patch_system(geo, degree, refinement):
    ths = build_taylor_hood(geo, degree, refinement=refinement,
                            side_roles=FLOATING, gamma_corners=ALL_CORNERS)
    return assemble_patch(geo, ths)


def unit_square():
    return bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))


def test_local_infsup_stable_under_refinement():
    vals = [local_infsup(dirichlet_patch_system(unit_square(), 1, l))
            for l in (2, 3)]
    assert vals[0] > 0.1
    assert abs(vals[1] - vals[0]) < 0.03 * vals[0]


def test_beta_and_delta_bounded():
    # pointwise |div v|^2 <= 2 |grad v|^2, so every eigenvalue is at most 2
    # and beta = sqrt(lambda_min) is at most sqrt(2)
    for geo in (unit_square(), quarter_annulus_patch(),
                bilinear_patch((0, 0), (4, 0), (0, 1), (4, 1))):
        sysk = dirichlet_patch_system(geo, 1, 2)
        from ietistokes.analysis import pressure_schur_extremes
        # all-Dirichlet: the free velocity dofs are the interior ones
        n = 2 * sysk.ths.n_inner
        A = sysk.saddle_matrix()
        spec = pressure_schur_extremes(A[:n, :n], A[n:, :n], sysk.Mp)
        assert spec.beta <= np.sqrt(2.0) + 1e-10
        assert spec.delta <= 2.0 + 1e-10
        assert spec.lam_min > 0


@pytest.mark.parametrize("deflate", [False, True])
def test_round_off_lam_min_reads_zero(deflate):
    # a smallest eigenvalue within n eps lam_max of zero is zero to working
    # precision whatever its sign, so the spectrum reads beta 0 and kappa
    # inf; one just above that stays as it is. H's first column is the
    # constant, whose eigenvalue 1.5 is no extreme either way
    Mp = sp.identity(5, format="csr")
    H = np.linalg.qr(np.column_stack([np.ones(5), np.eye(5)[:, 1:]]))[0]
    for tiny, want in ((3e-17, 0.0), (-3e-17, 0.0), (1e-12, 1e-12)):
        T = H @ np.diag([1.5, tiny, 0.5, 1.0, 2.0]) @ H.T
        lam_min, lam_max = analysis._dense_extremes(T, Mp, deflate)
        assert abs(lam_max - 2.0) <= 1e-12
        assert lam_min == 0.0 if want == 0.0 else abs(lam_min - want) <= 1e-14
        spec = analysis.SchurSpectrum(lam_min, lam_max, 5, "dense")
        assert (spec.kappa == np.inf) == (want == 0.0)


def test_stretched_patch_has_smaller_beta():
    square = local_infsup(dirichlet_patch_system(unit_square(), 1, 2))
    stretched = local_infsup(dirichlet_patch_system(
        bilinear_patch((0, 0), (4, 0), (0, 1), (4, 1)), 1, 2))
    assert stretched < square


def test_local_infsup_rejects_interface_sides():
    # an interface side, a Neumann side, and a side left natural (no role)
    geo = unit_square()
    dirichlet = dict.fromkeys(("west", "east", "south", "north"), "dirichlet")
    for roles in (dict(dirichlet, west="interface"), dict(dirichlet, east="neumann"),
                  {s: r for s, r in dirichlet.items() if s != "east"}):
        for level in (1, 2):
            sysk = assemble_patch(geo, build_taylor_hood(geo, 1, refinement=level,
                                                         side_roles=roles))
            with pytest.raises(ValueError):
                local_infsup(sysk)


def global_kappa(patches, degree=2, refinement=1):
    mp = build_multipatch(patches)
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=refinement)
    glob = assemble_global(mp, spaces)
    return pressure_schur_spectrum(glob).kappa


def test_kappa_invariant_under_rigid_motion_and_scaling():
    mp = build_domain("grid", m=2, n=1)
    base = global_kappa(mp.patches)
    phi = 0.7
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    moved = [GeometryMap(g.space, g.control @ R.T + np.array([3.0, -1.0]), g.weights)
             for g in mp.patches]
    scaled = [GeometryMap(g.space, 5.0 * g.control, g.weights) for g in mp.patches]
    assert abs(global_kappa(moved) - base) < 1e-8 * base
    assert abs(global_kappa(scaled) - base) < 1e-8 * base


def test_kappa_stable_in_level_and_degree():
    study = InfSupStudy("grid(1,1)", degrees=[1, 2], levels=[1, 2])
    rows = study.run()
    kappas = [r["kappa"] for r in rows]
    assert min(kappas) >= 1.0
    assert (max(kappas) - min(kappas)) / min(kappas) < 0.05
    for row in rows:
        assert set(row) == {"domain", "degree", "level", "kappa", "beta",
                            "delta_h", "dofs", "seconds"}
        assert row["beta"] > 0
        assert row["delta_h"] <= 2.0 + 1e-10


def test_study_threaded_matches_serial():
    study = InfSupStudy("grid(2,1)", degrees=[1, 2], levels=[1])
    serial = study.run(threads=1)
    threaded = study.run(threads=2)
    for a, b in zip(serial, threaded):
        for key in ("domain", "degree", "level", "dofs"):
            assert a[key] == b[key]
        for key in ("kappa", "beta", "delta_h"):
            assert abs(a[key] - b[key]) <= 1e-12 * abs(a[key])


def test_threaded_iterative_study_restores_the_warning_filters(monkeypatch):
    # lobpcg's own warnings are recorded under one lock: with more threads
    # than cores and a short switch interval, no thread restores another's
    # filters, so the process-wide filters and showwarning come back as
    # they were; p=1 level 2 (123 dofs) stays dense, the other three cells
    # run LOBPCG
    monkeypatch.setattr(analysis, "DENSE_LIMIT", 123)
    filters, show = list(warnings.filters), warnings.showwarning
    study = InfSupStudy("grid(1,1)", degrees=[1, 2], levels=[2, 3])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = study.run(threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert warnings.filters == filters and warnings.showwarning is show
    assert [r["kappa"] >= 1.0 for r in rows] == [True] * 4


def test_strip_kappa_grows_with_length():
    k1 = global_kappa(build_domain("strip", length=1).patches, degree=1)
    k4 = global_kappa(build_domain("strip", length=4).patches, degree=1)
    assert k4 > k1 * 1.05


def test_ieti_kappa_stays_flat_while_infsup_kappa_grows():
    # the paper's claim on strip(L), p=2, l=2: the inf-sup condition number
    # grows with the elongation (2.58 to 17.68 for L = 2 to 16), the IETI-DP
    # one does not (1.97 to 2.05, 7-8 iterations)
    infsup, ieti = [], []
    for length in (2, 4, 8, 16):
        infsup.append(InfSupStudy("strip(%d)" % length, [2], [2]).run_cell(2, 2)["kappa"])
        mp = build_domain("strip", length=length)
        spaces = taylor_hood_spaces(mp, degree=2, refinement=2)
        _, _, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                      dirichlet=manufactured_velocity)
        assert rep.converged and rep.iterations <= 15
        ieti.append(rep.kappa)
    assert infsup[-1] >= 5 * infsup[0]
    assert max(ieti) <= 3


def test_dense_and_iterative_paths_agree(monkeypatch):
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=2)
    glob = assemble_global(mp, spaces)
    dense = pressure_schur_spectrum(glob)
    monkeypatch.setattr(analysis, "DENSE_LIMIT", 0)
    iterative = pressure_schur_spectrum(glob)
    assert (dense.method, iterative.method) == ("dense", "iterative")
    assert abs(dense.kappa - iterative.kappa) < 0.01 * dense.kappa
    assert abs(dense.beta - iterative.beta) < 0.01 * dense.beta


@pytest.mark.parametrize("degree", [1, 2])
def test_outflow_spectrum_is_the_full_pencil(degree, monkeypatch):
    # a Neumann side fixes the pressure level, so no constant is deflated:
    # both paths give the extremes of the whole pencil (T, M_p)
    mp = parse_domain("rectangle_with_hole")
    glob = assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=2))
    ev = sla.eigh(glob.pressure_schur, glob.Mp.toarray(), eigvals_only=True)
    for limit, method in ((analysis.DENSE_LIMIT, "dense"), (0, "iterative")):
        monkeypatch.setattr(analysis, "DENSE_LIMIT", limit)
        spec = pressure_schur_spectrum(glob)
        assert spec.method == method
        assert abs(spec.lam_min - ev[0]) <= 1e-10 * ev[0]
        assert abs(spec.lam_max - ev[-1]) <= 1e-10 * ev[-1]


def test_a_problem_too_small_for_lobpcg_raises_spectrum_error(monkeypatch):
    # lobpcg would switch to its dense solver, which rejects the constraint
    # against constant pressures; the size that picks LOBPCG leaves no
    # dense fallback, so below it the guard ends in SpectrumError
    mp = build_domain("grid", m=1, n=1)
    glob = assemble_global(mp, taylor_hood_spaces(mp, degree=1, refinement=1))
    sysk = dirichlet_patch_system(unit_square(), 1, 2)
    assert pressure_schur_spectrum(glob).method == "dense" and local_infsup(sysk) > 0
    monkeypatch.setattr(analysis, "DENSE_LIMIT", 0)
    with pytest.raises(SpectrumError, match="on 27 dofs: 9 pressure dofs are too few"):
        pressure_schur_spectrum(glob)
    with pytest.raises(SpectrumError, match="25 pressure dofs are too few for lobpcg"):
        local_infsup(sysk)


def test_skeleton_constant_kernel():
    sysk = floating_patch_system(unit_square(), 1, 1)
    S_A, S_K = skeleton_matrices(sysk)
    ng = sysk.ths.n_gamma
    scale = np.abs(S_A).max()
    for c in (0, 1):
        w = np.zeros(2 * ng)
        w[c * ng : (c + 1) * ng] = 1.0
        assert abs(w @ (S_A @ w)) < 1e-12 * scale
        assert abs(w @ (S_K @ w)) < 1e-12 * scale


def test_skeleton_spectra_within_infsup_bounds():
    for geo in (unit_square(), quarter_annulus_patch()):
        beta = local_infsup(dirichlet_patch_system(geo, 1, 1))
        ev = skeleton_spectra(floating_patch_system(geo, 1, 1))
        assert ev.min() >= 1.0 - 1e-8
        assert ev.max() <= 3.0 * 2.0 / beta**2 + 1e-8


def doubled_block_infsup(system):
    """beta_k through the doubled interior block block_diag(K_ii, K_ii) and
    the global Schur path, the formula local_infsup replaced."""
    ths = system.ths
    K_ii, W = system.condensation_blocks()
    ni, npre = ths.n_inner, ths.n_pressure
    D_i = np.hstack(W[ni:].reshape(2, npre, ni))
    return pressure_schur_extremes(sp.block_diag((K_ii, K_ii), format="csc"),
                                   sp.csr_matrix(D_i), system.Mp).beta


def kron_skeleton_matrices(system):
    """(S_A, S_K) from kron-doubled stiffness blocks and dense solves of the
    full interior saddle system, the formula skeleton_matrices replaced."""
    ths = system.ths
    ni, n, npre = ths.n_inner, ths.n_inner + ths.n_gamma, ths.n_pressure
    _, W = system.condensation_blocks()
    i, g = slice(0, ni), slice(ni, n)
    K, D = W[:n], W[n:].reshape(2, npre, n)
    Kgg, Kgi, Kii = (np.kron(np.eye(2), K[a, b]) for a, b in ((g, g), (g, i), (i, i)))
    Dg, Di = np.hstack(D[:, :, g]), np.hstack(D[:, :, i])
    ca = system.pressure_average_row()
    inner = np.block([
        [Kii, Di.T, np.zeros((2 * ni, 1))],
        [Di, np.zeros((npre, npre)), ca[:, None]],
        [np.zeros((1, 2 * ni)), ca[None, :], np.zeros((1, 1))],
    ])
    R = np.vstack([Kgi.T, Dg, np.zeros((1, Kgg.shape[0]))])
    S_A = Kgg - R.T @ np.linalg.solve(inner, R)
    S_K = Kgg - Kgi @ np.linalg.solve(Kii, Kgi.T)
    return 0.5 * (S_A + S_A.T), 0.5 * (S_K + S_K.T)


@pytest.mark.parametrize("geo", [unit_square(), bilinear_patch((0, 0), (4, 0), (0, 1), (4, 1)),
                                 quarter_annulus_patch()], ids=["square", "4x1", "annulus"])
@pytest.mark.parametrize("degree, refinement", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_patch_analysis_matches_the_doubled_block_formulas(geo, degree, refinement,
                                                          monkeypatch):
    # both paths: dense at the default limit, LOBPCG at limit 0, where the
    # cells with fewer than 26 pressure dofs are too small for it
    sysk = dirichlet_patch_system(geo, degree, refinement)
    for limit in (analysis.DENSE_LIMIT, 0):
        monkeypatch.setattr(analysis, "DENSE_LIMIT", limit)
        if limit == 0 and sysk.ths.n_pressure < 26:
            for beta in (doubled_block_infsup, local_infsup):
                with pytest.raises(SpectrumError, match="too few for lobpcg"):
                    beta(sysk)
            continue
        ref = doubled_block_infsup(sysk)
        assert abs(local_infsup(sysk) - ref) <= 1e-12 * ref
    sysk = floating_patch_system(geo, degree, refinement)
    for got, ref in zip(skeleton_matrices(sysk), kron_skeleton_matrices(sysk), strict=True):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_skeleton_matrices_need_floating_patch():
    geo = unit_square()
    neumann_east = dict(FLOATING, east="neumann")
    for sysk in (dirichlet_patch_system(geo, 1, 1),
                 assemble_patch(geo, build_taylor_hood(geo, 1, refinement=1,
                                                       side_roles=neumann_east,
                                                       gamma_corners=ALL_CORNERS))):
        with pytest.raises(ValueError):
            skeleton_matrices(sysk)
