import time
from functools import cached_property, lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ietistokes import assembly, linalg
from ietistokes.assembly import (
    PatchStokesSystem,
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    manufactured_rhs,
    manufactured_velocity,
    matched_side_dofs,
    taylor_hood_spaces,
)
from ietistokes.cli import RunConfig, _suite_algebra, channel_inlet
from ietistokes.domains import build_domain, parse_domain
from ietistokes.geometry import GeometryMap, bilinear_patch, build_multipatch
from ietistokes.ieti import (
    AugmentedLocalSystem,
    CondensedLU,
    IetiOperator,
    PrimalConstraints,
    ScaledDirichletPreconditioner,
    SingularLocalSystemError,
    build_jump_operator,
    setup_ieti,
    solve_pcg,
    solve_stokes_ieti,
    verify_supmat,
)
from ietistokes.linalg import BandCholesky, DenseLU


def build_grid_problem(m, n, degree=1, refinement=1, rhs=manufactured_rhs,
                       dirichlet=manufactured_velocity):
    mp = build_domain("grid", m=m, n=n)
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=refinement)
    glob = assemble_global(mp, spaces, rhs=rhs, dirichlet=dirichlet)
    return mp, spaces, glob


@lru_cache(maxsize=None)
def algebra_checks(degree):
    """Outcome of each `verify --suite algebra` check on grid(2,2), level 1."""
    tag = " p=%d l=1" % degree
    checks = _suite_algebra(RunConfig("verify", "grid(2,2)", [degree], [1]))
    assert all(name.endswith(tag) for name, _, _ in checks)
    return {name[: -len(tag)]: ok for name, ok, _ in checks}


def test_primal_counts_interior_patch():
    # the center patch of a 3x3 grid floats: 4 shared vertices x 2 components
    # plus 4 edge fluxes gives 12 continuity rows, plus the averaging row
    mp, spaces, glob = build_grid_problem(3, 3)
    cons = PrimalConstraints(mp, spaces, glob.systems)
    center = 4
    assert spaces[center].side_roles == {s: "interface" for s in
                                         ("west", "east", "south", "north")}
    assert cons.rows[center].shape == (13, 2 * spaces[center].n_gamma + spaces[center].n_pressure)
    # global count: vertices, fluxes, averages
    assert cons.n_primal == 2 * 4 + 12 + 9


def test_flux_rows_evaluate_each_patch_once(monkeypatch):
    # each interface side of a patch is evaluated once, in one map-kernel
    # call per side for the whole family (one family here); the pointwise
    # evaluator is not called
    from ietistokes import geometry

    mp, spaces, glob = build_grid_problem(3, 3)
    calls = []
    real = geometry._geometry_tables
    monkeypatch.setattr(geometry, "_geometry_tables",
                        lambda geos, tables: calls.append(list(geos)) or real(geos, tables))
    monkeypatch.setattr(GeometryMap, "eval", None)
    PrimalConstraints(mp, spaces, glob.systems)
    assert len(calls) == 4
    evaluated = sorted(mp.patches.index(g) for geos in calls for g in geos)
    assert evaluated == sorted(k for i in mp.interfaces for k in (i.a, i.b))


def test_corner_row_is_interpolatory():
    mp, spaces, glob = build_grid_problem(2, 2)
    cons = PrimalConstraints(mp, spaces, glob.systems)
    k = 0
    ths = spaces[k]
    dof = ths.vel.corner_dof(1, 1)  # the shared center vertex
    C = cons.rows[k]
    for c in (0, 1):
        e = np.zeros(C.shape[1])
        e[ths.gamma_pos(c, dof)] = 1.0
        vals = C @ e
        hit = np.flatnonzero(np.abs(vals) > 1e-14)
        # exactly one corner row sees this dof with weight 1; flux rows of the
        # adjacent edges also integrate it
        corner_rows = [r for r in hit if abs(vals[r] - 1.0) < 1e-14]
        assert len(corner_rows) == 1


def test_flux_row_with_dirichlet_shift_gives_total_flux():
    # row value on free dofs plus the recorded shift reproduces the flux of
    # the full field u = (1, 0), here through the interface edge x = 1
    mp = build_domain("grid", m=2, n=1)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)

    def g(pts):
        out = np.zeros(pts.shape)
        out[..., 0] = 1.0
        return out

    systems = [assemble_patch(mp.patches[k], spaces[k], dirichlet=g) for k in (0, 1)]
    cons = PrimalConstraints(mp, spaces, systems)
    k = 0
    ths = spaces[k]
    row = len(cons.rows[k]) - 1  # [avg | fluxes], no primal vertices here
    u_free = np.zeros(cons.rows[k].shape[1])
    for d in ths.gamma:
        u_free[ths.gamma_pos(0, d)] = 1.0
    total = cons.rows[k][row] @ u_free - cons.shifts[k][row]
    assert abs(total - 1.0) < 1e-12


def _primal_basis(aug):
    """The local primal basis A^-1 [0; I] (x and multiplier rows) from one
    solve of the whole augmented system: the reference for what setup
    reads off the reduced solve."""
    rhs = np.zeros((aug.n_x + aug.n_mu, aug.n_mu))
    rhs[aug.n_x :] = np.eye(aug.n_mu)
    X = aug.lu.solve(rhs)
    return X[: aug.n_x], X[aug.n_x :]


def test_primal_basis_structure_affine():
    mp, spaces, glob = build_grid_problem(2, 2)
    op = IetiOperator(mp, spaces, glob.systems)
    for k in range(len(spaces)):
        C = op.locals_[k].C.toarray()
        psi, _ = _primal_basis(op.locals_[k])
        assert np.abs(C @ psi - np.eye(C.shape[0])).max() < 1e-10
    # averaging column: velocity identically zero, pressure constant one
    assert algebra_checks(1)["averaging basis structure"]


def test_jump_operator_shape_and_identity():
    mp, spaces, glob = build_grid_problem(2, 2)
    op = IetiOperator(mp, spaces, glob.systems)
    # 4 interfaces, 3 non-corner dofs each, 2 components
    assert op.n_lambda == 24
    Bg = op.B
    # each row: one +1 and one -1
    assert np.abs(Bg @ np.ones(Bg.shape[1])).max() < 1e-14
    assert (abs(Bg) @ np.ones(Bg.shape[1]) == 2).all()
    # B D^-1 B^T B = B with D = 2 I
    assert algebra_checks(1)["jump operator projection identity"]


def test_jump_representation_and_antisymmetry():
    # w = D^-1 B^T B v carries the inter-patch difference: w_a - w_b = v_a - v_b
    # on every matched non-corner pair, and w_a = -w_b
    assert algebra_checks(2)["jump carries inter-patch differences"]


def test_scaled_jumps_stay_in_constrained_space():
    # corner entries of D^-1 B^T B v vanish by construction, and when v is
    # primally conforming (shared corner values, matching edge fluxes) the
    # flux rows applied to the result vanish too
    mp, spaces, glob = build_grid_problem(2, 2, degree=2)
    op = IetiOperator(mp, spaces, glob.systems)
    cons = op.constraints
    rng = np.random.default_rng(9)
    vs = [rng.standard_normal(2 * t.n_gamma) for t in spaces]
    for j in cons.vertices:
        for c in (0, 1):
            val = rng.standard_normal()
            for k, corner in mp.vertices[j].members:
                dof = spaces[k].vel.corner_dof(*corner)
                vs[k][spaces[k].gamma_pos(c, dof)] = val
    # match the fluxes: project the mismatch out of the non-corner part of
    # the second patch's flux functional so corner values stay shared
    for fi, iface in enumerate(cons.interfaces):
        rows = []
        for k in (iface.a, iface.b):
            j = int(np.flatnonzero(cons.globals_[k] == cons.flux_offset + fi)[0])
            r = cons.rows[k][j]
            rows.append(r[: 2 * spaces[k].n_gamma])
        b = iface.b
        direction = rows[1].copy()
        for dof in spaces[b].vel.corner_dofs().values():
            if np.isin(dof, spaces[b].gamma):
                for c in (0, 1):
                    direction[spaces[b].gamma_pos(c, dof)] = 0.0
        # opposite outward normals: continuity means the two fluxes cancel
        mism = rows[0] @ vs[iface.a] + rows[1] @ vs[b]
        vs[b] -= mism * direction / (rows[1] @ direction)
    jump = op.B @ np.concatenate(vs)
    for k, ths in enumerate(spaces):
        w = 0.5 * (op.B.T @ jump)[op.gamma_slices[k]]
        for dof in ths.vel.corner_dofs().values():
            if np.isin(dof, ths.gamma):
                for c in (0, 1):
                    assert w[ths.gamma_pos(c, dof)] == 0.0
        C = cons.rows[k]
        fluxrows = [j for j in range(len(C))
                    if cons.flux_offset <= cons.globals_[k][j] < cons.avg_offset]
        wx = np.zeros(C.shape[1])
        wx[: 2 * ths.n_gamma] = w
        for j in fluxrows:
            assert abs(C[j] @ wx) < 1e-10


def test_F_symmetric_positive_semidefinite():
    checks = algebra_checks(1)
    assert checks["dual operator symmetric"]
    assert checks["dual operator positive semidefinite"]


def test_rhs_antisymmetric_under_patch_relabeling():
    # swapping the two patches of a strip flips the sign convention of every
    # multiplier row, so g flips sign
    mp = build_domain("grid", m=2, n=1)
    mp_sw = build_multipatch([mp.patches[1], mp.patches[0]])
    gs = []
    for m in (mp, mp_sw):
        spaces = taylor_hood_spaces(m, degree=1, refinement=1)
        op, pc = setup_ieti(m, spaces, rhs=manufactured_rhs,
                            dirichlet=manufactured_velocity)
        gs.append(op.rhs())
    assert np.abs(gs[0] + gs[1]).max() < 1e-10 * max(1.0, np.abs(gs[0]).max())


def relative_difference(glob, us, ps, us_ref, ps_ref):
    eh = rh = ep = rp = 0.0
    for k in range(len(us)):
        Ks, Mp = glob.systems[k].Ks, glob.systems[k].Mp
        for c in (0, 1):
            d = us[k][c] - us_ref[k][c]
            eh += d @ (Ks @ d)
            rh += us_ref[k][c] @ (Ks @ us_ref[k][c])
        dp = ps[k] - ps_ref[k]
        ep += dp @ (Mp @ dp)
        rp += ps_ref[k] @ (Mp @ ps_ref[k])
    return np.sqrt(eh / rh), np.sqrt(ep / rp)


def test_ieti_matches_monolithic_dirichlet():
    mp, spaces, glob = build_grid_problem(2, 2)
    us_ref, ps_ref = glob.solve()
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                    dirichlet=manufactured_velocity,
                                    tol=1e-10, systems=glob.systems)
    assert rep.converged
    du, dp = relative_difference(glob, us, ps, us_ref, ps_ref)
    assert du < 1e-8
    assert dp < 1e-8


def _neumann_outlet_grid():
    # grid(2,1) with a Neumann (outflow) east side on the second patch
    mp0 = build_domain("grid", m=2, n=1)
    tags = {(k, s): "dirichlet" for k in (0, 1)
            for s in ("west", "east", "south", "north")}
    tags[(1, "east")] = "neumann"
    return build_multipatch(mp0.patches, boundary=lambda k, s, m: tags[(k, s)])


def test_ieti_matches_monolithic_neumann_outlet():
    mp = _neumann_outlet_grid()
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs,
                           dirichlet=manufactured_velocity)
    us_ref, ps_ref = glob.solve()
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                    dirichlet=manufactured_velocity,
                                    tol=1e-10, systems=glob.systems)
    assert rep.converged
    for k in range(2):
        assert np.abs(us[k] - us_ref[k]).max() < 1e-8
        assert np.abs(ps[k] - ps_ref[k]).max() < 1e-8


def _continuity_defect(glob, us):
    """max |D_f u_f - h| of per-patch velocities on the monolithic system."""
    uglob = np.zeros((2, glob.n_scalar))
    for u, l2g in zip(us, glob.scalar_l2g):
        uglob[:, l2g] = u
    _, Df, _, h = glob.free_blocks
    return np.abs(Df @ uglob[:, glob.free].ravel() - h).max()


def _poiseuille_inlet(pts):
    """u = (y (1 - y), 0) on the west side x = 0 of a unit-height row, zero
    elsewhere: inflow that the Neumann outlet lets out."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape)
    y = pts[..., 1]
    out[..., 0] = np.where(np.abs(pts[..., 0]) < 1e-9, y * (1.0 - y), 0.0)
    return out


OUTFLOW_CASES = {  # domain, degree, rhs, Dirichlet data
    "rectangle_with_hole": (lambda: parse_domain("rectangle_with_hole"), 2, None, channel_inlet),
    "Neumann outlet": (_neumann_outlet_grid, 1, manufactured_rhs, manufactured_velocity),
    "Neumann outlet, inflow": (_neumann_outlet_grid, 1, None, _poiseuille_inlet),
}


@pytest.mark.parametrize("case", sorted(OUTFLOW_CASES))
def test_default_solves_on_outflow_domains_keep_continuity(case):
    # an outflow side fixes the pressure level, so neither solver adds a
    # mean row on its own: a mean row would over-constrain the pressure and
    # break continuity (6.4e-2 on rectangle_with_hole p2 l1)
    make, degree, rhs, dirichlet = OUTFLOW_CASES[case]
    mp = make()
    assert not mp.pressure_up_to_constant
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=1)
    glob = assemble_global(mp, spaces, rhs=rhs, dirichlet=dirichlet)
    us_ref, ps_ref = glob.solve()
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=rhs, dirichlet=dirichlet,
                                    systems=glob.systems, tol=1e-10)
    assert rep.converged
    assert _continuity_defect(glob, us_ref) <= 1e-10
    assert _continuity_defect(glob, us) <= 1e-10
    for k in range(mp.n_patches):
        assert np.abs(us[k] - us_ref[k]).max() < 1e-8
        assert np.abs(ps[k] - ps_ref[k]).max() < 1e-8


def test_unbordered_coarse_system_is_singular():
    # on an all-Dirichlet domain the coarse primal matrix A_pi keeps the
    # constant pressure in its kernel, which is why the operator borders it
    # with the mean row; unbordered, its factorization must fail
    mp, spaces, glob = build_grid_problem(2, 2)
    op, _ = setup_ieti(mp, spaces, systems=glob.systems)
    assert mp.pressure_up_to_constant and op.n_coarse == op.n_primal + 1
    with pytest.raises(SingularLocalSystemError, match="coarse primal system"):
        linalg.factorize(op.A_pi, "coarse primal system")


def test_channel_with_hole_p1_needs_finer_quadrature():
    # a documented limit, not a defect: at p=1, l=1 the default quadrature
    # integrates the divergence on the rational ring patches so inexactly
    # that the averaging column misses the 1e-6 structure check; with
    # nquad=6 the cell sets up and matches the monolithic solve
    mp = parse_domain("rectangle_with_hole")
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    with pytest.raises(SingularLocalSystemError, match="averaging basis column"):
        setup_ieti(mp, spaces, dirichlet=channel_inlet)
    glob = assemble_global(mp, spaces, dirichlet=channel_inlet, nquad=6)
    us_ref, ps_ref = glob.solve()
    us, ps, rep = solve_stokes_ieti(mp, spaces, dirichlet=channel_inlet, tol=1e-10, nquad=6)
    assert rep.converged
    du, dp = relative_difference(glob, us, ps, us_ref, ps_ref)
    assert du < 1e-8
    assert dp < 1e-8


def test_recovered_solution_continuous_and_mean_free():
    mp, spaces, glob = build_grid_problem(3, 3, degree=2)
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                    dirichlet=manufactured_velocity,
                                    tol=1e-10, systems=glob.systems)
    umax = max(np.abs(u).max() for u in us)
    ts = np.linspace(0, 1, 50)
    for iface in mp.interfaces:
        da = spaces[iface.a].vel.side_dofs(iface.side_a)
        db = spaces[iface.b].vel.side_dofs(iface.side_b)
        Ba = spaces[iface.a].vel.side_space(iface.side_a).collocation(ts)
        for c in (0, 1):
            ta = Ba @ us[iface.a][c, da]
            tb = Ba @ us[iface.b][c, db]
            assert np.abs(ta - tb).max() < 1e-6 * max(1.0, umax)
    total = sum(np.ones(len(p)) @ (glob.systems[k].Mp @ p) for k, p in enumerate(ps))
    assert abs(total) < 1e-8 * max(1.0, max(np.abs(p).max() for p in ps))


def test_singularity_detected_without_constraints():
    # a floating patch with only the averaging row keeps the constant
    # velocity modes, which the factorization check must flag
    geo = bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))
    roles = {s: "interface" for s in ("west", "east", "south", "north")}
    ths = build_taylor_hood(geo, degree=1, refinement=1, side_roles=roles,
                            gamma_corners=((0, 0), (1, 0), (0, 1), (1, 1)))
    sysk = assemble_patch(geo, ths)
    C = np.concatenate([np.zeros(2 * ths.n_gamma), sysk.pressure_average_row()])[None, :]
    with pytest.raises(SingularLocalSystemError):
        AugmentedLocalSystem(sysk, C, label="unconstrained")


def test_constraint_block_of_the_wrong_width_is_rejected():
    # the constraint rows come as one dense block on [u_gamma | p], so they
    # cannot name an interior velocity dof; a block over all n_x unknowns,
    # or one column short, is refused
    mp, spaces, glob = build_grid_problem(2, 2)
    ths = spaces[0]
    width = 2 * ths.n_gamma + ths.n_pressure
    assert ths.n_inner > 0 and ths.n_local > width
    for n in (ths.n_local, width - 1):
        C = np.zeros((1, n))
        C[0, -1] = 1.0
        with pytest.raises(ValueError, match="not the %d of \\[u_gamma \\| p\\]" % width):
            AugmentedLocalSystem(glob.systems[0], C, label="0")


def test_pcg_seed_reproducible():
    mp, spaces, glob = build_grid_problem(2, 2)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    g = op.rhs()
    lam1, rep1 = solve_pcg(op.apply_F, pc.apply, g, seed=42)
    lam2, rep2 = solve_pcg(op.apply_F, pc.apply, g, seed=42)
    assert rep1.residuals == rep2.residuals
    assert np.array_equal(lam1, lam2)
    # a different seed changes the multiplier history but not the solution
    lam3, rep3 = solve_pcg(op.apply_F, pc.apply, g, seed=7, tol=1e-12)
    lam4, rep4 = solve_pcg(op.apply_F, pc.apply, g, seed=42, tol=1e-12)
    assert rep3.residuals != rep4.residuals
    us3, ps3, _ = op.recover(lam3)
    us4, ps4, _ = op.recover(lam4)
    for k in range(4):
        assert np.abs(us3[k] - us4[k]).max() < 1e-8


def test_pcg_stops_on_nonpositive_curvature():
    # an indefinite operator: CG must stop at p.Fp <= 0 instead of dividing
    A = np.diag([2.0, 1.0, -3.0, 0.5])
    g = np.array([1.0, 1.0, 1.0, 1.0])
    lam, rep = solve_pcg(lambda x: A @ x, lambda r: r, g, seed=3)
    assert not rep.converged
    assert rep.breakdown == "nonpositive curvature"
    assert np.isfinite(lam).all() and np.isfinite(rep.residuals).all()
    assert np.isfinite([rep.eig_min, rep.eig_max, rep.kappa]).all()
    assert len(rep.residuals) == rep.iterations + 1
    assert "breakdown" in repr(rep)


def test_pcg_stops_on_non_finite_residual():
    A = np.diag([1.0, 2.0, 3.0])
    calls = []

    def overflowing(x):  # healthy for the initial residual and one step
        calls.append(1)
        return A @ x if len(calls) < 3 else np.full_like(x, np.inf)

    with np.errstate(invalid="ignore"):  # 0 * inf in the failing step
        lam, rep = solve_pcg(overflowing, lambda r: r, np.ones(3), tol=1e-12)
    assert not rep.converged and rep.breakdown == "non-finite residual"
    assert rep.iterations == 1 and np.isfinite(lam).all()
    lam, rep = solve_pcg(lambda x: x * np.nan, lambda r: r, np.ones(3))
    assert not rep.converged and rep.breakdown == "non-finite residual"
    assert rep.iterations == 0
    # a healthy operator never reports a breakdown
    lam, rep = solve_pcg(lambda x: A @ x, lambda r: r, np.ones(3), tol=1e-12)
    assert rep.converged and rep.breakdown is None


def test_solve_report_fields():
    mp, spaces, glob = build_grid_problem(2, 2)
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                    dirichlet=manufactured_velocity,
                                    systems=glob.systems)
    assert rep.converged
    assert rep.kappa >= 1.0
    assert rep.eig_min > 0
    assert rep.eig_max >= rep.eig_min
    assert rep.iterations <= 50
    assert len(rep.residuals) == rep.iterations + 1
    assert rep.residuals[-1] <= 1e-6 * rep.residuals[0]


def test_solve_report_timings():
    mp, spaces, glob = build_grid_problem(2, 2)
    t0 = time.perf_counter()
    _, _, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                  dirichlet=manufactured_velocity, systems=glob.systems)
    elapsed = time.perf_counter() - t0
    assert sorted(rep.timings) == ["pcg", "recover", "rhs", "setup"]
    assert all(v >= 0.0 for v in rep.timings.values())
    assert sum(rep.timings.values()) <= elapsed


def test_setup_phases_split_the_setup_time():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    _, _, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                  dirichlet=manufactured_velocity)
    assert list(rep.setup_phases) == ["assembly", "constraints", "local", "coarse",
                                      "preconditioner"]
    assert all(v >= 0.0 for v in rep.setup_phases.values())
    assert rep.setup_phases["assembly"] > 0.0
    assert sum(rep.setup_phases.values()) <= rep.timings["setup"]
    mp, spaces, glob = build_grid_problem(2, 2)
    op, _ = setup_ieti(mp, spaces, systems=glob.systems)
    assert op.setup_phases["assembly"] < op.setup_phases["local"]  # nothing assembled


def test_block_diagonals_hold_the_only_copy_of_each_local_block():
    mp = parse_domain("quarter_annulus(1,2,3,2)")
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    op, pc = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    for matrix, name in ((op.F, "F"), (pc.S, "S")):
        blocks = [getattr(aug, name) for aug in op.locals_]
        assert all(np.shares_memory(b, matrix.data) for b in blocks)
        assert sum(b.nbytes for b in blocks) == matrix.data.nbytes
        dense = matrix.toarray()
        start = 0
        for b in blocks:
            n = len(b)
            assert np.array_equal(dense[start : start + n, start : start + n], b)
            start += n
        assert start == matrix.shape[0]
    # the preconditioner applies each S_K to both velocity components
    S2 = sp.block_diag([aug.S for aug in op.locals_ for _ in (0, 1)], format="csr")
    lam = np.random.default_rng(3).standard_normal(op.n_lambda)
    ref = 0.25 * (op.B @ (S2 @ (op.B.T @ lam)))
    assert np.abs(pc.apply(lam) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ieti_kappa_levels_off_on_unit_square_grids():
    # p=2, l=1 (fixed H/h), tol 1e-8, seed 1: kappa went 3.74, 4.21 and 4.38
    # at 64, 256 and 576 patches, so on patches of one shape it levels off
    # in the number of patches
    kappas = []
    for n in (16, 24):
        mp = parse_domain("grid(%d,%d)" % (n, n))
        spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
        _, _, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                      dirichlet=manufactured_velocity, tol=1e-8, seed=1)
        assert rep.converged
        kappas.append(rep.kappa)
    assert max(kappas) < 5.0
    assert kappas[1] - kappas[0] < 0.5


def test_benchmark_counts_contract():
    # perfbench/run.py:ieti_counts reads these after setup_ieti for its
    # fill, size, primal and preconditioner counts
    mp, spaces, glob = build_grid_problem(2, 2)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    cons = op.constraints
    rng = np.random.default_rng(5)
    for k, (aug, ths) in enumerate(zip(op.locals_, spaces)):
        n_x = 2 * (ths.n_gamma + ths.n_inner) + ths.n_pressure
        assert aug.n_x == n_x and aug.A3.shape == (n_x, n_x)
        assert (aug.A3 != glob.systems[k].saddle_matrix()).nnz == 0
        # C is built from the dense [u_gamma | p] block, zero on the
        # interior velocity, and stores no zero
        ng2, nu = 2 * ths.n_gamma, n_x - ths.n_pressure
        block = cons.rows[k]
        assert aug.C_reduced is block and aug.n_mu == len(block)
        C = aug.C.toarray()
        assert sp.issparse(aug.C) and aug.C.nnz == np.count_nonzero(block)
        assert np.array_equal(C[:, :ng2], block[:, :ng2]) and not C[:, ng2:nu].any()
        assert np.array_equal(C[:, nu:], block[:, ng2:])
        # lu factors [[A3, C^T], [C, 0]], whose size and nnz the counts report
        aug_mat = sp.bmat([[aug.A3, aug.C.T], [aug.C, None]], format="csc")
        assert aug_mat.nnz == aug.A3.nnz + 2 * aug.C.nnz
        assert aug.lu.shape == aug_mat.shape and aug.lu.L.nnz > 0 and aug.lu.U.nnz > 0
        x = rng.standard_normal(n_x + aug.n_mu)
        assert np.abs(aug.lu.solve(aug_mat @ x) - x).max() < 1e-8
    # the saddle matrices are slices of Ks and D and keep the explicit zeros
    # of their scatter, which ieti.aug.nnz counts; a rebuild from the dense
    # condensation blocks would drop them (2,380 entries)
    assert sum(aug.A3.nnz for aug in op.locals_) == 2448
    assert op.n_primal == cons.n_primal == 2 * 1 + 4 + 4  # center vertex, fluxes, averages
    assert op.n_lambda == op.B.shape[0] == 24
    assert len(pc.blocks) == len(spaces)
    for (Kgg, Kgi, lu), ths, sysk in zip(pc.blocks, spaces, glob.systems):
        Ks = sysk.Ks.toarray()
        g, i = ths.gamma, ths.inner
        assert np.abs(Kgg.toarray() - Ks[np.ix_(g, g)]).max() < 1e-12
        assert np.abs(Kgi.toarray() - Ks[np.ix_(g, i)]).max() < 1e-12
        x = rng.standard_normal(len(i))
        assert np.abs(lu.solve(Ks[np.ix_(i, i)] @ x) - x).max() < 1e-8
        assert lu.L.nnz > 0 and lu.U.nnz > 0


def _patch_without_interior():
    # one square patch whose velocity dofs are all interface dofs (p=1, one
    # element: the centre dof is reclassified), with average and corner rows
    geo = bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))
    roles = {s: "interface" for s in ("west", "east", "south", "north")}
    corners = ((0, 0), (1, 0), (0, 1), (1, 1))
    ths = build_taylor_hood(geo, degree=1, side_roles=roles, gamma_corners=corners)
    ths.gamma, ths.inner = np.arange(ths.vel.dim), np.zeros(0, dtype=int)
    ths.pos[:] = np.arange(2 * ths.vel.dim).reshape(2, -1)
    sysk = assemble_patch(geo, ths, rhs=manufactured_rhs)
    avg = sysk.pressure_average_row()
    dofs = [ths.vel.corner_dof(*c) for c in corners]
    rows = np.concatenate([np.zeros(len(avg), dtype=int), 1 + np.arange(8)])
    cols = np.concatenate([2 * ths.vel.dim + np.arange(len(avg)),
                           ths.gamma_pos(np.tile([0, 1], 4), np.repeat(dofs, 2))])
    C = np.zeros((9, ths.n_local))  # [u_gamma | p]: there is no interior velocity
    C[rows, cols] = np.concatenate([avg, np.ones(8)])
    assert ths.n_inner == 0
    return [AugmentedLocalSystem(sysk, C, label="no interior")]


def _local_systems(case):
    if case == "neumann outlet":
        mp = _neumann_outlet_grid()
        spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
        op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    elif case == "rectangle_with_hole":
        mp = parse_domain(case)
        spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
        op, _ = setup_ieti(mp, spaces, dirichlet=channel_inlet, nquad=6)
    elif case == "quarter_annulus(1,2,3,2)":
        mp = parse_domain(case)
        spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
        op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    else:
        return _patch_without_interior()
    return op.locals_


@pytest.mark.parametrize("case", ["neumann outlet", "rectangle_with_hole",
                                  "quarter_annulus(1,2,3,2)", "no interior"])
def test_condensed_solve_matches_the_augmented_matrix(case):
    # the condensed factors solve [[A3, C^T], [C, 0]] for whole vectors, and
    # F is the u_gamma block of its inverse
    rng = np.random.default_rng(21)
    for aug in _local_systems(case):
        A = sp.bmat([[aug.A3, aug.C.T], [aug.C, None]]).toarray()
        assert aug.lu.shape == A.shape
        b = rng.standard_normal((len(A), 3))
        ref = np.linalg.solve(A, b)
        for got, want in ((aug.lu.solve(b), ref), (aug.lu.solve(b[:, 1]), ref[:, 1])):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        ng2 = 2 * aug.system.ths.n_gamma
        F = np.linalg.inv(A)[:ng2, :ng2]
        assert aug.F.shape == F.shape
        assert np.abs(aug.F - F).max() <= 1e-10 * np.abs(F).max()


def test_pcg_makes_no_local_solves(monkeypatch):
    # rhs() and every PCG iteration apply F and the preconditioner through
    # the matrices and local solutions of setup; only the coarse factor is
    # solved with
    mp, spaces, glob = build_grid_problem(3, 3, degree=2)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    local = [f for aug in op.locals_ for f in (aug.lu, aug.lu.interior, aug.lu.reduced)]
    assert all(isinstance(f, BandCholesky) for f in local[1::3])
    assert all(isinstance(f, DenseLU) for f in local[2::3])
    solved = []
    for cls, names in ((DenseLU, ("solve",)), (CondensedLU, ("solve",)),
                       (BandCholesky, ("solve", "forward", "backward"))):
        for name in names:
            real = getattr(cls, name)

            def counting_solve(self, b, real=real):
                solved.append(self)
                return real(self, b)

            monkeypatch.setattr(cls, name, counting_solve)
    # nor does the right-hand side: it reads the local solutions of setup
    g = op.rhs()
    lam, rep = solve_pcg(op.apply_F, pc.apply, g)
    assert rep.converged and rep.iterations > 0
    assert solved and all(f is op._coarse_lu for f in solved)
    assert not any(f is l for f in solved for l in local)


def test_preconditioner_shares_the_interior_factor():
    mp, spaces, glob = build_grid_problem(3, 3)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    blocks = pc.blocks
    assert len(blocks) == len(op.locals_)
    for (_, _, lu), aug in zip(blocks, op.locals_):
        assert lu is aug.lu.interior


def _per_row_constraints(mp, spaces, systems, cons):
    """The constraint rows built one row at a time, as a reference."""
    from ietistokes.assembly import family_flux_rows

    vertex_corners = [[] for _ in range(mp.n_patches)]
    for vi, j in enumerate(cons.vertices):
        for k, corner in mp.vertices[j].members:
            vertex_corners[k].append((vi, corner))
    patch_faces = [[] for _ in range(mp.n_patches)]
    for fi, iface in enumerate(cons.interfaces):
        patch_faces[iface.a].append((fi, iface.side_a, 1.0))
        patch_faces[iface.b].append((fi, iface.side_b, -1.0))
    out = []
    for k, ths in enumerate(spaces):
        sysk = systems[k]
        n_x = 2 * (ths.n_gamma + ths.n_inner) + ths.n_pressure
        p_off = 2 * (ths.n_gamma + ths.n_inner)
        ri, ci, vals, shifts, globs, signs = [], [], [], [], [], []
        avg = sysk.pressure_average_row()
        ri.extend([0] * len(avg))
        ci.extend((p_off + np.arange(ths.n_pressure)).tolist())
        vals.extend(avg.tolist())
        shifts.append(0.0)
        globs.append(cons.avg_offset + k)
        signs.append(1.0)
        nrow = 1
        for vi, corner in vertex_corners[k]:
            dof = ths.vel.corner_dof(*corner)
            for c in (0, 1):
                ri.append(nrow)
                ci.append(ths.gamma_pos(c, dof))
                vals.append(1.0)
                shifts.append(0.0)
                globs.append(2 * vi + c)
                signs.append(1.0)
                nrow += 1
        flux, = family_flux_rows([mp.patches[k]], [ths], [[f[1] for f in patch_faces[k]]])
        for fi, side, sign in patch_faces[k]:
            dofs, R = flux[side]
            is_dir = np.isin(dofs, ths.dirichlet)
            gd = sysk.dirichlet_values[:, np.searchsorted(ths.dirichlet, dofs[is_dir])]
            free = dofs[~is_dir]
            ri.extend([nrow] * (2 * len(free)))
            ci.extend(ths.gamma_pos(np.arange(2), free[:, None]).ravel().tolist())
            vals.extend(R[~is_dir].ravel().tolist())
            shifts.append(-float(np.sum(R[is_dir] * gd.T)))
            globs.append(cons.flux_offset + fi)
            signs.append(sign)
            nrow += 1
        out.append((sp.coo_matrix((vals, (ri, ci)), shape=(nrow, n_x)).tocsr(),
                    np.array(shifts), np.array(globs, dtype=int), np.array(signs)))
    return out


@pytest.mark.parametrize("domain, degree, data", [
    ("grid(3,3)", 1, manufactured_velocity),
    ("quarter_annulus(1,2,3,2)", 2, manufactured_velocity),
    ("rectangle_with_hole", 1, channel_inlet),
    ("neumann outlet", 2, manufactured_velocity),
    ("quarter_annulus(1,2,8,8)", 2, manufactured_velocity),  # all 9 role classes
])
def test_constraint_rows_match_the_per_row_algorithm(domain, degree, data):
    mp = _neumann_outlet_grid() if domain == "neumann outlet" else parse_domain(domain)
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=1)
    systems = [assemble_patch(mp.patches[k], spaces[k], dirichlet=data)
               for k in range(mp.n_patches)]
    cons = PrimalConstraints(mp, spaces, systems)
    ref = _per_row_constraints(mp, spaces, systems, cons)
    assert any(np.any(shift) for _, shift, _, _ in ref)  # Dirichlet ends on some face

    def same(a, b):  # bitwise, down to the sign of zero
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for k, (rows, shifts, globs, signs) in enumerate(ref):
        # the reference spans all n_x unknowns; the block is its [u_gamma | p]
        # columns, and no reference row reads an interior velocity dof
        ng2, nu = 2 * spaces[k].n_gamma, 2 * (spaces[k].n_gamma + spaces[k].n_inner)
        rows = rows.toarray()
        assert not rows[:, ng2:nu].any()
        assert same(cons.rows[k], np.concatenate([rows[:, :ng2], rows[:, nu:]], axis=1)), k
        assert same(cons.shifts[k], shifts), k
        assert same(cons.globals_[k], globs), k
        assert same(cons.signs[k], signs), k


def test_constraint_rows_build_no_sparse_matrix(monkeypatch):
    # the 64 blocks of quarter_annulus(1,2,8,8) (all 9 role classes) are
    # filled as the dense [u_gamma | p] arrays the local systems read, with
    # no scipy sparse matrix on the way
    from scipy.sparse import _base

    mp = parse_domain("quarter_annulus(1,2,8,8)")
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    systems = [assemble_patch(g, ths) for g, ths in zip(mp.patches, spaces)]
    built = []
    real = _base._spbase.__init__
    monkeypatch.setattr(_base._spbase, "__init__",
                        lambda self, *args, **kw: built.append(type(self)) or real(self, *args, **kw))
    cons = PrimalConstraints(mp, spaces, systems)
    assert built == []
    for C, ths in zip(cons.rows, spaces):
        assert type(C) is np.ndarray and C.shape[1] == 2 * ths.n_gamma + ths.n_pressure


@pytest.mark.parametrize("domain, degree", [("grid(3,3)", 1), ("quarter_annulus(1,2,3,2)", 2)])
def test_coarse_matrix_from_basis_multipliers(domain, degree):
    # A_pi is read off the multipliers of the primal basis solve (-psi_mu);
    # it must equal the Galerkin product psi^T A3 psi summed over patches
    mp = parse_domain(domain)
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=1)
    op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    cons = op.constraints
    ref = np.zeros((op.n_primal, op.n_primal))
    for k, aug in enumerate(op.locals_):
        psi = _primal_basis(aug)[0] * cons.signs[k]
        G = cons.globals_[k]
        np.add.at(ref, (G[:, None], G[None, :]), psi.T @ (aug.A3 @ psi))
    assert sp.issparse(op.A_pi) and sp.issparse(op.B_pi)
    assert np.abs(op.A_pi.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()


def _reversed_pair():
    # two unit squares whose shared edge runs the other way on the second
    a = bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))
    b = bilinear_patch((2, 1), (1, 1), (2, 0), (1, 0))
    mp = build_multipatch([a, b])
    assert mp.interfaces[0].reversed_
    return mp


JUMP_CASES = {  # domain, degree, level
    "grid(3,3)": (lambda: parse_domain("grid(3,3)"), 1, 1),
    "quarter_annulus(1,2,8,8)": (lambda: parse_domain("quarter_annulus(1,2,8,8)"), 2, 1),
    "neumann outlet": (_neumann_outlet_grid, 2, 1),
    "reversed pair": (_reversed_pair, 2, 2),
}


@pytest.mark.parametrize("case", sorted(JUMP_CASES))
def test_jump_operator_matches_the_per_interface_algorithm(case):
    # B from positions kept per role class and side, bitwise against B
    # built one interface at a time from matched_side_dofs and gamma_pos
    make, degree, level = JUMP_CASES[case]
    mp = make()
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=level)
    systems = [assemble_patch(g, ths) for g, ths in zip(mp.patches, spaces)]
    cons = PrimalConstraints(mp, spaces, systems)
    B, offsets = build_jump_operator(cons, spaces)
    ref_offsets = np.cumsum([0] + [2 * ths.n_gamma for ths in spaces])
    comp = np.arange(2)[:, None]
    cols = [np.zeros((2, 0), dtype=int)]
    for iface in cons.interfaces:
        da, db = matched_side_dofs(mp, spaces, iface)
        cols.append(np.stack([
            ref_offsets[iface.a] + spaces[iface.a].gamma_pos(comp, da[1:-1]).ravel(),
            ref_offsets[iface.b] + spaces[iface.b].gamma_pos(comp, db[1:-1]).ravel(),
        ]))
    cols = np.concatenate(cols, axis=1)
    n = cols.shape[1]
    ref = sp.csr_matrix((np.repeat([1.0, -1.0], n), (np.tile(np.arange(n), 2), cols.ravel())),
                        shape=(n, ref_offsets[-1]))
    assert np.array_equal(offsets, ref_offsets) and B.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(B, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_role_classes_share_the_dof_classification(monkeypatch):
    # quarter_annulus(1,2,8,8): 36 interior patches, four classes of 6 with
    # one Dirichlet side, four single patches with two; each class is
    # classified once, its arrays are shared and read-only, and they equal
    # the classification of each patch on its own
    from ietistokes import ieti

    mp = parse_domain("quarter_annulus(1,2,8,8)")
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    classes = {}
    for k, ths in enumerate(spaces):
        classes.setdefault(id(ths.pos), []).append(k)
    assert sorted(len(c) for c in classes.values()) == [1, 1, 1, 1, 6, 6, 6, 6, 36]
    dir_corners = [[] for _ in spaces]
    gam_corners = [[] for _ in spaces]
    for v in mp.vertices:
        target = dir_corners if mp.vertex_is_dirichlet(v) else gam_corners
        if target is dir_corners or len(v.patches) >= 2:
            for k, corner in v.members:
                target[k].append(corner)
    for k, ths in enumerate(spaces):
        own = assembly.TaylorHoodPatchSpace(ths.geo, 2, 1, 1, mp.side_roles(k), dir_corners[k],
                                            gam_corners[k], (ths.vel, ths.pre))
        for name in ("dirichlet", "gamma", "inner", "pos"):
            shared = getattr(ths, name)
            assert not shared.flags.writeable
            assert np.array_equal(shared, getattr(own, name)), (k, name)
    # PrimalConstraints builds one row pattern per class
    patterns = []
    real = ieti._constraint_pattern
    monkeypatch.setattr(ieti, "_constraint_pattern",
                        lambda *args: patterns.append(args) or real(*args))
    systems = [assemble_patch(g, ths) for g, ths in zip(mp.patches, spaces)]
    PrimalConstraints(mp, spaces, systems)
    assert len(patterns) == 9


SETUP_CASES = {  # domain, degree
    "grid(3,3)": (lambda: parse_domain("grid(3,3)"), 1),
    "quarter_annulus(1,2,3,2)": (lambda: parse_domain("quarter_annulus(1,2,3,2)"), 2),
    "neumann outlet": (_neumann_outlet_grid, 1),
}


@pytest.mark.parametrize("case", sorted(SETUP_CASES))
def test_setup_solves_match_the_primal_basis_formulas(case):
    # b_pi, rhs() and recover() come from one local right-hand-side solve
    # per patch and, in recover, one solve with the primal values as
    # constraint values; they equal the formulas through the full primal
    # basis psi = A^-1 [0; I]: b_pi = sum psi^T [b; shifts],
    # rhs = B_pi A_pi^-1 b_pi + B A^-1 [b; shifts] and
    # x = A^-1 [b - B^T lam; shifts] + psi s x_pi
    make, degree = SETUP_CASES[case]
    mp = make()
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=1)
    op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    cons = op.constraints
    lam = np.random.default_rng(17).standard_normal(op.n_lambda)
    t = op.B.T @ lam
    b_pi = np.zeros(op.n_primal)
    y = np.zeros(op.B.shape[1])
    for k, (aug, sl) in enumerate(zip(op.locals_, op.gamma_slices)):
        psi_x, psi_mu = _primal_basis(aug)
        b = op.systems[k].rhs()
        np.add.at(b_pi, cons.globals_[k],
                  cons.signs[k] * (psi_x.T @ b + psi_mu.T @ cons.shifts[k]))
        y[sl] = aug.solve_x(b, cons.shifts[k])[: sl.stop - sl.start]

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert close(op.b_pi, b_pi)
    assert close(op.rhs(), op.B_pi @ op.coarse_solve(b_pi) + op.B @ y)
    x_pi = op.coarse_solve(b_pi - op.B_pi.T @ lam)
    us, ps, got_pi = op.recover(lam)
    assert close(got_pi, x_pi)
    for k, (aug, sl) in enumerate(zip(op.locals_, op.gamma_slices)):
        ths = spaces[k]
        ng2, nu = 2 * ths.n_gamma, 2 * (ths.n_gamma + ths.n_inner)
        r = op.systems[k].rhs()
        r[:ng2] -= t[sl]
        x = (aug.solve_x(r, cons.shifts[k])
             + _primal_basis(aug)[0] @ (cons.signs[k] * x_pi[cons.globals_[k]]))
        assert close(us[k], op.systems[k].expand(x[:ng2], x[ng2:nu])), k
        assert close(ps[k], x[nu:]), k


@pytest.mark.parametrize("case", sorted(SETUP_CASES))
def test_reduced_primal_basis_matches_the_full_solve(case):
    # the reduced rows [u_gamma | p | mu] of the basis come from the one R
    # solve of setup, and the interior velocity of the averaging column
    # that build_primal_basis checks from one backward half solve of that
    # column alone; both equal the solve of the whole system with [0; I]
    make, degree = SETUP_CASES[case]
    mp = make()
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=1)
    op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    for aug, ths in zip(op.locals_, spaces):
        ng2, nu = 2 * ths.n_gamma, 2 * (ths.n_gamma + ths.n_inner)
        psi_x, psi_mu = _primal_basis(aug)
        ref = np.concatenate([psi_x[:ng2], psi_x[nu:], psi_mu])
        assert aug.basis.shape == ref.shape
        assert np.abs(aug.basis - ref).max() <= 1e-12 * np.abs(ref).max()
        u_i = aug.lu.interior_velocity(aug.basis[:, :1])[:, 0]
        assert np.abs(u_i - psi_x[ng2:nu, 0]).max() <= 1e-12 * max(1.0, np.abs(psi_x).max())


def test_setup_never_assembles_the_saddle_matrix(monkeypatch):
    # the local condensation takes the dense element blocks and the coarse
    # matrix comes from the basis solve; only tests and the benchmark
    # counters ask for the patch saddle matrix. A whole IETI solve (setup,
    # rhs, PCG, recovery) caches only the patch right-hand sides and builds
    # none of the sparse all-dof forms Ks, D, Mp the saddle matrix is
    # sliced from
    mp = build_domain("grid", m=3, n=3)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    asked = []
    real = PatchStokesSystem.saddle_matrix

    def counting_saddle_matrix(self):
        asked.append(self)
        return real(self)

    monkeypatch.setattr(PatchStokesSystem, "saddle_matrix", counting_saddle_matrix)
    op, pc = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    lam, rep = solve_pcg(op.apply_F, pc.apply, op.rhs(), tol=1e-8)
    us, _, _ = op.recover(lam)
    assert rep.converged and len(us) == 9
    assert asked == []
    cached = {name for name, v in vars(PatchStokesSystem).items()
              if isinstance(v, cached_property)}
    assert cached == {"_rhs", "Ks", "D", "Mp"}
    for sysk in op.systems:
        assert cached & set(vars(sysk)) == {"_rhs"}
    assert op.locals_[4].A3.shape == (op.locals_[4].n_x,) * 2  # still there on demand
    assert asked == [op.systems[4]]


def test_dense_and_sparse_factors_give_the_same_solve(monkeypatch):
    # the sparse coarse system is small enough to be factored dense; with
    # the cut at zero it goes to SuperLU instead, and the solve must not
    # notice. The interior stiffnesses are dense SPD arrays and get a band
    # Cholesky either way; the reduced systems are dense and stay on getrf.
    mp = parse_domain("quarter_annulus(1,2,4,4)")
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)

    def solve():
        op, pc = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
        lam, rep = solve_pcg(op.apply_F, pc.apply, op.rhs())
        us, ps, _ = op.recover(lam)
        assert all(isinstance(a.lu.reduced, DenseLU) for a in op.locals_)
        assert all(isinstance(f, BandCholesky)
                   for f in [a.lu.interior for a in op.locals_] + [b[2] for b in pc.blocks])
        return us, ps, rep, type(op._coarse_lu)

    us, ps, rep, coarse = solve()
    monkeypatch.setattr(linalg, "DENSE_LU_ROWS", 0)
    us0, ps0, rep0, coarse0 = solve()
    assert coarse is DenseLU and coarse0 is spla.SuperLU
    assert rep.converged and rep.iterations == rep0.iterations
    assert abs(rep.kappa - rep0.kappa) <= 1e-12 * rep0.kappa
    for a, b in zip(us + ps, us0 + ps0):
        assert np.abs(a - b).max() <= 1e-10


def test_preconditioner_spd():
    mp, spaces, glob = build_grid_problem(3, 3)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    rng = np.random.default_rng(12)
    for _ in range(20):
        l1 = rng.standard_normal(op.n_lambda)
        l2 = rng.standard_normal(op.n_lambda)
        m1, m2 = pc.apply(l1), pc.apply(l2)
        assert abs(m1 @ l2 - l1 @ m2) < 1e-10 * max(1.0, abs(m1 @ l2))
        assert l1 @ m1 > 0


def test_preconditioner_applies_scaled_schur_complements():
    # M lam = sum_k B_k D^-1 S_K D^-1 B_k^T lam, D = 2 I, with S_K built
    # densely per velocity component from the scalar patch stiffness
    mp, spaces, glob = build_grid_problem(3, 3)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    lam = np.random.default_rng(13).standard_normal(op.n_lambda)
    ref = np.zeros(op.n_lambda)
    for k, ths in enumerate(spaces):
        Ks = glob.systems[k].Ks.toarray()
        g, i = ths.gamma, ths.inner
        S = Ks[np.ix_(g, g)] - Ks[np.ix_(g, i)] @ np.linalg.solve(
            Ks[np.ix_(i, i)], Ks[np.ix_(i, g)])
        B = op.B[:, op.gamma_slices[k]].toarray()
        ref += B @ (0.5 * (np.kron(np.eye(2), S) @ (0.5 * (B.T @ lam))))
    assert np.abs(pc.apply(lam) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_supmat_identities():
    out = verify_supmat(seed=0, instances=50)
    assert out["instances"] == 50
    assert out["ok"]
    assert out["max_rel_err"] <= 1e-8


def test_supmat_degenerate_cases():
    # zero C with square invertible D: the coupled system decouples and the
    # constrained representation equals the plain one
    rng = np.random.default_rng(3)
    n, m1, m2 = 6, 3, 4
    G = rng.standard_normal((n, n))
    A = G @ G.T + n * np.eye(n)
    B = rng.standard_normal((m1, n))
    C = np.zeros((m2, n))
    D = rng.standard_normal((m2, m2)) + m2 * np.eye(m2)
    M0 = B @ np.linalg.solve(A, B.T)
    S2 = np.block([
        [A, C.T, np.zeros((n, m2))],
        [C, np.zeros((m2, m2)), D.T],
        [np.zeros((m2, n)), D, np.zeros((m2, m2))],
    ])
    M2 = B @ np.linalg.solve(S2, np.vstack([B.T, np.zeros((2 * m2, m1))]))[:n]
    assert np.abs(M2 - M0).max() < 1e-10 * np.abs(M0).max()
