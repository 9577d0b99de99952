import time
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from ietistokes import assembly
from ietistokes.assembly import (
    DenseLU,
    PatchStokesSystem,
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    manufactured_rhs,
    manufactured_velocity,
    taylor_hood_spaces,
)
from ietistokes.cli import RunConfig, _suite_algebra, channel_inlet
from ietistokes.domains import build_domain, parse_domain
from ietistokes.geometry import GeometryMap, bilinear_patch, build_multipatch
from ietistokes.ieti import (
    AugmentedLocalSystem,
    IetiOperator,
    PrimalConstraints,
    ScaledDirichletPreconditioner,
    SingularLocalSystemError,
    setup_ieti,
    solve_pcg,
    solve_stokes_ieti,
    verify_supmat,
)


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
    assert cons.n_local(center) == 13
    # global count: vertices, fluxes, averages
    assert cons.n_primal == 2 * 4 + 12 + 9


def test_flux_rows_evaluate_each_patch_once(monkeypatch):
    # all interface sides of a patch come from one evaluation of its map
    mp, spaces, glob = build_grid_problem(3, 3)
    evaluated = []
    real_eval = GeometryMap.eval

    def counting_eval(self, *args, **kwargs):
        evaluated.append(self)
        return real_eval(self, *args, **kwargs)

    monkeypatch.setattr(GeometryMap, "eval", counting_eval)
    PrimalConstraints(mp, spaces, glob.systems)
    assert evaluated == mp.patches


def test_corner_row_is_interpolatory():
    mp, spaces, glob = build_grid_problem(2, 2)
    cons = PrimalConstraints(mp, spaces, glob.systems)
    k = 0
    ths = spaces[k]
    dof = ths.vel.corner_dof(1, 1)  # the shared center vertex
    C = cons.rows[k].toarray()
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
    row = cons.n_local(k) - 1  # [avg | fluxes], no primal vertices here
    u_free = np.zeros(cons.rows[k].shape[1])
    for d in ths.gamma:
        u_free[ths.gamma_pos(0, d)] = 1.0
    total = cons.rows[k][row] @ u_free - cons.shifts[k][row]
    assert abs(total - 1.0) < 1e-12


def test_primal_basis_structure_affine():
    mp, spaces, glob = build_grid_problem(2, 2)
    op = IetiOperator(mp, spaces, glob.systems)
    for k in range(len(spaces)):
        C = op.constraints.rows[k].toarray()
        psi = op.psi_x[k]
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
            r = np.asarray(cons.rows[k][j].todense()).ravel()
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
        fluxrows = [j for j in range(cons.n_local(k))
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


def test_ieti_matches_monolithic_neumann_outlet():
    mp0 = build_domain("grid", m=2, n=1)
    tags = {(k, s): "dirichlet" for k in (0, 1)
            for s in ("west", "east", "south", "north")}
    tags[(1, "east")] = "neumann"
    mp = build_multipatch(mp0.patches, boundary=lambda k, s, m: tags[(k, s)])
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs,
                           dirichlet=manufactured_velocity)
    us_ref, ps_ref = glob.solve(fix_pressure_mean=False)
    us, ps, rep = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                    dirichlet=manufactured_velocity,
                                    use_global_pressure_mean=False,
                                    tol=1e-10, systems=glob.systems)
    assert rep.converged
    for k in range(2):
        assert np.abs(us[k] - us_ref[k]).max() < 1e-8
        assert np.abs(ps[k] - ps_ref[k]).max() < 1e-8


def test_channel_with_hole_p1_needs_finer_quadrature():
    # a documented limit, not a defect: at p=1, l=1 the default quadrature
    # integrates the divergence on the rational ring patches so inexactly
    # that the averaging column misses the 1e-6 structure check; with
    # nquad=6 the cell sets up and matches the monolithic solve
    mp = parse_domain("rectangle_with_hole")
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    with pytest.raises(SingularLocalSystemError, match="averaging basis column"):
        setup_ieti(mp, spaces, dirichlet=channel_inlet, use_global_pressure_mean=False)
    glob = assemble_global(mp, spaces, dirichlet=channel_inlet, nquad=6)
    us_ref, ps_ref = glob.solve(fix_pressure_mean=False)
    us, ps, rep = solve_stokes_ieti(mp, spaces, dirichlet=channel_inlet,
                                    use_global_pressure_mean=False, tol=1e-10, nquad=6)
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
    n_x = 2 * (ths.n_gamma + ths.n_inner) + ths.n_pressure
    p_off = 2 * (ths.n_gamma + ths.n_inner)
    avg = sysk.pressure_average_row()
    C = sp.coo_matrix(
        (avg, (np.zeros(len(avg), dtype=int), p_off + np.arange(len(avg)))),
        shape=(1, n_x),
    ).tocsr()
    with pytest.raises(SingularLocalSystemError):
        AugmentedLocalSystem(sysk, C, np.zeros(1), label="unconstrained")


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
        assert aug.n_mu == cons.n_local(k) and (aug.C != cons.rows[k]).nnz == 0
        # lu factors [[A3, C^T], [C, 0]], whose size and nnz the counts report
        aug_mat = sp.bmat([[aug.A3, aug.C.T], [aug.C, None]], format="csc")
        assert aug_mat.nnz == aug.A3.nnz + 2 * aug.C.nnz
        assert aug.lu.shape == aug_mat.shape and aug.lu.L.nnz > 0 and aug.lu.U.nnz > 0
        x = rng.standard_normal(n_x + aug.n_mu)
        assert np.abs(aug.lu.solve(aug_mat @ x) - x).max() < 1e-8
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
        psi = op.psi_x[k] * cons.signs[k]
        G = cons.globals_[k]
        np.add.at(ref, (G[:, None], G[None, :]), psi.T @ (aug.A3 @ psi))
    assert sp.issparse(op.A_pi) and sp.issparse(op.B_pi)
    assert np.abs(op.A_pi.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()


def test_setup_never_assembles_the_saddle_matrix(monkeypatch):
    # the local factorizations take the saddle triplets and the coarse matrix
    # comes from the basis solve; only tests and the benchmark counters ask
    # for the assembled patch saddle matrix
    mp, spaces, glob = build_grid_problem(3, 3)
    asked = []
    real = PatchStokesSystem.saddle_matrix

    def counting_saddle_matrix(self):
        asked.append(self)
        return real(self)

    monkeypatch.setattr(PatchStokesSystem, "saddle_matrix", counting_saddle_matrix)
    op, pc = setup_ieti(mp, spaces, systems=glob.systems)
    op.apply_F(op.rhs())
    pc.apply(op.rhs())
    assert asked == []
    assert not any("_saddle" in sysk.__dict__ for sysk in glob.systems)
    assert op.locals_[4].A3.shape == (op.locals_[4].n_x,) * 2  # still there on demand
    assert asked == [glob.systems[4]]


def test_dense_and_sparse_factors_give_the_same_solve(monkeypatch):
    # every system here is small enough to be factored dense; with the cut at
    # zero all of them go to SuperLU instead, and the solve must not notice
    mp = parse_domain("quarter_annulus(1,2,4,4)")
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)

    def solve():
        op, pc = setup_ieti(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
        lam, rep = solve_pcg(op.apply_F, pc.apply, op.rhs())
        us, ps, _ = op.recover(lam)
        dense = [isinstance(f, DenseLU)
                 for f in [a.lu for a in op.locals_] + [b[2] for b in pc.blocks]
                 + [op._coarse_lu]]
        return us, ps, rep, dense

    us, ps, rep, dense = solve()
    monkeypatch.setattr(assembly, "DENSE_LU_ROWS", 0)
    us0, ps0, rep0, dense0 = solve()
    assert all(dense) and not any(dense0)
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
