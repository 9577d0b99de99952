import ast
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ietistokes
from ietistokes.assembly import (
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    divergence_bubble,
    family_flux_rows,
    fortin_correction,
    manufactured_pressure,
    manufactured_rhs,
    manufactured_velocity,
    manufactured_velocity_gradient,
    matched_side_dofs,
    patch_errors,
    taylor_hood_spaces,
    total_errors,
)
from ietistokes.bspline import TensorSplineSpace, gauss_rule_1d, rule_on_elements
from ietistokes.domains import build_domain, parse_domain, quarter_annulus_patch
from ietistokes.geometry import (
    SIDES,
    DegenerateJacobianError,
    GeometryMap,
    _geometry_tables,
    _grid_tables,
    bilinear_patch,
    build_multipatch,
    side_traces,
)
from ietistokes.linalg import (
    BAND_ENTRIES,
    DENSE_LU_ROWS,
    FEM_SUPERLU,
    BandCholesky,
    DenseLU,
    SingularLocalSystemError,
    _check_vector,
    factorize,
    schur_complement,
)


def unit_square():
    return bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))


def test_taylor_hood_dimensions_unit_square():
    ths = build_taylor_hood(unit_square(), degree=1, smoothness=0, refinement=1)
    assert ths.pre.dim == 9
    assert ths.vel.dim == 25
    # all-Dirichlet: the 16 boundary dofs are eliminated, none are interface
    assert len(ths.dirichlet) == 16
    assert ths.n_gamma == 0
    assert ths.n_inner == 9


def test_taylor_hood_degree_pair():
    ths = build_taylor_hood(unit_square(), degree=3, refinement=2)
    assert ths.vel.space_x.degree == 4
    assert ths.pre.space_x.degree == 3
    assert ths.vel.space_x.smoothness == 2
    assert np.allclose(ths.vel.space_x.breakpoints, ths.pre.space_x.breakpoints)


def test_classification_two_patches():
    mp = build_domain("grid", m=2, n=1)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    # shared edge has 5 dofs; its endpoints sit on the Dirichlet boundary
    for ths in spaces:
        assert ths.n_gamma == 3
    assert spaces[0].side_roles["east"] == "interface"
    assert spaces[1].side_roles["west"] == "interface"


def test_classification_grid22():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    for ths in spaces:
        assert len(ths.dirichlet) == 9
        assert ths.n_gamma == 7
        assert ths.n_inner == 9


def test_manufactured_solution_consistency():
    # gradient, divergence and rhs of the closed-form solution, checked by
    # central differences
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(40, 2))
    h = 1e-6
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gfd = np.empty((40, 2, 2))
    gfd[:, :, 0] = (manufactured_velocity(pts + ex) - manufactured_velocity(pts - ex)) / (2 * h)
    gfd[:, :, 1] = (manufactured_velocity(pts + ey) - manufactured_velocity(pts - ey)) / (2 * h)
    assert np.abs(gfd - manufactured_velocity_gradient(pts)).max() < 1e-5
    div = gfd[:, 0, 0] + gfd[:, 1, 1]
    assert np.abs(div).max() < 1e-5
    # f = -laplace(u) - grad(p)
    lap = (
        manufactured_velocity(pts + ex)
        + manufactured_velocity(pts - ex)
        + manufactured_velocity(pts + ey)
        + manufactured_velocity(pts - ey)
        - 4 * manufactured_velocity(pts)
    ) / h**2
    gp = np.empty((40, 2))
    gp[:, 0] = (manufactured_pressure(pts + ex) - manufactured_pressure(pts - ex)) / (2 * h)
    gp[:, 1] = (manufactured_pressure(pts + ey) - manufactured_pressure(pts - ey)) / (2 * h)
    assert np.abs(-lap - gp - manufactured_rhs(pts)).max() < 2e-3


def test_manufactured_solution_matches_its_closed_forms_bitwise():
    # each trig factor is evaluated once per call; the values are those of
    # the closed forms written out, bit for bit, on points of any shape
    pi = np.pi
    rng = np.random.default_rng(21)
    for pts in (rng.uniform(-3.0, 3.0, size=(50, 2)), rng.uniform(0.0, 1.0, size=(4, 7, 2))):
        x, y = pts[..., 0], pts[..., 1]
        u = np.stack([-np.sin(pi * x) * np.cos(pi * y), np.cos(pi * x) * np.sin(pi * y)],
                     axis=-1)
        g = np.empty(pts.shape[:-1] + (2, 2))
        g[..., 0, 0] = -pi * np.cos(pi * x) * np.cos(pi * y)
        g[..., 0, 1] = pi * np.sin(pi * x) * np.sin(pi * y)
        g[..., 1, 0] = -pi * np.sin(pi * x) * np.sin(pi * y)
        g[..., 1, 1] = pi * np.cos(pi * x) * np.cos(pi * y)
        f = np.stack([-pi * np.cos(pi * x) - 2 * pi**2 * np.sin(pi * x) * np.cos(pi * y),
                      2 * pi**2 * np.cos(pi * x) * np.sin(pi * y)], axis=-1)
        assert np.array_equal(manufactured_velocity(pts), u)
        assert np.array_equal(manufactured_velocity_gradient(pts), g)
        assert np.array_equal(manufactured_rhs(pts), f)


def test_stiffness_symmetry_and_kernel():
    ths = build_taylor_hood(unit_square(), degree=2, refinement=1)
    sys = assemble_patch(unit_square(), ths)
    K = sys.Ks.toarray()
    assert np.abs(K - K.T).max() < 1e-12
    assert np.abs(K @ np.ones(ths.vel.dim)).max() < 1e-12
    M = sys.Mp.toarray()
    assert np.abs(M - M.T).max() < 1e-13
    ones = np.ones(ths.pre.dim)
    assert abs(ones @ sys.Mp @ ones - sys.area) < 1e-13
    assert abs(sys.area - 1.0) < 1e-13


def test_interior_divergence_columns_affine():
    # int_patch d(phi)/dx_c = 0 for basis functions vanishing on the boundary,
    # so the constant pressure row of D_I vanishes on affine patches
    geo = bilinear_patch((0, 0), (2, 0.5), (0.3, 1), (2.3, 1.5))  # parallelogram
    mp = build_multipatch([geo])
    ths = taylor_hood_spaces(mp, degree=2, refinement=1)[0]
    sys = assemble_patch(geo, ths)
    # all-Dirichlet: the free velocity dofs are the interior ones, and the
    # divergence rows [D_0; D_1] follow the stiffness rows
    _, W = sys.condensation_blocks()
    ni = ths.n_inner
    ones = np.ones(ths.pre.dim)
    assert np.abs(ones @ W[ni:].reshape(2, ths.pre.dim, ni)).max() < 1e-12


def test_divergence_boundedness():
    # |(p, div u)| <= sqrt(2) |u|_1 ||p||  for every discrete pair
    geo = build_domain("quarter_annulus", m=1, n=1).patches[0]
    ths = build_taylor_hood(geo, degree=2, refinement=1)
    sys = assemble_patch(geo, ths)
    rng = np.random.default_rng(11)
    K2 = sp.block_diag((sys.Ks, sys.Ks)).tocsr()
    for _ in range(25):
        u = rng.standard_normal(2 * ths.vel.dim)
        p = rng.standard_normal(ths.pre.dim)
        lhs = abs(p @ (sys.D @ u))
        rhs = np.sqrt(2.0) * np.sqrt(u @ (K2 @ u)) * np.sqrt(p @ (sys.Mp @ p))
        assert lhs <= rhs * (1 + 1e-10)


def test_dirichlet_projection_reproduces_linear_data():
    geo = bilinear_patch((0, 0), (2, 0), (0.3, 1), (2.2, 1.4))
    ths = build_taylor_hood(geo, degree=1, refinement=2)

    def g(pts):
        return np.stack([pts[..., 0] + 2 * pts[..., 1], 3 * pts[..., 0] - pts[..., 1]], axis=-1)

    sys = assemble_patch(geo, ths, dirichlet=g)
    u = sys.expand(np.zeros(0), np.zeros(2 * ths.n_inner))
    # the boundary trace must match g exactly: on each side only side dofs
    # contribute, and the linear data lies in the trace space
    ts = np.linspace(0, 1, 23)
    for side in ("west", "east", "south", "north"):
        dofs = ths.vel.side_dofs(side)
        espace = ths.vel.side_space(side)
        B = espace.collocation(ts)
        gexact = g(geo.side_points(side, ts))
        for c in (0, 1):
            assert np.abs(B @ u[c, dofs] - gexact[:, c]).max() < 1e-10


def reference_dirichlet_values(geo, ths, data):
    """The Dirichlet projection written out per side, component and dof."""
    vel = ths.vel
    pos = {d: i for i, d in enumerate(ths.dirichlet)}
    values = np.zeros((2, len(ths.dirichlet)))
    corners = geo.corners()
    for corner in corners:
        dof = vel.corner_dof(*corner)
        if dof in pos:
            values[:, pos[dof]] = data(corners[corner][None, :])[0]
    for side, role in ths.side_roles.items():
        if role != "dirichlet":
            continue
        espace = vel.side_space(side)
        dofs = vel.side_dofs(side)
        n = espace.dim
        tq, wq = rule_on_elements(espace.breakpoints, gauss_rule_1d(espace.degree + 3))
        tq, wq = tq.ravel(), wq.ravel()
        B = espace.collocation(tq)
        pts, tangent, _ = (a[0] for a in side_traces([geo], {side: tq})[side])
        speed = np.linalg.norm(tangent, axis=-1)
        if side in ("west", "east"):  # the arcs: the arc-length weight matters
            assert np.ptp(speed) > 0.1 * speed.mean()
        gvals = data(pts)
        M = B.T @ (B * (wq * speed)[:, None])
        mid, ends = np.arange(1, n - 1), np.array([0, n - 1])
        for c in (0, 1):
            b = B.T @ (wq * speed * gvals[:, c])
            gc = np.array([values[c, pos[dofs[0]]], values[c, pos[dofs[-1]]]])
            sol = np.linalg.solve(M[np.ix_(mid, mid)], b[mid] - M[np.ix_(mid, ends)] @ gc)
            for j, coeff in zip(mid, sol):
                values[c, pos[dofs[j]]] = coeff
    return values


@pytest.mark.parametrize("roles,corners", [
    ({side: "dirichlet" for side in SIDES}, ()),
    ({"west": "dirichlet", "east": "neumann", "south": "dirichlet", "north": "interface"},
     ((1, 1),)),  # a Dirichlet corner off the patch's Dirichlet sides
])
def test_dirichlet_projection_on_curved_sides(roles, corners):
    geo = quarter_annulus_patch()
    ths = build_taylor_hood(geo, degree=2, refinement=1, side_roles=roles,
                            dirichlet_corners=corners)

    def data(pts):  # shifted so that the corner values are not zero
        return manufactured_velocity(pts + 0.25)

    sys = assemble_patch(geo, ths, dirichlet=data)
    ref = reference_dirichlet_values(geo, ths, data)
    assert sys.dirichlet_values.shape == ref.shape
    assert np.abs(sys.dirichlet_values - ref).max() < 1e-13 * np.abs(ref).max()


def test_global_scalar_numbering_grid22():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    assert glob.n_scalar == 81  # (5 + 5 - 1)^2 conforming dofs
    assert glob.n_pressure == 36
    # center dof is shared by all four patches
    center = [glob.scalar_l2g[k][spaces[k].vel.corner_dof(*c)]
              for k, c in ((0, (1, 1)), (1, (0, 1)), (2, (1, 0)), (3, (0, 0)))]
    assert len(set(center)) == 1


def reference_scalar_l2g(mp, spaces):
    """Global scalar numbering by a per-dof union-find: dofs matched across
    an interface or at a shared vertex are one, numbered by first appearance
    in patch-then-dof order."""
    offsets = np.cumsum([0] + [s.vel.dim for s in spaces])
    parent = list(range(int(offsets[-1])))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(int(i)), find(int(j))
        parent[max(ri, rj)] = min(ri, rj)

    for iface in mp.interfaces:
        da, db = matched_side_dofs(mp, spaces, iface)
        for i, j in zip(offsets[iface.a] + da, offsets[iface.b] + db):
            union(i, j)
    for v in mp.vertices:
        dofs = [offsets[k] + spaces[k].vel.corner_dof(*c) for k, c in v.members]
        for d in dofs[1:]:
            union(dofs[0], d)
    reps = {}
    return [np.array([reps.setdefault(find(int(offsets[k] + i)), len(reps))
                      for i in range(s.vel.dim)], dtype=int)
            for k, s in enumerate(spaces)], len(reps)


@pytest.mark.parametrize("domain", ["grid(3,3)", "quarter_annulus(1,2,4,4)",
                                    "rectangle_with_hole", "strip(4)", "grid(1,1)"])
def test_scalar_l2g_matches_a_per_dof_reference(domain):
    mp = parse_domain(domain)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces)
    ref, n = reference_scalar_l2g(mp, spaces)
    assert glob.n_scalar == n
    for got, want in zip(glob.scalar_l2g, ref, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_inconsistent_shared_dirichlet_data_is_rejected():
    # the two patches of grid(2,1) share the dofs of their common side's
    # Dirichlet end points; give one patch other values there
    mp = build_domain("grid", m=2, n=1)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    systems = [assemble_patch(geo, ths, dirichlet=manufactured_velocity)
               for geo, ths in zip(mp.patches, spaces)]
    assemble_global(mp, spaces, systems=systems)
    systems[1].dirichlet_values = systems[1].dirichlet_values + 1.0
    with pytest.raises(ValueError, match="inconsistent Dirichlet data at shared dof"):
        assemble_global(mp, spaces, systems=systems)


def test_global_stiffness_consistency():
    # energy of a conforming global field equals the sum of patch energies
    mp = build_domain("grid", m=2, n=1)
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    glob = assemble_global(mp, spaces)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(glob.n_scalar)
    total = v @ (glob.Ks @ v)
    by_patch = sum(
        (v[glob.scalar_l2g[k]] @ (glob.systems[k].Ks @ v[glob.scalar_l2g[k]]))
        for k in range(2)
    )
    assert abs(total - by_patch) < 1e-10 * max(1.0, abs(total))


def monolithic_errors(mp, degree, refinement):
    spaces = taylor_hood_spaces(mp, degree=degree, refinement=refinement)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    us, ps = glob.solve()
    return total_errors(mp, spaces, us, ps, manufactured_velocity,
                        manufactured_velocity_gradient, manufactured_pressure)


def test_pressure_error_ignores_constant_offsets():
    # a constant added to the exact pressure leaves the mean-free error
    # unchanged; subtracting squared means instead of centring lost it to
    # cancellation (the 1e4 offset gave 0.0 on the square)
    for domain, degree, level in (("grid(1,1)", 2, 4), ("quarter_annulus(1,2,2,2)", 2, 2)):
        mp = parse_domain(domain)
        spaces = taylor_hood_spaces(mp, degree=degree, refinement=level)
        glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
        us, ps = glob.solve()

        def l2p(offset):
            return total_errors(mp, spaces, us, ps, manufactured_velocity,
                                manufactured_velocity_gradient,
                                lambda x: manufactured_pressure(x) + offset)[2]

        ref = l2p(0.0)
        assert ref > 0.0
        for offset in (1e2, 1e4):
            assert abs(l2p(offset) - ref) <= 1e-6 * ref, (domain, offset)


def test_single_patch_convergence_smoke():
    mp = build_multipatch([unit_square()])
    h1 = [monolithic_errors(mp, 1, l)[0] for l in (2, 3)]
    rate = np.log2(h1[0] / h1[1])
    assert 1.7 < rate < 2.3


def test_multipatch_solution_continuity():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    us, _ = glob.solve()
    # traces on the interface between patches 0 and 1 coincide
    ts = np.linspace(0, 1, 17)
    e0 = spaces[0].vel.side_dofs("east")
    w1 = spaces[1].vel.side_dofs("west")
    B = spaces[0].vel.side_space("east").collocation(ts)
    for c in (0, 1):
        assert np.abs(B @ us[0][c, e0] - B @ us[1][c, w1]).max() < 1e-12


def test_neumann_outlet_solvable_without_mean_constraint():
    mp = build_domain("grid", m=2, n=1)
    tags = {(k, s): r for k in (0, 1) for s, r in
            [("west", "dirichlet"), ("east", "dirichlet"),
             ("south", "dirichlet"), ("north", "dirichlet")]}
    tags[(1, "east")] = "neumann"
    mp = build_multipatch(mp.patches, boundary=lambda k, s, m: tags[(k, s)])
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    assert not mp.pressure_up_to_constant
    us, ps = glob.solve()
    assert all(np.all(np.isfinite(u)) for u in us)
    # divergence equation holds for the computed solution
    _, Df, _, h = glob.free_blocks
    uglob = np.zeros((2, glob.n_scalar))
    for k, l2g in enumerate(glob.scalar_l2g):
        uglob[:, l2g] = us[k]
    uf = np.concatenate([uglob[c, glob.free] for c in (0, 1)])
    assert np.abs(Df @ uf - h).max() < 1e-9


def test_singular_monolithic_solve_raises():
    # with Dirichlet data on the whole boundary the pressure is fixed only up
    # to a constant, which is why solve borders these systems with the mean
    # row; unbordered, their factorization must fail, not return a shifted
    # pressure: the pressure Schur complement below the dense cut, the
    # saddle above it
    for spec, level, what in (("grid(2,2)", 1, "pressure Schur complement of the monolithic"),
                              ("grid(4,4)", 2, "monolithic Stokes system is")):
        mp = parse_domain(spec)
        spaces = taylor_hood_spaces(mp, degree=1, refinement=level)
        glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
        assert mp.pressure_up_to_constant
        assert (glob.n_pressure <= DENSE_LU_ROWS) == (spec == "grid(2,2)")
        with pytest.raises(SingularLocalSystemError, match=what):
            if glob.n_pressure <= DENSE_LU_ROWS:
                factorize(-glob.pressure_schur,
                          "pressure Schur complement of the monolithic Stokes system")
            else:
                Kf, Df, _, _ = glob.free_blocks
                factorize(sp.bmat([[sp.block_diag((Kf, Kf)), Df.T], [Df, None]], format="csc"),
                          "monolithic Stokes system", fem=True)


def _stiffness_ii(degree, refinement):
    # the vector Laplacian on the interior dofs, both components (578 rows
    # at p2 l4): the leading block of an all-Dirichlet saddle matrix
    ths = build_taylor_hood(unit_square(), degree, refinement=refinement)
    n = 2 * ths.n_inner
    return assemble_patch(unit_square(), ths).saddle_matrix()[:n, :n].tocsc()


def _random_matrix(n, seed):
    return (sp.random(n, n, density=min(1.0, 6.0 / n), random_state=seed)
            + 4 * sp.eye(n)).tocsc()


def test_factorize_matches_plain_splu():
    # above DENSE_LU_ROWS factorize is SuperLU, bit for bit; at or below it
    # the dense LAPACK factors solve to round-off, for 1-D and 2-D inputs
    rng = np.random.default_rng(5)
    big = (_stiffness_ii(2, 4), _random_matrix(DENSE_LU_ROWS + 40, 5))
    small = (_stiffness_ii(2, 2), _random_matrix(60, 5), _random_matrix(DENSE_LU_ROWS, 6))
    assert min(A.shape[0] for A in big) > DENSE_LU_ROWS >= max(A.shape[0] for A in small)
    for A in big:
        b = rng.standard_normal((A.shape[0], 2))
        assert np.array_equal(factorize(A, "test").solve(b), spla.splu(A).solve(b))
    for A in small:
        b = rng.standard_normal((A.shape[0], 2))
        ref = np.linalg.solve(A.toarray(), b)
        lu = factorize(A, "test")
        assert lu.shape == A.shape
        for got, want in ((lu.solve(b), ref), (lu.solve(b[:, 0]), ref[:, 0])):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the triangles the fill counts read multiply back to the matrix,
        # rows permuted by the partial pivoting
        prod = (lu.L @ lu.U).toarray()
        assert np.abs(np.sort(prod, axis=0) - np.sort(A.toarray(), axis=0)).max() < 1e-12


def test_dense_factor_triangles_are_structural():
    # L and U of a dense factor hold every entry of their triangles, exact
    # zeros too, so their count does not move with rounding. An upper
    # triangular matrix with a dominant diagonal needs no row exchange and
    # leaves L's strict lower triangle exactly zero; a random matrix
    # exchanges rows, and L U reproduces it in the row order of the pivots
    rng = np.random.default_rng(12)
    n = 40
    upper = np.triu(rng.standard_normal((n, n))) + 4 * n * np.eye(n)
    general = rng.standard_normal((n, n)) + 4 * np.eye(n)
    for A, exchanges in ((upper, False), (general, True)):
        lu = factorize(A, "test")
        L, U = lu.L, lu.U
        assert isinstance(lu, DenseLU) and L.nnz == U.nnz == n * (n + 1) // 2
        assert np.array_equal(L.diagonal(), np.ones(n))
        assert np.tril(L.toarray(), -1).any() == exchanges
        rows = np.arange(n)
        for i, p in enumerate(lu._piv):
            rows[[i, p]] = rows[[p, i]]
        assert (rows != np.arange(n)).any() == exchanges
        assert np.abs((L @ U).toarray() - A[rows]).max() <= 1e-12 * np.abs(A).max()


def test_kernels_build_one_gauss_rule_per_call(monkeypatch):
    # each rule size is computed once per process: the element tables use
    # one rule (5 points) for x and y, and the Dirichlet projection, the
    # error kernel and the area share the 6-point rule; the cached rules
    # are read-only
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or real(n))
    gauss_rule_1d.cache_clear()
    geo = unit_square()
    ths = build_taylor_hood(geo, 2, refinement=2)
    assemble_patch(geo, ths, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    assert calls == [5, 6]
    patch_errors(geo, ths, np.zeros((2, ths.vel.dim)), None)
    geo.area()
    assert calls == [5, 6]
    rule = gauss_rule_1d(6)
    assert gauss_rule_1d(6) is rule and not any(a.flags.writeable for a in rule)
    # the flux rows one per distinct rule size, over all families and sides
    calls.clear()
    gauss_rule_1d.cache_clear()
    mp = parse_domain("grid(2,2)")
    spaces = taylor_hood_spaces(mp, 2, refinement=1)
    family_flux_rows(mp.patches, spaces, [SIDES] * len(mp.patches))
    gdeg = mp.patches[0].space.space_x.degree
    sizes = {spaces[0].vel.side_space(side).degree + gdeg + 2 for side in SIDES}
    assert len(calls) == len(sizes) == 1


def _monolithic_saddle(glob):
    """(A, b): the sparse saddle system of GlobalStokesSystem.solve above the
    dense cut, built from the free-dof blocks, the velocity block
    diag(K_f, K_f); bordered by the Lagrange multiplier of the pressure mean
    when the domain leaves the pressure level open."""
    Kf, Df, rhs_f, h = glob.free_blocks
    Kff = sp.block_diag((Kf, Kf))
    if not glob.mp.pressure_up_to_constant:
        return sp.bmat([[Kff, Df.T], [Df, None]], format="csc"), np.concatenate([rhs_f, h])
    m = sp.csr_matrix(glob.pressure_integral_row())
    A = sp.bmat([[Kff, Df.T, None], [Df, None, m.T], [None, m, None]], format="csc")
    return A, np.concatenate([rhs_f, h, [0.0]])


def test_finite_element_systems_get_the_symmetric_superlu_mode(monkeypatch):
    # below the dense cut the monolithic solve and the spectrum share one
    # band Cholesky of the scalar free stiffness, SPD with a narrow band;
    # above it the saddle is factored in SuperLU's symmetric mode. Every
    # K_ii, a dense SPD array, takes the band Cholesky; the IETI coarse
    # primal system keeps SuperLU's defaults (COLAMD)
    from ietistokes.analysis import pressure_schur_spectrum
    from ietistokes.ieti import solve_stokes_ieti

    calls, bands = [], []
    real, real_band = spla.splu, BandCholesky.__init__

    def spy(A, **kw):
        calls.append((A.shape[0], kw))
        return real(A, **kw)

    def band_spy(self, ab, perm, what):
        bands.append(ab.shape[1])
        real_band(self, ab, perm, what)

    monkeypatch.setattr(spla, "splu", spy)
    monkeypatch.setattr(BandCholesky, "__init__", band_spy)
    mp = parse_domain("grid(1,1)")
    glob = assemble_global(mp, taylor_hood_spaces(mp, 1, refinement=3))
    glob.solve()
    pressure_schur_spectrum(glob)
    assert calls == [] and bands == [len(glob.free)] == [225]
    bands.clear()
    mp = parse_domain("grid(2,7)")  # 350 pressure dofs: one row above the cut
    glob = assemble_global(mp, taylor_hood_spaces(mp, 1, refinement=2))
    assert glob.n_pressure + 1 == DENSE_LU_ROWS + 1
    glob.solve()
    assert calls == [(glob.n_dofs + 1, FEM_SUPERLU)] and bands == []
    pressure_schur_spectrum(glob)
    assert len(calls) == 1 and bands == [len(glob.free)]
    calls.clear()
    bands.clear()
    ths = build_taylor_hood(unit_square(), 1, refinement=4)
    assert ths.n_inner > DENSE_LU_ROWS
    assemble_patch(unit_square(), ths).condense_interior("interior stiffness")
    assert calls == [] and bands == [ths.n_inner]
    calls.clear()
    bands.clear()
    mp = parse_domain("quarter_annulus(1,2,16,16)")
    solve_stokes_ieti(mp, taylor_hood_spaces(mp, 2, refinement=1), rhs=manufactured_rhs)
    assert calls == [(1187, {})] and bands == [16] * 256


def test_factorize_fem_is_superlu_in_symmetric_mode():
    # fem=True above DENSE_LU_ROWS is SuperLU with FEM_SUPERLU, bit for bit
    rng = np.random.default_rng(9)
    for A in (_stiffness_ii(2, 4), _random_matrix(DENSE_LU_ROWS + 40, 5)):
        b = rng.standard_normal((A.shape[0], 2))
        assert np.array_equal(factorize(A, "test", fem=True).solve(b),
                              spla.splu(A, **FEM_SUPERLU).solve(b))


@pytest.mark.parametrize("spec, degree, refinement",
                         [("grid(1,1)", 2, 4), ("quarter_annulus(1,2,4,4)", 2, 2)])
def test_symmetric_mode_fills_less_on_stokes_saddles(spec, degree, refinement):
    # minimum degree on A^T + A stores fewer factor entries than COLAMD on
    # the monolithic saddle and solves it to the same answer
    mp = parse_domain(spec)
    A, _ = _monolithic_saddle(assemble_global(mp, taylor_hood_spaces(mp, degree,
                                                                     refinement=refinement)))
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    sym, colamd = factorize(A, "saddle", fem=True), spla.splu(A)
    assert sym.L.nnz + sym.U.nnz < colamd.L.nnz + colamd.U.nnz
    want = colamd.solve(b)
    assert np.linalg.norm(sym.solve(b) - want) <= 1e-9 * np.linalg.norm(want)


def test_factorize_rejects_singular_matrices():
    # both backends, on either side of DENSE_LU_ROWS, raise the same messages
    for n in (30, DENSE_LU_ROWS + 30):
        A = _random_matrix(n, 1).tolil()
        A[:, 3] = 0.0  # structurally singular: a zero pivot
        with pytest.raises(SingularLocalSystemError, match="zero column is singular"):
            factorize(A, "zero column")
    # the scalar stiffness of a patch without boundary conditions keeps the
    # constants in its kernel; only the residual check sees that
    sizes = []
    for degree, refinement in ((1, 1), (2, 4)):
        Ks = assemble_patch(unit_square(), build_taylor_hood(unit_square(), degree,
                                                             refinement=refinement)).Ks
        sizes.append(Ks.shape[0])
        with pytest.raises(SingularLocalSystemError, match="floating stiffness is numerically"):
            factorize(Ks, "floating stiffness")
    assert sizes[0] <= DENSE_LU_ROWS < sizes[1]


def test_factorize_sends_dense_arrays_to_getrf():
    # a dense array goes to LAPACK at any size, with the same checks, and is
    # left as it was; the residual check draws its vector once per size, the
    # same vector as default_rng(7)
    rng = np.random.default_rng(8)
    for n in (40, DENSE_LU_ROWS + 40):
        A = _random_matrix(n, 3).toarray()
        before = A.copy()
        lu = factorize(A, "test")
        assert isinstance(lu, DenseLU) and lu.shape == A.shape
        assert np.array_equal(A, before)
        b = rng.standard_normal((n, 2))
        ref = np.linalg.solve(A, b)
        assert np.abs(lu.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()
        v = _check_vector(n)
        assert v is _check_vector(n) and not v.flags.writeable
        assert np.array_equal(v, np.random.default_rng(7).standard_normal(n))
        A[:, 3] = 0.0
        with pytest.raises(SingularLocalSystemError, match="zero column is singular"):
            factorize(A, "zero column")
    # numerically singular: a floating stiffness, dense, above the cut
    Ks = assemble_patch(unit_square(), build_taylor_hood(unit_square(), 2, refinement=4)).Ks
    assert Ks.shape[0] > DENSE_LU_ROWS
    with pytest.raises(SingularLocalSystemError, match="floating stiffness is numerically"):
        factorize(Ks.toarray(), "floating stiffness")


def _velocity_stiffness(spec, degree, refinement):
    """The scalar free velocity stiffness K_f of free_blocks, and its
    system."""
    mp = parse_domain(spec)
    glob = assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=refinement))
    return glob.free_blocks[0], glob


@pytest.mark.parametrize("spec, degree, refinement, bandwidth, reordered",
                         [("grid(1,1)", 2, 4, 99, False), ("grid(3,3)", 2, 2, 121, True)])
def test_spd_factor_is_a_band_cholesky_in_the_narrower_order(spec, degree, refinement,
                                                              bandwidth, reordered):
    # the tensor order of one patch is narrower than reverse Cuthill-McKee
    # (99 against 123); on nine patches RCM narrows 255 to 121. Either way
    # the band factor solves like SuperLU's symmetric mode, and its L is
    # the stored band, explicit zeros kept
    A, _ = _velocity_stiffness(spec, degree, refinement)
    lu = factorize(A, "velocity stiffness", spd=True)
    n = A.shape[0]
    assert isinstance(lu, BandCholesky) and lu.shape == A.shape
    assert lu.bandwidth == bandwidth and (lu.perm is not None) == reordered
    b = np.random.default_rng(3).standard_normal((n, 3))
    want = spla.splu(A.tocsc(), **FEM_SUPERLU).solve(b)
    for got, ref in ((lu.solve(b), want), (lu.solve(b[:, 0]), want[:, 0])):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    p = np.arange(n) if lu.perm is None else lu.perm
    L = lu.L
    assert L.nnz == n * (bandwidth + 1) - bandwidth * (bandwidth + 1) // 2 == lu.U.nnz
    assert np.abs((L @ lu.U - A.tocsr()[p][:, p]).toarray()).max() < 1e-12 * abs(A).max()
    Y = lu.forward(b)
    assert np.abs(Y.T @ Y - b.T @ want).max() <= 1e-12 * np.abs(b.T @ want).max()


def test_spectrum_forms_T_from_one_forward_band_solve(monkeypatch):
    # T = Y_0^T Y_0 + Y_1^T Y_1 with Y_c = L^-1 P D_c^T, L the band factor of
    # the scalar free stiffness, formed by its Gram kernel, is D K^-1 D^T;
    # a scalar stiffness whose band holds one entry more than BAND_ENTRIES
    # goes to SuperLU's symmetric mode instead, and gives the same spectrum
    # and, through the same T, the same eliminated solve
    import ietistokes.analysis as analysis
    import ietistokes.linalg as linalg

    K, glob = _velocity_stiffness("grid(1,1)", 2, 4)
    D = glob.free_blocks[1]
    want = D @ spla.splu(sp.block_diag((K, K), format="csc")).solve(D.toarray().T)
    nf = len(glob.free)
    entries = nf * (factorize(K, "velocity stiffness", spd=True).bandwidth + 1)
    assert entries <= BAND_ENTRIES and nf > DENSE_LU_ROWS
    got, calls = [], []
    real_extremes, real_splu = analysis._dense_extremes, spla.splu
    monkeypatch.setattr(analysis, "_dense_extremes",
                        lambda T, Mp, deflate: got.append(T) or real_extremes(T, Mp, deflate))
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: calls.append((A.shape[0], kw)) or real_splu(A, **kw))
    kappas, solutions = [], []
    for cut, kind in ((entries, BandCholesky), (entries - 1, spla.SuperLU)):
        monkeypatch.setattr(linalg, "BAND_ENTRIES", cut)
        _, glob = _velocity_stiffness("grid(1,1)", 2, 4)  # the factor is cached per system
        kappas.append(analysis.pressure_schur_spectrum(glob).kappa)
        assert isinstance(glob.velocity_factor, kind)
        us, ps = glob.solve()
        solutions.append(np.concatenate([x.ravel() for x in us + ps]))
    assert calls == [(nf, FEM_SUPERLU)] and len(got) == 2
    for T in got:
        assert np.abs(T - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(kappas[0] - kappas[1]) <= 1e-12 * kappas[1]
    assert np.linalg.norm(solutions[1] - solutions[0]) <= 1e-12 * np.linalg.norm(solutions[0])


def _band_spd(n, bandwidth, seed):
    """A dense SPD matrix of n rows with exactly `bandwidth` subdiagonals."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    S = np.where(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= bandwidth, S + S.T, 0.0)
    return S + np.eye(n) * (np.abs(S).sum(axis=1).max() + 1.0)


def _sparse_columns(rows, cols, seed, empty=()):
    """A random sparse B with a few entries per column, duplicates included
    (COO), and no entry in the columns `empty`."""
    rng = np.random.default_rng(seed)
    r = rng.integers(0, rows, 6 * cols)
    c = np.repeat(np.arange(cols), 6)
    keep = ~np.isin(c, empty)
    r, c = np.concatenate([r[keep], r[keep][:5]]), np.concatenate([c[keep], c[keep][:5]])
    return sp.coo_matrix((rng.standard_normal(len(r)), (r, c)), shape=(rows, cols))


def _gram_by_forward(lu, B):
    """sum_c Y_c^T Y_c from the tbtrs half solve, Y_c = forward(B_c)."""
    n = lu.shape[0]
    Bd = B.toarray()
    return sum(Y.T @ Y for Y in (lu.forward(Bd[c * n : (c + 1) * n])
                                for c in range(Bd.shape[0] // n)))


GRAM_BANDS = {  # n, bandwidth, components, empty columns
    "bandwidth 0": (7, 0, 2, ()),
    "bandwidth 1": (10, 1, 1, ()),
    "n not a multiple of the bandwidth": (23, 5, 2, (0, 4)),
    "n below two blocks": (9, 6, 2, (7,)),
    "one dense block": (12, 11, 3, ()),
}


@pytest.mark.parametrize("case", sorted(GRAM_BANDS))
def test_gram_matches_the_forward_half_solve(case):
    # the blocked Gram kernel against tbtrs and Y^T Y on band matrices whose
    # last row block is short or the only one, with columns without entries;
    # schur_complement is the kernel for a band factor and solves with any
    # other factor of the same matrix
    n, bandwidth, ncomp, empty = GRAM_BANDS[case]
    A = _band_spd(n, bandwidth, 5)
    lu = factorize(A, "band SPD", spd=True)
    assert isinstance(lu, BandCholesky) and lu.bandwidth == bandwidth and lu.perm is None
    B = _sparse_columns(ncomp * n, 8, 6, empty)
    want, got = _gram_by_forward(lu, B), lu.gram(B)
    assert got.shape == (8, 8) and np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert not got[list(empty)].any()
    assert np.array_equal(schur_complement(lu, B), got)
    for other in (factorize(A, "band SPD"), spla.splu(sp.csc_matrix(A))):
        T = schur_complement(other, B)
        assert T.shape == (8, 8) and np.abs(T - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("spec, degree, refinement",
                         [("grid(3,3)", 2, 2)] + [("grid(1,1)", p, level)
                                                  for p in (1, 2) for level in (2, 3, 4)])
def test_gram_forms_the_pressure_schur_complement(spec, degree, refinement):
    # every square-study cell (one patch, its own order) and a reverse
    # Cuthill-McKee ordered factor: T = gram(D_f^T) against the two forward
    # half solves of the scalar factor, and one column without entries
    _, glob = _velocity_stiffness(spec, degree, refinement)
    lu, D = glob.velocity_factor, glob.free_blocks[1]
    assert isinstance(lu, BandCholesky) and (lu.perm is not None) == (spec == "grid(3,3)")
    want = _gram_by_forward(lu, D.T)
    assert np.abs(glob.pressure_schur - want).max() <= 1e-12 * np.abs(want).max()
    Dt = D.T.tocsc(copy=True)
    Dt.data[Dt.indptr[3] : Dt.indptr[4]] = 0.0
    Dt.eliminate_zeros()
    assert Dt.indptr[4] == Dt.indptr[3]
    got = lu.gram(Dt)
    want = _gram_by_forward(lu, Dt)
    assert not got[3].any() and np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _neumann_outlet(domain, m):
    """A row of m patches (domain "grid" or "strip"), all Dirichlet but the
    east side of the last patch, a Neumann outlet."""
    mp = build_domain("grid", m=m, n=1) if domain == "grid" else build_domain("strip", length=m)
    return build_multipatch(mp.patches, boundary=lambda k, s, _: "neumann"
                            if (k, s) == (m - 1, "east") else "dirichlet")


ELIMINATION_CASES = {  # domain, degree, level, bordered rows
    "one patch": (lambda: parse_domain("grid(1,1)"), 2, 4, 325),
    "four curved patches": (lambda: parse_domain("quarter_annulus(1,2,2,2)"), 2, 2, 145),
    "Neumann outlet": (lambda: _neumann_outlet("grid", 2), 2, 2, 72),
    "at the cut": (lambda: _neumann_outlet("strip", 14), 1, 2, DENSE_LU_ROWS),
}


@pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
def test_eliminated_solve_matches_the_saddle_solve(case):
    # below the dense cut solve eliminates the velocity through the pressure
    # Schur complement; it agrees with SuperLU's symmetric-mode solve of the
    # saddle to round-off, in velocity and in pressure
    make, degree, refinement, rows = ELIMINATION_CASES[case]
    mp = make()
    glob = assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=refinement),
                           rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    assert glob.n_pressure + mp.pressure_up_to_constant == rows <= DENSE_LU_ROWS
    us, ps = glob.solve()
    assert isinstance(glob.velocity_factor, BandCholesky) and "pressure_schur" in glob.__dict__
    A, b = _monolithic_saddle(glob)
    x = spla.splu(A, **FEM_SUPERLU).solve(b)
    nU = glob.n_free_velocity
    uglob = np.zeros((2, glob.n_scalar))
    for u, l2g in zip(us, glob.scalar_l2g):
        uglob[:, l2g] = u
    for got, want in ((uglob[:, glob.free].ravel(), x[:nU]),
                      (np.concatenate(ps), x[nU : nU + glob.n_pressure])):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
def test_saddle_branch_of_solve_matches_the_eliminated_solve(case, monkeypatch):
    # solve's own sparse saddle branch, taken with the cut forced to 0 and
    # its velocity block diag(K_f, K_f) formed from the scalar K_f, agrees
    # with the elimination it takes at the default cut, in velocity and in
    # pressure
    import ietistokes.assembly as assembly

    make, degree, refinement, _ = ELIMINATION_CASES[case]
    mp = make()
    glob = assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=refinement),
                           rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    eliminated = glob.solve()
    monkeypatch.setattr(assembly, "DENSE_LU_ROWS", 0)
    saddle = glob.solve()
    for want, got in zip(eliminated, saddle):  # the velocities, then the pressures
        want, got = (np.concatenate([x.ravel() for x in xs]) for xs in (want, got))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_and_spectrum_share_one_velocity_factor(monkeypatch):
    # on the six square-study cells (grid(1,1), p 1-2, levels 2-4) solve and
    # the dense and iterative spectra factor the scalar free stiffness once
    # per system, form T once and never call SuperLU; DENSE_LIMIT 0 runs
    # LOBPCG, for which p1 l2 has too few pressure dofs
    import ietistokes.analysis as analysis
    import ietistokes.assembly as assembly
    from ietistokes.assembly import GlobalStokesSystem

    calls, splus, sweeps = [], [], []
    real_splu = spla.splu
    real_T = GlobalStokesSystem.__dict__["pressure_schur"].func
    monkeypatch.setattr(assembly, "factorize", lambda A, what, fem=False, spd=False:
                        calls.append((what, spd)) or factorize(A, what, fem, spd))
    monkeypatch.setattr(spla, "splu", lambda A, **kw: splus.append(A.shape) or real_splu(A, **kw))
    monkeypatch.setattr(GlobalStokesSystem.__dict__["pressure_schur"], "func",
                        lambda self: sweeps.append(self) or real_T(self))
    mp = parse_domain("grid(1,1)")
    for degree in (1, 2):
        for level in (2, 3, 4):
            glob = assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=level),
                                   rhs=manufactured_rhs, dirichlet=manufactured_velocity)
            glob.solve()
            dense = analysis.pressure_schur_spectrum(glob)
            assert dense.method == "dense"
            if degree + level <= 4:  # LOBPCG takes seconds on the larger cells
                with monkeypatch.context() as limit:
                    limit.setattr(analysis, "DENSE_LIMIT", 0)
                    if level == 2 and degree == 1:
                        with pytest.raises(analysis.SpectrumError, match="too few for lobpcg"):
                            analysis.pressure_schur_spectrum(glob)
                    else:
                        iterative = analysis.pressure_schur_spectrum(glob)
                        assert iterative.method == "iterative"
                        assert abs(iterative.kappa - dense.kappa) <= 1e-6 * dense.kappa
            assert calls == [("velocity stiffness of the monolithic Stokes system", True),
                             ("pressure Schur complement of the monolithic Stokes system",
                              False)]
            assert isinstance(glob.velocity_factor, BandCholesky) and sweeps == [glob]
            calls.clear()
            sweeps.clear()
    assert splus == []


def test_band_cholesky_rejects_indefinite_and_floating_matrices():
    # an indefinite matrix stops the band Cholesky; the floating scalar
    # stiffness, positive semidefinite with the constants in its kernel,
    # fails there or in the residual check; both name the system
    A, _ = _velocity_stiffness("grid(1,1)", 2, 4)
    with pytest.raises(SingularLocalSystemError, match="negated stiffness is not positive"):
        factorize(-A, "negated stiffness", spd=True)
    ths = build_taylor_hood(unit_square(), 1, refinement=4)
    K_ii, _ = assemble_patch(unit_square(), ths).condensation_blocks()
    assert isinstance(K_ii, np.ndarray) and K_ii.shape[0] > DENSE_LU_ROWS
    with pytest.raises(SingularLocalSystemError, match="negated K_ii is not positive"):
        factorize(-K_ii, "negated K_ii", spd=True)
    Ks = assemble_patch(unit_square(), build_taylor_hood(unit_square(), 2, refinement=4)).Ks
    for floating in (Ks, Ks.toarray()):
        with pytest.raises(SingularLocalSystemError, match="floating stiffness is"):
            factorize(floating, "floating stiffness", spd=True)


def test_every_spd_input_gets_half_solves(monkeypatch):
    # a dense SPD array gets the band Cholesky whatever its band, since the
    # band never holds more than the array; a sparse SPD matrix whose band
    # holds more than BAND_ENTRIES goes to SuperLU's symmetric mode. Both
    # solve alike, and the band factor's solve is its two half solves
    import ietistokes.linalg as linalg

    ths = build_taylor_hood(unit_square(), 1, refinement=4)
    K_ii, _ = assemble_patch(unit_square(), ths).condensation_blocks()
    n = K_ii.shape[0]
    assert n > DENSE_LU_ROWS
    calls = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: calls.append((A.shape[0], kw)) or real_splu(A, **kw))
    monkeypatch.setattr(linalg, "BAND_ENTRIES", 0)
    band = factorize(K_ii, "dense K_ii", spd=True)
    sparse = factorize(sp.csc_matrix(K_ii), "sparse K_ii", spd=True)
    assert isinstance(band, BandCholesky) and band.perm is None
    assert n * (band.bandwidth + 1) > linalg.BAND_ENTRIES
    assert isinstance(sparse, spla.SuperLU) and calls == [(n, FEM_SUPERLU)]
    monkeypatch.undo()
    ref = spla.splu(sp.csc_matrix(K_ii))
    b = np.random.default_rng(11).standard_normal((n, 3))
    for rhs in (b, b[:, 1]):
        want = ref.solve(rhs)
        for got in (band.backward(band.forward(rhs)), band.solve(rhs), sparse.solve(rhs)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_setup_makes_one_forward_sweep_per_interior_factor(monkeypatch):
    # over one setup_ieti every patch's K_ii is a band Cholesky; it sweeps
    # Q^T forward once (condense_interior), and its only solve is the
    # residual check of factorize
    import ietistokes.assembly as assembly
    from ietistokes.ieti import setup_ieti

    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    factors, forwards, solves = {}, [], []

    def spy(A, what, fem=False, spd=False):
        lu = factorize(A, what, fem, spd)
        if what.startswith("interior stiffness"):
            factors[what] = lu
        return lu

    real_forward, real_solve = BandCholesky.forward, BandCholesky.solve
    monkeypatch.setattr(assembly, "factorize", spy)
    monkeypatch.setattr(BandCholesky, "forward",
                        lambda self, b: forwards.append((self, b)) or real_forward(self, b))
    monkeypatch.setattr(BandCholesky, "solve",
                        lambda self, b: solves.append((self, b)) or real_solve(self, b))
    op, _ = setup_ieti(mp, spaces, rhs=manufactured_rhs)
    assert len(factors) == len(spaces)
    for k, (aug, ths) in enumerate(zip(op.locals_, spaces)):
        lu = factors["interior stiffness of patch %d" % k]
        assert isinstance(lu, BandCholesky) and lu is aug.lu.interior
        Q = aug.system.condensation_blocks()[1][ths.n_inner:, :ths.n_inner]
        assert sum(f is lu and b.shape == Q.T.shape and np.array_equal(b, Q.T)
                   for f, b in forwards) == 1
        mine = [b for f, b in solves if f is lu]
        assert len(mine) == 1 and np.array_equal(mine[0], _check_vector(ths.n_inner))


def test_free_blocks_are_built_once_per_system(monkeypatch):
    # the monolithic solve and the pressure Schur spectrum of one cell share
    # one build of the free-dof blocks
    from ietistokes.analysis import pressure_schur_spectrum
    from ietistokes.assembly import GlobalStokesSystem

    builds = []
    cached = GlobalStokesSystem.__dict__["free_blocks"]
    real = cached.func
    monkeypatch.setattr(cached, "func", lambda self: builds.append(self) or real(self))
    mp = parse_domain("grid(1,1)")
    for level in (2, 3):
        glob = assemble_global(mp, taylor_hood_spaces(mp, 1, refinement=level),
                               rhs=manufactured_rhs, dirichlet=manufactured_velocity)
        glob.solve()
        pressure_schur_spectrum(glob)
        assert glob.free_blocks is glob.free_blocks
    assert len(builds) == 2 and builds[0] is not builds[1]


def test_free_blocks_hold_the_scalar_stiffness():
    # free_blocks keeps K_f = Ks[free][:, free], one block for both
    # velocity components, and velocity_factor factors it as it is
    mp = parse_domain("grid(2,2)")
    glob = assemble_global(mp, taylor_hood_spaces(mp, 2, refinement=1),
                           rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    Kf, Df, rhs_f, h = glob.free_blocks
    nf = len(glob.free)
    assert Kf.shape == (nf, nf) and Df.shape == (glob.n_pressure, 2 * nf)
    assert rhs_f.shape == (2 * nf,) and h.shape == (glob.n_pressure,)
    assert (Kf != glob.Ks[glob.free][:, glob.free]).nnz == 0
    assert glob.velocity_factor.shape == Kf.shape


def _dotted(node, aliases):
    """Full dotted name of a Name/Attribute chain, import aliases resolved."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _dense_solver_calls(tree):
    """(scope, call) of every numpy/scipy dense solve or inverse in each
    top-level function and class of a module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update({a.asname or a.name: node.module + "." + a.name for a in node.names})
    banned = {m + "." + f for m in ("numpy.linalg", "scipy.linalg") for f in ("solve", "inv")}
    return {(scope.name, name)
            for scope in tree.body if isinstance(scope, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(scope) if isinstance(node, ast.Call)
            for name in [_dotted(node.func, aliases)] if name in banned}


def test_direct_solves_only_in_factorize():
    # every factorization in the package goes through the checked
    # factorize of linalg: SuperLU and LAPACK getrf in factorize, getrs in
    # its dense factor class, the band Cholesky, its half solves and the
    # inverted diagonal blocks of its Gram kernel in the band factor class;
    # no dense Cholesky anywhere
    src = Path(ietistokes.__file__).parent
    tree = ast.parse((src / "linalg.py").read_text())
    scopes = {node.name: range(node.lineno, node.end_lineno + 1) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name in ("factorize", "DenseLU", "BandCholesky")}
    calls = ("splu(", "spsolve(", "lu_factor(", "lu_solve(", "getrf", "getrs",
             "pbtrf", "pbtrs", "tbtrs", "potrf", "trtri")
    hits = {
        (path.name, next((name for name, lines in scopes.items()
                          if path.name == "linalg.py" and lineno in lines), None), call)
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for call in calls if call in line
    }
    assert hits == {("linalg.py", "factorize", "splu("), ("linalg.py", "factorize", "getrf"),
                    ("linalg.py", "DenseLU", "getrs"), ("linalg.py", "BandCholesky", "pbtrf"),
                    ("linalg.py", "BandCholesky", "tbtrs"),
                    ("linalg.py", "BandCholesky", "trtri")}
    # and only linalg names the factor classes in code, so no other module
    # forks on the factor type; docstrings may name them
    named = {path.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in ("BandCholesky", "DenseLU"))
             or (isinstance(node, ast.Attribute) and node.attr in ("BandCholesky", "DenseLU"))
             or (isinstance(node, ast.alias) and node.name in ("BandCholesky", "DenseLU"))}
    assert named == {"linalg.py"}
    # and no local solve of the IETI layer bypasses it through a dense
    # numpy/scipy solve or inverse; the brute-force checks may use them
    found = _dense_solver_calls(ast.parse((src / "ieti.py").read_text()))
    local = {"CondensedLU", "AugmentedLocalSystem", "build_primal_basis", "IetiOperator",
             "ScaledDirichletPreconditioner"}
    assert not {scope for scope, _ in found} & local
    assert ("_brute_sup_matrix", "numpy.linalg.solve") in found  # the scan sees them
    # nor does the patch analysis: it reads the interior condensation
    found = _dense_solver_calls(ast.parse((src / "analysis.py").read_text()))
    assert not {scope for scope, _ in found} & {"local_infsup", "skeleton_matrices"}


CONDENSE_CASES = {
    "all Dirichlet": (unit_square, None, ()),
    "floating": (unit_square, dict.fromkeys(SIDES, "interface"),
                 ((0, 0), (1, 0), (0, 1), (1, 1))),
    "Neumann side": (quarter_annulus_patch,
                     {"west": "dirichlet", "east": "neumann", "south": "interface",
                      "north": "interface"}, ((1, 0), (1, 1))),
}


@pytest.mark.parametrize("case", sorted(CONDENSE_CASES))
@pytest.mark.parametrize("degree, refinement", [(1, 1), (2, 2)])
def test_condense_interior_matches_a_dense_reference(case, degree, refinement):
    make_geo, roles, corners = CONDENSE_CASES[case]
    geo = make_geo()
    ths = build_taylor_hood(geo, degree, refinement=refinement, side_roles=roles,
                            gamma_corners=corners)
    sysk = assemble_patch(geo, ths, rhs=manufactured_rhs)
    ng, ni, npre = ths.n_gamma, ths.n_inner, ths.n_pressure
    cond = sysk.condense_interior("interior stiffness of the test patch")
    _, W = sysk.condensation_blocks()
    K_ii, K_gi, K_gg = W[:ni, :ni], W[ni : ni + ng, :ni], W[ni : ni + ng, ni:]
    D_i = W[ni + ng :, :ni].reshape(2, npre, ni)
    D_g = W[ni + ng :, ni:].reshape(2, npre, ng)
    Y = np.linalg.solve(K_ii, K_gi.T)
    S = K_gg - K_gi @ Y
    Dg = D_g - D_i @ Y
    T = sum(D_i[c] @ np.linalg.solve(K_ii, D_i[c].T) for c in (0, 1))
    assert (ng == 0) == (case == "all Dirichlet") and ni > 0
    assert cond.S.shape == (ng, ng) and cond.Dg.shape == (2, npre, ng)
    for got, ref in ((cond.S, S), (cond.Dg, Dg), (cond.T, T)):
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)
    # the half solve Y = L^-1 P Q^T gives Q K_ii^-1 Q^T = Y^T Y
    Q = W[ni:, :ni]
    G = Q @ np.linalg.solve(K_ii, Q.T)
    assert cond.Y.shape == (ni, ng + 2 * npre)
    assert np.abs(cond.Y.T @ cond.Y - G).max() <= 1e-12 * np.abs(G).max()
    assert isinstance(cond.lu, BandCholesky) and cond.lu.shape == (ni, ni)


def test_condense_interior_factors_the_scalar_interior_block_once(monkeypatch):
    # the IETI local system, the patch inf-sup constant and the skeleton
    # Schur complements each factor K_ii once, at n_inner rows, and never a
    # doubled block
    import ietistokes.analysis as analysis
    import ietistokes.assembly as assembly
    import ietistokes.ieti as ieti

    calls = []

    def spy(A, what, fem=False, spd=False):
        calls.append((A.shape[0], what))
        return factorize(A, what, fem, spd)

    for module in (assembly, analysis, ieti):
        monkeypatch.setattr(module, "factorize", spy)
    geo = unit_square()
    ths = build_taylor_hood(geo, 2, refinement=1)
    analysis.local_infsup(assemble_patch(geo, ths))
    assert calls == [(ths.n_inner, "interior stiffness of the patch")]
    calls.clear()
    ths = build_taylor_hood(geo, 2, refinement=1, side_roles=CONDENSE_CASES["floating"][1],
                            gamma_corners=CONDENSE_CASES["floating"][2])
    sysk = assemble_patch(geo, ths)
    analysis.skeleton_matrices(sysk)
    assert calls == [(ths.n_inner, "interior stiffness of the patch"),
                     (ths.n_pressure + 1, "skeleton pressure system")]
    calls.clear()
    ths = build_taylor_hood(geo, 2, refinement=1)
    sysk = assemble_patch(geo, ths)
    C = np.concatenate([np.zeros(2 * ths.n_gamma), sysk.pressure_average_row()])[None, :]
    ieti.AugmentedLocalSystem(sysk, C, np.zeros(1), label="patch 3")
    assert calls == [(ths.n_inner, "interior stiffness of patch 3"),
                     (ths.n_pressure + 1, "condensed system of patch 3 (1 constraint rows)")]


def test_side_param_only_in_side_kernel():
    # which parameter runs along a side, its tangent column and the outward
    # rotation are decided in side_traces alone: it is the one reader of
    # the side frames
    src = Path(ietistokes.__file__).parent
    tree = ast.parse((src / "geometry.py").read_text())
    allowed = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_side_frame", "side_traces")]
    hits = [
        (path.name, lineno)
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "_side_frame(" in line or "_SIDE_FRAMES[" in line
    ]
    assert hits and [h for h in hits if not (
        h[0] == "geometry.py" and any(h[1] in r for r in allowed))] == []


def test_edge_flux_constant_field():
    # the flux of u = e_c through a side is the integral of n_c: the chord
    # of the side turned outward (away from the patch centre)
    for geo, degree, tol in ((unit_square(), 1, 1e-13),
                             (quarter_annulus_patch(), 2, 1e-10)):  # two curved sides
        ths = build_taylor_hood(geo, degree=degree, refinement=1)
        centre = geo(0.5, 0.5)
        total = np.zeros(2)
        flux, = family_flux_rows([geo], [ths], [SIDES])
        for side in SIDES:
            dofs, R = flux[side]
            a, mid, b = geo.side_points(side, np.array([0.0, 0.5, 1.0]))
            normal = np.array([b[1] - a[1], a[0] - b[0]])
            if normal @ (mid - centre) < 0:
                normal = -normal
            assert np.abs(R.sum(axis=0) - normal).max() < tol
            total += R.sum(axis=0)
        assert np.abs(total).max() < tol  # closed boundary


def test_divergence_bubble_flux_is_one_sixth():
    mp = build_domain("grid", m=2, n=1)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    iface = mp.interfaces[0]
    geo = mp.patches[iface.a]
    flux, = family_flux_rows([geo], [spaces[iface.a]], [[iface.side_a]])
    dofs, R = flux[iface.side_a]
    nbar = geo.side_normal(iface.side_a, np.array([0.5]), unit=True)[0]
    bub = divergence_bubble(spaces[iface.a], iface.side_a)
    psi = nbar[:, None] * bub[None, :]
    flux = sum(R[:, c] @ psi[c, dofs] for c in (0, 1))
    assert abs(flux - 1.0 / 6.0) < 1e-13


def random_conforming_field(glob, seed):
    rng = np.random.default_rng(seed)
    uglob = np.zeros((2, glob.n_scalar))
    uglob[:, glob.free] = rng.uniform(-1, 1, size=(2, len(glob.free)))
    return [uglob[:, l2g] for l2g in glob.scalar_l2g]


def test_fortin_matches_interface_fluxes():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    glob = assemble_global(mp, spaces)
    us = random_conforming_field(glob, 7)
    proj = fortin_correction(mp, spaces, us)
    for iface in mp.interfaces:
        k = iface.a
        flux, = family_flux_rows([mp.patches[k]], [spaces[k]], [[iface.side_a]])
        dofs, R = flux[iface.side_a]
        fu = sum(R[:, c] @ us[k][c, dofs] for c in (0, 1))
        fp = sum(R[:, c] @ proj[k][c, dofs] for c in (0, 1))
        assert abs(fu - fp) < 1e-12 * max(1.0, abs(fu))


def test_fortin_difference_has_patchwise_zero_divergence_mean():
    mp = build_domain("grid", m=3, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces)
    for seed in (1, 2, 3):
        us = random_conforming_field(glob, seed)
        proj = fortin_correction(mp, spaces, us)
        for k in range(mp.n_patches):
            w = (us[k] - proj[k]).ravel()  # component major
            ones = np.ones(spaces[k].pre.dim)
            assert abs(ones @ (glob.systems[k].D @ w)) < 1e-11


def test_fortin_projection_is_continuous():
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=2, refinement=1)
    glob = assemble_global(mp, spaces)
    us = random_conforming_field(glob, 13)
    proj = fortin_correction(mp, spaces, us)
    ts = np.linspace(0, 1, 19)
    for iface in mp.interfaces:
        da = spaces[iface.a].vel.side_dofs(iface.side_a)
        db = spaces[iface.b].vel.side_dofs(iface.side_b)
        Ba = spaces[iface.a].vel.side_space(iface.side_a).collocation(ts)
        Bb = spaces[iface.b].vel.side_space(iface.side_b).collocation(ts)
        for c in (0, 1):
            ta = Ba @ proj[iface.a][c, da]
            tb = Bb @ proj[iface.b][c, db]
            if iface.reversed_:
                tb = tb[::-1]
            assert np.abs(ta - tb).max() < 1e-12


def test_pressure_average_row():
    geo = build_domain("quarter_annulus", m=1, n=1).patches[0]
    ths = build_taylor_hood(geo, degree=1, refinement=1)
    sys = assemble_patch(geo, ths)
    row = sys.pressure_average_row()
    # average of the constant pressure 1 is 1
    assert abs(row @ np.ones(ths.pre.dim) - 1.0) < 1e-12
    # the geometry is rational, so the area carries a small quadrature error
    assert abs(sys.area - np.pi * 3 / 4) < 1e-7


def test_assemble_patch_rejects_degenerate_jacobian():
    # the crossed quad of the geometry tests: det(jac) changes sign inside
    geo = bilinear_patch((0, 0), (1, 0), (1, 0.5), (0, 0.5))
    with pytest.raises(DegenerateJacobianError):
        assemble_patch(geo, build_taylor_hood(geo, 1))


def test_assemble_patch_rejects_an_overflowing_jacobian():
    # a square of side 1.7e308: its points and Jacobians are finite, but
    # det(jac) overflows to inf, which used to pass the positivity check;
    # the map kernel warns of nothing on the way
    geo = bilinear_patch((0, 0), (1.7e308, 0), (0, 1.7e308), (1.7e308, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateJacobianError, match="degenerate Jacobian inside patch"):
            assemble_patch(geo, build_taylor_hood(geo, 1))
        with pytest.raises(DegenerateJacobianError, match="patch 0 is degenerate"):
            build_multipatch([geo])


def _dense_tables(geo, ths, nq):
    # reference quadrature data over the whole patch at once: global basis
    # matrices from collocation, the map from GeometryMap.eval
    vel, pre = ths.vel, ths.pre
    qx, wx = rule_on_elements(vel.space_x.breakpoints, gauss_rule_1d(nq))
    qy, wy = rule_on_elements(vel.space_y.breakpoints, gauss_rule_1d(nq))
    u, v = qx.ravel(), qy.ravel()
    pts, jac = geo.eval(*np.meshgrid(u, v, indexing="ij"))
    wdet = np.outer(wx.ravel(), wy.ravel()) * np.linalg.det(jac)

    def tensor(space, dx=0, dy=0):
        bx = space.space_x.collocation(u, der=dx)
        by = space.space_y.collocation(v, der=dy)
        return np.einsum("ia,jb->ijba", bx, by).reshape(len(u), len(v), -1)

    gpar = np.stack([tensor(vel, dx=1), tensor(vel, dy=1)], axis=-1)
    grad = gpar @ np.linalg.inv(jac)
    return pts, wdet, tensor(vel), grad, tensor(pre)


def _rel_err(got, ref):
    got = got.toarray() if sp.issparse(got) else np.asarray(got)
    assert got.shape == ref.shape
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300) if ref.size else 0.0


@pytest.mark.parametrize("geo", [
    quarter_annulus_patch(),  # rational, degrees (1, 2)
    bilinear_patch((0.0, 0.0), (2.0, 0.3), (0.4, 1.0), (1.7, 1.6)),
])
def test_geometry_tables_match_pointwise_map(geo):
    # the sum-factorized tables on a tensor grid with different point counts
    # per direction against GeometryMap.eval at each grid point, for a
    # family of the map and a sheared copy with the same space
    xs = rule_on_elements(np.linspace(0.0, 1.0, 4), gauss_rule_1d(3))[0].ravel()
    ys = rule_on_elements(np.linspace(0.0, 1.0, 3), gauss_rule_1d(5))[0].ravel()
    family = [geo, GeometryMap(geo.space, geo.control @ [[2.0, 0.5], [0.0, 1.0]] + 1.0,
                               geo.weights)]
    tables = _geometry_tables(family, _grid_tables(geo.space, xs, ys))
    uu, vv = np.meshgrid(xs, ys, indexing="ij")
    for j, g in enumerate(family):
        ref_pts, ref_jac = g.eval(uu, vv)
        ref_det = ref_jac[..., 0, 0] * ref_jac[..., 1, 1] - ref_jac[..., 0, 1] * ref_jac[..., 1, 0]
        for got, ref in zip(tables, (ref_pts, ref_jac, ref_det)):
            assert _rel_err(got[j], ref) < 1e-14


def test_batched_kernel_matches_dense_reference():
    geo = quarter_annulus_patch()  # rational, degrees (1, 2)
    # all-Dirichlet with zero data, and a patch with interface, Dirichlet and
    # Neumann sides carrying nonzero Dirichlet data
    mixed = {"west": "interface", "south": "dirichlet", "east": "neumann",
             "north": "dirichlet"}
    for roles, data in ((None, None), (mixed, manufactured_velocity)):
        ths = build_taylor_hood(geo, 2, refinement=1, side_roles=roles)
        sysk = assemble_patch(geo, ths, rhs=manufactured_rhs, dirichlet=data)
        pts, wdet, N, grad, P = _dense_tables(geo, ths, ths.vel.space_x.degree + 2)
        K = np.einsum("ij,ijla,ijma->lm", wdet, grad, grad)
        D = np.concatenate(
            [np.einsum("ij,ijm,ijl->ml", wdet, P, grad[..., c]) for c in (0, 1)], axis=1)
        M = np.einsum("ij,ijm,ijn->mn", wdet, P, P)
        load = np.einsum("ij,ijl,ijc->cl", wdet, N, manufactured_rhs(pts))
        for got, ref in ((sysk.Ks, K), (sysk.D, D), (sysk.Mp, M), (sysk.load, load)):
            assert _rel_err(got, ref) < 1e-12
        assert abs(sysk.area - wdet.sum()) < 1e-13

        # the free-dof saddle system [u_g | u_i | p], sliced from the dense
        # forms; the rhs carries the Dirichlet lift
        nv = ths.vel.dim
        g, i, d = (np.concatenate([c * nv + dofs for c in (0, 1)])
                   for dofs in (ths.gamma, ths.inner, ths.dirichlet))
        K2 = np.kron(np.eye(2), K)
        u = np.concatenate([g, i])
        npre = ths.pre.dim
        A = np.block([[K2[np.ix_(u, u)], D[:, u].T], [D[:, u], np.zeros((npre, npre))]])
        gd = sysk.dirichlet_values.ravel()
        b = np.concatenate([load.ravel()[u] - K2[np.ix_(u, d)] @ gd, -D[:, d] @ gd])
        assert _rel_err(sysk.saddle_matrix(), A) < 1e-12
        assert _rel_err(sysk.rhs(), b) < 1e-12
        # the dense blocks static condensation reads: rows [K_i | K_g | D_0 |
        # D_1], columns the scalar free dofs [u_inner | u_gamma]
        si = ths.inner
        s = np.concatenate([si, ths.gamma])
        W = np.concatenate([K[np.ix_(s, s)]] + [D[:, c * nv + s] for c in (0, 1)])
        K_ii, got = sysk.condensation_blocks()
        assert _rel_err(got, W) < 1e-12
        assert K_ii.shape == (ths.n_inner,) * 2 and _rel_err(K_ii, K[np.ix_(si, si)]) < 1e-12
    assert ths.n_gamma and np.abs(gd).max() > 0.1  # the mixed case really has both

    rng = np.random.default_rng(2)
    u = rng.standard_normal((2, ths.vel.dim))
    p = rng.standard_normal(ths.pre.dim)
    err = patch_errors(geo, ths, u, p, exact_u=manufactured_velocity,
                       exact_grad_u=manufactured_velocity_gradient,
                       exact_p=manufactured_pressure)
    pts, wdet, N, grad, P = _dense_tables(geo, ths, ths.vel.space_x.degree + 3)
    du = np.einsum("ijl,cl->ijc", N, u) - manufactured_velocity(pts)
    dg = np.einsum("ijla,cl->ijca", grad, u) - manufactured_velocity_gradient(pts)
    dp = P @ p - manufactured_pressure(pts)
    ref = {"l2_u_sq": np.sum(wdet * np.sum(du**2, axis=-1)),
           "h1_u_sq": np.sum(wdet * np.sum(dg**2, axis=(-2, -1))),
           "p_diff": np.sum(wdet * dp),
           "p_diff_m2": np.sum(wdet * (dp - np.sum(wdet * dp) / wdet.sum()) ** 2),
           "area": wdet.sum()}
    for key, val in ref.items():
        assert abs(err[key] - val) < 1e-12 * max(1.0, abs(val)), key


def _mixed_family_strip():
    # a row of five patches: 0 and 2 bilinear squares of one element; 1, 3
    # and 4 with a breakpoint across the row and a bent middle line, 4 with
    # weights. So two families of different knots whose members alternate,
    # and a rational patch with the knots of the second on its own
    space = TensorSplineSpace.from_breakpoints([0.0, 0.5, 1.0], [0.0, 1.0], 1, 0)
    patches = []
    for k in range(5):
        if k in (0, 2):
            patches.append(bilinear_patch((k, 0), (k + 1, 0), (k, 1), (k + 1, 1)))
        else:
            patches.append(GeometryMap(space, [(k, 0), (k + 0.6, 0), (k + 1, 0),
                                               (k, 1), (k + 0.4, 1), (k + 1, 1)],
                                       [1.0, 1.5, 1.0, 1.0, 1.5, 1.0] if k == 4 else None))
    return build_multipatch(patches)


FAMILY_CASES = {
    "quarter_annulus(1,2,8,8)": [list(range(64))],  # rational, one family
    "grid(3,3)": [list(range(9))],
    "rectangle_with_hole": None,
    "mixed families": [[0, 2], [1, 3], [4]],
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_family_kernel_matches_a_per_patch_reference(case):
    from ietistokes.assembly import _error_moments, _families, _per_family, element_forms

    mp = _mixed_family_strip() if case == "mixed families" else parse_domain(case)
    spaces = taylor_hood_spaces(mp, 2, refinement=1)
    families = _families(mp.patches, spaces)
    if FAMILY_CASES[case] is not None:
        assert families == FAMILY_CASES[case]
    assert sorted(k for f in families for k in f) == list(range(mp.n_patches))
    for f in families:  # the members share one velocity/pressure pair
        assert all(spaces[k].vel is spaces[f[0]].vel and spaces[k].pre is spaces[f[0]].pre
                   for k in f)
    if case == "mixed families":  # the rational patch shares the spaces of 1 and 3
        assert spaces[0].vel is not spaces[1].vel and spaces[4].vel is spaces[1].vel

    data = manufactured_velocity if case != "rectangle_with_hole" else None
    forms = element_forms(mp.patches, spaces, rhs=manufactured_rhs, dirichlet=data)
    systems = [assemble_patch(geo, ths, elements=el)
               for geo, ths, el in zip(mp.patches, spaces, forms)]
    rng = np.random.default_rng(5)
    us = [rng.standard_normal((2, ths.vel.dim)) for ths in spaces]
    ps = [rng.standard_normal(ths.pre.dim) for ths in spaces]
    exact = (manufactured_velocity, manufactured_velocity_gradient, manufactured_pressure)
    errs = _per_family(mp.patches, spaces, _error_moments, us, ps, *exact, None)
    for k, (geo, ths, sysk) in enumerate(zip(mp.patches, spaces, systems)):
        # the dense reference of this patch alone
        pts, wdet, N, grad, P = _dense_tables(geo, ths, ths.vel.space_x.degree + 2)
        K = np.einsum("ij,ijla,ijma->lm", wdet, grad, grad)
        D = np.concatenate(
            [np.einsum("ij,ijm,ijl->ml", wdet, P, grad[..., c]) for c in (0, 1)], axis=1)
        M = np.einsum("ij,ijm,ijn->mn", wdet, P, P)
        load = np.einsum("ij,ijl,ijc->cl", wdet, N, manufactured_rhs(pts))
        for got, ref in ((sysk.Ks, K), (sysk.D, D), (sysk.Mp, M), (sysk.load, load)):
            assert _rel_err(got, ref) < 1e-13
        assert abs(sysk.area - wdet.sum()) < 1e-13 * wdet.sum()
        assert sysk.ths is ths
        # the element arrays equal those of the patch as a family of one
        alone = assemble_patch(geo, ths, rhs=manufactured_rhs, dirichlet=data)
        for key in ("Ke", "De", "Me", "load"):
            assert _rel_err(getattr(sysk._el, key), getattr(alone._el, key)) < 1e-13, key
        assert np.array_equal(sysk.dirichlet_values, alone.dirichlet_values)

        pts, wdet, N, grad, P = _dense_tables(geo, ths, ths.vel.space_x.degree + 3)
        du = np.einsum("ijl,cl->ijc", N, us[k]) - manufactured_velocity(pts)
        dg = np.einsum("ijla,cl->ijca", grad, us[k]) - manufactured_velocity_gradient(pts)
        dp = P @ ps[k] - manufactured_pressure(pts)
        ref = {"l2_u_sq": np.sum(wdet * np.sum(du**2, axis=-1)),
               "h1_u_sq": np.sum(wdet * np.sum(dg**2, axis=(-2, -1))),
               "p_diff": np.sum(wdet * dp),
               "p_diff_m2": np.sum(wdet * (dp - np.sum(wdet * dp) / wdet.sum()) ** 2),
               "area": wdet.sum()}
        assert set(errs[k]) == set(ref)
        for key, val in ref.items():
            assert abs(errs[k][key] - val) <= 1e-13 * abs(val), (k, key)


def test_assemble_patch_reads_the_data_once():
    # element_forms reads rhs, nquad and the Dirichlet data of a patch's
    # entry, so assemble_patch refuses them next to it instead of ignoring
    # the load or projecting the boundary data a second time
    from ietistokes.assembly import element_forms

    mp = parse_domain("grid(2,2)")
    spaces = taylor_hood_spaces(mp, 1, refinement=1)
    geo, ths = mp.patches[0], spaces[0]
    el = element_forms(mp.patches, spaces, rhs=manufactured_rhs,
                       dirichlet=manufactured_velocity)[0]
    for data in (dict(rhs=manufactured_rhs), dict(dirichlet=manufactured_velocity),
                 dict(nquad=4)):
        with pytest.raises(ValueError, match="element_forms"):
            assemble_patch(geo, ths, elements=el, **data)
    sysk = assemble_patch(geo, ths, elements=el)
    alone = assemble_patch(geo, ths, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    assert sysk.dirichlet_values.any()
    assert np.array_equal(sysk.dirichlet_values, alone.dirichlet_values)
    assert np.array_equal(sysk.rhs(), alone.rhs())


@pytest.mark.parametrize("count", [1, 15, 16, 17])
def test_family_chunks_keep_patch_order(count, monkeypatch):
    # chunks of 16 patches: one family of the first `count` annulus patches
    # against each patch as a family of one
    from ietistokes import assembly, geometry

    mp = parse_domain("quarter_annulus(1,2,8,8)")
    spaces = taylor_hood_spaces(mp, 2, refinement=1)
    patches, members, ths = mp.patches, list(range(count)), spaces[0]
    nel = ths.vel.space_x.nel * ths.vel.space_y.nel
    nlv = (ths.vel.space_x.degree + 1) ** 2
    cuts = []
    real = assembly._chunks
    monkeypatch.setattr(assembly, "_chunks", lambda n, per: cuts.append(real(n, per)) or cuts[-1])

    def chunks_of_16(nq):  # the bound that fits 16 patches' physical gradients
        monkeypatch.setattr(geometry, "CHUNK_BYTES", 16 * (16 * nel * nlv * nq**2))

    chunks_of_16(ths.vel.space_x.degree + 2)  # the default rule of the forms
    forms = assembly._element_forms(patches, members, ths, None, manufactured_rhs)
    rng = np.random.default_rng(9)
    us = [rng.standard_normal((2, ths.vel.dim)) for _ in members]
    ps = [rng.standard_normal(ths.pre.dim) for _ in members]
    exact = (manufactured_velocity, manufactured_velocity_gradient, manufactured_pressure)
    chunks_of_16(ths.vel.space_x.degree + 3)  # ... and of the errors
    errs = assembly._error_moments(patches, members, ths, us, ps, *exact, None)
    want = [slice(0, min(count, 16))] + ([slice(16, count)] if count > 16 else [])
    assert cuts == [want, want]
    monkeypatch.undo()
    assert len(forms) == len(errs) == count
    for k in members:
        alone, = assembly._element_forms([patches[k]], [0], ths, None, manufactured_rhs)
        for key in ("Ke", "De", "Me", "load"):
            assert _rel_err(getattr(forms[k], key), getattr(alone, key)) < 1e-13, (k, key)
        assert forms[k].area == alone.area
        err = patch_errors(patches[k], ths, us[k], ps[k], *exact)
        for key, val in err.items():
            assert abs(errs[k][key] - val) <= 1e-13 * abs(val), (k, key)


def test_degenerate_patch_inside_a_family_is_named():
    from ietistokes.assembly import element_forms

    squares = [bilinear_patch((k, 0), (k + 1, 0), (k, 1), (k + 1, 1)) for k in range(4)]
    squares[2] = bilinear_patch((0, 0), (1, 0), (1, 0.5), (0, 0.5))  # det changes sign
    spaces = [build_taylor_hood(g, 1) for g in squares]
    zeros = [np.zeros((2, s.vel.dim)) for s in spaces]
    with pytest.raises(DegenerateJacobianError, match="patch 2$"):
        element_forms(squares, spaces)
    with pytest.raises(DegenerateJacobianError, match="patch 2$"):
        total_errors(SimpleNamespace(patches=squares), spaces, zeros, None)
    # a patch on its own has no number to report, whatever its place in a domain
    with pytest.raises(DegenerateJacobianError, match="inside patch$"):
        assemble_patch(squares[2], spaces[2])
    with pytest.raises(DegenerateJacobianError, match="inside patch$"):
        patch_errors(squares[2], spaces[2], zeros[2], None)
