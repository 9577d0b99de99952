import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ietistokes
from ietistokes.assembly import (
    DENSE_LU_ROWS,
    FEM_SUPERLU,
    DenseLU,
    SingularLocalSystemError,
    _check_vector,
    assemble_global,
    assemble_patch,
    build_taylor_hood,
    divergence_bubble,
    edge_flux_matrix,
    factorize,
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
from ietistokes.bspline import TensorSplineSpace, element_rule
from ietistokes.domains import build_domain, parse_domain, quarter_annulus_patch
from ietistokes.geometry import (
    SIDES,
    DegenerateJacobianError,
    GeometryMap,
    _geometry_tables,
    bilinear_patch,
    build_multipatch,
    side_param,
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
        pu, pv = side_param(side, ts)
        gexact = g(geo(pu, pv))
        for c in (0, 1):
            assert np.abs(B @ u[c, dofs] - gexact[:, c]).max() < 1e-10


def reference_dirichlet_values(geo, ths, data):
    """The Dirichlet projection written out per side, component and dof."""
    vel = ths.vel
    pos = {d: i for i, d in enumerate(ths.dirichlet)}
    values = np.zeros((2, len(ths.dirichlet)))
    corners = geo.corners()
    for corner, dof in vel.corner_dofs().items():
        if dof in pos:
            values[:, pos[dof]] = data(corners[corner][None, :])[0]
    for side, role in ths.side_roles.items():
        if role != "dirichlet":
            continue
        espace = vel.side_space(side)
        dofs = vel.side_dofs(side)
        n = espace.dim
        tq, wq = element_rule(espace.breakpoints, espace.degree + 3)
        tq, wq = tq.ravel(), wq.ravel()
        B = espace.collocation(tq)
        pts, jac = geo.eval(*side_param(side, tq))
        speed = np.linalg.norm(jac[:, :, 1 if side in ("west", "east") else 0], axis=-1)
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
    us, ps = glob.solve(fix_pressure_mean=False)
    assert all(np.all(np.isfinite(u)) for u in us)
    # divergence equation holds for the computed solution
    Kff, Df, rhs_f, h = glob.free_blocks()
    uglob = np.zeros((2, glob.n_scalar))
    for k, l2g in enumerate(glob.scalar_l2g):
        uglob[:, l2g] = us[k]
    uf = np.concatenate([uglob[c, glob.free] for c in (0, 1)])
    assert np.abs(Df @ uf - h).max() < 1e-9


def test_singular_monolithic_solve_raises():
    # with Dirichlet data on the whole boundary the pressure is fixed only up
    # to a constant; without the mean row the solve must fail, not return a
    # shifted pressure
    mp = build_domain("grid", m=2, n=2)
    spaces = taylor_hood_spaces(mp, degree=1, refinement=1)
    glob = assemble_global(mp, spaces, rhs=manufactured_rhs, dirichlet=manufactured_velocity)
    with pytest.raises(SingularLocalSystemError, match="monolithic Stokes system"):
        glob.solve(fix_pressure_mean=False)


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


def _monolithic_saddle(monkeypatch, spec, degree, refinement):
    """The matrix that GlobalStokesSystem.solve hands to factorize."""
    import ietistokes.assembly as assembly

    got = []
    monkeypatch.setattr(assembly, "factorize",
                        lambda A, what, fem=False: got.append(A) or factorize(A, what, fem))
    mp = parse_domain(spec)
    assemble_global(mp, taylor_hood_spaces(mp, degree, refinement=refinement)).solve()
    monkeypatch.undo()
    A, = got
    return A.tocsc()


def test_finite_element_systems_get_the_symmetric_superlu_mode(monkeypatch):
    # the monolithic saddle, the spectrum's velocity stiffness and a K_ii
    # above DENSE_LU_ROWS are factored in SuperLU's symmetric mode; the IETI
    # coarse primal system keeps SuperLU's defaults (COLAMD)
    from ietistokes.analysis import pressure_schur_spectrum
    from ietistokes.ieti import solve_stokes_ieti

    calls = []
    real = spla.splu

    def spy(A, **kw):
        calls.append((A.shape[0], kw))
        return real(A, **kw)

    monkeypatch.setattr(spla, "splu", spy)
    mp = parse_domain("grid(1,1)")
    glob = assemble_global(mp, taylor_hood_spaces(mp, 1, refinement=3))
    glob.solve()
    pressure_schur_spectrum(glob)
    assert calls == [(532, FEM_SUPERLU), (450, FEM_SUPERLU)]
    calls.clear()
    ths = build_taylor_hood(unit_square(), 1, refinement=4)
    assert ths.n_inner > DENSE_LU_ROWS
    assemble_patch(unit_square(), ths).condense_interior("interior stiffness")
    assert calls == [(ths.n_inner, FEM_SUPERLU)]
    calls.clear()
    mp = parse_domain("quarter_annulus(1,2,16,16)")
    solve_stokes_ieti(mp, taylor_hood_spaces(mp, 2, refinement=1), rhs=manufactured_rhs)
    assert calls == [(1187, {})]


def test_factorize_fem_is_superlu_in_symmetric_mode():
    # fem=True above DENSE_LU_ROWS is SuperLU with FEM_SUPERLU, bit for bit
    rng = np.random.default_rng(9)
    for A in (_stiffness_ii(2, 4), _random_matrix(DENSE_LU_ROWS + 40, 5)):
        b = rng.standard_normal((A.shape[0], 2))
        assert np.array_equal(factorize(A, "test", fem=True).solve(b),
                              spla.splu(A, **FEM_SUPERLU).solve(b))


@pytest.mark.parametrize("spec, degree, refinement",
                         [("grid(1,1)", 2, 4), ("quarter_annulus(1,2,4,4)", 2, 2)])
def test_symmetric_mode_fills_less_on_stokes_saddles(monkeypatch, spec, degree, refinement):
    # minimum degree on A^T + A stores fewer factor entries than COLAMD on
    # the monolithic saddle and solves it to the same answer
    A = _monolithic_saddle(monkeypatch, spec, degree, refinement)
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
    # every LU in the package goes through the checked factorization:
    # SuperLU and LAPACK getrf in factorize, getrs in its dense factor class
    src = Path(ietistokes.__file__).parent
    tree = ast.parse((src / "assembly.py").read_text())
    scopes = {node.name: range(node.lineno, node.end_lineno + 1) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name in ("factorize", "DenseLU")}
    calls = ("splu(", "spsolve(", "lu_factor(", "lu_solve(", "getrf", "getrs")
    hits = {
        (path.name, next((name for name, lines in scopes.items()
                          if path.name == "assembly.py" and lineno in lines), None), call)
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for call in calls if call in line
    }
    assert hits == {("assembly.py", "factorize", "splu("), ("assembly.py", "factorize", "getrf"),
                    ("assembly.py", "DenseLU", "getrs")}
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
    assert cond.X.shape == (ni, ng + 2 * npre)
    assert np.abs(K_ii @ cond.X - W[ni:, :ni].T).max() < 1e-12 * np.abs(W).max()
    assert cond.lu.shape == (ni, ni)


def test_condense_interior_factors_the_scalar_interior_block_once(monkeypatch):
    # the IETI local system, the patch inf-sup constant and the skeleton
    # Schur complements each factor K_ii once, at n_inner rows, and never a
    # doubled block
    import ietistokes.analysis as analysis
    import ietistokes.assembly as assembly
    import ietistokes.ieti as ieti

    calls = []

    def spy(A, what, fem=False):
        calls.append((A.shape[0], what))
        return factorize(A, what, fem)

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
    p_off = 2 * ths.n_inner
    C = sp.csr_matrix((sysk.pressure_average_row(), (np.zeros(ths.n_pressure, dtype=int),
                                                     p_off + np.arange(ths.n_pressure))),
                      shape=(1, ths.n_local))
    ieti.AugmentedLocalSystem(sysk, C, np.zeros(1), label="patch 3")
    assert calls == [(ths.n_inner, "interior stiffness of patch 3"),
                     (ths.n_pressure + 1, "condensed system of patch 3 (1 constraint rows)")]


def test_side_param_only_in_side_kernel():
    # which parameter runs along a side, its tangent column and the outward
    # rotation are decided in side_traces alone (side_points needs no
    # derivatives and reads only side_param)
    src = Path(ietistokes.__file__).parent
    tree = ast.parse((src / "geometry.py").read_text())
    allowed = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("side_param", "side_traces", "side_points")]
    hits = [
        (path.name, lineno)
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "side_param(" in line
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
        for side in SIDES:
            dofs, R = edge_flux_matrix(geo, ths.vel, side)
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
    dofs, R = edge_flux_matrix(geo, spaces[iface.a].vel, iface.side_a)
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
        dofs, R = edge_flux_matrix(mp.patches[k], spaces[k].vel, iface.side_a)
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


def _dense_tables(geo, ths, nq):
    # reference quadrature data over the whole patch at once: global basis
    # matrices from collocation, the map from GeometryMap.eval
    vel, pre = ths.vel, ths.pre
    qx, wx = element_rule(vel.space_x.breakpoints, nq)
    qy, wy = element_rule(vel.space_y.breakpoints, nq)
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
    xs = element_rule(np.linspace(0.0, 1.0, 4), 3)[0].ravel()
    ys = element_rule(np.linspace(0.0, 1.0, 3), 5)[0].ravel()
    family = [geo, GeometryMap(geo.space, geo.control @ [[2.0, 0.5], [0.0, 1.0]] + 1.0,
                               geo.weights)]
    tables = _geometry_tables(family, xs, ys)
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
    forms = element_forms(mp.patches, spaces, rhs=manufactured_rhs)
    systems = [assemble_patch(geo, ths, dirichlet=data, elements=el)
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
