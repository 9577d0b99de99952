import numpy as np
import pytest

from ietistokes.bspline import TensorSplineSpace, element_rule
from ietistokes.domains import (
    build_domain,
    grid_domain,
    parse_domain,
    quarter_annulus_domain,
    quarter_annulus_patch,
    rectangle_with_hole_domain,
    strip_domain,
)
from ietistokes.geometry import (
    DegenerateJacobianError,
    GeometryMap,
    MultiPatch,
    TopologyError,
    bilinear_patch,
    build_multipatch,
    check_interface_matching,
    load_multipatch,
    save_multipatch,
    validate_topology,
)


def unit_square():
    return bilinear_patch((0, 0), (1, 0), (0, 1), (1, 1))


def test_identity_map_jacobian():
    g = unit_square()
    pts, jac = g.eval(np.array([0.3, 0.7]), np.array([0.2, 0.9]))
    assert np.allclose(pts, [[0.3, 0.2], [0.7, 0.9]], atol=1e-14)
    assert np.allclose(jac, np.eye(2), atol=1e-14)
    assert abs(g.area() - 1.0) < 1e-14
    assert abs(g.diameter() - np.sqrt(2)) < 1e-12


def test_affine_map_jacobian():
    g = bilinear_patch((1, 2), (3, 2.5), (0.5, 4), (2.5, 4.5))
    _, jac = g.eval(0.25, 0.75)
    assert np.allclose(jac[..., :, 0], [2.0, 0.5], atol=1e-14)
    assert np.allclose(jac[..., :, 1], [-0.5, 2.0], atol=1e-14)


def test_quarter_annulus_exact_circle():
    g = quarter_annulus_patch(1.0, 2.0)
    t = np.linspace(0, 1, 31)
    inner = g.side_points("west", t)  # xi1 = 0 is the inner arc
    outer = g.side_points("east", t)
    assert np.abs(np.linalg.norm(inner, axis=1) - 1.0).max() < 1e-14
    assert np.abs(np.linalg.norm(outer, axis=1) - 2.0).max() < 1e-14
    dmin, dmax = g.jacobian_range()
    assert dmin > 0
    # total area by quadrature
    assert abs(g.area(n=12) - 3 * np.pi / 4) < 1e-10


def test_quarter_annulus_outward_normal():
    g = quarter_annulus_patch(1.0, 2.0)
    t = np.linspace(0.1, 0.9, 7)
    n_out = g.side_normal("east", t, unit=True)
    pts = g.side_points("east", t)
    # outward normal on the outer arc is radial
    assert np.abs(n_out - pts / 2.0).max() < 1e-12
    n_in = g.side_normal("west", t, unit=True)
    pts_in = g.side_points("west", t)
    assert np.abs(n_in + pts_in).max() < 1e-12


def test_degenerate_jacobian_detected():
    # collapsing two corners makes the bilinear map singular inside
    g = bilinear_patch((0, 0), (1, 0), (1, 0.5), (0, 0.5))  # crossed quad
    with pytest.raises(DegenerateJacobianError):
        g.check_regular()


def test_rational_eval_shapes_match_pointwise():
    geo = quarter_annulus_patch()
    rng = np.random.default_rng(4)
    u = rng.uniform(0.0, 1.0, (3, 4))
    v = rng.uniform(0.0, 1.0, (3, 4))
    u[0, 0], v[0, 0], u[2, 3], v[2, 3] = 0.0, 0.0, 1.0, 1.0
    pts, jac = geo.eval(u, v)
    assert pts.shape == (3, 4, 2) and jac.shape == (3, 4, 2, 2)
    for i in range(3):
        for j in range(4):
            p1, j1 = geo.eval(u[i, j], v[i, j])
            assert p1.shape == (2,) and j1.shape == (2, 2)
            assert np.allclose(pts[i, j], p1, rtol=0.0, atol=1e-14)
            assert np.allclose(jac[i, j], j1, rtol=0.0, atol=1e-13)
    # points lie on the annulus; the Jacobian matches central differences
    assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0 + u, atol=1e-13)
    h = 1e-6
    ui, vi = np.clip(u, h, 1 - h), np.clip(v, h, 1 - h)
    _, jac_i = geo.eval(ui, vi)
    fd_u = (geo(ui + h, vi) - geo(ui - h, vi)) / (2 * h)
    fd_v = (geo(ui, vi + h) - geo(ui, vi - h)) / (2 * h)
    assert np.abs(jac_i - np.stack([fd_u, fd_v], axis=-1)).max() < 1e-7
    only_pts, none = geo.eval(u, v, nders=0)
    assert none is None and np.array_equal(only_pts, pts)


def test_grid_topology_counts():
    mp = grid_domain(2, 2)
    assert mp.n_patches == 4
    assert len(mp.interfaces) == 4
    report = validate_topology(mp)
    assert report.ok
    assert report.max_vertex_patches == 4
    # 9 distinct vertices, the center one shared by all four patches
    assert len(mp.vertices) == 9
    center = [v for v in mp.vertices if np.allclose(v.point, [1, 1])]
    assert len(center) == 1 and len(center[0].patches) == 4


def test_grid_boundary_tags_default_dirichlet():
    mp = grid_domain(2, 1)
    assert len(mp.boundary) == 6
    assert all(tag == "dirichlet" for tag in mp.boundary.values())
    assert mp.side_role(0, "east") == "interface"
    assert mp.side_role(1, "west") == "interface"


def test_strip_diameter_and_area():
    mp = strip_domain(4)
    assert mp.n_patches == 4 and len(mp.interfaces) == 3
    assert abs(sum(mp.areas()) - 4.0) < 1e-12
    assert abs(max(g.diameter() for g in mp.patches) - np.sqrt(2)) < 1e-12
    hull = np.sqrt(17)  # domain diameter of [0,4] x [0,1]
    pts = np.concatenate([g.corners()[(1, 1)][None] for g in mp.patches])
    assert abs(np.linalg.norm(pts[-1] - [0, 0]) - hull) < 1e-12


def test_corner_contact_detected_without_interface():
    a = unit_square()
    b = bilinear_patch((1, 1), (2, 1), (1, 2), (2, 2))
    mp = build_multipatch([a, b])
    assert len(mp.interfaces) == 0
    shared = [v for v in mp.vertices if len(v.patches) == 2]
    assert len(shared) == 1
    assert np.allclose(shared[0].point, [1, 1])


def test_t_junction_rejected():
    a = unit_square()
    b = bilinear_patch((0, 1), (1, 1), (0, 2), (1, 2))
    c = bilinear_patch((1, 0), (2, 0), (1, 2), (2, 2))  # long edge spans a and b
    with pytest.raises(TopologyError):
        build_multipatch([a, b, c])


def square(x0, y0, x1, y1):
    return bilinear_patch((x0, y0), (x1, y0), (x0, y1), (x1, y1))


@pytest.mark.parametrize("h", [0.7, np.sqrt(2.0)])
def test_t_junction_with_non_dyadic_edge_ratio_rejected(h):
    # the vertex (1, 1) of a and b lies inside c's west side, at a height no
    # uniform sample of that side hits
    a, b, c = square(0, 0, 1, 1), square(0, 1, 1, 1 + h), square(1, 0, 2, 1 + h)
    with pytest.raises(TopologyError, match="2.west"):
        build_multipatch([a, b, c])


def test_curved_t_junction_rejected():
    # two inner quarter-annulus rings against one outer ring: the split
    # vertex at angle 1/3 of the arc hangs on the outer ring's inner arc
    inner = build_domain("quarter_annulus", r_in=1.0, r_out=1.5, m=1, n=3).patches
    outer = quarter_annulus_patch(1.5, 2.0)
    with pytest.raises(TopologyError, match="3.west"):
        build_multipatch(inner + [outer])


def test_side_shared_by_three_patches_rejected():
    with pytest.raises(TopologyError, match="3 sides"):
        build_multipatch([unit_square(), unit_square(), square(1, 0, 2, 1)])


def test_corner_tolerance_decides_vertices_and_interfaces():
    tol = 1e-8 * np.sqrt(2.0)  # default: 1e-8 times the median diameter
    mp = build_multipatch([unit_square(), square(1 + 1e-3 * tol, 0, 2, 1)])
    assert mp.tol == pytest.approx(tol)
    assert len(mp.vertices) == 6
    assert [i.astuple() for i in mp.interfaces] == [(0, "east", 1, "west", False)]
    mp = build_multipatch([unit_square(), square(1 + 1e3 * tol, 0, 2, 1)])
    assert len(mp.vertices) == 8
    assert mp.interfaces == []
    assert mp.side_role(0, "east") == mp.side_role(1, "west") == "dirichlet"


def _quadratic_clustering(patches, tol):
    # the rule written as a scan over all earlier vertices: a corner joins
    # the lowest-numbered vertex whose first point lies within tol
    points = np.empty((4 * len(patches), 2))
    vertices, ids = [], {}
    for k, g in enumerate(patches):
        for corner, pt in g.corners().items():
            j = len(vertices)
            near = np.linalg.norm(points[:j] - pt, axis=1) < tol
            if near.any():
                j = int(near.argmax())
                vertices[j][1].append((k, corner))
            else:
                points[j] = pt
                vertices.append((pt, [(k, corner)]))
            ids[(k, corner)] = j
    return vertices, ids


def _perturbed_squares(tol):
    # unit squares whose lower left corners sit on a cell edge of the grid
    # hash (x = 3 tol, y = 5 tol) or are moved off it, across the edge or
    # the cell corner, by 0.4 and 0.9 tol (joined) and by 1.1 tol (not);
    # then, at y = 9 tol, two vertices 1.5 tol apart in the cells on either
    # side of x = 3 tol, the lower-numbered one first in the scan order, and
    # a corner 0.75 tol from both, which joins the lower-numbered one
    moves = [(0, 0), (-0.4, 0), (0.4, 0), (-0.9, 0), (0.9, 0), (0, -0.4), (0, -0.9),
             (-0.6, -0.6), (0.6, -0.6), (-1.1, 0), (0, 1.1),
             (-0.3, 4), (1.2, 4), (0.45, 4)]
    return [bilinear_patch(*((np.array([3.0, 5.0]) + m) * tol + c for c in
                             ((0, 0), (1, 0), (0, 1), (1, 1)))) for m in moves]


@pytest.mark.parametrize("case", ["quarter_annulus(1,2,32,32)", "perturbed"])
def test_corner_hash_matches_the_quadratic_scan(case):
    from ietistokes.geometry import _cluster_corners, _corner_points, _outline, _per_map_family

    if case == "perturbed":
        tol = 2.0**-10  # cell edges at exact multiples of tol
        patches = _perturbed_squares(tol)
    else:
        mp = parse_domain(case)
        patches, tol = mp.patches, mp.tol
    # the corners of each family from one kernel pass, as build_multipatch
    # takes them; the scan reads each patch's own corners()
    vertices, ids = _cluster_corners(_corner_points(_per_map_family(patches, _outline)), tol)
    ref_vertices, ref_ids = _quadratic_clustering(patches, tol)
    assert ids == ref_ids
    assert [v.members for v in vertices] == [m for _, m in ref_vertices]
    assert all(np.array_equal(v.point, p) for v, (p, _) in zip(vertices, ref_vertices))
    if case == "perturbed":
        # the first nine lower left corners are one vertex, the next two not;
        # each square that starts a vertex starts four
        assert [ids[(k, (0, 0))] for k in range(len(patches))] == [0] * 9 + [4, 8, 12, 16, 12]
    else:
        assert len(vertices) == 33 * 33


def test_grid_interface_order_and_vertex_members():
    mp = grid_domain(2, 2)
    assert [i.astuple() for i in mp.interfaces] == [
        (0, "east", 1, "west", False),
        (0, "north", 2, "south", False),
        (1, "north", 3, "south", False),
        (2, "east", 3, "west", False),
    ]
    assert [(v.point.tolist(), v.members) for v in mp.vertices] == [
        ([0.0, 0.0], [(0, (0, 0))]),
        ([1.0, 0.0], [(0, (1, 0)), (1, (0, 0))]),
        ([0.0, 1.0], [(0, (0, 1)), (2, (0, 0))]),
        ([1.0, 1.0], [(0, (1, 1)), (1, (0, 1)), (2, (1, 0)), (3, (0, 0))]),
        ([2.0, 0.0], [(1, (1, 0))]),
        ([2.0, 1.0], [(1, (1, 1)), (3, (1, 0))]),
        ([0.0, 2.0], [(2, (0, 1))]),
        ([1.0, 2.0], [(2, (1, 1)), (3, (0, 1))]),
        ([2.0, 2.0], [(3, (1, 1))]),
    ]


def test_diameters_computed_once_per_domain():
    mp = grid_domain(2, 1)
    d = mp.diameters()
    assert d is mp.diameters() and not d.flags.writeable
    assert np.array_equal(d, [g.diameter() for g in mp.patches])


def test_quarter_annulus_domain_counts_and_area():
    mp = quarter_annulus_domain(1.0, 2.0, 8, 8)
    assert mp.n_patches == 64
    assert len(mp.interfaces) == 112
    assert validate_topology(mp).ok
    assert abs(sum(mp.areas(n=8)) - 3 * np.pi / 4) < 1e-8 * (3 * np.pi / 4)
    # subdivision is exact: the innermost patches still trace the unit circle
    t = np.linspace(0, 1, 9)
    inner_pts = np.concatenate(
        [mp.patches[8 * j].side_points("west", t) for j in range(8)]
    )
    assert np.abs(np.linalg.norm(inner_pts, axis=1) - 1.0).max() < 1e-12


def test_rectangle_with_hole_counts_and_tags():
    mp = rectangle_with_hole_domain()
    assert mp.n_patches == 11
    assert len(mp.interfaces) == 11
    assert validate_topology(mp).ok
    area = sum(mp.areas(n=10))
    assert abs(area - (128.0 - np.pi)) < 1e-8 * 128.0
    tags = set(mp.boundary.values())
    assert tags == {"dirichlet", "neumann"}
    neumann = [key for key, tag in mp.boundary.items() if tag == "neumann"]
    assert neumann == [(10, "east")]
    # hole boundary is on the unit circle and tagged dirichlet
    for q in range(4):
        assert mp.side_role(q, "west") == "dirichlet"
        pts = mp.patches[q].side_points("west", np.linspace(0, 1, 9))
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12


def test_pressure_level_follows_the_neumann_tags():
    # all-Dirichlet domains fix the pressure only up to a constant; one
    # Neumann (outflow) side fixes its level
    for spec in ("grid(2,2)", "strip(3)", "quarter_annulus(1,2,2,2)"):
        assert parse_domain(spec).pressure_up_to_constant
    assert not rectangle_with_hole_domain().pressure_up_to_constant
    mp = grid_domain(2, 1)
    outlet = build_multipatch(mp.patches, boundary=lambda k, s, _: "neumann"
                              if (k, s) == (1, "east") else "dirichlet")
    assert not outlet.pressure_up_to_constant


def test_interface_traces_coincide():
    rng = np.random.default_rng(42)
    for mp in (quarter_annulus_domain(1, 2, 3, 3), rectangle_with_hole_domain()):
        t = rng.uniform(0, 1, size=50)
        for iface in mp.interfaces:
            tb = 1.0 - t if iface.reversed_ else t
            pa = mp.patches[iface.a].side_points(iface.side_a, t)
            pb = mp.patches[iface.b].side_points(iface.side_b, tb)
            assert np.linalg.norm(pa - pb, axis=1).max() < 1e-10


def test_validate_topology_permutation_invariant():
    mp = grid_domain(3, 2)
    perm = [4, 2, 0, 5, 1, 3]
    mp2 = build_multipatch([mp.patches[k] for k in perm])
    assert len(mp2.interfaces) == len(mp.interfaces)
    # same interface set up to relabeling
    relabel = {old: new for new, old in enumerate(perm)}
    mapped = set()
    for i in mp.interfaces:
        a, b = relabel[i.a], relabel[i.b]
        sa, sb = i.side_a, i.side_b
        if a > b:
            a, b, sa, sb = b, a, sb, sa
        mapped.add((a, sa, b, sb))
    found = {(i.a, i.side_a, i.b, i.side_b) for i in mp2.interfaces}
    assert mapped == found


def test_matching_check_passes_and_fails():
    mp = grid_domain(2, 1)
    spaces = [
        TensorSplineSpace.from_breakpoints([0, 0.5, 1], [0, 0.5, 1], 2, 1)
        for _ in range(2)
    ]
    assert check_interface_matching(mp, spaces).ok
    # one patch refined: breakpoints no longer match
    spaces_bad = [spaces[0], spaces[1].refine_uniform(1)]
    rep = check_interface_matching(mp, spaces_bad)
    assert not rep.ok and rep.problems[0][0] == "breakpoints"


def test_matching_with_reversed_orientation():
    # second square parameterized so the shared edge runs the other way:
    # both patches are regular, but b's east edge goes from (1,1) down to (1,0)
    a = unit_square()
    b = bilinear_patch((2, 1), (1, 1), (2, 0), (1, 0))
    dmin, _ = b.jacobian_range()
    assert dmin > 0
    mp = build_multipatch([a, b])
    assert len(mp.interfaces) == 1 and mp.interfaces[0].reversed_
    spaces = [
        TensorSplineSpace.from_breakpoints([0, 0.25, 1], [0, 0.25, 1], 2, 1),
        TensorSplineSpace.from_breakpoints([0, 0.75, 1], [0, 0.75, 1], 2, 1),
    ]
    # mirrored breakpoints are required on the reversed side
    assert check_interface_matching(mp, spaces).ok
    spaces_bad = [spaces[0], spaces[0]]
    assert not check_interface_matching(mp, spaces_bad).ok


def test_matching_evaluates_each_patch_once(monkeypatch):
    # each interface side of a patch is evaluated once, in one map-kernel
    # call per side for the whole family (one family here, with the same
    # Greville points on every side); the pointwise evaluator is not called
    from ietistokes import geometry

    mp = grid_domain(3, 3)
    spaces = [TensorSplineSpace.from_breakpoints([0, 0.5, 1], [0, 0.5, 1], 2, 1)
              for _ in range(mp.n_patches)]
    calls = []
    real = geometry._geometry_tables
    monkeypatch.setattr(geometry, "_geometry_tables",
                        lambda geos, tables: calls.append(list(geos)) or real(geos, tables))
    monkeypatch.setattr(GeometryMap, "eval", None)
    assert check_interface_matching(mp, spaces).ok
    assert len(calls) == 4
    evaluated = sorted(mp.patches.index(g) for geos in calls for g in geos)
    sides = sorted(k for i in mp.interfaces for k in (i.a, i.b))
    assert evaluated == sides


def _matching_problems_per_interface(mp, spaces, tol=1e-10):
    # reference: two side evaluations per interface, in interface order
    problems = []
    for iface in mp.interfaces:
        ea = spaces[iface.a].side_space(iface.side_a)
        eb = spaces[iface.b].side_space(iface.side_b)
        if ea.degree != eb.degree or ea.smoothness != eb.smoothness:
            problems.append(("degree", iface.astuple(), (ea.degree, eb.degree)))
            continue
        zb = np.sort(1.0 - eb.breakpoints) if iface.reversed_ else eb.breakpoints
        if len(ea.breakpoints) != len(zb) or np.abs(ea.breakpoints - zb).max() > tol:
            problems.append(("breakpoints", iface.astuple(), None))
            continue
        t = ea.greville()
        pa = mp.patches[iface.a].side_points(iface.side_a, t)
        pb = mp.patches[iface.b].side_points(iface.side_b, 1.0 - t if iface.reversed_ else t)
        gap = float(np.linalg.norm(pa - pb, axis=1).max())
        if gap > 1e-8 * max(mp.diameters()[iface.a], 1.0):
            problems.append(("trace", iface.astuple(), gap))
    return problems


def test_matching_problems_follow_interface_order():
    # a moved middle patch (trace gaps), a refined last patch (breakpoints)
    # and a raised degree (degree), on straight, reversed and curved domains
    grid = grid_domain(3, 1)
    moved = GeometryMap(grid.patches[1].space, grid.patches[1].control + [0.0, 0.1])
    shifted = MultiPatch([grid.patches[0], moved, grid.patches[2]], grid.interfaces,
                         grid.boundary, grid.vertices, grid.tol)
    a = unit_square()
    b = bilinear_patch((2, 1), (1, 1), (2, 0), (1, 0))
    z = [0, 0.5, 1]
    cases = []
    for mp in (grid, shifted, build_multipatch([a, b]), quarter_annulus_domain(m=2, n=2),
               rectangle_with_hole_domain()):
        base = [TensorSplineSpace.from_breakpoints(z, z, 2, 1) for _ in range(mp.n_patches)]
        cases.append((mp, base))
        cases.append((mp, base[:-1] + [base[-1].refine_uniform(1)]))
        cases.append((mp, [TensorSplineSpace.from_breakpoints(z, z, 3, 2)] + base[1:]))
    kinds = set()
    for mp, spaces in cases:
        ref = _matching_problems_per_interface(mp, spaces)
        rep = check_interface_matching(mp, spaces)
        assert rep.problems == ref and rep.ok == (not ref)
        kinds.update(p[0] for p in ref)
    assert kinds == {"degree", "breakpoints", "trace"}
    rep = check_interface_matching(shifted, cases[4][1])
    assert [p[0] for p in rep.problems] == ["trace", "breakpoints"]


def test_geometry_file_roundtrip(tmp_path):
    mp = rectangle_with_hole_domain()
    path = tmp_path / "channel.txt"
    save_multipatch(mp, path)
    mp2 = load_multipatch(path)
    assert mp2.n_patches == mp.n_patches
    assert {i.astuple() for i in mp2.interfaces} == {i.astuple() for i in mp.interfaces}
    assert mp2.boundary == mp.boundary
    for g, h in zip(mp.patches, mp2.patches):
        assert np.abs(g.control - h.control).max() < 1e-15
        if g.is_rational:
            assert np.abs(g.weights - h.weights).max() < 1e-15
    u = np.linspace(0, 1, 5)
    for g, h in zip(mp.patches, mp2.patches):
        assert np.abs(g(u, u) - h(u, u)).max() < 1e-14


def test_parse_domain_strings():
    assert parse_domain("grid(2,3)").n_patches == 6
    assert parse_domain("strip(4)").n_patches == 4
    assert parse_domain("quarter_annulus(1,2,2,2)").n_patches == 4
    assert parse_domain("rectangle_with_hole").n_patches == 11
    with pytest.raises(ValueError):
        parse_domain("doughnut(3)")
    with pytest.raises(ValueError):
        build_domain("doughnut")


# ---------------------------------------------------------------------------
# the family map kernel

FAMILY_DOMAINS = ["quarter_annulus(1,2,8,8)", "grid(3,3)", "rectangle_with_hole"]


def _rel(got, ref):
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


def _pointwise_shape(g):
    # diameter, Jacobian extremes, distortion, area and corners of one map
    # as GeometryMap.eval gives them, on the sample points of the methods
    zx, zy = g.space.space_x.breakpoints, g.space.space_y.breakpoints

    def per_element(z, n, inner):
        return np.concatenate([np.linspace(a, b, n + 2)[1:-1] if inner else np.linspace(a, b, n)
                               for a, b in zip(z[:-1], z[1:])])

    t = np.linspace(0.0, 1.0, 9)
    rim = np.concatenate([g.eval(*np.broadcast_arrays(*uv))[0] for uv in
                          ((0.0, t), (1.0, t), (t, 0.0), (t, 1.0))])
    diameter = np.sqrt(np.sum((rim[:, None] - rim[None]) ** 2, axis=-1).max())
    _, jac = g.eval(*np.meshgrid(per_element(zx, 5, False), per_element(zy, 5, False),
                                 indexing="ij"))
    det = np.linalg.det(jac)
    _, jac = g.eval(*np.meshgrid(per_element(zx, 4, True), per_element(zy, 4, True),
                                 indexing="ij"))
    sv = np.linalg.svd(jac, compute_uv=False)
    xs, wx = element_rule(zx, 6)
    ys, wy = element_rule(zy, 6)
    _, jac = g.eval(*np.meshgrid(xs.ravel(), ys.ravel(), indexing="ij"))
    area = np.einsum("i,j,ij->", wx.ravel(), wy.ravel(), np.linalg.det(jac))
    corners = g.eval(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))[0]
    return (diameter, det.min(), det.max(), np.max(sv[..., 0] / sv[..., 1]), area, corners)


@pytest.mark.parametrize("spec", FAMILY_DOMAINS)
def test_family_side_traces_match_family_of_one_and_pointwise_map(spec):
    from ietistokes.geometry import SIDES, _map_families, side_param, side_traces

    mp = parse_domain(spec)
    families = _map_families(mp.patches)
    if spec == "rectangle_with_hole":  # four rational rings, seven bilinear squares
        assert families == [[0, 1, 2, 3], list(range(4, 11))]
    else:
        assert families == [list(range(mp.n_patches))]
    t = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 1.0, 9), [1.0]])
    params = dict.fromkeys(SIDES, t)
    for members in families:
        geos = [mp.patches[k] for k in members]
        family = side_traces(geos, params)
        for j, g in enumerate(geos):
            alone = side_traces([g], params)
            for side in SIDES:
                assert all(a.shape == (len(geos), len(t), 2) for a in family[side])
                for got, ref in zip(family[side], alone[side]):
                    assert np.array_equal(got[j], ref[0]), (j, side)
                pts, jac = g.eval(*side_param(side, t))
                tangent = jac[..., 1 if side in ("west", "east") else 0]
                assert _rel(family[side][0][j], pts) < 1e-13
                assert _rel(family[side][1][j], tangent) < 1e-13


@pytest.mark.parametrize("spec", FAMILY_DOMAINS)
def test_family_shapes_match_family_of_one_and_pointwise_map(spec):
    from ietistokes.geometry import _corner_points, _jacobian_ranges, _outline, _per_map_family

    mp = parse_domain(spec)
    ranges = _per_map_family(mp.patches, _jacobian_ranges)
    corners = _corner_points(_per_map_family(mp.patches, _outline))
    report = validate_topology(mp)
    areas = mp.areas()
    for k, g in enumerate(mp.patches):
        # the family's values are the patch's own, bitwise
        assert mp.diameters()[k] == g.diameter()
        assert tuple(ranges[k]) == g.jacobian_range()
        assert np.array_equal(corners[k], np.array(list(g.corners().values())))
        assert report.distortions[k] == g.distortion() and areas[k] == g.area()
        # ... and those of the pointwise evaluator, to rounding
        diameter, dmin, dmax, distortion, area, pts = _pointwise_shape(g)
        assert abs(mp.diameters()[k] - diameter) <= 1e-13 * diameter
        assert abs(ranges[k][0] - dmin) <= 1e-13 * abs(dmax)
        assert abs(ranges[k][1] - dmax) <= 1e-13 * abs(dmax)
        assert abs(report.distortions[k] - distortion) <= 1e-13 * distortion
        assert abs(areas[k] - area) <= 1e-13 * area
        assert _rel(corners[k], pts) < 1e-13


def test_degenerate_patch_inside_a_family_is_named_by_build_multipatch():
    squares = [square(k, 0, k + 1, 1) for k in range(4)]
    squares[2] = bilinear_patch((2, 0), (3, 0), (3, 0.5), (2, 0.5))  # crossed quad
    with pytest.raises(DegenerateJacobianError, match="patch 2 is degenerate"):
        build_multipatch(squares)


def test_map_kernel_chunks_keep_patch_order(monkeypatch):
    # a bound of a few patches a chunk gives the values of one chunk
    from ietistokes import geometry
    from ietistokes.geometry import SIDES, _shape, side_traces

    mp = parse_domain("quarter_annulus(1,2,8,8)")
    t = np.linspace(0.0, 1.0, 7)
    whole = (_shape(mp.patches), side_traces(mp.patches, dict.fromkeys(SIDES, t)))
    cuts = []
    real = geometry._chunks
    monkeypatch.setattr(geometry, "_chunks",
                        lambda n, per, bound: cuts.append(real(n, per, bound)) or cuts[-1])
    monkeypatch.setattr(geometry, "MAP_CHUNK_BYTES", 20 * geometry._GRID_BYTES * 9)
    chunked = (_shape(mp.patches), side_traces(mp.patches, dict.fromkeys(SIDES, t)))
    # the diameters' 4 sides and distances, Jacobian grid, outline, 4 sides
    assert len(cuts) == 11 and all(len(c) >= 2 for c in cuts)
    assert all(c[0].start == 0 and c[-1].stop == 64 for c in cuts)
    assert all(a.stop == b.start for c in cuts for a, b in zip(c[:-1], c[1:]))
    for got, ref in zip(chunked[0], whole[0]):
        assert np.array_equal(got, ref)
    for side in SIDES:
        for got, ref in zip(chunked[1][side], whole[1][side]):
            assert np.array_equal(got, ref)


def _solve_path(spec):
    from ietistokes.assembly import (
        manufactured_pressure,
        manufactured_rhs,
        manufactured_velocity,
        manufactured_velocity_gradient,
        taylor_hood_spaces,
        total_errors,
    )
    from ietistokes.ieti import solve_stokes_ieti

    mp = parse_domain(spec)
    spaces = taylor_hood_spaces(mp, 1, refinement=1)
    us, ps, report = solve_stokes_ieti(mp, spaces, rhs=manufactured_rhs,
                                       dirichlet=manufactured_velocity)
    total_errors(mp, spaces, us, ps, manufactured_velocity, manufactured_velocity_gradient,
                 manufactured_pressure)
    assert report.converged


def test_solve_path_never_calls_the_pointwise_map(monkeypatch):
    def pointwise(self, *args, **kwargs):
        raise AssertionError("GeometryMap.eval called")

    monkeypatch.setattr(GeometryMap, "eval", pointwise)
    _solve_path("quarter_annulus(1,2,8,8)")


def test_map_kernel_calls_do_not_grow_with_the_patch_count(monkeypatch):
    # with the chunk bound lifted, every map evaluation of a solve (domain,
    # spaces, assembly, constraints, errors) is one kernel call per family
    # and grid: 64 and 256 patches make the same calls
    from ietistokes import assembly, geometry

    real = geometry._geometry_tables
    monkeypatch.setattr(geometry, "CHUNK_BYTES", 2**40)
    monkeypatch.setattr(geometry, "MAP_CHUNK_BYTES", 2**40)
    counts = []
    for spec in ("quarter_annulus(1,2,8,8)", "quarter_annulus(1,2,16,16)"):
        calls = []

        def counting(geos, tables):
            calls.append(len(geos))
            return real(geos, tables)

        monkeypatch.setattr(geometry, "_geometry_tables", counting)
        monkeypatch.setattr(assembly, "_geometry_tables", counting)
        _solve_path(spec)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_map_kernels_tabulate_once_per_call_whatever_the_chunks(monkeypatch):
    # one patch a chunk (bounds of 1 byte) and one chunk (bounds lifted):
    # the kernel calls differ, the spline recursions do not. Each kernel
    # call makes one per direction of each space it tabulates: side_traces
    # the geometry space per side, _on_grid the geometry space, and
    # _element_tables the velocity, pressure and geometry spaces
    from ietistokes import assembly, bspline, geometry
    from ietistokes.assembly import _element_tables, taylor_hood_spaces
    from ietistokes.geometry import SIDES, _on_grid, side_traces

    mp = parse_domain("quarter_annulus(1,2,4,4)")  # 16 patches, one family
    spaces = taylor_hood_spaces(mp, 1, refinement=1)
    members = list(range(mp.n_patches))
    t = np.linspace(0.0, 1.0, 5)
    kernels = (
        lambda: side_traces(mp.patches, dict.fromkeys(SIDES, t)),
        lambda: _on_grid(mp.patches, t, t, lambda pts, jac, det: det),
        lambda: list(_element_tables(mp.patches, members, spaces[0], 3)),
    )
    recursions, chunks = [], []
    real_eval, real_kernel = bspline.eval_all_derivatives, geometry._geometry_tables
    monkeypatch.setattr(bspline, "eval_all_derivatives",
                        lambda *a: recursions.append(a) or real_eval(*a))
    for module in (geometry, assembly):
        monkeypatch.setattr(module, "_geometry_tables",
                            lambda geos, *grid: chunks.append(geos) or real_kernel(geos, *grid))
    counts = []
    for bound in (1, 2**40):
        monkeypatch.setattr(geometry, "CHUNK_BYTES", bound)
        monkeypatch.setattr(geometry, "MAP_CHUNK_BYTES", bound)
        for kernel in kernels:
            recursions.clear()
            chunks.clear()
            kernel()
            counts.append((len(recursions), len(chunks)))
    assert counts == [(8, 64), (2, 16), (6, 16), (8, 4), (2, 1), (6, 1)]
