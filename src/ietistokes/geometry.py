"""Geometry maps and multi-patch topology.

A patch is the image of the unit square under a (possibly rational)
tensor-product spline map. Sides are named west/east/south/north (west:
xi1 = 0, east: xi1 = 1, south: xi2 = 0, north: xi2 = 1); the edge parameter
runs with increasing xi2 on west/east and increasing xi1 on south/north.

The topology of a multi-patch domain follows from one decision: which patch
corners are the same vertex. A corner joins the first vertex, in patch
order, whose first point lies within tol (default: 1e-8 times the median
patch diameter). A side is the pair of its end vertices, and two sides of
different patches with the same pair form an interface. Patches are glued
along whole edges: a vertex inside an unmatched side is a partial edge
overlap (T-junction) and is rejected.

Maps with equal geometry spaces (degrees and knots compared by value) that
are all rational or all polynomial form a family (_map_families). One
kernel, _geometry_tables, evaluates a family on a tensor grid of parameters
by sum factorization from the univariate tables of the grid (_grid_tables,
built once per kernel call), and every grid-shaped evaluation of the
package runs on it, over chunks of the family whose temporaries stay
within a bound:
the element quadrature of assembly (CHUNK_BYTES), the side traces, and the
corners, diameters, Jacobian extremes, distortions and areas
(MAP_CHUNK_BYTES). A single map is a family of one, so the GeometryMap
methods are family-of-one calls of the same code. side_traces evaluates a
family along a set of sides: points, tangents dx/dt and outward normals
times the length element. It alone knows a side's tangent column and
outward rotation; the flux constraints, the Dirichlet projection,
side_normal, the interface checks and the T-junction search read it.
GeometryMap.eval evaluates one map at arbitrary points; it is the
pointwise reference of the tests and no solve calls it.
"""

import math

import numpy as np

from .bspline import TensorSplineSpace, UnivariateSplineSpace, gauss_rule_1d, rule_on_elements

__all__ = (
    "SIDES",
    "GeometryMap",
    "Interface",
    "MultiPatch",
    "TopologyReport",
    "MatchReport",
    "DegenerateJacobianError",
    "TopologyError",
    "build_multipatch",
    "validate_topology",
    "check_interface_matching",
    "save_multipatch",
    "load_multipatch",
    "bilinear_patch",
    "grid_points",
    "side_traces",
)

SIDES = ("west", "east", "south", "north")

# (corner at edge parameter 0, corner at edge parameter 1), corners as (cx, cy)
_SIDE_CORNERS = {
    "west": ((0, 0), (0, 1)),
    "east": ((1, 0), (1, 1)),
    "south": ((0, 0), (1, 0)),
    "north": ((0, 1), (1, 1)),
}

_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))  # the order of GeometryMap.corners


class DegenerateJacobianError(RuntimeError):
    """The geometry Jacobian determinant is not strictly positive."""


class TopologyError(RuntimeError):
    """The patches do not form an admissible multi-patch decomposition."""


# per side: (index of the parameter fixed on it, its value, signs turning
# the tangent (t_y, t_x) into the outward normal)
_SIDE_FRAMES = {
    "west": (0, 0.0, (-1.0, 1.0)),
    "east": (0, 1.0, (1.0, -1.0)),
    "south": (1, 0.0, (1.0, -1.0)),
    "north": (1, 1.0, (-1.0, 1.0)),
}


def _side_frame(side):
    if side not in _SIDE_FRAMES:
        raise ValueError("unknown side %r" % (side,))
    return _SIDE_FRAMES[side]


# ---------------------------------------------------------------------------
# families of maps and the one map kernel

CHUNK_BYTES = 2**20  # bound on a chunk's temporaries in the element kernel of assembly

# bound on a chunk's temporaries in the map kernels here (side traces and
# per-map shapes). It stays under glibc's default mmap threshold (128 KB):
# freeing a larger temporary raises glibc's dynamic threshold, and later
# mid-size arrays then stay on the heap. With 1 MB chunks here, the peak RSS
# of a quarter_annulus(1,2,8,8) p2 l2 solve measured 0.5 MB higher.
MAP_CHUNK_BYTES = 2**17

_GRID_BYTES = 8 * 24  # _geometry_tables' temporaries a grid point and map: 24 floats


def _chunks(n, per_patch, bound=None):
    """Consecutive slices of range(n), each of at least one and at most
    bound // per_patch patches (bound: CHUNK_BYTES when None)."""
    size = max(1, (CHUNK_BYTES if bound is None else bound) // per_patch)
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _space_key(space):
    """Degrees and knot bytes of a tensor spline space, per direction."""
    return tuple((s.degree, s.knots.tobytes()) for s in (space.space_x, space.space_y))


def _map_families(geos):
    """Map numbers grouped into families, each list increasing.

    The maps of a family have equal geometry spaces (degrees and knots,
    compared by value) and are all rational or all polynomial, so they
    differ only in their control nets and weights. Families come in the
    order of their first map.
    """
    groups = {}
    for k, g in enumerate(geos):
        groups.setdefault((_space_key(g.space), g.is_rational), []).append(k)
    return list(groups.values())


def _per_map_family(geos, kernel, *args):
    """Run kernel(family, *args) once per family of geos (_map_families).

    The kernel returns an array, or a tuple of arrays, with a leading axis
    over the maps of the family it is given; the result has the same
    arrays with a leading axis over geos, in their order.
    """
    geos = list(geos)
    out = None
    for members in _map_families(geos):
        res = kernel([geos[k] for k in members], *args)
        parts = res if isinstance(res, tuple) else (res,)
        if out is None:
            out = tuple(np.empty((len(geos),) + a.shape[1:], dtype=a.dtype) for a in parts)
        for o, a in zip(out, parts):
            o[members] = a
    return out if isinstance(res, tuple) else out[0]


def _grid_tables(space, xs, ys):
    """The univariate tables of a geometry space on the tensor grid xs x ys:
    (gx, gy), the collocation matrices of the values and first derivatives,
    of shape (2, len(xs), nx) and (2, len(ys), ny). One recursion per
    direction; a kernel call builds them once and reads them for every
    chunk of its family."""
    return space.space_x.collocations(xs), space.space_y.collocations(ys)


def _geometry_tables(geos, tables):
    """Jacobian data of a family of maps on the tensor grid of tables.

    geos share one geometry space and are all rational or all polynomial;
    tables are its _grid_tables on a grid xs x ys. Returns pts (P,
    len(xs), len(ys), 2), jac (..., 2, 2) and det (...) for the P =
    len(geos) maps. The stacked control nets are contracted one direction
    at a time (sum factorization, Antolin, Buffa, Calabro, Martinelli &
    Sangalli, CMAME 2015): once with each y-table, then each result with an
    x-table, so every table costs two matrix products whatever P is. Its
    temporaries take about 24 floats a grid point and map (_GRID_BYTES);
    callers bound them by chunks of the family. An overflow or a vanishing
    weight gives non-finite values, without a warning; callers read them as
    a degenerate map (_regular_min).
    """
    (gx0, gx1), (gy0, gy1) = tables
    (nxs, nx), (nys, ny) = gx0.shape, gy0.shape
    rational = geos[0].weights is not None
    hom = np.stack([g.control for g in geos])
    if rational:
        w = np.stack([g.weights for g in geos])[..., None]
        hom = np.concatenate([hom * w, w], axis=-1)
    P, _, ncomp = hom.shape
    net = hom.reshape(P, ny, nx * ncomp).transpose(1, 0, 2).reshape(ny, -1)
    with np.errstate(all="ignore"):
        # (nx, ys * P * ncomp): the y-contracted nets, x index leading
        t0, t1 = ((g @ net).reshape(nys, P, nx, ncomp).transpose(2, 0, 1, 3).reshape(nx, -1)
                  for g in (gy0, gy1))
        s, su, sv = ((gx @ t).reshape(nxs, nys, P, ncomp).transpose(2, 0, 1, 3)
                     for gx, t in ((gx0, t0), (gx1, t0), (gx0, t1)))
        if rational:
            w = s[..., 2]
            pts = s[..., :2] / w[..., None]
            ju = (su[..., :2] * w[..., None] - s[..., :2] * su[..., 2:]) / w[..., None] ** 2
            jv = (sv[..., :2] * w[..., None] - s[..., :2] * sv[..., 2:]) / w[..., None] ** 2
            jac = np.stack([ju, jv], axis=-1)
        else:
            pts = s
            jac = np.stack([su, sv], axis=-1)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    return pts, jac, det


def _regular_min(pts, jac, det):
    """(P,) per map of a family: the least det(jac) over its points, or NaN
    when one of its points, Jacobians or determinants is not finite. A map
    is regular where this is positive; the checks read it as
    `not lo > 0.0`, so a NaN counts as degenerate."""
    P = len(det)
    finite = np.all([np.isfinite(a).reshape(P, -1).all(axis=1) for a in (pts, jac, det)],
                    axis=0)
    return np.where(finite, det.reshape(P, -1).min(axis=1), np.nan)


def _on_grid(geos, xs, ys, reduce):
    """reduce(pts, jac, det) of the family geos on the grid xs x ys.

    The tables are built once, and the kernel runs over chunks of geos
    whose temporaries fit in MAP_CHUNK_BYTES; reduce returns an array with
    a leading axis over the chunk's maps, and the chunks' arrays are joined
    in order.
    """
    tables = _grid_tables(geos[0].space, xs, ys)
    per_patch = _GRID_BYTES * tables[0].shape[1] * tables[1].shape[1]
    return np.concatenate([reduce(*_geometry_tables(geos[chunk], tables))
                           for chunk in _chunks(len(geos), per_patch, MAP_CHUNK_BYTES)])


def grid_points(geos, xs, ys):
    """(len(geos), len(xs), len(ys), 2): the physical points of each map on
    the parameter grid xs x ys, one kernel pass per family of maps."""
    return _per_map_family(geos, _on_grid, xs, ys, lambda pts, jac, det: pts)


def side_traces(geos, params):
    """The geometry of a family of maps along patch sides.

    geos is a family (one geometry space, all rational or all polynomial);
    params maps each side to a 1d array of edge parameters t. Returns a dict
    mapping each side to (points, tangent, normal), arrays of shape
    (len(geos), len(t), 2): the physical points, the tangent dx/dt and the
    outward normal times the length element, so that the integral of f n ds
    over the side is the integral over t in [0, 1] of f(t) * normal(t). One
    table build per side, and one kernel call per side and chunk of the
    family. This is the one place
    that decides which parameter runs along a side, which Jacobian column is
    its tangent and which rotation points outward.
    """
    geos = list(geos)
    out = {}
    for side, t in params.items():
        fixed, value, signs = _side_frame(side)
        t = np.asarray(t, dtype=float).ravel()
        grid = (np.array([value]), t) if fixed == 0 else (t, np.array([value]))
        tables = _grid_tables(geos[0].space, *grid)
        pts = np.empty((len(geos), t.size, 2))
        tangent = np.empty_like(pts)
        for chunk in _chunks(len(geos), _GRID_BYTES * t.size, MAP_CHUNK_BYTES):
            x, jac, _ = _geometry_tables(geos[chunk], tables)
            pts[chunk] = x.reshape(-1, t.size, 2)
            tangent[chunk] = jac[..., 1 - fixed].reshape(-1, t.size, 2)
        out[side] = (pts, tangent, tangent[..., ::-1] * signs)
    return out


def _patch_side_traces(patches, params):
    """side_traces of many patches, each at its own sides.

    params[k] maps sides of patch k to edge parameters t. Returns per patch
    a dict side -> (points, tangent, normal) of shape (len(t), 2), from one
    side_traces call per family of maps and distinct (side, t).
    """
    out = [{} for _ in patches]
    for members in _map_families(patches):
        groups = {}  # (side, bytes of t) -> (t, patch numbers)
        for k in members:
            for side, t in params[k].items():
                t = np.asarray(t, dtype=float).ravel()
                groups.setdefault((side, t.tobytes()), (t, []))[1].append(k)
        for (side, _), (t, ks) in groups.items():
            traces = side_traces([patches[k] for k in ks], {side: t})[side]
            for j, k in enumerate(ks):
                out[k][side] = tuple(a[j] for a in traces)
    return out


def side_corners(side):
    return _SIDE_CORNERS[side]


# per-map kernels on a family: each returns arrays with a leading axis over
# the family's maps


def _element_samples(space, n, inner):
    """n samples per element of a univariate space's breakpoints, the ends
    included, or (inner) n samples strictly inside each element."""
    z = space.breakpoints
    if inner:
        return np.concatenate([np.linspace(a, b, n + 2)[1:-1] for a, b in zip(z[:-1], z[1:])])
    return np.concatenate([np.linspace(a, b, n) for a, b in zip(z[:-1], z[1:])])


def _outline(geos):
    """(P, 3, 3, 2): the points at parameters (0, 1/2, 1) x (0, 1/2, 1) of a
    family, so outline[:, 2 cx, 2 cy] is the corner (cx, cy) and the side
    midpoints lie between the corners (see _SIDE_MIDS)."""
    return _on_grid(geos, (0.0, 0.5, 1.0), (0.0, 0.5, 1.0), lambda pts, jac, det: pts)


_SIDE_MIDS = {"west": (0, 1), "east": (2, 1), "south": (1, 0), "north": (1, 2)}


def _corner_points(outline):
    """(P, 4, 2) corners, in _CORNERS order, of an outline."""
    return outline[:, [2 * cx for cx, _ in _CORNERS], [2 * cy for _, cy in _CORNERS]]


def _diameters(geos, n=9):
    """(P,) diameters estimated from n uniform samples on each side: the
    largest distance between two samples."""
    t = np.linspace(0.0, 1.0, n)
    traces = side_traces(geos, {"west": t, "east": t, "south": t[1:-1], "north": t[1:-1]})
    rim = np.concatenate([x for x, _, _ in traces.values()], axis=1)  # (P, 4n - 4, 2)
    d2 = np.zeros(len(rim))
    for chunk in _chunks(len(rim), 4 * rim[0].nbytes, MAP_CHUNK_BYTES):
        with np.errstate(all="ignore"):  # a non-finite rim gives a non-finite diameter
            for j in range(rim.shape[1]):  # the farthest sample from each sample
                far = np.sum((rim[chunk] - rim[chunk, j, None]) ** 2, axis=-1).max(axis=1)
                d2[chunk] = np.maximum(d2[chunk], far)
    return np.sqrt(d2)


def _jacobian_ranges(geos, n=5):
    """(P, 2): min and max of det(jac) on an n x n per-element sample grid;
    the min is NaN where a value there is not finite (_regular_min)."""
    space = geos[0].space

    def extremes(pts, jac, det):
        return np.stack([_regular_min(pts, jac, det),
                         det.reshape(len(det), -1).max(axis=1)], axis=1)

    return _on_grid(geos, _element_samples(space.space_x, n, False),
                    _element_samples(space.space_y, n, False), extremes)


def _distortions(geos, n=4):
    """(P,): max of ||jac|| * ||jac^-1|| (spectral norms) on n x n samples
    strictly inside each element."""
    space = geos[0].space

    def distortion(pts, jac, det):
        sv = np.linalg.svd(jac, compute_uv=False)
        return (sv[..., 0] / sv[..., 1]).reshape(len(jac), -1).max(axis=1)

    return _on_grid(geos, _element_samples(space.space_x, n, True),
                    _element_samples(space.space_y, n, True), distortion)


def _areas(geos, n=6):
    """(P,): areas by per-element Gauss quadrature of det(jac) with n points
    per direction."""
    space = geos[0].space
    rule = gauss_rule_1d(n)
    xs, wx = rule_on_elements(space.space_x.breakpoints, rule)
    ys, wy = rule_on_elements(space.space_y.breakpoints, rule)
    return _on_grid(geos, xs.ravel(), ys.ravel(),
                    lambda pts, jac, det: np.einsum("i,j,pij->p", wx.ravel(), wy.ravel(), det))


class GeometryMap:
    """Tensor-product spline (or NURBS) map from the unit square to the plane.

    Parameters
    ----------
    space : TensorSplineSpace
        Space of the coordinate functions; x index runs fastest in the
        control net.
    control : (dim, 2) array
        Control points, finite.
    weights : (dim,) array or None
        Positive finite weights; None for a polynomial map.
    """

    def __init__(self, space, control, weights=None):
        self.space = space
        self.control = np.asarray(control, dtype=float)
        if self.control.shape != (space.dim, 2):
            raise ValueError("control net must have shape (dim, 2)")
        if not np.isfinite(self.control).all():
            raise ValueError("control points must be finite")
        if weights is None:
            self.weights = None
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (space.dim,):
                raise ValueError("weights must have shape (dim,)")
            if not ((self.weights > 0) & np.isfinite(self.weights)).all():
                raise ValueError("weights must be positive and finite")

    @property
    def is_rational(self):
        return self.weights is not None

    def _homogeneous(self):
        if self.weights is None:
            return self.control, None
        return self.control * self.weights[:, None], self.weights

    def eval(self, u, v, nders=1):
        """Map values and first derivatives at parameter points.

        u, v are broadcastable arrays; returns (points, jac) with points of
        shape u.shape + (2,) and jac of shape u.shape + (2, 2), jac[..., i, j]
        = d x_i / d xi_j. With nders=0 only points are computed and jac is
        None. The pointwise evaluator, and the tests' reference for the
        family kernel; the package evaluates maps on grids through
        _geometry_tables.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        shape = u.shape
        sx, sy = self.space.space_x, self.space.space_y
        hom, w = self._homogeneous()
        coeffs = hom if w is None else np.column_stack([hom, w])
        net = coeffs.reshape(self.space.ny, self.space.nx, -1)

        fx, dx = sx.eval_all(u.ravel(), nders)
        fy, dy = sy.eval_all(v.ravel(), nders)
        rows = fy[:, None, None] + np.arange(sy.degree + 1)[None, :, None]
        cols = fx[:, None, None] + np.arange(sx.degree + 1)[None, None, :]
        block = net[rows, cols]  # (n, py+1, px+1, ncomp) control block per point
        s = np.einsum("na,nb,nbac->nc", dx[0], dy[0], block)
        pts = s if w is None else s[:, :2] / s[:, 2:]
        if not nders:
            return pts.reshape(shape + (2,)), None
        ds = np.stack([np.einsum("na,nb,nbac->nc", dx[1], dy[0], block),
                       np.einsum("na,nb,nbac->nc", dx[0], dy[1], block)], axis=-1)
        if w is None:
            jac = ds
        else:  # quotient rule
            wsum = s[:, 2:, None]
            jac = (ds[:, :2] * wsum - s[:, :2, None] * ds[:, 2:]) / wsum**2
        return pts.reshape(shape + (2,)), jac.reshape(shape + (2, 2))

    def __call__(self, u, v):
        return self.eval(u, v, nders=0)[0]

    # the methods below evaluate the map as a family of one

    def corners(self):
        """Physical images of the four parameter corners, keyed by (cx, cy)."""
        pts = _corner_points(_outline([self]))[0]
        return dict(zip(_CORNERS, pts))

    def side_points(self, side, t):
        """Physical points of a side at edge parameters t (1d)."""
        return side_traces([self], {side: t})[side][0][0]

    def side_normal(self, side, t, unit=False):
        """Outward normal along a side at edge parameters t (1d).

        Without unit=True the result is the outward normal times the length
        element (see side_traces).
        """
        n = side_traces([self], {side: t})[side][2][0]
        if unit:
            n = n / np.linalg.norm(n, axis=-1, keepdims=True)
        return n

    def jacobian_range(self, n=5):
        """Extremes of det(jac) on an n x n per-element sample grid."""
        lo, hi = _jacobian_ranges([self], n)[0]
        return float(lo), float(hi)

    def distortion(self, n=4):
        """max of ||jac|| * ||jac^-1|| (spectral norms) over a sample grid."""
        return float(_distortions([self], n)[0])

    def diameter(self, n=9):
        """Diameter of the patch, estimated from boundary samples."""
        return float(_diameters([self], n)[0])

    def area(self, n=6):
        """Area by per-element Gauss quadrature of det(jac)."""
        return float(_areas([self], n)[0])


def bilinear_patch(p00, p10, p01, p11):
    """Bilinear map of the unit square onto a quadrilateral."""
    space = TensorSplineSpace.from_breakpoints([0.0, 1.0], [0.0, 1.0], 1, 0)
    control = np.array([p00, p10, p01, p11], dtype=float)
    return GeometryMap(space, control)


class Interface:
    """A shared whole edge between two patches.

    a < b are patch indices; reversed_ is True when the edge parameters of the
    two sides run in opposite directions.
    """

    def __init__(self, a, side_a, b, side_b, reversed_):
        if not a < b:
            raise ValueError("interface patches must satisfy a < b")
        self.a = int(a)
        self.side_a = side_a
        self.b = int(b)
        self.side_b = side_b
        self.reversed_ = bool(reversed_)

    def astuple(self):
        return (self.a, self.side_a, self.b, self.side_b, self.reversed_)

    def __repr__(self):
        arrow = "<->" if not self.reversed_ else "<-|->"
        return "Interface(%d.%s %s %d.%s)" % (self.a, self.side_a, arrow, self.b, self.side_b)

    def __eq__(self, other):
        return isinstance(other, Interface) and self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())


class Vertex:
    """A physical corner point with its (patch, corner) incidences."""

    def __init__(self, point, members):
        self.point = np.asarray(point, dtype=float)
        self.members = list(members)  # (patch index, (cx, cy))

    @property
    def patches(self):
        return sorted({k for k, _ in self.members})

    def __repr__(self):
        return "Vertex(%s, patches=%s)" % (np.round(self.point, 6), self.patches)


class MultiPatch:
    """Patches, interfaces, boundary tags and shared vertices."""

    def __init__(self, patches, interfaces, boundary, vertices, tol, diameters=None):
        self.patches = list(patches)
        self.interfaces = list(interfaces)
        self.boundary = dict(boundary)  # (patch, side) -> "dirichlet" | "neumann"
        self.vertices = list(vertices)
        self.tol = float(tol)
        if diameters is None:
            diameters = _per_map_family(self.patches, _diameters)
        self._diameters = np.array(diameters, dtype=float)
        self._diameters.flags.writeable = False  # shared by every caller
        self._side_roles = {}
        for iface in self.interfaces:
            self._side_roles[(iface.a, iface.side_a)] = "interface"
            self._side_roles[(iface.b, iface.side_b)] = "interface"
        for key, tag in self.boundary.items():
            self._side_roles[key] = tag

    @property
    def n_patches(self):
        return len(self.patches)

    @property
    def pressure_up_to_constant(self):
        """True iff no side is tagged "neumann": with the velocity Dirichlet
        on the whole boundary, int div v = 0 for every test function v and
        the pressure is determined only up to a constant, so the solvers fix
        its mean and the pressure Schur spectrum leaves it out. A do-nothing
        (Neumann) side fixes the level itself (Elman, Silvester & Wathen,
        Finite Elements and Fast Iterative Solvers, 2014, ch. 3)."""
        return "neumann" not in self.boundary.values()

    def side_role(self, k, side):
        return self._side_roles[(k, side)]

    def side_roles(self, k):
        return {side: self.side_role(k, side) for side in SIDES}

    def diameters(self):
        """Patch diameters (GeometryMap.diameter), computed once per domain."""
        return self._diameters

    def areas(self, n=6):
        """Patch areas (GeometryMap.area), one kernel pass per family."""
        return _per_map_family(self.patches, _areas, n)

    def vertex_is_dirichlet(self, vertex):
        """True when the vertex lies on the closure of the Dirichlet boundary."""
        for k, corner in vertex.members:
            for side in SIDES:
                if corner in side_corners(side) and self._side_roles.get((k, side)) == "dirichlet":
                    return True
        return False

    def primal_vertices(self):
        """Vertices shared by two or more patches, off the Dirichlet boundary."""
        return [
            j
            for j, v in enumerate(self.vertices)
            if len(v.patches) >= 2 and not self.vertex_is_dirichlet(v)
        ]


def _cluster_corners(corners, tol):
    """Cluster the patch corners into vertices.

    corners (K, 4, 2) holds the corners of each patch in the order of
    GeometryMap.corners. This is the one place where points are tested for
    coincidence. Corners are visited in patch order and in that order; a
    corner joins the lowest-numbered vertex whose first point lies within
    tol, otherwise it starts a new vertex. Returns the vertices and the map
    (patch, corner) -> vertex id.

    The first points are hashed into square cells of side tol, so a point
    within tol of a corner lies in the corner's cell or one of the eight
    around it: each corner is compared with the vertices of those nine
    cells only, not with all vertices before it.
    """
    vertices = []
    firsts = []  # the first point of each vertex, as floats
    ids = {}
    cells = {}  # cell -> numbers of the vertices whose first point is in it
    for k, row in enumerate(np.asarray(corners).tolist()):
        for c, (corner, (x, y)) in enumerate(zip(_CORNERS, row)):
            cell = _cell(x, y, tol)
            j = len(vertices)
            if cell is not None:
                cx, cy = cell
                for i in (i for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                          for i in cells.get((cx + dx, cy + dy), ())):
                    ex, ey = firsts[i][0] - x, firsts[i][1] - y
                    if i < j and math.sqrt(ex * ex + ey * ey) < tol:
                        j = i
            if j < len(vertices):
                vertices[j].members.append((k, corner))
            else:
                vertices.append(Vertex(corners[k, c], [(k, corner)]))
                firsts.append((x, y))
                if cell is not None:
                    cells.setdefault(cell, []).append(j)
            ids[(k, corner)] = j
    return vertices, ids


def _cell(x, y, tol):
    """The (floor(x / tol), floor(y / tol)) cell of a point, or None when
    nothing can lie within tol of it (tol not positive, or a non-finite
    point)."""
    if not tol > 0:
        return None
    u, v = x / tol, y / tol
    if not (math.isfinite(u) and math.isfinite(v)):
        return None
    return math.floor(u), math.floor(v)


def _match_sides(n_patches, ids):
    """Interfaces: sides of different patches with the same pair of end vertices.

    The groups keep the order of their first side, so the interfaces come
    sorted by (a, side_a).
    """
    groups = {}
    for k in range(n_patches):
        for side in SIDES:
            ends = tuple(ids[(k, c)] for c in side_corners(side))
            groups.setdefault(tuple(sorted(ends)), []).append((k, side, ends))
    interfaces = []
    for group in groups.values():
        if len(group) > 2:
            raise TopologyError(
                "%d sides share the end vertices %s: %s"
                % (len(group), group[0][2], ", ".join("%d.%s" % (k, s) for k, s, _ in group))
            )
        if len(group) == 2 and group[0][0] != group[1][0]:
            (a, side_a, ends_a), (b, side_b, ends_b) = group
            interfaces.append(Interface(a, side_a, b, side_b, reversed_=ends_a != ends_b))
    return interfaces


def _reject_hanging_vertices(patches, vertices, ids, matched, tol):
    """Raise TopologyError for a vertex lying inside an unmatched side.

    Every partial edge overlap (T-junction) of positive length puts the end
    vertex of one side inside another, unmatched, side. Candidates are the
    vertices in the bounding box of the side's control points (with positive
    weights the side lies in their convex hull); the closest point on the
    side is found by five Gauss-Newton steps on the edge parameter, started
    from the nearest of 17 samples.
    """
    points = np.array([v.point for v in vertices])
    t0 = np.linspace(0.0, 1.0, 17)
    for k, g in enumerate(patches):
        for side in SIDES:
            if (k, side) in matched:
                continue
            ctrl = g.control[g.space.side_dofs(side)]
            lo, hi = ctrl.min(axis=0) - tol, ctrl.max(axis=0) + tol
            inside = np.all((points >= lo) & (points <= hi), axis=1)
            inside[[ids[(k, c)] for c in side_corners(side)]] = False
            cand = np.flatnonzero(inside)
            if not cand.size:
                continue
            p = points[cand]
            samples = g.side_points(side, t0)
            t = t0[np.argmin(np.sum((p[:, None] - samples[None]) ** 2, axis=-1), axis=1)]
            for _ in range(5):
                x, tang, _ = (a[0] for a in side_traces([g], {side: t})[side])
                step = np.sum((x - p) * tang, axis=1) / np.sum(tang * tang, axis=1)
                t = np.clip(t - step, 0.0, 1.0)
            dist = np.linalg.norm(g.side_points(side, t) - p, axis=1)
            if (dist < tol).any():
                j = int(cand[np.argmax(dist < tol)])
                raise TopologyError(
                    "vertex %d at %s lies inside side %d.%s: partial edge overlap (T-junction)"
                    % (j, np.round(vertices[j].point, 6), k, side)
                )


def _shape(geos):
    """Per map of a family: its diameter, min det(jac) (jacobian_range) and
    outline (corners and side midpoints, see _outline)."""
    return _diameters(geos), _jacobian_ranges(geos)[:, 0], _outline(geos)


def build_multipatch(patches, boundary=None, tol=None):
    """Derive interfaces and vertices from the patch corners; assemble a MultiPatch.

    The corners are clustered into vertices first: a corner joins the first
    vertex whose first point lies within tol, in patch order. tol defaults to
    1e-8 times the median patch diameter. A side is the pair of its end
    vertices; two sides of different patches with the same pair form an
    interface, reversed when the pair is swapped, and a pair shared by more
    than two sides raises TopologyError. So does a vertex lying within tol of
    the interior of an unmatched side (a T-junction). A patch whose Jacobian
    is not positive, or whose map has a non-finite value on the samples,
    raises DegenerateJacobianError naming the patch, before any of these. The
    diameters, the Jacobian extremes, the corners and the side
    midpoints come from one kernel pass per family of maps.

    boundary tags the non-interface sides: None makes all of them
    "dirichlet", a callable (patch, side, midpoint) -> tag decides per side;
    a tag other than "dirichlet" or "neumann" raises ValueError.
    """
    patches = list(patches)
    if not patches:
        raise ValueError("a multi-patch domain needs at least one patch")
    diameters, det_min, outline = _per_map_family(patches, _shape)
    bad = np.flatnonzero(~(det_min > 0.0))
    if bad.size:
        raise DegenerateJacobianError("geometry map of patch %d is degenerate: min det(jac) = %g"
                                      % (bad[0], det_min[bad[0]]))
    if tol is None:
        tol = 1e-8 * float(np.median(diameters))
    vertices, ids = _cluster_corners(_corner_points(outline), tol)
    interfaces = _match_sides(len(patches), ids)
    matched = {(i.a, i.side_a) for i in interfaces} | {(i.b, i.side_b) for i in interfaces}
    _reject_hanging_vertices(patches, vertices, ids, matched, tol)
    tags = {}
    for k in range(len(patches)):
        for side in SIDES:
            if (k, side) in matched:
                continue
            tags[(k, side)] = ("dirichlet" if boundary is None
                               else boundary(k, side, outline[(k,) + _SIDE_MIDS[side]]))
    for key, tag in tags.items():
        if tag not in ("dirichlet", "neumann"):
            raise ValueError("unknown boundary tag %r for side %s" % (tag, key))
    return MultiPatch(patches, interfaces, tags, vertices, tol, diameters)


class TopologyReport:
    def __init__(self, ok, violations, n_interfaces, max_vertex_patches, diameters, distortions):
        self.ok = ok
        self.violations = violations
        self.n_interfaces = n_interfaces
        self.max_vertex_patches = max_vertex_patches
        self.diameters = diameters
        self.distortions = distortions

    def __repr__(self):
        return "TopologyReport(ok=%s, interfaces=%d, violations=%s)" % (
            self.ok,
            self.n_interfaces,
            self.violations,
        )


def validate_topology(mp, tol=None, nsample=17):
    """Geometric sanity checks of a multi-patch decomposition.

    Verifies positive Jacobians, that matched sides carry the same trace (not
    just the same corners), that interface normals from both patches are
    opposite, and reports per-patch diameters and distortion. Violations are
    collected, not raised. Every evaluation runs once per family of maps
    (and, for the traces, per distinct side and edge parameters).
    """
    tol = mp.tol if tol is None else float(tol)
    violations = []
    det_min = _per_map_family(mp.patches, _jacobian_ranges)[:, 0]
    for k in np.flatnonzero(~(det_min > 0.0)):
        violations.append(("jacobian", int(k), float(det_min[k])))
    t = np.linspace(0.0, 1.0, nsample)
    params = [{} for _ in mp.patches]
    for iface in mp.interfaces:
        params[iface.a][iface.side_a] = t
        params[iface.b][iface.side_b] = 1.0 - t if iface.reversed_ else t
    traces = _patch_side_traces(mp.patches, params)
    diameters = mp.diameters()
    for iface in mp.interfaces:
        pa, _, na = traces[iface.a][iface.side_a]
        pb, _, nb = traces[iface.b][iface.side_b]
        scale = max(diameters[iface.a], diameters[iface.b])
        gap = float(np.linalg.norm(pa - pb, axis=1).max())
        if gap > 100 * tol * max(scale, 1.0):
            violations.append(("trace", iface.astuple(), gap))
            continue
        na = na / np.linalg.norm(na, axis=-1, keepdims=True)
        nb = nb / np.linalg.norm(nb, axis=-1, keepdims=True)
        if float(np.abs(na + nb).max()) > 1e-6:
            violations.append(("normal", iface.astuple(), float(np.abs(na + nb).max())))
    distortions = _per_map_family(mp.patches, _distortions)
    maxinc = max((len(v.patches) for v in mp.vertices), default=0)
    return TopologyReport(
        ok=not violations,
        violations=violations,
        n_interfaces=len(mp.interfaces),
        max_vertex_patches=maxinc,
        diameters=mp.diameters(),
        distortions=distortions,
    )


class MatchReport:
    def __init__(self, ok, problems):
        self.ok = ok
        self.problems = problems

    def __repr__(self):
        return "MatchReport(ok=%s, problems=%s)" % (self.ok, self.problems)


def _mirror_breakpoints(z):
    return np.sort(1.0 - np.asarray(z))


def check_interface_matching(mp, spaces, tol=1e-10):
    """Check that discrete traces agree along every interface.

    spaces is one TensorSplineSpace per patch. Along each interface the edge
    spaces must have the same degree and smoothness and matching breakpoints
    (mirrored when the orientation is reversed), and the geometry traces must
    agree at the Greville points of the edge space. The Greville points
    are formed once per shared space and side, and the traces come from one
    side_traces call per family of maps and distinct (side, Greville
    points). Returns a MatchReport.
    """
    params = [{} for _ in mp.patches]  # per patch: side -> Greville points
    greville = {}  # (id of a space, side) -> Greville points of its edge space
    found = []  # per interface: a problem, or None while its traces are unchecked
    for iface in mp.interfaces:
        ea = spaces[iface.a].side_space(iface.side_a)
        eb = spaces[iface.b].side_space(iface.side_b)
        if ea.degree != eb.degree or ea.smoothness != eb.smoothness:
            found.append(("degree", iface.astuple(), (ea.degree, eb.degree)))
            continue
        zb = eb.breakpoints if not iface.reversed_ else _mirror_breakpoints(eb.breakpoints)
        if len(ea.breakpoints) != len(zb) or np.abs(ea.breakpoints - zb).max() > tol:
            found.append(("breakpoints", iface.astuple(), None))
            continue
        key = (id(spaces[iface.a]), iface.side_a)
        if key not in greville:
            greville[key] = ea.greville()
        t = greville[key]
        params[iface.a][iface.side_a] = t
        params[iface.b][iface.side_b] = 1.0 - t if iface.reversed_ else t
        found.append(None)
    traces = _patch_side_traces(mp.patches, params)
    diameters = mp.diameters()
    problems = []
    for iface, problem in zip(mp.interfaces, found):
        if problem is None:
            pa = traces[iface.a][iface.side_a][0]
            pb = traces[iface.b][iface.side_b][0]
            gap = float(np.linalg.norm(pa - pb, axis=1).max())
            if gap > 1e-8 * max(diameters[iface.a], 1.0):
                problem = ("trace", iface.astuple(), gap)
        if problem is not None:
            problems.append(problem)
    return MatchReport(ok=not problems, problems=problems)


def save_multipatch(mp, path):
    """Write a multi-patch geometry to a text file.

    Format (line oriented, '#' comments allowed):

        patches <K>
        patch <k>
        degrees <px> <py>
        breakpoints_x <z0> <z1> ...
        breakpoints_y <z0> <z1> ...
        controlpoints           # nx*ny lines "x y", x index fastest
        ...
        weights                 # optional, nx*ny lines
        ...
        interfaces <n>          # optional; must agree with the derived ones
        <a> <side_a> <b> <side_b> <aligned|reversed>
        boundaries <n>
        <k> <side> <dirichlet|neumann>
    """
    lines = ["patches %d" % mp.n_patches]
    for k, g in enumerate(mp.patches):
        sx, sy = g.space.space_x, g.space.space_y
        lines.append("patch %d" % k)
        lines.append("degrees %d %d" % (sx.degree, sy.degree))
        lines.append("smoothness %d %d" % (sx.smoothness, sy.smoothness))
        lines.append("breakpoints_x " + " ".join("%.17g" % z for z in sx.breakpoints))
        lines.append("breakpoints_y " + " ".join("%.17g" % z for z in sy.breakpoints))
        lines.append("controlpoints")
        for p in g.control:
            lines.append("%.17g %.17g" % (p[0], p[1]))
        if g.is_rational:
            lines.append("weights")
            for w in g.weights:
                lines.append("%.17g" % w)
    lines.append("interfaces %d" % len(mp.interfaces))
    for i in mp.interfaces:
        lines.append(
            "%d %s %d %s %s"
            % (i.a, i.side_a, i.b, i.side_b, "reversed" if i.reversed_ else "aligned")
        )
    lines.append("boundaries %d" % len(mp.boundary))
    for (k, side), tag in sorted(mp.boundary.items()):
        lines.append("%d %s %s" % (k, side, tag))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_multipatch(path):
    """Read a multi-patch geometry written by save_multipatch; malformed
    input (README, Domains and geometry files) raises ValueError, which
    names the line of the file where a line is at fault."""
    with open(path) as fh:
        lines = [(i, words) for i, words in
                 enumerate((ln.split("#", 1)[0].split() for ln in fh), 1) if words]
    pos = 0

    def peek():
        return lines[pos][1][0] if pos < len(lines) else None

    def take(n=None, what=None):
        """The fields of the next line: n of them, when n is given."""
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise ValueError("unexpected end of geometry file")
        words = lines[pos - 1][1]
        if n is not None and len(words) != n:
            raise ValueError("%s line needs %d field%s, got %r"
                             % (what, n, "s" * (n != 1), " ".join(words)))
        return words

    def header(key, n):
        words = take()
        if words[0] != key or len(words) != n + 1:
            raise ValueError("expected '%s' with %d value%s, got %r"
                             % (key, n, "s" * (n != 1), " ".join(words)))
        return [int(v) for v in words[1:]]

    def parse():
        nets = []
        for _ in range(header("patches", 1)[0]):
            header("patch", 1)
            px, py = header("degrees", 2)
            if peek() == "smoothness":
                smx, smy = header("smoothness", 2)
            else:
                smx, smy = max(px - 1, 0), max(py - 1, 0)
            axes = []
            for key, p, sm in (("breakpoints_x", px, smx), ("breakpoints_y", py, smy)):
                words = take()
                if words[0] != key:
                    raise ValueError("expected '%s', got %r" % (key, " ".join(words)))
                axes.append(UnivariateSplineSpace([float(v) for v in words[1:]], p, sm))
            space = TensorSplineSpace(*axes)
            header("controlpoints", 0)
            control = np.array([[float(v) for v in take(2, "control point")]
                                for _ in range(space.dim)])
            weights = None
            if peek() == "weights":
                header("weights", 0)
                weights = np.array([float(take(1, "weight")[0]) for _ in range(space.dim)])
            nets.append((space, control, weights))
        interfaces, boundary = None, {}
        while pos < len(lines):
            section = peek()
            if section == "interfaces":
                interfaces = []
                for _ in range(header(section, 1)[0]):
                    a, sa, b, sb, orient = take(5, "interface")
                    if orient not in ("aligned", "reversed"):
                        raise ValueError("interface orientation must be 'aligned' or "
                                         "'reversed', got %r" % orient)
                    interfaces.append(Interface(int(a), sa, int(b), sb, orient == "reversed"))
            elif section == "boundaries":
                for _ in range(header(section, 1)[0]):
                    k, side, tag = take(3, "boundary")
                    boundary[(int(k), side)] = tag
            else:
                take()
                raise ValueError("unexpected section %r" % section)
        return nets, interfaces, boundary

    try:
        nets, explicit_interfaces, boundary = parse()
    except ValueError as err:
        if pos > len(lines):  # the file ended early: no line to name
            raise
        raise ValueError("line %d: %s" % (lines[pos - 1][0], err)) from None
    patches = [GeometryMap(*net) for net in nets]

    mp = build_multipatch(patches, boundary=lambda k, s, mid: boundary.get((k, s), "dirichlet"))
    unknown = sorted(set(boundary) - set(mp.boundary))
    if unknown:
        raise ValueError("boundary entry '%d %s' names no boundary side of a patch" % unknown[0])
    if explicit_interfaces is not None:
        detected = {i.astuple() for i in mp.interfaces}
        wanted = {i.astuple() for i in explicit_interfaces}
        if detected != wanted:
            raise TopologyError("interface section disagrees with detected interfaces")
    return mp
