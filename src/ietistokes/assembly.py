"""Taylor-Hood discretization of the Stokes equations on multi-patch domains.

Velocity components use splines of degree p+1 and pressure degree p, on the
same breakpoints with the same smoothness, pulled back through the geometry
map of each patch. The assembled patch system is

    [ K   D^T ] [u]   [f]
    [ D   0   ] [p] = [h]

with K the vector Laplacian (both velocity components stacked, component
index major), D the divergence rows (one per pressure basis function) and h
the lift contribution of inhomogeneous Dirichlet data. Velocity dofs are
classified as eliminated (Dirichlet), interface (nonzero trace on an
interface edge or shared vertex) or interior.

The free dofs of a patch are ordered [u_gamma | u_inner | p], each velocity
block component major; TaylorHoodPatchSpace.pos maps every (component,
scalar dof) to its position in that order, or to -1 when it is eliminated.
assemble_patch computes the element matrices of a patch with batched
matmuls. PatchStokesSystem builds everything else from them when it is
first asked for: the saddle matrix on the free dofs in one scatter (or its
unsummed triplets), its right-hand side with the Dirichlet lift, the full
forms Ks, D, Mp and the block views K_gg, K_gi, K_ii, D_g, D_i,
scalar_blocks.

Along patch sides, the Dirichlet projection and the interface flux rows
(edge_flux_rows) take points, tangents and outward normals from
geometry.side_traces, one evaluation of the map per patch.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bspline import TensorSplineSpace, element_rule
from .geometry import DegenerateJacobianError, check_interface_matching, side_traces

__all__ = (
    "SingularLocalSystemError",
    "factorize",
    "TaylorHoodPatchSpace",
    "PatchStokesSystem",
    "GlobalStokesSystem",
    "build_taylor_hood",
    "taylor_hood_spaces",
    "assemble_patch",
    "assemble_global",
    "matched_side_dofs",
    "edge_flux_matrix",
    "edge_flux_rows",
    "divergence_bubble",
    "fortin_correction",
    "patch_errors",
    "total_errors",
    "manufactured_velocity",
    "manufactured_velocity_gradient",
    "manufactured_pressure",
    "manufactured_rhs",
)


# ---------------------------------------------------------------------------
# the one checked factorization


class SingularLocalSystemError(RuntimeError):
    """A system handed to `factorize` is singular or numerically singular."""


DENSE_LU_ROWS = 350  # systems up to this many rows are factored dense


class DenseLU:
    """LAPACK LU factors of a small system, with the SuperLU interface the
    package reads: shape, solve (1-D or 2-D right-hand sides) and the unit
    lower and upper triangles L and U, built on demand as sparse matrices.
    """

    def __init__(self, lu, piv):
        self._lu, self._piv = lu, piv
        self.shape = lu.shape
        self._getrs, = sla.get_lapack_funcs(("getrs",), (lu,))

    def solve(self, b):
        # LAPACK getrs without lu_solve's argument checks, which cost more
        # than the solve itself on these sizes
        x, _ = self._getrs(self._lu, self._piv, b)
        return x

    @property
    def L(self):
        return sp.csc_matrix(np.tril(self._lu, -1) + np.eye(self.shape[0]))

    @property
    def U(self):
        return sp.csc_matrix(np.triu(self._lu))


def factorize(A, what):
    """Checked LU of A; every direct solve in the package uses it.

    A is a dense array or any sparse matrix; COO input may repeat entries,
    which are summed. A system of at most DENSE_LU_ROWS rows is densified and
    factored in place by LAPACK getrf (a DenseLU is returned); a larger one
    goes to SuperLU with its default ordering (the SuperLU object is
    returned). On either path a zero pivot, or a relative residual above 1e-6
    on a seeded random right-hand side, raises SingularLocalSystemError
    naming `what`: pivoted LU of a singular saddle system can succeed with
    garbage factors.

    The cut comes from the augmented systems of one patch of
    quarter_annulus(1,2,2,2) at degree p, level l and smoothness s (default
    p-1), as factor time, solve time for 1 and 20 columns, and factor bytes
    (SuperLU: 12 per fill entry; dense: 8 per entry), one 2-core host, BLAS
    on one thread:

        rows  system     factor ms      1-col solve us  20-col solve us  MB
                         splu   getrf   splu   dense    splu   dense     SuperLU dense
        158   p1 l2      0.42   0.11    12     11       109    64        0.13    0.20
        203   p2 l2      0.62   0.21    16     13       121    95        0.31    0.33
        254   p3 l2      1.51   0.39    25     16       300    137       0.60    0.52
        311   p4 l2      2.49   0.67    35     20       441    204       0.90    0.77
        374   p2 l2 s0   1.60   1.09    41     28       596    288       0.75    1.12
        374   p5 l2      3.82   1.11    49     27       606    303       1.36    1.12
        443   p3 l2 s1   2.66   1.59    56     37       812    349       1.29    1.57
        518   p7 l2      9.51   2.60    117    55       1260   463       2.86    2.15
        598   p1 l3      2.38   3.20    52     90       741    556       0.88    2.86
        683   p2 l3      6.56   4.65    112    127      1701   717       2.41    3.73
        774   p3 l3      10.84  6.71    159    165      2051   867       3.58    4.79

    Dense factors faster on every system up to 518 rows; at 598 rows it
    loses on the sparse p1 l3 system, and from 598 rows its 1-column solves
    are slower. From 374 rows a dense factor of a sparse (C0) system holds
    1.5x SuperLU's bytes, 3.3x at 598. The cut sits between 311, where
    dense wins time and bytes on every system measured, and 374.
    """
    n = A.shape[0]
    if n <= DENSE_LU_ROWS:
        A = sp.coo_matrix(A)
        dense = np.bincount(A.col.astype(np.int64) * n + A.row, weights=A.data,
                            minlength=n * n).reshape((n, n), order="F")
        getrf, = sla.get_lapack_funcs(("getrf",), (dense,))
        lu, piv, info = getrf(dense, overwrite_a=True)
        if info > 0:
            raise SingularLocalSystemError("%s is singular: Factor is exactly singular" % what)
        lu = DenseLU(lu, piv)
    else:
        A = sp.csc_matrix(A)
        try:
            lu = spla.splu(A)
        except RuntimeError as err:
            raise SingularLocalSystemError("%s is singular: %s" % (what, err))
    b = np.random.default_rng(7).standard_normal(n)
    rel = np.linalg.norm(A @ lu.solve(b) - b) / np.linalg.norm(b)
    if not rel <= 1e-6:
        raise SingularLocalSystemError(
            "%s is numerically singular (residual %.2e)" % (what, rel))
    return lu


# ---------------------------------------------------------------------------
# spaces and dof classification


class TaylorHoodPatchSpace:
    """Velocity/pressure pair on one patch with its dof classification.

    Scalar velocity dofs are classified once; both components share the
    classification. Block ordering of the local system is
    [u_gamma | u_inner | p] with the two components stacked component-major
    inside each velocity block. pos (2, vel.dim) is the position of each
    (component, scalar dof) in that order, -1 for an eliminated Dirichlet dof.
    """

    def __init__(self, geo, degree, smoothness, refinement, side_roles,
                 dirichlet_corners=(), gamma_corners=()):
        if degree < 1:
            raise ValueError("pressure degree must be at least 1")
        zx = geo.space.space_x.breakpoints
        zy = geo.space.space_y.breakpoints
        self.geo = geo
        self.degree = int(degree)
        self.smoothness = int(smoothness)
        self.refinement = int(refinement)
        self.vel = TensorSplineSpace.from_breakpoints(zx, zy, degree + 1, smoothness).refine_uniform(refinement)
        self.pre = TensorSplineSpace.from_breakpoints(zx, zy, degree, smoothness).refine_uniform(refinement)
        self.side_roles = dict(side_roles)
        for side, role in self.side_roles.items():
            if role not in ("interface", "dirichlet", "neumann"):
                raise ValueError("unknown side role %r on side %r" % (role, side))

        vel = self.vel
        dir_set = set()
        for side, role in self.side_roles.items():
            if role == "dirichlet":
                dir_set.update(vel.side_dofs(side).tolist())
        for corner in dirichlet_corners:
            dir_set.add(vel.corner_dof(*corner))
        gamma_set = set()
        for side, role in self.side_roles.items():
            if role == "interface":
                gamma_set.update(vel.side_dofs(side).tolist())
        for corner in gamma_corners:
            gamma_set.add(vel.corner_dof(*corner))
        gamma_set -= dir_set

        self.dirichlet = np.array(sorted(dir_set), dtype=int)
        self.gamma = np.array(sorted(gamma_set), dtype=int)
        inner = set(range(vel.dim)) - dir_set - gamma_set
        self.inner = np.array(sorted(inner), dtype=int)
        ng, ni = len(self.gamma), len(self.inner)
        self.pos = np.full((2, vel.dim), -1, dtype=int)
        for c in (0, 1):
            self.pos[c, self.gamma] = c * ng + np.arange(ng)
            self.pos[c, self.inner] = 2 * ng + c * ni + np.arange(ni)

    @property
    def n_gamma(self):
        return len(self.gamma)

    @property
    def n_inner(self):
        return len(self.inner)

    @property
    def n_pressure(self):
        return self.pre.dim

    @property
    def n_local(self):
        return 2 * (self.n_gamma + self.n_inner) + self.n_pressure

    def gamma_pos(self, comp, scalar):
        """Positions of interface velocity dofs inside the u_gamma block.

        comp and scalar broadcast against each other; a dof that is not an
        interface dof raises KeyError.
        """
        pos = self.pos[comp, scalar]
        if np.any((pos < 0) | (pos >= 2 * self.n_gamma)):
            raise KeyError("not an interface dof: %r" % (scalar,))
        return pos


def build_taylor_hood(geo, degree, smoothness=None, refinement=0, side_roles=None,
                      dirichlet_corners=(), gamma_corners=()):
    """Taylor-Hood space on a single patch.

    side_roles defaults to all-Dirichlet. smoothness defaults to degree-1
    (the maximum the pressure degree allows).
    """
    if smoothness is None:
        smoothness = degree - 1
    if side_roles is None:
        side_roles = {side: "dirichlet" for side in ("west", "east", "south", "north")}
    return TaylorHoodPatchSpace(geo, degree, smoothness, refinement, side_roles,
                                dirichlet_corners, gamma_corners)


def taylor_hood_spaces(mp, degree, smoothness=None, refinement=0):
    """Matching Taylor-Hood spaces for all patches of a multi-patch domain.

    Corner dofs at vertices on the closure of the Dirichlet boundary are
    eliminated in every patch that touches the vertex; corner dofs at shared
    non-Dirichlet vertices count as interface dofs even when the patches only
    touch at the corner.
    """
    if smoothness is None:
        smoothness = degree - 1
    dir_corners = [[] for _ in range(mp.n_patches)]
    gam_corners = [[] for _ in range(mp.n_patches)]
    for v in mp.vertices:
        if mp.vertex_is_dirichlet(v):
            for k, corner in v.members:
                dir_corners[k].append(corner)
        elif len(v.patches) >= 2:
            for k, corner in v.members:
                gam_corners[k].append(corner)
    spaces = [
        TaylorHoodPatchSpace(mp.patches[k], degree, smoothness, refinement,
                             mp.side_roles(k), dir_corners[k], gam_corners[k])
        for k in range(mp.n_patches)
    ]
    report = check_interface_matching(mp, [s.vel for s in spaces])
    if not report.ok:
        raise ValueError("interface discretizations do not match: %r" % report.problems)
    return spaces


# ---------------------------------------------------------------------------
# batched element quadrature


def _geometry_tables(geo, xs, ys):
    """Jacobian data of the map on the tensor grid xs x ys (1d point arrays).

    Returns pts (len(xs), len(ys), 2), jac (..., 2, 2) and det (...). The
    control net is contracted one direction at a time (sum factorization,
    Antolin, Buffa, Calabro, Martinelli & Sangalli, CMAME 2015): once with
    each y-table, then each result with an x-table, so every table costs two
    matrix products.
    """
    sx, sy = geo.space.space_x, geo.space.space_y
    if geo.weights is None:
        hom = geo.control
        ncomp = 2
    else:
        hom = np.column_stack([geo.control * geo.weights[:, None], geo.weights])
        ncomp = 3
    net = hom.reshape(geo.space.ny, geo.space.nx * ncomp)
    shape = (len(ys), geo.space.nx, ncomp)
    t0 = (sy.collocation(ys) @ net).reshape(shape)
    t1 = (sy.collocation(ys, der=1) @ net).reshape(shape)
    gx0 = sx.collocation(xs)
    gx1 = sx.collocation(xs, der=1)
    s = (gx0 @ t0).transpose(1, 0, 2)
    su = (gx1 @ t0).transpose(1, 0, 2)
    sv = (gx0 @ t1).transpose(1, 0, 2)
    if geo.weights is None:
        pts = s
        jac = np.stack([su, sv], axis=-1)
    else:
        w = s[..., 2]
        pts = s[..., :2] / w[..., None]
        ju = (su[..., :2] * w[..., None] - s[..., :2] * su[..., 2:]) / w[..., None] ** 2
        jv = (sv[..., :2] * w[..., None] - s[..., :2] * sv[..., 2:]) / w[..., None] ** 2
        jac = np.stack([ju, jv], axis=-1)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    return pts, jac, det


def _per_element(grid_values, nelx, nely, nq):
    """(nelx*nq, nely*nq, ...) tensor-grid values as (nel, nq*nq, ...).

    Elements run y-major (x element index fastest) and the quadrature points
    of an element x-major.
    """
    rest = grid_values.shape[2:]
    v = grid_values.reshape((nelx, nq, nely, nq) + rest)
    v = v.transpose((2, 0, 1, 3) + tuple(range(4, 4 + len(rest))))
    return v.reshape((nely * nelx, nq * nq) + rest)


def _tensor_table(tx, ty):
    """(nel, nq*nq, nloc) products of 1d element tables (nelx/nely, nq, n1d).

    Elements and quadrature points are ordered as in _per_element; local
    functions run y-major (x index fastest, like the tensor space numbering).
    """
    nelx, nq, nx = tx.shape
    nely, _, ny = ty.shape
    return np.einsum("xib,yjc->yxijcb", tx, ty).reshape(nely * nelx, nq * nq, ny * nx)


def _element_tables(geo, ths, nq):
    """Quadrature tables of one patch, batched over all elements.

    Uses nq Gauss points per direction per element. Returns a namespace with
    wdet (nel, Q): weights times det(jac); pts (nel, Q, 2): physical points;
    Nv, gu, gv (nel, Q, nlv): velocity basis values and their parametric
    derivatives; jinv (nel, Q, 2, 2): inverse Jacobians, so that the
    physical gradient of function l is gu[..., l] jinv[0] + gv[..., l] jinv[1];
    Np (nel, Q, nlp): pressure basis values; ids_v (nel, nlv) and ids_p
    (nel, nlp): scalar dof ids of the local functions. Raises
    DegenerateJacobianError when det(jac) is not positive at some quadrature
    point.
    """
    vel, pre = ths.vel, ths.pre
    qx, wx = element_rule(vel.space_x.breakpoints, nq)
    qy, wy = element_rule(vel.space_y.breakpoints, nq)
    fvx, tvx = vel.space_x.tabulate(qx)
    fvy, tvy = vel.space_y.tabulate(qy)
    fpx, tpx = pre.space_x.tabulate(qx)
    fpy, tpy = pre.space_y.tabulate(qy)

    nelx, nely = qx.shape[0], qy.shape[0]
    pts, jac, det = (_per_element(a, nelx, nely, nq)
                     for a in _geometry_tables(geo, qx.ravel(), qy.ravel()))
    if det.min() <= 0.0:
        raise DegenerateJacobianError("nonpositive Jacobian inside patch")
    return SimpleNamespace(
        wdet=_tensor_table(wx[..., None], wy[..., None])[..., 0] * det,
        pts=pts,
        Nv=_tensor_table(tvx[0], tvy[0]),
        gu=_tensor_table(tvx[1], tvy[0]),
        gv=_tensor_table(tvx[0], tvy[1]),
        jinv=_inverse_jacobian(jac, det),
        Np=_tensor_table(tpx[0], tpy[0]),
        ids_v=_tensor_ids(vel, fvx, fvy),
        ids_p=_tensor_ids(pre, fpx, fpy),
    )


def _inverse_jacobian(jac, det):
    """Batched inverse of 2x2 Jacobians, written out as adjugate / det."""
    jinv = np.stack([np.stack([jac[..., 1, 1], -jac[..., 0, 1]], axis=-1),
                     np.stack([-jac[..., 1, 0], jac[..., 0, 0]], axis=-1)], axis=-2)
    jinv /= det[..., None, None]
    return jinv


def _tensor_ids(space, fx, fy):
    """(nel, nloc) ids of the active functions, ordered like _tensor_table."""
    ix = fx[:, None] + np.arange(space.space_x.degree + 1)
    iy = fy[:, None] + np.arange(space.space_y.degree + 1)
    ids = space.index(ix[None, :, None, :], iy[:, None, :, None])
    return ids.reshape(len(fy) * len(fx), -1)


# ---------------------------------------------------------------------------
# patch assembly


class PatchStokesSystem:
    """Assembled Stokes forms and right-hand side of one patch.

    Holds the element matrices of the patch (see _element_forms), its load
    and area, and the Dirichlet coefficients. Every assembled form is built
    from them on first use and then cached:

    - saddle_matrix(): [[K, D^T], [D, 0]] on the free dofs, in the
      [u_gamma | u_inner | p] order of ths.pos (CSC), scattered once from
      the element matrices; saddle_entries(): the same entries as unsummed
      triplets; rhs(): its right-hand side, the load minus the Dirichlet
      lift through K in the velocity rows and minus the lift through D in
      the pressure rows, formed element by element;
    - Ks (scalar stiffness, vel.dim x vel.dim), D (divergence, pre.dim x
      2*vel.dim, component major) and Mp (pressure mass), over all dofs
      including the Dirichlet ones;
    - K_gg, K_gi, K_ii, D_g, D_i (both components), as slices of the saddle
      matrix, and scalar_blocks (K_gg, K_gi, K_ii of one component),
      scattered from the scalar element stiffness on each access and not
      cached: the preconditioner reads it once and keeps only K_gg, K_gi.

    The IETI path uses the saddle triplets, the right-hand side and the
    scalar blocks, and never assembles the saddle matrix; the monolithic
    path only Ks, D and Mp.
    """

    def __init__(self, ths, elements, dirichlet_values):
        self.ths = ths
        self._el = elements  # the namespace of _element_forms
        self.load = elements.load  # 2 x vel.dim component loads
        self.area = elements.area
        self.dirichlet_values = dirichlet_values  # (2, len(ths.dirichlet))

    def saddle_matrix(self):
        """Full patch saddle matrix on free dofs, blocks [u_g | u_i | p]."""
        return self._saddle

    def saddle_entries(self):
        """(rows, cols, vals) of the saddle matrix, one triplet per element
        contribution: repeated positions are to be summed."""
        ths, el = self.ths, self._el
        nu = 2 * (ths.n_gamma + ths.n_inner)
        # free positions (e, comp, l) of the velocity functions, -1 if
        # eliminated, and (e, m) of the pressure functions; D^T reuses the
        # entries of D
        pv = ths.pos[:, el.iv].transpose(1, 0, 2).astype(np.int32)
        pp = (nu + el.ip).astype(np.int32)
        rk, ck, vk = _free_entries(el.Ke[:, None], pv[..., None], pv[:, :, None, :])
        rd, cd, vd = _free_entries(el.De, pp[:, None, :, None], pv[:, :, None, :])
        return (np.concatenate([rk, rd, cd]), np.concatenate([ck, cd, rd]),
                np.concatenate([vk, vd, vd]))

    def rhs(self):
        return self._rhs.copy()

    def pressure_average_row(self):
        """Row evaluating the patch average of the pressure."""
        el = self._el
        mass = np.bincount(el.ip.ravel(), weights=el.Me.sum(axis=1).ravel(),
                           minlength=self.ths.pre.dim)  # column sums of Mp
        return mass / self.area

    @cached_property
    def _saddle(self):
        rows, cols, vals = self.saddle_entries()
        n = self.ths.n_local
        return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))

    @cached_property
    def _rhs(self):
        ths, el = self.ths, self._el
        nv, npre = ths.vel.dim, ths.pre.dim
        nu = 2 * (ths.n_gamma + ths.n_inner)
        g = np.zeros((2, nv))
        g[:, ths.dirichlet] = self.dirichlet_values
        gloc = g[:, el.iv].transpose(1, 0, 2)[..., None]  # (e, comp, l, 1)
        lift_u = (el.Ke[:, None] @ gloc)[..., 0]  # (e, comp, l)
        lift_p = (el.De @ gloc).sum(axis=1)[..., 0]  # (e, m)
        fu = self.load - np.stack([
            np.bincount(el.iv.ravel(), weights=lift_u[:, c].ravel(), minlength=nv)
            for c in (0, 1)])
        b = np.empty(nu + npre)
        free = ths.pos >= 0
        b[ths.pos[free]] = fu[free]
        b[nu:] = -np.bincount(el.ip.ravel(), weights=lift_p.ravel(), minlength=npre)
        return b

    @cached_property
    def Ks(self):
        el, nv = self._el, self.ths.vel.dim
        return _coo(el.Ke, el.iv[:, :, None], el.iv[:, None, :], (nv, nv))

    @cached_property
    def D(self):
        el, nv = self._el, self.ths.vel.dim
        cols = np.arange(2)[None, :, None] * nv + el.iv[:, None, :]  # (nel, comp, nlv)
        return _coo(el.De, el.ip[:, None, :, None], cols[:, :, None, :],
                    (self.ths.pre.dim, 2 * nv))

    @cached_property
    def Mp(self):
        el, npre = self._el, self.ths.pre.dim
        return _coo(el.Me, el.ip[:, :, None], el.ip[:, None, :], (npre, npre))

    def _ranges(self):
        ng, ni = self.ths.n_gamma, self.ths.n_inner
        return slice(0, 2 * ng), slice(2 * ng, 2 * (ng + ni)), slice(2 * (ng + ni), None)

    @cached_property
    def K_gg(self):
        g, _, _ = self._ranges()
        return self._saddle[g, g]

    @cached_property
    def K_gi(self):
        g, i, _ = self._ranges()
        return self._saddle[g, i]

    @cached_property
    def K_ii(self):
        _, i, _ = self._ranges()
        return self._saddle[i, i]

    @cached_property
    def D_g(self):
        g, _, p = self._ranges()
        return self._saddle[p, g]

    @cached_property
    def D_i(self):
        _, i, p = self._ranges()
        return self._saddle[p, i]

    @property
    def scalar_blocks(self):
        """(K_gg, K_gi, K_ii) of one velocity component as COO matrices with
        unsummed entries, scattered from the scalar element stiffness."""
        ths, el = self.ths, self._el
        ng, ni = ths.n_gamma, ths.n_inner
        pos = np.where(ths.pos[0] < 2 * ng, ths.pos[0], ths.pos[0] - ng)  # [u_g | u_i]
        pe = pos[el.iv].astype(np.int32)
        rows, cols, vals = _free_entries(el.Ke, pe[:, :, None], pe[:, None, :])
        rg, cg = rows < ng, cols < ng
        return tuple(
            sp.coo_matrix((vals[m], (rows[m] - r0, cols[m] - c0)), shape=shape)
            for m, r0, c0, shape in ((rg & cg, 0, 0, (ng, ng)), (rg & ~cg, 0, ng, (ng, ni)),
                                     (~rg & ~cg, ng, ng, (ni, ni))))

    def expand(self, u_g, u_i):
        """Velocity coefficients (2, nv) from block vectors plus Dirichlet data."""
        ths = self.ths
        x = np.concatenate([u_g, u_i])
        out = np.zeros((2, ths.vel.dim))
        free = ths.pos >= 0
        out[free] = x[ths.pos[free]]
        out[:, ths.dirichlet] = self.dirichlet_values
        return out


def _dirichlet_values(geo, ths, data):
    """Coefficients of the boundary data on the eliminated dofs.

    Corner dofs are interpolated exactly; the remaining dofs of each
    Dirichlet side come from the L2 projection of the trace (in the physical
    arc length, with degree + 3 Gauss points per element) with the corner
    values held fixed.
    """
    vel = ths.vel
    if data is None or not len(ths.dirichlet):
        return np.zeros((2, len(ths.dirichlet)))
    values = np.zeros((2, vel.dim))  # over all scalar dofs
    corners = vel.corner_dofs()
    dofs = np.array(list(corners.values()))
    pts = geo.corners()
    on = np.isin(dofs, ths.dirichlet)
    values[:, dofs[on]] = np.asarray(
        data(np.array([pts[c] for c in corners])[on]), dtype=float).T

    rules = {side: element_rule(vel.side_space(side).breakpoints,
                                vel.side_space(side).degree + 3)
             for side, role in ths.side_roles.items() if role == "dirichlet"}
    traces = side_traces(geo, {side: tq for side, (tq, _) in rules.items()})
    for side, (tq, wq) in rules.items():
        x, tangent, _ = traces[side]
        w = wq.ravel() * np.linalg.norm(tangent, axis=-1)
        B = vel.side_space(side).collocation(tq)
        M = B.T @ (B * w[:, None])
        b = B.T @ (w[:, None] * np.asarray(data(x), dtype=float))
        sd = vel.side_dofs(side)
        # interior dofs of the side, with the two end (corner) values fixed
        values[:, sd[1:-1]] = np.linalg.solve(
            M[1:-1, 1:-1], b[1:-1] - M[1:-1, [0, -1]] @ values[:, sd[[0, -1]]].T).T
    return values[:, ths.dirichlet]


def _element_forms(geo, ths, nq, rhs):
    """Element matrices, load and area of one patch, batched over elements.

    Returns a namespace with Ke (nel, nlv, nlv), the scalar stiffness; De
    (nel, 2, nlp, nlv), the divergence per component; Me (nel, nlp, nlp),
    the pressure mass; iv (nel, nlv) and ip (nel, nlp), the scalar dof ids
    of the local functions; load (2, vel.dim) and area. The quadrature
    tables are dropped on return; assembled systems keep only these arrays.
    """
    t = _element_tables(geo, ths, nq)
    # physical gradients times sqrt(weight * det), laid out (e, l, a, q) so
    # that one matmul contracts derivative direction and quadrature point
    sw = np.sqrt(t.wdet)
    jt = t.jinv.transpose(0, 2, 3, 1) * sw[:, None, None, :]  # (e, b, a, q)
    grad = t.gu.transpose(0, 2, 1)[:, :, None, :] * jt[:, None, 0]
    grad += t.gv.transpose(0, 2, 1)[:, :, None, :] * jt[:, None, 1]
    nel, nlv, _, npts = grad.shape
    flat = grad.reshape(nel, nlv, 2 * npts)
    Nw = t.Np.transpose(0, 2, 1) * sw[:, None, :]  # (e, m, q)

    nv = ths.vel.dim
    load = np.zeros((2, nv))
    if rhs is not None:
        wf = t.wdet[..., None] * np.asarray(rhs(t.pts), dtype=float)
        for c in (0, 1):
            loc = t.Nv.transpose(0, 2, 1) @ wf[..., c, None]  # (nel, nlv, 1)
            load[c] = np.bincount(t.ids_v.ravel(), weights=loc.ravel(), minlength=nv)
    return SimpleNamespace(
        Ke=flat @ flat.transpose(0, 2, 1),
        De=Nw[:, None] @ grad.transpose(0, 2, 3, 1),
        Me=Nw @ Nw.transpose(0, 2, 1),
        iv=t.ids_v, ip=t.ids_p, load=load,
        area=float(sum(t.wdet.sum(axis=1))),  # summed element by element
    )


def assemble_patch(geo, ths, rhs=None, dirichlet=None, nquad=None):
    """Assemble the Stokes forms of one patch.

    rhs and dirichlet are callables taking an (..., 2) array of physical
    points and returning (..., 2) vectors; None means zero. The quadrature
    uses nquad (default: velocity degree + 2) Gauss points per direction per
    element. The assembled matrices are built when first asked for (see
    PatchStokesSystem).
    """
    el = _element_forms(geo, ths, int(nquad) if nquad else ths.vel.space_x.degree + 2, rhs)
    return PatchStokesSystem(ths, el, _dirichlet_values(geo, ths, dirichlet))


def _coo(vals, rows, cols, shape):
    """CSR matrix summing vals at (rows, cols), all broadcast to vals.shape."""
    rows = np.broadcast_to(rows, vals.shape)
    cols = np.broadcast_to(cols, vals.shape)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _free_entries(vals, rows, cols):
    """(rows, cols, vals) of the entries with a free (nonnegative) row and
    column; the three arrays are broadcast together first."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], vals[keep]


# ---------------------------------------------------------------------------
# edge fluxes and the divergence bubble


def edge_flux_rows(geo, vel, sides):
    """Rows evaluating int_edge N_i n_c ds for the dofs with trace on each side.

    Returns {side: (side_dofs, R)} with R of shape (len(side_dofs), 2); the
    flux of a velocity coefficient field u through the side is
    sum_c R[:, c] . u[c, side_dofs]. Each side uses edge degree + geometry
    degree + 2 Gauss points per element; the geometry is evaluated once for
    all sides.
    """
    gdeg = max(geo.space.space_x.degree, geo.space.space_y.degree)
    rules = {side: element_rule(vel.side_space(side).breakpoints,
                                vel.side_space(side).degree + gdeg + 2)
             for side in sides}
    traces = side_traces(geo, {side: tq for side, (tq, _) in rules.items()})
    out = {}
    for side, (tq, wq) in rules.items():
        B = vel.side_space(side).collocation(tq)
        normal = traces[side][2]  # outward normal times length element
        R = np.empty((B.shape[1], 2))
        for c in (0, 1):
            R[:, c] = B.T @ (wq.ravel() * normal[:, c])
        out[side] = vel.side_dofs(side), R
    return out


def edge_flux_matrix(geo, vel, side):
    """edge_flux_rows for a single side: (side_dofs, R)."""
    return edge_flux_rows(geo, vel, [side])[side]


def divergence_bubble(ths, side):
    """Scalar coefficients of the biquadratic bubble attached to a side.

    The bubble is t(1-t) along the side, rises linearly in the transverse
    direction and vanishes on the other three sides of the parameter square.
    """
    vel = ths.vel

    def quad(t):
        return t * (1.0 - t)

    cx = vel.space_x.interpolate
    cy = vel.space_y.interpolate
    if side == "east":
        ax, ay = cx(lambda t: t), cy(quad)
    elif side == "west":
        ax, ay = cx(lambda t: 1.0 - t), cy(quad)
    elif side == "north":
        ax, ay = cx(quad), cy(lambda t: t)
    else:
        ax, ay = cx(quad), cy(lambda t: 1.0 - t)
    return np.outer(ay, ax).ravel()  # index iy major, ix fastest


def fortin_correction(mp, spaces, u_list):
    """Edge-bubble interpolant with the interface fluxes of u.

    u_list holds per-patch velocity coefficients (2, nv), assumed conforming
    with zero trace on the domain boundary. The returned field (same layout)
    has, on every interface, the same net flux as u, so u minus the result is
    orthogonal to the patchwise-constant pressures with zero global mean.
    """
    out = [np.zeros_like(u) for u in u_list]
    diameters = mp.diameters()
    for iface in mp.interfaces:
        k = iface.a
        geo = mp.patches[k]
        ths = spaces[k]
        dofs, R = edge_flux_matrix(geo, ths.vel, iface.side_a)
        flux_u = sum(R[:, c] @ u_list[k][c, dofs] for c in (0, 1))
        nbar = geo.side_normal(iface.side_a, np.array([0.5]), unit=True)[0]
        bub_a = divergence_bubble(ths, iface.side_a)
        psi_a = nbar[:, None] * bub_a[None, :]
        flux_psi = sum(R[:, c] @ psi_a[c, dofs] for c in (0, 1))
        if abs(flux_psi) < 1e-14 * max(1.0, diameters[k]):
            raise ValueError("degenerate bubble flux on interface %r" % (iface,))
        bub_b = divergence_bubble(spaces[iface.b], iface.side_b)
        scale = flux_u / flux_psi
        out[k] += scale * psi_a
        out[iface.b] += scale * nbar[:, None] * bub_b[None, :]
    return out


# ---------------------------------------------------------------------------
# monolithic coupled system


class GlobalStokesSystem:
    """Conforming coupled system over all patches (the direct reference path).

    Velocity dofs matched across interfaces (and shared vertices) are
    identified; pressures are patchwise discontinuous.
    """

    def __init__(self, mp, spaces, systems, scalar_l2g, n_scalar):
        self.mp = mp
        self.spaces = spaces
        self.systems = systems
        self.scalar_l2g = scalar_l2g
        self.n_scalar = n_scalar
        self.pressure_offsets = np.cumsum([0] + [s.pre.dim for s in spaces])
        self.n_pressure = int(self.pressure_offsets[-1])

        # global Dirichlet data: a dof is eliminated when any patch eliminates it
        self.dir_mask = np.zeros(n_scalar, dtype=bool)
        self.dir_values = np.zeros((2, n_scalar))
        for k, ths in enumerate(spaces):
            l2g = scalar_l2g[k]
            gd = systems[k].dirichlet_values
            for j, dof in enumerate(ths.dirichlet):
                gdof = l2g[dof]
                if self.dir_mask[gdof]:
                    if np.abs(self.dir_values[:, gdof] - gd[:, j]).max() > 1e-8:
                        raise ValueError("inconsistent Dirichlet data at shared dof")
                else:
                    self.dir_mask[gdof] = True
                    self.dir_values[:, gdof] = gd[:, j]
        self.free = np.flatnonzero(~self.dir_mask)
        self._free_pos = -np.ones(n_scalar, dtype=int)
        self._free_pos[self.free] = np.arange(len(self.free))

        # assemble global scalar stiffness, divergence, loads
        NV = n_scalar
        Ki, Kj, Kv = [], [], []
        Di, Dj, Dv = [], [], []
        load = np.zeros((2, NV))
        for k, ths in enumerate(spaces):
            l2g = scalar_l2g[k]
            A = systems[k].Ks.tocoo()
            Ki.append(l2g[A.row])
            Kj.append(l2g[A.col])
            Kv.append(A.data)
            B = systems[k].D.tocoo()
            nv = ths.vel.dim
            comp = B.col // nv
            Di.append(B.row + self.pressure_offsets[k])
            Dj.append(comp * NV + l2g[B.col % nv])
            Dv.append(B.data)
            for c in (0, 1):
                np.add.at(load[c], l2g, systems[k].load[c])
        self.Ks = sp.coo_matrix(
            (np.concatenate(Kv), (np.concatenate(Ki), np.concatenate(Kj))), shape=(NV, NV)
        ).tocsr()
        self.D = sp.coo_matrix(
            (np.concatenate(Dv), (np.concatenate(Di), np.concatenate(Dj))),
            shape=(self.n_pressure, 2 * NV),
        ).tocsr()
        self.load = load
        self.Mp = sp.block_diag([s.Mp for s in systems]).tocsr()
        self.area = float(sum(s.area for s in systems))

    @property
    def n_free_velocity(self):
        return 2 * len(self.free)

    @property
    def n_dofs(self):
        return self.n_free_velocity + self.n_pressure

    def free_blocks(self):
        """(K_ff, D_f, f, h) on free velocity dofs, components stacked."""
        f = self.free
        d = np.flatnonzero(self.dir_mask)
        Kf = self.Ks[f]
        Kff = sp.block_diag((Kf[:, f],) * 2).tocsr()
        NV = self.n_scalar
        Dc = self.D.tocsc()
        cols_f = np.concatenate([c * NV + f for c in (0, 1)])
        cols_d = np.concatenate([c * NV + d for c in (0, 1)])
        gd = np.concatenate([self.dir_values[c, d] for c in (0, 1)])
        Df = Dc[:, cols_f].tocsr()
        lift = Kf[:, d] @ self.dir_values[:, d].T  # one column per component
        rhs_f = (self.load[:, f] - lift.T).ravel()
        h = -(Dc[:, cols_d].tocsr() @ gd)
        return Kff, Df, rhs_f, h

    def pressure_integral_row(self):
        return np.asarray(self.Mp.sum(axis=0)).ravel()

    def solve(self, fix_pressure_mean=True):
        """Direct sparse solve; returns per-patch (u, p) coefficient arrays."""
        Kff, Df, rhs_f, h = self.free_blocks()
        nU = Kff.shape[0]
        if fix_pressure_mean:
            m = self.pressure_integral_row()
            A = sp.bmat(
                [
                    [Kff, Df.T, None],
                    [Df, None, sp.csr_matrix(m[:, None])],
                    [None, sp.csr_matrix(m[None, :]), None],
                ],
                format="csc",
            )
            b = np.concatenate([rhs_f, h, [0.0]])
        else:
            A = sp.bmat([[Kff, Df.T], [Df, None]], format="csc")
            b = np.concatenate([rhs_f, h])
        x = factorize(A, "monolithic Stokes system").solve(b)
        uf = x[:nU].reshape(2, -1)
        p = x[nU : nU + self.n_pressure]
        uglob = self.dir_values.copy()
        uglob[:, self.free] = uf
        us = [uglob[:, l2g] for l2g in self.scalar_l2g]
        ps = [
            p[self.pressure_offsets[k] : self.pressure_offsets[k + 1]]
            for k in range(len(self.spaces))
        ]
        return us, ps


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def matched_side_dofs(mp, spaces, iface):
    """Matched velocity dof lists (dofs_a[i] <-> dofs_b[i]) along an interface."""
    dofs_a = spaces[iface.a].vel.side_dofs(iface.side_a)
    dofs_b = spaces[iface.b].vel.side_dofs(iface.side_b)
    if iface.reversed_:
        dofs_b = dofs_b[::-1]
    if len(dofs_a) != len(dofs_b):
        raise ValueError("interface dof counts differ")
    return dofs_a, dofs_b


def assemble_global(mp, spaces, rhs=None, dirichlet=None, nquad=None, systems=None):
    """Assemble the conforming coupled system for a whole multi-patch domain."""
    if systems is None:
        systems = [
            assemble_patch(mp.patches[k], spaces[k], rhs, dirichlet, nquad)
            for k in range(mp.n_patches)
        ]
    offsets = np.cumsum([0] + [s.vel.dim for s in spaces])
    uf = _UnionFind(int(offsets[-1]))
    for iface in mp.interfaces:
        da, db = matched_side_dofs(mp, spaces, iface)
        for i, j in zip(offsets[iface.a] + da, offsets[iface.b] + db):
            uf.union(int(i), int(j))
    for v in mp.vertices:
        if len(v.members) < 2:
            continue
        first = None
        for k, corner in v.members:
            dof = offsets[k] + spaces[k].vel.corner_dof(*corner)
            if first is None:
                first = dof
            else:
                uf.union(int(first), int(dof))
    reps = {}
    scalar_l2g = []
    for k, ths in enumerate(spaces):
        l2g = np.empty(ths.vel.dim, dtype=int)
        for i in range(ths.vel.dim):
            r = uf.find(int(offsets[k] + i))
            if r not in reps:
                reps[r] = len(reps)
            l2g[i] = reps[r]
        scalar_l2g.append(l2g)
    return GlobalStokesSystem(mp, spaces, systems, scalar_l2g, len(reps))


# ---------------------------------------------------------------------------
# errors against a known solution


def patch_errors(geo, ths, u, p, exact_u=None, exact_grad_u=None, exact_p=None, nquad=None):
    """Squared error moments of a discrete solution on one patch.

    Returns a dict with the squared H1 seminorm and L2 errors of the
    velocity, and for the pressure difference its integral p_diff, the area
    and its centred second moment p_diff_m2, the integral of the squared
    deviation from the patch mean. The moment is formed two-pass (mean
    first, then the squared deviations), so a constant offset of the
    pressure does not cancel away its digits; total_errors combines the
    patches.
    """
    t = _element_tables(geo, ths, int(nquad) if nquad else ths.vel.space_x.degree + 3)
    uloc = u.T[t.ids_v]  # (nel, nlv, comp)
    uh = t.Nv @ uloc
    guh = np.stack([t.gu @ uloc, t.gv @ uloc], axis=-1) @ t.jinv  # (e, q, comp, d/dx)
    ue = exact_u(t.pts) if exact_u is not None else 0.0
    ge = exact_grad_u(t.pts) if exact_grad_u is not None else 0.0
    l2 = np.sum(t.wdet * np.sum((uh - ue) ** 2, axis=-1))
    h1 = np.sum(t.wdet * np.sum((guh - ge) ** 2, axis=(-2, -1)))
    area = t.wdet.sum()
    pdiff = pm2 = 0.0
    if p is not None:
        ph = np.einsum("eqm,em->eq", t.Np, p[t.ids_p])
        d = ph - (exact_p(t.pts) if exact_p is not None else 0.0)
        pdiff = np.sum(t.wdet * d)
        pm2 = np.sum(t.wdet * (d - pdiff / area) ** 2)
    return {
        "h1_u_sq": float(h1),
        "l2_u_sq": float(l2),
        "p_diff": float(pdiff),
        "p_diff_m2": float(pm2),
        "area": float(area),
    }


def total_errors(mp, spaces, us, ps, exact_u=None, exact_grad_u=None, exact_p=None):
    """Velocity H1 seminorm error and mean-adjusted pressure L2 error.

    The pressure error is the L2 norm of the difference minus its mean over
    the domain: the patches' centred moments plus the between-patch term
    sum_k a_k (s_k/a_k - s/a)^2 (Chan, Golub & LeVeque's parallel variance),
    with s_k the patch integrals, a_k the areas, s and a their sums.
    """
    errs = [
        patch_errors(mp.patches[k], spaces[k], us[k], None if ps is None else ps[k],
                     exact_u, exact_grad_u, exact_p)
        for k in range(mp.n_patches)
    ]
    h1 = np.sqrt(sum(e["h1_u_sq"] for e in errs))
    l2u = np.sqrt(sum(e["l2_u_sq"] for e in errs))
    if ps is None:
        return h1, l2u, None
    s, a = (np.array([e[key] for e in errs]) for key in ("p_diff", "area"))
    m2 = sum(e["p_diff_m2"] for e in errs) + np.sum(a * (s / a - s.sum() / a.sum()) ** 2)
    return h1, l2u, float(np.sqrt(m2))


# ---------------------------------------------------------------------------
# the smooth reference solution used by the convergence studies


def manufactured_velocity(pts):
    x, y = pts[..., 0], pts[..., 1]
    return np.stack(
        [-np.sin(np.pi * x) * np.cos(np.pi * y), np.cos(np.pi * x) * np.sin(np.pi * y)],
        axis=-1,
    )


def manufactured_velocity_gradient(pts):
    x, y = pts[..., 0], pts[..., 1]
    pi = np.pi
    g = np.empty(pts.shape[:-1] + (2, 2))
    g[..., 0, 0] = -pi * np.cos(pi * x) * np.cos(pi * y)
    g[..., 0, 1] = pi * np.sin(pi * x) * np.sin(pi * y)
    g[..., 1, 0] = -pi * np.sin(pi * x) * np.sin(pi * y)
    g[..., 1, 1] = pi * np.cos(pi * x) * np.cos(pi * y)
    return g


def manufactured_pressure(pts):
    return np.sin(np.pi * pts[..., 0])


def manufactured_rhs(pts):
    x, y = pts[..., 0], pts[..., 1]
    pi = np.pi
    return np.stack(
        [
            -pi * np.cos(pi * x) - 2 * pi**2 * np.sin(pi * x) * np.cos(pi * y),
            2 * pi**2 * np.cos(pi * x) * np.sin(pi * y),
        ],
        axis=-1,
    )
