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

Patches with equal geometry, velocity and pressure spaces (degrees and
knots compared by value) that are all rational or all polynomial form a
family; taylor_hood_spaces gives the patches with equal breakpoints one
shared vel/pre pair. One element-quadrature kernel, _element_tables, serves
a whole family: one Gauss rule, one tabulation of the splines and of the
geometry space, and the geometry tables of the stacked control nets
(geometry._geometry_tables), over chunks of the family's patches (at most
geometry.CHUNK_BYTES of physical gradients a chunk, or one patch). Its two
readers, the element matrices (_element_forms) and the error moments
(_error_moments), run once per family in element_forms, which also
projects the family's Dirichlet data (_dirichlet_values), and in
total_errors; assemble_patch takes its patch's entry of element_forms or,
like patch_errors, treats the patch as a family of one.
PatchStokesSystem scatters the element matrices in two places when first
asked for: the sparse all-dof forms Ks, D, Mp, and the dense scalar blocks
on the free dofs (condensation_blocks). condense_interior is the one
elimination of a patch's interior velocity (one linalg.factorize of the
scalar K_ii and one forward half solve); the IETI-DP local systems,
analysis.local_infsup and analysis.skeleton_matrices read it. The
monolithic GlobalStokesSystem caches one velocity elimination the same way
(velocity_factor, the scalar free stiffness K_f of free_blocks factored
once for both components, and the pressure Schur complement
pressure_schur, formed by linalg.schur_complement from the divergence
entries): its solve eliminates the velocity through it below the dense
cut, and analysis.pressure_schur_spectrum reads it. Only the sparse
saddle that solve factors above the cut holds the velocity block
diag(K_f, K_f).

Along patch sides, the Dirichlet projection and the interface flux rows
take points, tangents and outward normals from geometry.side_traces, one
kernel call per family and side: family_flux_rows forms the flux rows of
all patches of a family at once, one Gauss rule per rule size.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .bspline import TensorSplineSpace, gauss_rule_1d, rule_on_elements
from .geometry import (
    _CORNERS,
    SIDES,
    DegenerateJacobianError,
    _chunks,
    _corner_points,
    _geometry_tables,
    _grid_tables,
    _outline,
    _patch_side_traces,
    _space_key,
    check_interface_matching,
    side_traces,
)
from .linalg import DENSE_LU_ROWS, factorize, schur_complement, solve_stacked

__all__ = (
    "TaylorHoodPatchSpace",
    "PatchStokesSystem",
    "GlobalStokesSystem",
    "build_taylor_hood",
    "taylor_hood_spaces",
    "assemble_patch",
    "element_forms",
    "assemble_global",
    "matched_side_dofs",
    "family_flux_rows",
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
                 dirichlet_corners=(), gamma_corners=(), pair=None, dofs=None):
        if degree < 1:
            raise ValueError("pressure degree must be at least 1")
        self.geo = geo
        self.degree = int(degree)
        self.smoothness = int(smoothness)
        self.refinement = int(refinement)
        # pair: (vel, pre) of another patch with the same breakpoints, shared
        self.vel, self.pre = pair or _taylor_hood_pair(geo, degree, smoothness, refinement)
        self.side_roles = dict(side_roles)
        for side, role in self.side_roles.items():
            if role not in ("interface", "dirichlet", "neumann"):
                raise ValueError("unknown side role %r on side %r" % (role, side))
        # dofs: (dirichlet, gamma, inner, pos) of another patch of the same
        # role class (taylor_hood_spaces), shared
        self.dirichlet, self.gamma, self.inner, self.pos = dofs or _classify_dofs(
            self.vel, self.side_roles, dirichlet_corners, gamma_corners)

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


def _classify_dofs(vel, side_roles, dirichlet_corners, gamma_corners):
    """(dirichlet, gamma, inner, pos) of TaylorHoodPatchSpace: one mark per
    scalar dof, 0 interior, 1 interface, 2 Dirichlet, marked last so that it
    takes precedence."""
    mark = np.zeros(vel.dim, dtype=np.int8)
    for m, tag, corners in ((1, "interface", gamma_corners),
                            (2, "dirichlet", dirichlet_corners)):
        for side, role in side_roles.items():
            if role == tag:
                mark[vel.side_dofs(side)] = m
        mark[np.array([vel.corner_dof(*c) for c in corners], dtype=int)] = m
    dirichlet, gamma, inner = (np.flatnonzero(mark == m) for m in (2, 1, 0))
    ng, ni = len(gamma), len(inner)
    pos = np.full((2, vel.dim), -1, dtype=int)
    for c in (0, 1):
        pos[c, gamma] = c * ng + np.arange(ng)
        pos[c, inner] = 2 * ng + c * ni + np.arange(ni)
    return dirichlet, gamma, inner, pos


def _taylor_hood_pair(geo, degree, smoothness, refinement):
    """(vel, pre) on the breakpoints of geo: degrees degree+1 and degree."""
    zx = geo.space.space_x.breakpoints
    zy = geo.space.space_y.breakpoints
    return tuple(TensorSplineSpace.from_breakpoints(zx, zy, d, smoothness).refine_uniform(refinement)
                 for d in (degree + 1, degree))


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
    touch at the corner. Patches with equal breakpoints (by value) share one
    vel/pre pair. A role class is the set of patches with equal breakpoints,
    side roles and corner roles (eliminated or interface); its dofs are
    classified once, and its patches share the read-only dirichlet, gamma,
    inner and pos arrays. The spaces are never modified after construction.
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
    pairs, classes = {}, {}
    spaces = []
    for k, geo in enumerate(mp.patches):
        key = tuple(s.breakpoints.tobytes() for s in (geo.space.space_x, geo.space.space_y))
        roles = mp.side_roles(k)
        role_key = (key, tuple(roles.items()), tuple(sorted(dir_corners[k])),
                    tuple(sorted(gam_corners[k])))
        ths = TaylorHoodPatchSpace(geo, degree, smoothness, refinement, roles,
                                   dir_corners[k], gam_corners[k], pairs.get(key),
                                   classes.get(role_key))
        pairs.setdefault(key, (ths.vel, ths.pre))
        if role_key not in classes:
            for a in (ths.dirichlet, ths.gamma, ths.inner, ths.pos):
                a.flags.writeable = False
            classes[role_key] = ths.dirichlet, ths.gamma, ths.inner, ths.pos
        spaces.append(ths)
    report = check_interface_matching(mp, [s.vel for s in spaces])
    if not report.ok:
        raise ValueError("interface discretizations do not match: %r" % report.problems)
    return spaces


# ---------------------------------------------------------------------------
# patch families and the batched element quadrature

def _families(patches, spaces):
    """Patch numbers grouped into families, each list increasing.

    The patches of a family have equal geometry, velocity and pressure
    spaces (degrees and knots, compared by value) and are all rational or
    all polynomial, so their element quadrature differs only in the control
    nets. Families come in the order of their first patch.
    """
    groups = {}
    for k, (geo, ths) in enumerate(zip(patches, spaces)):
        key = (_space_key(geo.space), geo.is_rational, _space_key(ths.vel), _space_key(ths.pre))
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _per_family(patches, spaces, kernel, *args):
    """Run kernel(patches, members, ths, *args), which returns one result
    per member, on every family; the results in patch order."""
    out = [None] * len(patches)
    for members in _families(patches, spaces):
        for k, res in zip(members, kernel(patches, members, spaces[members[0]], *args)):
            out[k] = res
    return out


def _per_element(grid_values, nelx, nely, nq):
    """(P, nelx*nq, nely*nq, ...) tensor-grid values as (P, nel, nq*nq, ...).

    Elements run y-major (x element index fastest) and the quadrature points
    of an element x-major.
    """
    P, rest = grid_values.shape[0], grid_values.shape[3:]
    v = grid_values.reshape((P, nelx, nq, nely, nq) + rest)
    v = v.transpose((0, 3, 1, 2, 4) + tuple(range(5, 5 + len(rest))))
    return v.reshape((P, nely * nelx, nq * nq) + rest)


def _tensor_table(tx, ty):
    """(nel, nq*nq, nloc) products of 1d element tables (nelx/nely, nq, n1d).

    Elements and quadrature points are ordered as in _per_element; local
    functions run y-major (x index fastest, like the tensor space numbering).
    """
    nelx, nq, nx = tx.shape
    nely, _, ny = ty.shape
    return np.einsum("xib,yjc->yxijcb", tx, ty).reshape(nely * nelx, nq * nq, ny * nx)


def _element_tables(patches, members, ths, nq):
    """Quadrature tables of a family of patches, in chunks of patches.

    members are the numbers of the family's patches in patches, and ths the
    Taylor-Hood space of any of them. Uses nq Gauss points per direction per
    element. The tables the family shares are computed once: w (nel, Q),
    the quadrature weights; Nv, gu, gv (nel, Q, nlv), the velocity basis
    values and their parametric derivatives; Np (nel, Q, nlp), the pressure
    basis values; ids_v (nel, nlv) and ids_p (nel, nlp), the scalar dof ids
    of the local functions; so are the geometry space's univariate tables
    (_grid_tables). Yields (chunk, t) for consecutive slices chunk
    of members: t holds the shared tables and, with a leading axis over the
    chunk's P patches, wdet (P, nel, Q), the weights times det(jac); pts
    (P, nel, Q, 2), the physical points; jinv (P, nel, Q, 2, 2), the inverse
    Jacobians, so that the physical gradient of function l is
    gu[..., l] jinv[..., 0, :] + gv[..., l] jinv[..., 1, :]. A chunk is cut
    so that its physical gradients in _element_forms (16 nel nlv Q bytes a
    patch, the largest temporary of either caller) fit in
    geometry.CHUNK_BYTES.
    Raises DegenerateJacobianError when det(jac) is not positive at some
    quadrature point, naming the patch by its number in patches when there
    is more than one.
    """
    vel, pre = ths.vel, ths.pre
    rule = gauss_rule_1d(nq)
    qx, wx = rule_on_elements(vel.space_x.breakpoints, rule)
    qy, wy = rule_on_elements(vel.space_y.breakpoints, rule)
    fvx, tvx = vel.space_x.tabulate(qx)
    fvy, tvy = vel.space_y.tabulate(qy)
    fpx, tpx = pre.space_x.tabulate(qx)
    fpy, tpy = pre.space_y.tabulate(qy)
    shared = dict(
        w=_tensor_table(wx[..., None], wy[..., None])[..., 0],
        Nv=_tensor_table(tvx[0], tvy[0]),
        gu=_tensor_table(tvx[1], tvy[0]),
        gv=_tensor_table(tvx[0], tvy[1]),
        Np=_tensor_table(tpx[0], tpy[0]),
        ids_v=_tensor_ids(vel, fvx, fvy),
        ids_p=_tensor_ids(pre, fpx, fpy),
    )
    nelx, nely = qx.shape[0], qy.shape[0]
    nel, npts, nlv = shared["Nv"].shape
    tables = _grid_tables(patches[members[0]].space, qx.ravel(), qy.ravel())
    for chunk in _chunks(len(members), 16 * nel * nlv * npts):
        ks = members[chunk]
        pts, jac, det = (_per_element(a, nelx, nely, nq) for a in
                         _geometry_tables([patches[k] for k in ks], tables))
        bad = det.reshape(len(ks), -1).min(axis=1) <= 0.0
        if bad.any():
            number = " %d" % ks[bad.argmax()] if len(patches) > 1 else ""
            raise DegenerateJacobianError("nonpositive Jacobian inside patch" + number)
        yield chunk, SimpleNamespace(wdet=shared["w"] * det, pts=pts,
                                     jinv=_inverse_jacobian(jac, det), **shared)


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
    and area, and the Dirichlet coefficients. The element matrices are
    scattered in two places, each built on demand:

    - Ks (scalar stiffness, vel.dim x vel.dim), D (divergence, pre.dim x
      2*vel.dim, component major) and Mp (pressure mass): sparse, over all
      dofs including the Dirichlet ones, cached;
    - condensation_blocks(): the scalar stiffness of one component and the
      divergence on the free dofs, as a dense array and its interior block,
      scattered on each call and not cached; condense_interior() eliminates
      the interior velocity from them.

    rhs() is the right-hand side on the free dofs, the load minus the
    Dirichlet lift through K in the velocity rows and minus the lift
    through D in the pressure rows, formed element by element and cached.
    saddle_matrix() is a slice of Ks and D, a reference for tests and for
    ieti.AugmentedLocalSystem.A3. The IETI path reads condense_interior(),
    the right-hand side and the pressure average row, and builds none of
    Ks, D, Mp; the monolithic path reads only Ks, D and Mp.
    """

    def __init__(self, ths, elements, dirichlet_values):
        self.ths = ths
        self._el = elements  # the namespace of _element_forms
        self.load = elements.load  # 2 x vel.dim component loads
        self.area = elements.area
        self.dirichlet_values = dirichlet_values  # (2, len(ths.dirichlet))

    def saddle_matrix(self):
        """[[K, D^T], [D, 0]] on the free dofs, blocks [u_g | u_i | p] (CSC).

        Sliced from Ks and D at the free positions of ths.pos on each call;
        the entries of their scatter, explicit zeros included, stay as they
        are.
        """
        ths = self.ths
        free = np.empty(2 * (ths.n_gamma + ths.n_inner), dtype=int)
        free[ths.pos[ths.pos >= 0]] = np.flatnonzero(ths.pos >= 0)  # c * vel.dim + dof
        K = sp.block_diag((self.Ks, self.Ks), format="csr")[free][:, free]
        D = self.D[:, free]
        return sp.bmat([[K, D.T], [D, None]], format="csc")

    def rhs(self):
        return self._rhs.copy()

    def pressure_average_row(self):
        """Row evaluating the patch average of the pressure."""
        el = self._el
        mass = np.bincount(el.ip.ravel(), weights=el.Me.sum(axis=1).ravel(),
                           minlength=self.ths.pre.dim)  # column sums of Mp
        return mass / self.area

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

    def condensation_blocks(self):
        """(K_ii, W): the scalar stiffness and the divergence on the free dofs.

        W is dense. Its columns are the scalar free dofs [u_inner | u_gamma]
        of one velocity component; its rows [K_i | K_g | D_0 | D_1] are those
        of the scalar stiffness, then the divergence rows acting on each
        component. K_ii is W's interior block, a dense view, whose band
        factorize cuts from the diagonals. One scatter of the element
        matrices, on each call; eliminated dofs land in a leading row and
        column that are cut off.
        """
        ths, el = self.ths, self._el
        ni, n, npre = ths.n_inner, ths.n_inner + ths.n_gamma, ths.n_pressure
        s = np.zeros(ths.vel.dim, dtype=np.int64)  # 0: eliminated
        s[ths.inner] = np.arange(1, ni + 1)
        s[ths.gamma] = np.arange(ni + 1, n + 1)
        sv = s[el.iv]
        rows = n + 1 + npre * np.arange(2)[:, None, None] + el.ip[:, None, :, None]
        idx = np.concatenate([(sv[:, :, None] * (n + 1) + sv[:, None, :]).ravel(),
                              (rows * (n + 1) + sv[:, None, None, :]).ravel()])
        W = np.bincount(idx, weights=np.concatenate([el.Ke.ravel(), el.De.ravel()]),
                        minlength=(n + 1 + 2 * npre) * (n + 1)).reshape(-1, n + 1)[1:, 1:]
        return W[:ni, :ni], W

    def condense_interior(self, what):
        """The one elimination of the patch's interior velocity, not cached.

        One factorize of the scalar K_ii as an SPD matrix, labelled `what`
        (a BandCholesky P K_ii P^T = L L^T), and one forward half solve
        Y = L^-1 P Q^T, Q = [K_gi; D_0i; D_1i] (condensation_blocks).
        Returns lu (None without interior dofs), Y, and from the blocks of
        Y^T Y = Q K_ii^-1 Q^T that they need the Schur complement S = K_gg -
        K_gi K_ii^-1 K_ig, the condensed divergence Dg (2, n_pressure,
        n_gamma) with Dg[c] = D_cg - D_ci K_ii^-1 K_ig, and T = sum_c D_ci
        K_ii^-1 D_ci^T = sum_c Y_c^T Y_c, exactly symmetric (syrk).
        """
        ths = self.ths
        ng, ni, npre = ths.n_gamma, ths.n_inner, ths.n_pressure
        K_ii, W = self.condensation_blocks()
        Q = W[ni:, :ni]
        lu = factorize(K_ii, what, spd=True) if ni else None
        Y = lu.forward(Q.T) if ni else np.zeros((0, len(Q)))
        C = W[ni:, ni:] - Y.T @ Y[:, :ng]  # [S; condensed D_0g; condensed D_1g]
        Y0, Y1 = Y[:, ng : ng + npre], Y[:, ng + npre :]  # the D_0, D_1 columns
        return SimpleNamespace(lu=lu, Y=Y, S=C[:ng], Dg=C[ng:].reshape(2, npre, ng),
                               T=Y0.T @ Y0 + Y1.T @ Y1)

    def expand(self, u_g, u_i):
        """Velocity coefficients (2, nv) from block vectors plus Dirichlet data."""
        ths = self.ths
        x = np.concatenate([u_g, u_i])
        out = np.zeros((2, ths.vel.dim))
        free = ths.pos >= 0
        out[free] = x[ths.pos[free]]
        out[:, ths.dirichlet] = self.dirichlet_values
        return out


def _dirichlet_values(patches, members, ths, spaces, data):
    """Coefficients of the boundary data on the eliminated dofs of each
    patch of a family, one (2, len(spaces[k].dirichlet)) array per member.

    spaces[k] is the Taylor-Hood space of patch k; the members share
    ths.vel. Corner dofs are interpolated exactly; the remaining dofs of
    each Dirichlet side come from the L2 projection of the trace (in the
    physical arc length, with degree + 3 Gauss points per element) with the
    corner values held fixed. The corner points come from one kernel call,
    the traces of each side from one side_traces call over the members with
    that side on the Dirichlet boundary, and data is called once on all of
    these points.
    """
    out = [np.zeros((2, len(spaces[k].dirichlet))) for k in members]
    if data is None or not any(o.size for o in out):
        return out
    vel = ths.vel
    geos = [patches[k] for k in members]
    cdofs = np.array([vel.corner_dof(*c) for c in _CORNERS])
    on = np.array([spaces[k].pos[0, cdofs] < 0 for k in members])  # (P, 4): eliminated
    points = [_corner_points(_outline(geos))[on]]
    sides = []  # (side, member positions, Gauss points, weights times |dx/dt| (m, n))
    rules = {d: gauss_rule_1d(d + 3) for d in {vel.space_x.degree, vel.space_y.degree}}
    for side in SIDES:
        js = [j for j, k in enumerate(members) if spaces[k].side_roles.get(side) == "dirichlet"]
        if js:
            espace = vel.side_space(side)
            tq, wq = rule_on_elements(espace.breakpoints, rules[espace.degree])
            x, tangent, _ = side_traces([geos[j] for j in js], {side: tq})[side]
            w = wq.ravel() * np.linalg.norm(tangent, axis=-1)
            sides.append((side, np.array(js), tq, w))
            points.append(x.reshape(-1, 2))
    g = np.asarray(data(np.concatenate(points)), dtype=float)
    g = np.split(g, np.cumsum([len(x) for x in points[:-1]]))
    values = np.zeros((len(members), 2, vel.dim))  # over all scalar dofs
    pj, cj = np.nonzero(on)
    values[pj, :, cdofs[cj]] = g[0]
    for (side, js, tq, w), gs in zip(sides, g[1:]):
        B = vel.side_space(side).collocation(tq)
        M = B.T @ (B * w[..., None])  # (m, nb, nb)
        b = B.T @ (w[..., None] * gs.reshape(len(js), -1, 2))  # (m, nb, comp)
        sd = vel.side_dofs(side)
        # interior dofs of the side, with the two end (corner) values fixed
        ends = values[js][:, :, sd[[0, -1]]].transpose(0, 2, 1)  # (m, end, comp)
        values[js[:, None], :, sd[None, 1:-1]] = np.linalg.solve(
            M[:, 1:-1, 1:-1], b[:, 1:-1] - M[:, 1:-1][:, :, [0, -1]] @ ends)
    return [values[j][:, spaces[k].dirichlet] for j, k in enumerate(members)]


def _element_forms(patches, members, ths, nquad, rhs):
    """Element matrices, load and area of each patch of a family.

    Returns one namespace per member, in order, with Ke (nel, nlv, nlv), the
    scalar stiffness; De (nel, 2, nlp, nlv), the divergence per component;
    Me (nel, nlp, nlp), the pressure mass; iv (nel, nlv) and ip (nel, nlp),
    the scalar dof ids of the local functions (one pair for the family);
    load (2, vel.dim) and area. The quadrature uses nquad (default: velocity
    degree + 2) Gauss points per direction per element; its tables are
    dropped chunk by chunk, and assembled systems keep only these arrays.
    """
    nq = int(nquad) if nquad else ths.vel.space_x.degree + 2
    nv = ths.vel.dim
    out = []
    for _, t in _element_tables(patches, members, ths, nq):
        # physical gradients times sqrt(weight * det), laid out (patch, e, l,
        # a, q) with q contiguous, so that one matmul contracts derivative
        # direction and quadrature point
        sw = np.sqrt(t.wdet)
        P, nel, npts = sw.shape
        gu, gv = (np.ascontiguousarray(g.transpose(0, 2, 1)) for g in (t.gu, t.gv))  # (e, l, q)
        grad = np.empty((P, nel, gu.shape[1], 2, npts))
        for a in (0, 1):
            np.multiply(gu, (t.jinv[..., 0, a] * sw)[:, :, None], out=grad[..., a, :])
            grad[..., a, :] += gv * (t.jinv[..., 1, a] * sw)[:, :, None]
        flat = grad.reshape(P, nel, -1, 2 * npts)
        Nw = t.Np.transpose(0, 2, 1) * sw[:, :, None, :]  # (P, e, m, q)
        Ke = flat @ flat.swapaxes(-1, -2)
        De = Nw[:, :, None] @ grad.transpose(0, 1, 3, 4, 2)
        Me = Nw @ Nw.swapaxes(-1, -2)
        load = np.zeros((P, 2, nv))
        if rhs is not None:
            wf = t.wdet[..., None] * np.asarray(rhs(t.pts), dtype=float)  # (P, e, q, c)
            loc = t.Nv.transpose(0, 2, 1) @ wf  # (P, e, l, c)
            bins = (2 * np.arange(P)[:, None, None, None] + np.arange(2)) * nv + t.ids_v[..., None]
            load = np.bincount(bins.ravel(), weights=loc.ravel(),
                               minlength=P * 2 * nv).reshape(P, 2, nv)
        area = np.cumsum(t.wdet.sum(axis=2), axis=1)[:, -1]  # summed element by element
        out.extend(SimpleNamespace(Ke=Ke[j], De=De[j], Me=Me[j], iv=t.ids_v, ip=t.ids_p,
                                   load=load[j], area=float(area[j])) for j in range(P))
    return out


def element_forms(patches, spaces, rhs=None, nquad=None, dirichlet=None):
    """Element matrices, load, area and Dirichlet coefficients of every
    patch, in patch order, for the elements argument of assemble_patch.

    rhs, nquad and dirichlet are those of assemble_patch. The element kernel
    and the Dirichlet projection run once per family of patches (equal
    spaces, see _families), the element kernel over chunks of the family's
    patches.
    """
    forms = _per_family(patches, spaces, _element_forms, nquad, rhs)
    for el, values in zip(forms, _per_family(patches, spaces, _dirichlet_values, spaces,
                                             dirichlet)):
        el.dirichlet_values = values
    return forms


def assemble_patch(geo, ths, rhs=None, dirichlet=None, nquad=None, elements=None):
    """Assemble the Stokes forms of one patch.

    rhs and dirichlet are callables taking an (..., 2) array of physical
    points and returning (..., 2) vectors; None means zero. The quadrature
    uses nquad (default: velocity degree + 2) Gauss points per direction per
    element. elements are the patch's entry of element_forms, which has read
    rhs, nquad and the Dirichlet data already, so giving any of them with
    elements raises ValueError. When elements is None, the patch is a family
    of one. The assembled matrices are built when first asked for (see
    PatchStokesSystem).
    """
    if elements is None:
        elements, = element_forms([geo], [ths], rhs, nquad, dirichlet)
    elif rhs is not None or dirichlet is not None or nquad is not None:
        raise ValueError("rhs, dirichlet and nquad are read by element_forms, not with elements")
    return PatchStokesSystem(ths, elements, elements.dirichlet_values)


def _coo(vals, rows, cols, shape):
    """CSR matrix summing vals at (rows, cols), all broadcast to vals.shape."""
    rows = np.broadcast_to(rows, vals.shape)
    cols = np.broadcast_to(cols, vals.shape)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


# ---------------------------------------------------------------------------
# edge fluxes and the divergence bubble


def _side_flux_rows(geos, vel, side, rules):
    """(side_dofs, R) of one side for a family of maps sharing vel, with R
    of shape (len(geos), len(side_dofs), 2): the rows of family_flux_rows
    of every map, from one side_traces call and one collocation table. rules
    maps a Gauss rule size to its rule, built here when missing."""
    gdeg = max(geos[0].space.space_x.degree, geos[0].space.space_y.degree)
    espace = vel.side_space(side)
    n = espace.degree + gdeg + 2
    if n not in rules:
        rules[n] = gauss_rule_1d(n)
    tq, wq = rule_on_elements(espace.breakpoints, rules[n])
    normal = side_traces(geos, {side: tq})[side][2]  # outward normal times length element
    return vel.side_dofs(side), espace.collocation(tq).T @ (wq.reshape(-1, 1) * normal)


def family_flux_rows(patches, spaces, sides):
    """Rows evaluating int_edge N_i n_c ds for the dofs with trace on each
    listed side: sides[k] lists the sides of patch k.

    Returns per patch {side: (side_dofs, R)} with R of shape
    (len(side_dofs), 2); the flux of a velocity coefficient field u through
    the side is sum_c R[:, c] . u[c, side_dofs]. Each side uses edge degree +
    geometry degree + 2 Gauss points per element. The rows of a side are
    formed for all patches of a family (_families) that list it at once,
    from one side_traces call; one Gauss rule per distinct rule size serves
    all families and sides. One patch is the family of one
    family_flux_rows([geo], [ths], [sides])[0].
    """
    out, rules = [{} for _ in patches], {}
    for members in _families(patches, spaces):
        vel = spaces[members[0]].vel
        for side in SIDES:
            ks = [k for k in members if side in sides[k]]
            if ks:
                dofs, R = _side_flux_rows([patches[k] for k in ks], vel, side, rules)
                for k, r in zip(ks, R):
                    out[k][side] = dofs, r
    return out


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
    The flux rows and the mid-side normals are evaluated once per family.
    """
    out = [np.zeros_like(u) for u in u_list]
    diameters = mp.diameters()
    sides = [[] for _ in mp.patches]  # the a-sides of the interfaces, per patch
    for iface in mp.interfaces:
        sides[iface.a].append(iface.side_a)
    flux = family_flux_rows(mp.patches, spaces, sides)
    mid = _patch_side_traces(mp.patches, [dict.fromkeys(s, [0.5]) for s in sides])
    for iface in mp.interfaces:
        k = iface.a
        ths = spaces[k]
        dofs, R = flux[k][iface.side_a]
        flux_u = sum(R[:, c] @ u_list[k][c, dofs] for c in (0, 1))
        nbar = mid[k][iface.side_a][2][0]
        nbar = nbar / np.linalg.norm(nbar)
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
    identified; pressures are patchwise discontinuous. free_blocks holds
    the blocks on the free dofs, the velocity stiffness as the scalar K_f
    that both components share. The velocity elimination is cached on the
    system and shared by solve and the pressure Schur spectrum:
    velocity_factor, the one factor of K_f, and pressure_schur,
    T = D_f K_ff^-1 D_f^T with K_ff = diag(K_f, K_f).
    """

    def __init__(self, mp, spaces, systems, scalar_l2g, n_scalar):
        self.mp = mp
        self.spaces = spaces
        self.systems = systems
        self.scalar_l2g = scalar_l2g
        self.n_scalar = n_scalar
        self.pressure_offsets = np.cumsum([0] + [s.pre.dim for s in spaces])
        self.n_pressure = int(self.pressure_offsets[-1])

        # global Dirichlet data: a dof is eliminated when any patch eliminates
        # it, with the value of the first patch that does
        gdofs = np.concatenate([l2g[ths.dirichlet] for l2g, ths in zip(scalar_l2g, spaces)])
        gvals = np.concatenate([s.dirichlet_values for s in systems], axis=1)
        dofs, first = np.unique(gdofs, return_index=True)
        self.dir_mask = np.zeros(n_scalar, dtype=bool)
        self.dir_mask[dofs] = True
        self.dir_values = np.zeros((2, n_scalar))
        self.dir_values[:, dofs] = gvals[:, first]
        if (np.abs(self.dir_values[:, gdofs] - gvals) > 1e-8).any():
            raise ValueError("inconsistent Dirichlet data at shared dof")
        self.free = np.flatnonzero(~self.dir_mask)

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

    @property
    def n_free_velocity(self):
        return 2 * len(self.free)

    @property
    def n_dofs(self):
        return self.n_free_velocity + self.n_pressure

    @cached_property
    def free_blocks(self):
        """(K_f, D_f, f, h) on the free dofs: K_f = Ks[free][:, free], the
        scalar stiffness both velocity components share, and the divergence
        D_f, load f and lift h with the components stacked.

        Built on first access and shared by solve and the pressure Schur
        spectrum; callers must not modify the returned arrays.
        """
        f = self.free
        d = np.flatnonzero(self.dir_mask)
        Kf = self.Ks[f]
        NV = self.n_scalar
        Dc = self.D.tocsc()
        cols_f = np.concatenate([c * NV + f for c in (0, 1)])
        cols_d = np.concatenate([c * NV + d for c in (0, 1)])
        gd = np.concatenate([self.dir_values[c, d] for c in (0, 1)])
        Df = Dc[:, cols_f].tocsr()
        lift = Kf[:, d] @ self.dir_values[:, d].T  # one column per component
        rhs_f = (self.load[:, f] - lift.T).ravel()
        h = -(Dc[:, cols_d].tocsr() @ gd)
        return Kf[:, f], Df, rhs_f, h

    def pressure_integral_row(self):
        return np.asarray(self.Mp.sum(axis=0)).ravel()

    @cached_property
    def velocity_factor(self):
        """factorize of the scalar free stiffness K_f of free_blocks, as
        given, as an SPD matrix, shared by both velocity components: the one
        velocity elimination of solve and of the pressure Schur spectrum
        (analysis.pressure_schur_spectrum), which apply K_ff^-1 =
        diag(K_f^-1, K_f^-1) with linalg.solve_stacked."""
        return factorize(self.free_blocks[0],
                         "velocity stiffness of the monolithic Stokes system", spd=True)

    @cached_property
    def pressure_schur(self):
        """The pressure Schur complement T = D_f K_ff^-1 D_f^T, dense, formed on
        first use by linalg.schur_complement from velocity_factor and D_f^T =
        [D_0f^T; D_1f^T], the divergence acting on each velocity component
        stacked along the rows: T = sum_c D_cf K_f^-1 D_cf^T."""
        return schur_complement(self.velocity_factor, self.free_blocks[1].T)

    def solve(self):
        """Direct solve; returns per-patch (u, p) coefficient arrays.

        The pressure integral is held at zero by a Lagrange multiplier iff
        the domain fixes the pressure only up to a constant
        (MultiPatch.pressure_up_to_constant). When the bordered pressure
        system [[-T, m], [m^T, 0]] (m the pressure integral row; -T alone
        without it) has at most DENSE_LU_ROWS rows, the velocity is
        eliminated through the pressure Schur complement T (pressure_schur;
        Benzi, Golub & Liesen, Acta Numerica 2005): z = K_ff^-1 f, p from the
        dense bordered system with right-hand side h - D_f z, and
        u = K_ff^-1 (f - D_f^T p), each K_ff^-1 one solve_stacked of
        velocity_factor. The factor and T are cached on the system, so the
        pressure Schur spectrum of the same system factors nothing more. A
        larger system is factored as one sparse saddle matrix, its velocity
        block diag(K_f, K_f) formed here, with factorize(fem=True)
        (FEM_SUPERLU).

        The cut, the dense factor's DENSE_LU_ROWS, bounds what solve pays
        when nothing else reads T: forming T costs n_f n_p^2 while the
        saddle's fill grows more slowly. Followed by the spectrum, which forms
        T anyway, the elimination is faster on every cell measured. Both
        paths' timings and the agreement of their solutions: BENCH_22.json,
        solve_cut_ms.
        """
        Kf, Df, rhs_f, h = self.free_blocks
        nU, npre = self.n_free_velocity, self.n_pressure
        m = (self.pressure_integral_row()[:, None] if self.mp.pressure_up_to_constant
             else np.zeros((npre, 0)))  # the mean row's column, or none
        nm = m.shape[1]
        if npre + nm <= DENSE_LU_ROWS:
            M = np.block([[-self.pressure_schur, m], [m.T, np.zeros((nm, nm))]])
            r = np.zeros(npre + nm)
            r[:npre] = h - Df @ solve_stacked(self.velocity_factor, rhs_f)
            what = "pressure Schur complement of the monolithic Stokes system"
            p = factorize(M, what).solve(r)[:npre]
            uf = solve_stacked(self.velocity_factor, rhs_f - Df.T @ p).reshape(2, -1)
        else:
            m = sp.csr_matrix(m)
            Kff = sp.block_diag((Kf, Kf), format="csr")
            A = sp.bmat([[Kff, Df.T, None], [Df, None, m], [None, m.T, None]], format="csc")
            b = np.concatenate([rhs_f, h, np.zeros(nm)])
            x = factorize(A, "monolithic Stokes system", fem=True).solve(b)
            uf = x[:nU].reshape(2, -1)
            p = x[nU : nU + npre]
        uglob = self.dir_values.copy()
        uglob[:, self.free] = uf
        us = [uglob[:, l2g] for l2g in self.scalar_l2g]
        ps = [
            p[self.pressure_offsets[k] : self.pressure_offsets[k + 1]]
            for k in range(len(self.spaces))
        ]
        return us, ps


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
        forms = element_forms(mp.patches, spaces, rhs, nquad, dirichlet)
        systems = [assemble_patch(geo, ths, elements=el)
                   for geo, ths, el in zip(mp.patches, spaces, forms)]
    # scalar dofs identified across interfaces and shared vertices are one
    # connected component; components are numbered by their smallest dof.
    # Imported here: csgraph adds about 1 MB to the resident set, and only the
    # monolithic path numbers global dofs
    from scipy.sparse.csgraph import connected_components

    offsets = np.cumsum([0] + [s.vel.dim for s in spaces])
    edges = [np.zeros((2, 0), dtype=int)]
    for iface in mp.interfaces:
        da, db = matched_side_dofs(mp, spaces, iface)
        edges.append(np.stack([offsets[iface.a] + da, offsets[iface.b] + db]))
    for v in mp.vertices:
        dofs = np.array([offsets[k] + spaces[k].vel.corner_dof(*c) for k, c in v.members])
        edges.append(np.stack([dofs[:-1], dofs[1:]]))
    i, j = np.concatenate(edges, axis=1)
    n = int(offsets[-1])
    n_scalar, labels = connected_components(
        sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)), directed=False)
    scalar_l2g = np.split(labels.astype(int), offsets[1:-1])
    return GlobalStokesSystem(mp, spaces, systems, scalar_l2g, n_scalar)


# ---------------------------------------------------------------------------
# errors against a known solution


def _error_moments(patches, members, ths, us, ps, exact_u, exact_grad_u, exact_p, nquad):
    """patch_errors of each patch of a family, one dict per member in order.

    us[k] and ps[k] are the coefficients of patch k; ps may be None.
    """
    nq = int(nquad) if nquad else ths.vel.space_x.degree + 3

    def per_patch(values):  # sums over elements and points, one per patch
        return values.reshape(len(values), -1).sum(axis=1)

    out = []
    for chunk, t in _element_tables(patches, members, ths, nq):
        ks = members[chunk]
        uloc = np.stack([us[k] for k in ks]).transpose(0, 2, 1)[:, t.ids_v]  # (P, e, l, comp)
        uh = t.Nv @ uloc
        du, dv = (g @ uloc for g in (t.gu, t.gv))  # parametric derivatives (P, e, q, comp)
        guh = (du[..., None] * t.jinv[..., None, 0, :]
               + dv[..., None] * t.jinv[..., None, 1, :])  # (P, e, q, comp, d/dx)
        ue = exact_u(t.pts) if exact_u is not None else 0.0
        ge = exact_grad_u(t.pts) if exact_grad_u is not None else 0.0
        l2 = per_patch(t.wdet * np.sum((uh - ue) ** 2, axis=-1))
        h1 = per_patch(t.wdet * np.sum((guh - ge) ** 2, axis=(-2, -1)))
        area = per_patch(t.wdet)
        pdiff = pm2 = np.zeros(len(ks))
        if ps is not None:
            ploc = np.stack([ps[k] for k in ks])[:, t.ids_p]  # (P, e, m)
            d = (t.Np @ ploc[..., None])[..., 0]
            d = d - (exact_p(t.pts) if exact_p is not None else 0.0)
            pdiff = per_patch(t.wdet * d)
            pm2 = per_patch(t.wdet * (d - (pdiff / area)[:, None, None]) ** 2)
        out.extend({"h1_u_sq": float(h1[j]), "l2_u_sq": float(l2[j]), "p_diff": float(pdiff[j]),
                    "p_diff_m2": float(pm2[j]), "area": float(area[j])} for j in range(len(ks)))
    return out


def patch_errors(geo, ths, u, p, exact_u=None, exact_grad_u=None, exact_p=None, nquad=None):
    """Squared error moments of a discrete solution on one patch.

    Returns a dict with the squared H1 seminorm and L2 errors of the
    velocity, and for the pressure difference its integral p_diff, the area
    and its centred second moment p_diff_m2, the integral of the squared
    deviation from the patch mean. The moment is formed two-pass (mean
    first, then the squared deviations), so a constant offset of the
    pressure does not cancel away its digits; total_errors combines the
    patches. The quadrature uses nquad (default: velocity degree + 3) Gauss
    points per direction per element. A family of one patch for the element
    kernel.
    """
    return _error_moments([geo], [0], ths, [u], None if p is None else [p],
                          exact_u, exact_grad_u, exact_p, nquad)[0]


def total_errors(mp, spaces, us, ps, exact_u=None, exact_grad_u=None, exact_p=None):
    """Velocity H1 seminorm error and mean-adjusted pressure L2 error.

    The patch moments are those of patch_errors, computed once per family
    of patches. The pressure error is the L2 norm of the difference minus
    its mean over the domain: the patches' centred moments plus the
    between-patch term sum_k a_k (s_k/a_k - s/a)^2 (Chan, Golub & LeVeque's
    parallel variance), with s_k the patch integrals, a_k the areas, s and a
    their sums.
    """
    errs = _per_family(mp.patches, spaces, _error_moments, us, ps,
                       exact_u, exact_grad_u, exact_p, None)
    h1 = np.sqrt(sum(e["h1_u_sq"] for e in errs))
    l2u = np.sqrt(sum(e["l2_u_sq"] for e in errs))
    if ps is None:
        return h1, l2u, None
    s, a = (np.array([e[key] for e in errs]) for key in ("p_diff", "area"))
    m2 = sum(e["p_diff_m2"] for e in errs) + np.sum(a * (s / a - s.sum() / a.sum()) ** 2)
    return h1, l2u, float(np.sqrt(m2))


# ---------------------------------------------------------------------------
# the smooth reference solution used by the convergence studies


def _trig(pts):
    """sin(pi x), cos(pi x), sin(pi y), cos(pi y), each evaluated once."""
    x, y = np.pi * pts[..., 0], np.pi * pts[..., 1]
    return np.sin(x), np.cos(x), np.sin(y), np.cos(y)


def manufactured_velocity(pts):
    sx, cx, sy, cy = _trig(pts)
    return np.stack([-sx * cy, cx * sy], axis=-1)


def manufactured_velocity_gradient(pts):
    sx, cx, sy, cy = _trig(pts)
    pi = np.pi
    g = np.empty(pts.shape[:-1] + (2, 2))
    g[..., 0, 0] = -pi * cx * cy
    g[..., 0, 1] = pi * sx * sy
    g[..., 1, 0] = -pi * sx * sy
    g[..., 1, 1] = pi * cx * cy
    return g


def manufactured_pressure(pts):
    return np.sin(np.pi * pts[..., 0])


def manufactured_rhs(pts):
    sx, cx, sy, cy = _trig(pts)
    pi = np.pi
    return np.stack([-pi * cx - 2 * pi**2 * sx * cy, 2 * pi**2 * cx * sy], axis=-1)
