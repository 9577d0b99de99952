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
elimination of a patch's interior velocity (one band Cholesky of the scalar
K_ii and one forward half solve); the IETI-DP local systems,
analysis.local_infsup and analysis.skeleton_matrices read it. The
monolithic GlobalStokesSystem caches one velocity elimination the same way
(velocity_factor, the scalar free stiffness factored once for both
components, and the pressure Schur complement pressure_schur, formed by the
factor's blocked Gram kernel BandCholesky.gram from the divergence entries):
its solve eliminates the velocity through it below the dense cut, and
analysis.pressure_schur_spectrum reads it.

Along patch sides, the Dirichlet projection and the interface flux rows
take points, tangents and outward normals from geometry.side_traces, one
kernel call per family and side: family_flux_rows forms the flux rows of
all patches of a family at once, one Gauss rule per rule size, and
edge_flux_rows is its family of one.
"""

from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

__all__ = (
    "SingularLocalSystemError",
    "factorize",
    "TaylorHoodPatchSpace",
    "PatchStokesSystem",
    "GlobalStokesSystem",
    "build_taylor_hood",
    "taylor_hood_spaces",
    "assemble_patch",
    "element_forms",
    "assemble_global",
    "matched_side_dofs",
    "edge_flux_matrix",
    "edge_flux_rows",
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
# the one checked factorization


class SingularLocalSystemError(RuntimeError):
    """A system handed to `factorize` is singular or numerically singular."""


DENSE_LU_ROWS = 350  # sparse systems up to this many rows are factored dense
# SuperLU for finite-element matrices (factorize's fem=True): minimum degree
# on A^T + A, diagonal pivots preferred down to 1e-3 of the column maximum
FEM_SUPERLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                   options=dict(SymmetricMode=True))
BAND_ENTRIES = 1_100_000  # sparse SPD systems whose band holds up to this many: BandCholesky


class DenseLU:
    """LAPACK LU factors of a small system, with the SuperLU interface the
    package reads: shape, solve (1-D or 2-D right-hand sides) and the unit
    lower and upper triangles L and U, built on demand as sparse matrices
    of n (n + 1) / 2 entries each, explicit zeros kept.
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
        r, c = np.tril_indices(self.shape[0])
        return sp.csc_matrix((np.where(r == c, 1.0, self._lu[r, c]), (r, c)), shape=self.shape)

    @property
    def U(self):
        r, c = np.triu_indices(self.shape[0])
        return sp.csc_matrix((self._lu[r, c], (r, c)), shape=self.shape)


class BandCholesky:
    """LAPACK band Cholesky P A P^T = L L^T of a symmetric positive definite
    matrix, with the interface the package reads: shape, solve (1-D or 2-D
    right-hand sides) and L and U, the stored band of L and its transpose as
    sparse matrices, explicit zeros kept. solve is the two half solves
    forward(B) = L^-1 P B and backward(Y) = P^T L^-T Y, LAPACK tbtrs, and
    gram(B) forms B^T A^-1 B = Y^T Y, Y = forward(B), from a sparse B by
    row blocks without storing B or Y. perm is the order (row i of P A P^T
    is row perm[i] of A), or None for A's own order; bandwidth is the
    number of subdiagonals of L.
    """

    def __init__(self, ab, perm, what):
        # ab: the lower band, ab[k, j] = (P A P^T)[j + k, j], Fortran ordered
        pbtrf, self._tbtrs = sla.get_lapack_funcs(("pbtrf", "tbtrs"), (ab,))
        self._ab, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise SingularLocalSystemError(
                "%s is not positive definite (band Cholesky pivot %d)" % (what, info))
        self.perm = perm
        self.bandwidth = ab.shape[0] - 1
        self.shape = (ab.shape[1], ab.shape[1])

    def solve(self, b):
        return self.backward(self.forward(b))

    def forward(self, b):
        y = np.array(b if self.perm is None else b[self.perm], order="F")
        y, _ = self._tbtrs(self._ab, y, uplo="L", overwrite_b=1)
        return y

    def gram(self, B):
        """sum_c Y_c^T Y_c, Y_c = L^-1 P B_c, for a sparse B = [B_0; B_1; ...]
        whose row count is a multiple of n; dense, exactly symmetric.

        Row blocks of bs = bandwidth rows (at least one): L_jj, inverted here
        with LAPACK trtri, and L_j,j-1 hold all of L in block row j, so
        Y_j = inv(L_jj) (B_j - L_j,j-1 Y_j-1), two triangular matmuls (BLAS
        trmm) that cover every component at once, and Y_j^T Y_j is one syrk.
        The columns are sorted by the block of their first nonzero row: Y_j
        is zero in the columns that start below block j, so block j works on
        the prefix of columns started by then. Each B_j is scattered from
        B's entries when its block is reached, so neither a dense B nor Y is
        held.
        """
        n, bw = self.shape[0], self.bandwidth
        trtri, = sla.get_lapack_funcs(("trtri",), (self._ab,))
        trmm, syrk = sla.get_blas_funcs(("trmm", "syrk"), (self._ab,))
        B = sp.csc_matrix(B)
        B.sum_duplicates()
        ncomp, ncols = B.shape[0] // n, B.shape[1]
        comp, rows = np.divmod(B.indices.astype(np.int64), n)
        if self.perm is not None:
            rows = np.argsort(self.perm)[rows]
        bs = max(bw, 1)
        nb = -(-n // bs)
        blk, row_in = np.divmod(rows, bs)
        cols = np.repeat(np.arange(ncols), np.diff(B.indptr))
        # columns by their first block, so block j reaches the prefix
        # [:width[j]]; a column without entries reaches none
        first = np.full(ncols, nb, dtype=np.int64)
        np.minimum.at(first, cols, blk)
        order = np.argsort(first, kind="stable")
        rank = np.empty(ncols, dtype=np.int64)
        rank[order] = np.arange(ncols)
        width = np.searchsorted(first[order], np.arange(nb), side="right")
        # B's entries by block: row in the block, (component, column), value;
        # Y_j is Fortran ordered (h, ncomp * m), column c + ncomp q
        by_blk = np.argsort(blk, kind="stable")
        starts = np.searchsorted(blk[by_blk], np.arange(nb + 1))
        row_in, slot, val = row_in[by_blk], (comp + ncomp * rank[cols])[by_blk], B.data[by_blk]
        # the band ab[k, c] = L[c + k, c] sits at flat[k + (bw + 1) c]; read
        # with leading dimension bs it gives L's blocks by their columns:
        # flat[o + b bs + a] is L[s + a, s + b] (o = (bw + 1) s, lower
        # triangle) and L[s + a, s - bs + b] (o = bs + (bw + 1) (s - bs),
        # upper triangle); trtri and trmm read only those triangles
        flat = self._ab.reshape(-1, order="F")
        T = np.zeros((ncols, ncols), order="F")
        Y = None
        for j in range(nb):
            s, h, m = j * bs, min(bs, n - j * bs), width[j]
            if m == 0:
                continue
            e = slice(starts[j], starts[j + 1])
            R = np.zeros(h * ncomp * m)
            R[row_in[e] + h * slot[e]] = val[e]
            R = R.reshape(h, ncomp * m, order="F")
            if Y is not None and bw:
                o = bs + (bw + 1) * (s - bs)
                LY = trmm(1.0, flat[o : o + bs * bs].reshape(bs, bs).T, Y, overwrite_b=1)
                R[:, : LY.shape[1]] -= LY[:h]
            o = (bw + 1) * s
            inv, _ = trtri(flat[o : o + h * bs].reshape(h, bs)[:, :h].T, lower=1)
            Y = trmm(1.0, inv, R, lower=1, overwrite_b=1)
            T[:m, :m] += syrk(1.0, Y.reshape(h * ncomp, m, order="F"), trans=1)
        T += np.triu(T, 1).T  # syrk fills the upper triangle
        return T[np.ix_(rank, rank)]

    def backward(self, y):
        x, _ = self._tbtrs(self._ab, y, uplo="L", trans="T")
        if self.perm is None:
            return x
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    @property
    def L(self):
        n = self.shape[0]
        rows = np.arange(n)[:, None] + np.arange(self.bandwidth + 1)  # (column, k)
        keep = rows < n
        return sp.csc_matrix((self._ab.T[keep], rows[keep],
                              np.concatenate([[0], np.cumsum(keep.sum(axis=1))])),
                             shape=self.shape)

    @property
    def U(self):
        return self.L.T.tocsc()


def _lower_band(A):
    """(ab, perm) of a symmetric A for BandCholesky, or None when a sparse
    A's band would hold more than BAND_ENTRIES entries.

    A sparse A takes the narrower of its own order and the reverse
    Cuthill-McKee order; a dense A keeps its order, and its band is read
    from its diagonals (only its lower triangle is read).
    """
    n = A.shape[0]
    if isinstance(A, np.ndarray):
        bw = int((np.arange(n) - np.argmax(A != 0, axis=1)).max(initial=0))
        rows = np.arange(n)[:, None] + np.arange(bw + 1)  # (column, k)
        ab = A[np.minimum(rows, n - 1), np.arange(n)[:, None]]
        ab[rows >= n] = 0.0
        return ab.T, None
    # imported here, like in assemble_global: only the monolithic path orders
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = sp.coo_matrix(A)
    r, c = A.row.astype(np.int64), A.col.astype(np.int64)
    perm = reverse_cuthill_mckee(sp.csr_matrix(A), symmetric_mode=True)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    bw = int(np.abs(r - c).max(initial=0))
    bw_rcm = int(np.abs(inv[r] - inv[c]).max(initial=0))
    if bw_rcm < bw:
        r, c, bw = inv[r], inv[c], bw_rcm
    else:
        perm = None
    if n * (bw + 1) > BAND_ENTRIES:
        return None
    low = r >= c
    ab = np.bincount(c[low] * (bw + 1) + (r - c)[low], weights=A.data[low],
                     minlength=n * (bw + 1)).reshape(n, bw + 1)
    return ab.T, perm


@lru_cache(maxsize=64)
def _check_vector(n):
    """The seeded random right-hand side of factorize's residual check."""
    b = np.random.default_rng(7).standard_normal(n)
    b.flags.writeable = False
    return b


def factorize(A, what, fem=False, spd=False):
    """Checked factorization of A; every direct solve in the package uses it.

    A is a dense ndarray or any sparse matrix; COO input may repeat entries,
    which are summed. When the caller states with spd=True that A is
    symmetric positive definite, a LAPACK band Cholesky (BandCholesky)
    factors a dense A at any size, in its order, its band cut from its
    diagonals, and a sparse A while its band holds at most BAND_ENTRIES
    entries, n (bandwidth + 1), in the narrower of its order and reverse
    Cuthill-McKee (Cuthill & McKee 1969); a wider one goes to SuperLU as
    if fem=True. Otherwise a dense ndarray goes to getrf, which factors a copy;
    a sparse matrix of at most DENSE_LU_ROWS rows is densified and factored
    in place by getrf; both return a DenseLU. A larger sparse matrix goes to
    SuperLU (the SuperLU object is returned): with its defaults, COLAMD and
    partial pivoting, or, when the caller states with fem=True that A is a
    finite-element stiffness or Stokes saddle matrix, with FEM_SUPERLU, the
    symmetric mode that the SuperLU Users' Guide gives for matrices of
    symmetric structure. On every path a zero pivot, a failed band Cholesky,
    or a relative residual above 1e-6 on a seeded random right-hand side
    (drawn once per size) raises SingularLocalSystemError naming `what`:
    pivoted LU of a singular saddle system can succeed with garbage factors,
    and so can a too small diagonal pivot threshold or the Cholesky of a
    singular semidefinite matrix.

    The band path against fem=True (SuperLU above DENSE_LU_ROWS, getrf at
    or below), on one 2-vCPU host, BLAS on one thread, ms. Forming the
    pressure Schur complement T = D K^-1 D^T of pressure_schur_extremes on
    grid(1,1), factor included (the stacked stiffness, its own order, best
    of 7; T agrees to 1.5e-15 relative):

        cell    rows   fem, solve, D X       band solve, D X
        p1 l3   450    2.4                   2.1
        p1 l4   1,922  32.1                  32.0
        p2 l3   512    3.7                   3.5
        p2 l4   2,048  71.9                  58.2
        six cells, p 1-2, l 2-4    110.7     96.6

    The band's Gram kernel BandCholesky.gram on the same cells: BENCH_22.json.

    The same, factor included, best of 3, on larger domains (RCM order):

        system                           band entries   SuperLU   band
        grid(2,2) p2 l3                  279k           70        45
        quarter_annulus(1,2,4,4) p2 l2   431k           105       106
        rectangle_with_hole p1 l3        722k           409       399
        grid(5,5) p2 l2                  891k           390       363
        grid(3,3) p2 l3                  1.09M          452       448
        grid(4,4) p1 l3                  1.94M          1,072     1,200
        grid(2,2) p2 l4                  2.16M          1,370     1,309
        quarter_annulus(1,2,4,4) p2 l3   2.87M          1,787     2,039

    The band wins clearly up to a few hundred thousand entries, is even
    with SuperLU up to about 1.1M, and loses by 12-14% at 1.9M and 2.9M;
    hence BAND_ENTRIES. On grid(1,1) p2 l4 the own order (bandwidth 99)
    beats RCM (123); on grid(3,3) p2 l2 RCM narrows 255 to 121. A dense
    Cholesky took 40.2 ms on p1 l4 above against 27.4 for SuperLU. For
    K_ii, condense_interior of one quarter_annulus(1,2,2,2) patch, best of
    5-7, ms, with X = K_ii^-1 Q^T and Q X (SuperLU from CSC, getrf to 350
    rows, band above) or the band and Y^T Y, Y = L^-1 P Q^T (S, Dg and T
    the same to 4e-15):

        K_ii rows     64     81     256    289    1,024  1,089 (p2/p3 l2-4)
        SuperLU, X                                78.4   120.6
        getrf/band X  0.27   0.48   3.78   5.51   64.4   91.2
        band, Y       0.28   0.45   2.17   3.22   32.7   47.8

    FEM_SUPERLU against the defaults on one 2-vCPU host, BLAS on one
    thread, best of 3: factor time in ms and stored factor entries. Every
    relative residual on a random right-hand side was below 1e-9:

        system                                   rows    COLAMD          symmetric
                                                         ms     entries  ms     entries
        saddle grid(1,1) p1 l4                   2,212   32.8   408k     9.8    200k
        saddle grid(1,1) p2 l4                   2,373   75.5   925k     26.9   635k
        saddle grid(1,1) p3 l4                   2,540   361    2.21M    70.4   1.01M
        saddle strip(4) p2 l2                    705     7.6    117k     3.2    79k
        saddle grid(3,3) p2 l2                   1,677   70.0   765k     15.5   257k
        saddle quarter_annulus(1,2,4,4) p2 l2    3,027   130    1.82M    29.9   650k
        saddle rectangle_with_hole p1 l3         6,202   2,768  10.5M    30.8   723k
        saddle quarter_annulus(1,2,4,4) p3 l3    12,019  3,329  22.7M    453    6.38M
        saddle quarter_annulus(1,2,8,8) p2 l2    12,387  3,598  18.4M    1,035  7.94M
        doubled K grid(1,1) p1 l4                1,922   9.2    106k     5.3    72k
        doubled K grid(1,1) p2 l4                2,048   15.7   217k     11.9   209k
        coarse quarter_annulus(1,2,32,32) p2 l1  4,931   91.3   1.39M    4,077  15.0M

    The saddles are those of GlobalStokesSystem.solve, which now factors
    such a saddle only above the dense cut of its bordered pressure system
    (the p1 l4, p2 l4, strip(4) and grid(3,3) saddles above are eliminated
    through the pressure Schur complement instead). The doubled K is the
    stacked velocity stiffness that pressure_schur_spectrum factored before
    it read the system's scalar factor; its solve on 324 pressure columns
    at p2 l4 gained too, 92.7 to 81.5 ms (best of 5). The
    coarse primal system of the 1,024-patch domain is the exception, with
    ten times the fill, so it keeps the defaults. The diagonal pivot
    threshold, on the saddles: 0 returns wrong solutions with no SuperLU
    error (residuals 3e+2 on grid(3,3), 3e+6 on quarter_annulus(1,2,4,4)
    p2 l2, 4e+2 on rectangle_with_hole, 7e+2 on strip(4), 2e+3 on the p3
    l3 annulus); 1e-2 takes the p3 l3 annulus back to COLAMD's time (3,668
    ms); 1e-4 is as fast as 1e-3, with a ten times larger residual on that
    saddle.

    The dense cut DENSE_LU_ROWS is the same for both SuperLU settings. It
    was measured against SuperLU's defaults on the augmented patch systems
    of quarter_annulus(1,2,2,2), p 1-7, l 2-3: up to 311 rows getrf won
    factor time, solve time and bytes on every system, and from 374 rows a
    dense factor of a sparse C0 system held 1.5x SuperLU's bytes.
    """
    n = A.shape[0]
    dense = isinstance(A, np.ndarray)
    band = _lower_band(A) if spd else None
    if band is not None:
        lu = BandCholesky(*band, what)
    elif dense or n <= DENSE_LU_ROWS:
        if dense:
            work = A  # getrf factors a copy
        else:
            A = sp.coo_matrix(A)
            work = np.bincount(A.col.astype(np.int64) * n + A.row, weights=A.data,
                               minlength=n * n).reshape((n, n), order="F")
        getrf, = sla.get_lapack_funcs(("getrf",), (work,))
        lu, piv, info = getrf(work, overwrite_a=not dense)
        if info > 0:
            raise SingularLocalSystemError("%s is singular: Factor is exactly singular" % what)
        lu = DenseLU(lu, piv)
    else:
        A = sp.csc_matrix(A)
        try:
            lu = spla.splu(A, **FEM_SUPERLU) if fem or spd else spla.splu(A)
        except RuntimeError as err:
            raise SingularLocalSystemError("%s is singular: %s" % (what, err))
    b = _check_vector(n)
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
    saddle_matrix() is a slice of Ks and D, a reference for tests and
    counts. The IETI path reads condense_interior(), the right-hand side
    and the pressure average row, and builds none of Ks, D, Mp; the
    monolithic path reads only Ks, D and Mp.
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
    element. elements are the patch's entry of element_forms, which reads
    rhs, nquad and the Dirichlet data in their place; a dirichlet given here
    too is projected again, for this patch alone. When elements is None,
    the patch is a family of one. The assembled matrices are built when
    first asked for (see PatchStokesSystem).
    """
    if elements is None:
        elements, = element_forms([geo], [ths], rhs, nquad)
    values = elements.dirichlet_values
    if dirichlet is not None:
        values, = _dirichlet_values([geo], [0], ths, [ths], dirichlet)
    return PatchStokesSystem(ths, elements, values)


def _coo(vals, rows, cols, shape):
    """CSR matrix summing vals at (rows, cols), all broadcast to vals.shape."""
    rows = np.broadcast_to(rows, vals.shape)
    cols = np.broadcast_to(cols, vals.shape)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


# ---------------------------------------------------------------------------
# edge fluxes and the divergence bubble


def _side_flux_rows(geos, vel, side, rules):
    """(side_dofs, R) of one side for a family of maps sharing vel, with R
    of shape (len(geos), len(side_dofs), 2): the rows of edge_flux_rows of
    every map, from one side_traces call and one collocation table. rules
    maps a Gauss rule size to its rule, built here when missing."""
    gdeg = max(geos[0].space.space_x.degree, geos[0].space.space_y.degree)
    espace = vel.side_space(side)
    n = espace.degree + gdeg + 2
    if n not in rules:
        rules[n] = gauss_rule_1d(n)
    tq, wq = rule_on_elements(espace.breakpoints, rules[n])
    normal = side_traces(geos, {side: tq})[side][2]  # outward normal times length element
    return vel.side_dofs(side), espace.collocation(tq).T @ (wq.reshape(-1, 1) * normal)


def edge_flux_rows(geo, vel, sides):
    """Rows evaluating int_edge N_i n_c ds for the dofs with trace on each side.

    Returns {side: (side_dofs, R)} with R of shape (len(side_dofs), 2); the
    flux of a velocity coefficient field u through the side is
    sum_c R[:, c] . u[c, side_dofs]. Each side uses edge degree + geometry
    degree + 2 Gauss points per element. The patch is a family of one for
    the kernel of family_flux_rows.
    """
    out, rules = {}, {}
    for side in sides:
        dofs, R = _side_flux_rows([geo], vel, side, rules)
        out[side] = dofs, R[0]
    return out


def family_flux_rows(patches, spaces, sides):
    """edge_flux_rows of many patches: sides[k] lists the sides of patch k.

    Returns per patch {side: (side_dofs, R)}. The rows of a side are formed
    for all patches of a family (_families) that list it at once, from one
    side_traces call; one Gauss rule per distinct rule size serves all
    families and sides.
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
    identified; pressures are patchwise discontinuous. The velocity
    elimination is cached on the system and shared by solve and the
    pressure Schur spectrum: velocity_factor, the one factor of the scalar
    free stiffness, and pressure_schur, T = D_f K_ff^-1 D_f^T.
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
        """(K_ff, D_f, f, h) on free velocity dofs, components stacked.

        Built on the first call and shared by solve and the pressure Schur
        spectrum; callers must not modify the returned arrays.
        """
        return self._free_blocks

    @cached_property
    def _free_blocks(self):
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

    @cached_property
    def velocity_factor(self):
        """factorize of the scalar free stiffness K_f = Ks[free][:, free] as an
        SPD matrix, shared by both velocity components (K_ff = diag(K_f, K_f)):
        the one velocity elimination of solve and of the pressure Schur
        spectrum (analysis.pressure_schur_spectrum)."""
        nf = len(self.free)
        return factorize(self.free_blocks()[0][:nf, :nf],
                         "velocity stiffness of the monolithic Stokes system", spd=True)

    @cached_property
    def pressure_schur(self):
        """The pressure Schur complement T = D_f K_ff^-1 D_f^T, dense, formed on
        first use. D_f^T = [D_0f^T; D_1f^T] stacks the divergence acting on
        each velocity component along the rows; with a BandCholesky of K_f, T
        is its blocked Gram kernel gram(D_f^T) = Y_0^T Y_0 + Y_1^T Y_1, Y_c =
        L^-1 P D_cf^T, and otherwise D_f times stiffness_solve(D_f^T)."""
        D = self.free_blocks()[1]
        if isinstance(self.velocity_factor, BandCholesky):
            return self.velocity_factor.gram(D.T)
        return D @ self.stiffness_solve(D.T.toarray())

    def stiffness_solve(self, b):
        """K_ff^-1 b for b on the free velocity dofs, components stacked (1-D
        or a column per solve): one solve of velocity_factor, with a column
        per component and column of b."""
        nf = len(self.free)
        X = self.velocity_factor.solve(b.reshape(2, nf, -1).transpose(1, 0, 2).reshape(nf, -1))
        return X.reshape(nf, 2, -1).transpose(1, 0, 2).reshape(b.shape)

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
        u = K_ff^-1 (f - D_f^T p). The factor and T are cached on the system,
        so the pressure Schur spectrum of the same system factors nothing
        more. A larger system is factored as one sparse saddle matrix with
        factorize(fem=True) (FEM_SUPERLU).

        The cut, the dense factor's DENSE_LU_ROWS, bounds what solve pays
        when nothing else reads T. Followed by the spectrum, which forms T
        anyway, the elimination was faster on every cell measured, from 145
        to 1,157 rows. Called alone, it was faster on 5 of the 7 cells below
        the cut and at most 1.35x (3.7 ms) slower, 0.7-1.2x at 351-401 rows,
        1.2-1.5x at 577-626 and 1.0-3.8x from 730: forming T costs
        n_f n_p^2 while the saddle's fill grows more slowly. Both paths agree
        to 5e-11 relative in pressure and 5e-13 in velocity. The timings are
        in BENCH_22.json (solve_cut_ms).
        """
        Kff, Df, rhs_f, h = self.free_blocks()
        nU, npre = Kff.shape[0], self.n_pressure
        m = (self.pressure_integral_row()[:, None] if self.mp.pressure_up_to_constant
             else np.zeros((npre, 0)))  # the mean row's column, or none
        nm = m.shape[1]
        if npre + nm <= DENSE_LU_ROWS:
            M = np.block([[-self.pressure_schur, m], [m.T, np.zeros((nm, nm))]])
            r = np.zeros(npre + nm)
            r[:npre] = h - Df @ self.stiffness_solve(rhs_f)
            what = "pressure Schur complement of the monolithic Stokes system"
            p = factorize(M, what).solve(r)[:npre]
            uf = self.stiffness_solve(rhs_f - Df.T @ p).reshape(2, -1)
        else:
            m = sp.csr_matrix(m)
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
