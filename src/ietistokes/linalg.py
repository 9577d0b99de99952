"""The checked direct solves of the package.

Every factorization goes through factorize, which picks one of three
factors by what the caller states and the size of the system, and checks
each one the same way: a zero pivot, a failed band Cholesky, or a relative
residual above 1e-6 on a seeded random right-hand side raises
SingularLocalSystemError naming the system.

- BandCholesky, a LAPACK band Cholesky P A P^T = L L^T, for systems the
  caller states to be symmetric positive definite (spd=True) while the
  band holds at most BAND_ENTRIES entries: the patch interior stiffness
  K_ii of the IETI-DP setup and the scalar free stiffness of the
  monolithic system. Its half solves forward and backward and its
  blocked Gram kernel gram serve the condensation of a patch and the
  pressure Schur complement.
- DenseLU, a LAPACK LU with partial pivoting, for dense arrays and for
  sparse systems of at most DENSE_LU_ROWS rows: the reduced and coarse
  systems of IETI-DP and the bordered pressure Schur system of the
  monolithic solve.
- SuperLU for larger sparse systems, with FEM_SUPERLU for finite-element
  matrices (fem=True) and with its defaults otherwise (the coarse system).

schur_complement is the one formation of sum_c B_c^T A^-1 B_c from a
factor of A, so no caller needs to know which factor it holds.

DENSE_LU_ROWS is read twice: by factorize, as its cut between DenseLU and
SuperLU for a sparse system, and by GlobalStokesSystem.solve, as its cut
between elimination through the pressure Schur complement and the sparse
saddle. It stays one constant: re-timing the second cut (BENCH_22.json,
solve_cut_ms) showed no value that wins on both the p1 and the p2 cells,
so a second constant would have no measured value to take.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = (
    "SingularLocalSystemError",
    "DenseLU",
    "BandCholesky",
    "factorize",
    "solve_stacked",
    "schur_complement",
)


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
    of n (n + 1) / 2 entries each, explicit zeros kept; besides the tests,
    only perfbench/run.py:ieti_counts reads L and U.
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
    sparse matrices, explicit zeros kept (besides the tests, only
    perfbench/run.py:ieti_counts reads them). solve is the two half solves
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
    # imported here, like in assembly.assemble_global: csgraph adds about
    # 1 MB to the resident set, and only the monolithic path orders
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

    The measurements behind the constants, on one 2-vCPU host with BLAS on
    one thread:

    - BAND_ENTRIES, where the band stops beating SuperLU's symmetric mode:
      BENCH_23.json, moved_from_docstrings.
    - FEM_SUPERLU against SuperLU's defaults, and its pivot threshold:
      BENCH_23.json, moved_from_docstrings.
    - DENSE_LU_ROWS, where a dense factor of a sparse system stops winning
      time and bytes: BENCH_23.json, moved_from_docstrings; as the cut of
      GlobalStokesSystem.solve: BENCH_22.json, solve_cut_ms.
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


def solve_stacked(lu, b):
    """[A^-1 b_0; A^-1 b_1; ...] for lu = factorize(A, ...) of n rows and
    b = [b_0; b_1; ...] (1-D or a column per solve) whose row count is a
    multiple of n: one solve of lu, with a column per block and column of b.
    """
    n = lu.shape[0]
    k = b.shape[0] // n
    X = lu.solve(b.reshape(k, n, -1).transpose(1, 0, 2).reshape(n, -1))
    return X.reshape(n, k, -1).transpose(1, 0, 2).reshape(b.shape)


def schur_complement(lu, B):
    """sum_c B_c^T A^-1 B_c, dense, for lu = factorize(A, ...) of n rows and a
    sparse B = [B_0; B_1; ...] whose row count is a multiple of n.

    A BandCholesky forms it with its Gram kernel (gram), exactly symmetric;
    any other factor solves the dense columns of every B_c in one call
    (solve_stacked) and multiplies by B^T.
    """
    if isinstance(lu, BandCholesky):
        return lu.gram(B)
    return B.T @ solve_stacked(lu, B.toarray())
