"""Inf-sup and spectral studies of the Stokes discretization.

Everything here revolves around the generalized eigenvalue problem

    D K^-1 D^T q = lambda M_p q

posed off the constant pressure when the boundary fixes the pressure only
up to one (MultiPatch.pressure_up_to_constant: the velocity is Dirichlet on
the whole boundary), on all pressures otherwise. The square root of the
smallest eigenvalue is the discrete inf-sup constant, the largest one the
discrete boundedness constant, and kappa = sqrt(lambda_max / lambda_min)
measures the conditioning of the mass-preconditioned pressure Schur
complement. The size of the problem picks the eigensolver: a dense eigh
up to DENSE_LIMIT dofs (velocity and pressure), LOBPCG above it, and a
failed LOBPCG solve raises SpectrumError; no argument changes the choice.
pressure_schur_extremes factors the velocity stiffness K it is given once,
as an SPD matrix, and its dense path forms T = D K^-1 D^T from that factor
and D's entries with linalg.schur_complement.
pressure_schur_spectrum factors nothing: it reads the velocity elimination
cached on the global system, which the system's solve shares
(GlobalStokesSystem.velocity_factor, the scalar free stiffness, and
pressure_schur, T formed the same way). local_infsup and skeleton_matrices
read the same half solve for the patch's interior velocity, the elimination
the IETI-DP setup performs too (PatchStokesSystem.condense_interior). The
dense eigensolve removes a left-out constant pressure with one Householder
reflector. The skeleton routines compare the boundary Schur complement of
the full saddle point system with the one of the vector Laplacian.
"""

import math
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .assembly import assemble_global, taylor_hood_spaces
from .domains import load_domain
from .geometry import SIDES
from .linalg import factorize, schur_complement, solve_stacked

__all__ = (
    "SchurSpectrum",
    "SpectrumError",
    "pressure_schur_extremes",
    "pressure_schur_spectrum",
    "local_infsup",
    "skeleton_matrices",
    "skeleton_spectra",
    "InfSupStudy",
)

DENSE_LIMIT = 20000
_LOBPCG_LOCK = threading.Lock()


class SchurSpectrum:
    """Extreme nonzero generalized eigenvalues of (D K^-1 D^T, M_p).

    When lam_min <= 0, beta is 0 and kappa inf. The dense path returns a
    lam_min of round-off size (within n eps lam_max of zero) as 0; on the
    iterative path an inf-sup unstable pair may give a lam_min of round-off
    size above 0, which is reported as is, with a tiny beta and a large
    finite kappa. method names the eigensolver that ran, "dense" or
    "iterative", as the size picked it (_schur_extremes).
    """

    def __init__(self, lam_min, lam_max, dofs, method):
        self.lam_min = float(lam_min)
        self.lam_max = float(lam_max)
        self.dofs = int(dofs)
        self.method = method

    @property
    def beta(self):
        """Discrete inf-sup constant."""
        return math.sqrt(self.lam_min) if self.lam_min > 0 else 0.0

    @property
    def delta(self):
        """Discrete boundedness constant (largest eigenvalue)."""
        return self.lam_max

    @property
    def kappa(self):
        return math.sqrt(self.lam_max / self.lam_min) if self.lam_min > 0 else math.inf

    def __repr__(self):
        return "SchurSpectrum(beta=%.4g, delta=%.4g, kappa=%.4g, method=%s)" % (
            self.beta, self.delta, self.kappa, self.method)


class SpectrumError(RuntimeError):
    """The pressure Schur spectrum could not be computed (the iterative
    eigensolve of a problem above DENSE_LIMIT failed), or it is not
    admissible (a condition number below one)."""


class _NotConverged(RuntimeError):
    pass


def _mean_row(Mp):
    return np.asarray(Mp.sum(axis=0)).ravel()


def _dense_extremes(T, Mp, deflate):
    """Extreme eigenvalues of (T, M_p), off the constant pressure if deflate.

    The reflector H = I - 2 v v^T that maps the mean row M_p 1 to a multiple
    of e_1 has, in its other columns, an orthonormal basis of the row's
    complement; the pencil restricted to it is (H T H, H M_p H) without the
    first row and column, and H X H = X - 2 (v z^T + z v^T) with
    z = X v - (v^T X v) v for a symmetric X. A smallest eigenvalue within
    n eps lam_max of zero, the round-off of the eigensolve, is returned as 0:
    its sign depends on the rounding of T, not on the pair.
    """
    if not deflate:
        return _extremes(sla.eigh(T, Mp.toarray(), eigvals_only=True))
    v = _mean_row(Mp)
    v /= np.linalg.norm(v)
    v[0] += math.copysign(1.0, v[0])
    v /= np.linalg.norm(v)

    def reflected(X):
        X = 0.5 * (X + X.T)
        w = X @ v
        z = (w - (v @ w) * v)[1:]
        return X[1:, 1:] - 2.0 * (np.outer(v[1:], z) + np.outer(z, v[1:]))

    return _extremes(sla.eigh(reflected(T), reflected(Mp.toarray()), eigvals_only=True))


def _extremes(ev):
    """(lam_min, lam_max) of ascending eigenvalues, lam_min 0 at round-off."""
    lam_min, lam_max = float(ev[0]), float(ev[-1])
    if lam_min <= len(ev) * np.finfo(float).eps * abs(lam_max):
        lam_min = 0.0
    return lam_min, lam_max


def _iterative_extremes(schur, Mp, deflate):
    """Extreme eigenvalues of (T, M_p) by LOBPCG on schur(Q) = T Q, the block
    of 5 seeded random vectors kept M_p-orthogonal to the constant if deflate;
    _NotConverged if the problem is too small for lobpcg or an eigenpair
    residual exceeds 1e-6 relative."""
    n, block = Mp.shape[0], 5
    if n - 1 < 5 * block:
        # below this size lobpcg switches to a dense eigensolver, which
        # takes no constraint Y
        raise _NotConverged("%d pressure dofs are too few for lobpcg" % n)
    T = spla.LinearOperator((n, n), matvec=schur, matmat=schur, dtype=float)
    Y = np.ones((n, 1)) if deflate else None
    X = np.random.default_rng(0).standard_normal((n, block))
    out = []
    for largest in (False, True):
        # lobpcg warns when a block vector misses tol, also one that is
        # discarded here; the eigenpair residual check below decides.
        # catch_warnings swaps process-wide state: the lock keeps the
        # threads of InfSupStudy.run from restoring each other's filters.
        with _LOBPCG_LOCK, warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            w, V = spla.lobpcg(T, X.copy(), B=Mp, Y=Y, largest=largest,
                               tol=1e-8, maxiter=2000)
        j = int(np.argmin(w)) if not largest else int(np.argmax(w))
        lam, x = float(w[j]), V[:, j]
        Tx = schur(x[:, None]).ravel()
        r = Tx - lam * (Mp @ x)
        scale = np.linalg.norm(Tx) + abs(lam) * np.linalg.norm(Mp @ x)
        if not np.isfinite(lam) or np.linalg.norm(r) > 1e-6 * scale:
            raise _NotConverged("lobpcg eigenpair residual too large")
        out.append(lam)
    return out[0], out[1]


def _schur_extremes(schur, dense, Mp, dofs, deflate=True):
    """SchurSpectrum of T, off the constant pressure if deflate: the dense
    path on dense() = T up to DENSE_LIMIT dofs, LOBPCG on schur(Q) = T Q
    above it, where a failed solve raises SpectrumError."""
    if dofs <= DENSE_LIMIT:
        return SchurSpectrum(*_dense_extremes(dense(), Mp, deflate), dofs, "dense")
    try:
        return SchurSpectrum(*_iterative_extremes(schur, Mp, deflate), dofs, "iterative")
    except _NotConverged as exc:
        raise SpectrumError("iterative eigensolve failed on %d dofs: %s" % (dofs, exc)) from None


def pressure_schur_extremes(K, D, Mp):
    """Spectrum bounds of the mass-preconditioned pressure Schur complement.

    K is the velocity stiffness on the unconstrained dofs (components
    stacked), D the matching divergence block and M_p the pressure mass. K
    is factored once for both paths, which form or apply T = D K^-1 D^T.
    Generic blocks carry no boundary tags, so the constant-pressure
    direction is always removed: dense work restricts to the
    orthogonal complement of M_p 1 that one Householder reflector spans
    (_dense_extremes), the iterative path keeps the LOBPCG block orthogonal
    to it. The size picks the path (_schur_extremes), and spectrum.method
    reads which one ran. No code in the package calls it;
    perfbench/run.py traces it by name (TRACE_TARGETS).
    """
    lu = factorize(K, "velocity stiffness", spd=True)

    def schur(Q):
        return D @ lu.solve(np.asarray(D.T @ Q, dtype=float))

    return _schur_extremes(schur, lambda: schur_complement(lu, D.T), Mp,
                           K.shape[0] + Mp.shape[0])


def pressure_schur_spectrum(glob):
    """SchurSpectrum of an assembled global system (Dirichlet eliminated).

    It reads the system's velocity elimination, which its solve shares: the
    dense path the cached T (GlobalStokesSystem.pressure_schur), the
    iterative one T Q = D_f K_ff^-1 D_f^T Q through the one factor of the
    scalar free stiffness (GlobalStokesSystem.velocity_factor, one
    linalg.solve_stacked for both components). The size
    picks the path, as in pressure_schur_extremes. The constant pressure is
    left out iff glob.mp.pressure_up_to_constant; with a Neumann side the
    whole pencil (T, M_p) is solved.
    """
    Df = glob.free_blocks[1]

    def schur(Q):
        return Df @ solve_stacked(glob.velocity_factor, np.asarray(Df.T @ Q, dtype=float))

    return _schur_extremes(schur, lambda: glob.pressure_schur, glob.Mp, glob.n_dofs,
                           glob.mp.pressure_up_to_constant)


def local_infsup(system):
    """Inf-sup constant beta_k of a single patch.

    The patch system must have Dirichlet conditions on the whole velocity
    boundary (ValueError otherwise), so the constant pressure is left out:
    beta_k is the square root of the smallest nonzero generalized
    eigenvalue of (T, M_p), with
    T = sum_c D_ci K_ii^-1 D_ci^T the pressure Schur complement of the
    patch's interior condensation (PatchStokesSystem.condense_interior),
    solved on the path the size picks (_schur_extremes).
    """
    ths = system.ths
    if any(ths.side_roles.get(side) != "dirichlet" for side in SIDES):
        raise ValueError("local inf-sup needs a fully Dirichlet velocity boundary")
    T = system.condense_interior("interior stiffness of the patch").T
    return _schur_extremes(lambda Q: T @ Q, lambda: T, system.Mp,
                           2 * ths.n_inner + ths.n_pressure).beta


# ---------------------------------------------------------------------------
# skeleton Schur complements of a floating patch


def skeleton_matrices(system):
    """Dense (S_A, S_K) on the boundary velocity dofs of a floating patch.

    A floating patch has an interface on every side and no Dirichlet dof
    (ValueError otherwise). S_A eliminates interior velocity, pressure and
    the pressure-average multiplier from the full saddle point matrix; S_K
    eliminates the interior velocity from the vector Laplacian alone. From
    the patch's condense_interior: S_K = kron(I_2, S), S_A = S_K - B^T M^-1 B
    with B = [D_0g, D_1g; 0] and M = [[-T, c_a], [c_a^T, 0]], c_a the
    pressure average row.
    """
    ths = system.ths
    if len(ths.dirichlet) or any(ths.side_roles.get(side) != "interface" for side in SIDES):
        raise ValueError("skeleton matrices are defined for floating patches")
    cond = system.condense_interior("interior stiffness of the patch")
    ca = system.pressure_average_row()[:, None]
    M = np.block([[-cond.T, ca], [ca.T, np.zeros((1, 1))]])
    B = np.vstack([np.hstack(cond.Dg), np.zeros((1, 2 * ths.n_gamma))])
    S_K = np.kron(np.eye(2), cond.S)
    S_A = S_K - B.T @ factorize(M, "skeleton pressure system").solve(B)
    return 0.5 * (S_A + S_A.T), 0.5 * (S_K + S_K.T)


def skeleton_spectra(system):
    """Generalized eigenvalues of (S_A, S_K) off the constant-velocity kernel.

    Both forms vanish on componentwise constant boundary data, so the
    eigenproblem is restricted to the orthogonal complement of those two
    vectors. Returned in ascending order.
    """
    S_A, S_K = skeleton_matrices(system)
    ng = system.ths.n_gamma
    kernel = np.zeros((2, 2 * ng))
    kernel[0, :ng] = 1.0
    kernel[1, ng:] = 1.0
    Z = sla.null_space(kernel)
    A = Z.T @ S_A @ Z
    B = Z.T @ S_K @ Z
    return sla.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)


# ---------------------------------------------------------------------------
# condition number studies over (degree, refinement) grids


class InfSupStudy:
    """Pressure Schur condition numbers over a (degree, level) grid.

    Each cell assembles the domain with its own boundary tags and reports
    kappa, beta, delta_h (pressure_schur_spectrum, whose eigensolver the
    cell's size picks) and the dof count. Cells are independent and can run
    on a thread pool.
    """

    def __init__(self, domain, degrees, levels, smoothness=None):
        self.domain = domain
        self.degrees = list(degrees)
        self.levels = list(levels)
        self.smoothness = smoothness

    def run_cell(self, degree, level):
        t0 = time.perf_counter()
        mp = load_domain(self.domain)
        spaces = taylor_hood_spaces(mp, degree, self.smoothness, level)
        glob = assemble_global(mp, spaces)
        spec = pressure_schur_spectrum(glob)
        return {
            "domain": self.domain,
            "degree": degree,
            "level": level,
            "kappa": spec.kappa,
            "beta": spec.beta,
            "delta_h": spec.delta,
            "dofs": glob.n_dofs,
            "seconds": time.perf_counter() - t0,
        }

    def run(self, threads=1):
        cells = [(p, l) for p in self.degrees for l in self.levels]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(lambda c: self.run_cell(*c), cells))
        else:
            rows = [self.run_cell(*c) for c in cells]
        for row in rows:
            if not row["kappa"] >= 1.0:
                raise SpectrumError("condition number below one: %r" % (row,))
        return rows
