"""Inf-sup and spectral studies of the Stokes discretization.

Everything here revolves around the generalized eigenvalue problem

    D K^-1 D^T q = lambda M_p q

posed on mean-zero pressures: the square root of the smallest nonzero
eigenvalue is the discrete inf-sup constant, the largest eigenvalue is the
discrete boundedness constant, and kappa = sqrt(lambda_max / lambda_min)
measures the conditioning of the mass-preconditioned pressure Schur
complement. The skeleton routines compare the boundary Schur complement of
the full saddle point system with the one of the vector Laplacian.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_global, factorize, taylor_hood_spaces
from .domains import load_domain
from .geometry import SIDES

__all__ = (
    "SchurSpectrum",
    "pressure_schur_extremes",
    "pressure_schur_spectrum",
    "pressure_schur_condition",
    "local_infsup",
    "skeleton_matrices",
    "skeleton_spectra",
    "InfSupStudy",
)

DENSE_LIMIT = 20000


class SchurSpectrum:
    """Extreme nonzero generalized eigenvalues of (D K^-1 D^T, M_p).

    When lam_min <= 0, beta is 0 and kappa inf. An inf-sup unstable pair
    may also give a lam_min of round-off size above 0; that is reported as
    is, with a tiny beta and a large finite kappa.
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


class _NotConverged(RuntimeError):
    pass


def _mean_row(Mp):
    return np.asarray(Mp.sum(axis=0)).ravel()


def _dense_extremes(K, D, Mp):
    lu = factorize(K, "velocity stiffness")
    T = D @ lu.solve(D.toarray().T)
    T = 0.5 * (T + T.T)
    Z = sla.null_space(_mean_row(Mp)[None, :])
    A = Z.T @ T @ Z
    B = Z.T @ (Mp @ Z)
    ev = sla.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    return float(ev[0]), float(ev[-1])


def _iterative_extremes(K, D, Mp, tol=1e-8, maxiter=2000, seed=0, block=5):
    lu = factorize(K, "velocity stiffness")
    n = Mp.shape[0]
    Dc = sp.csr_matrix(D)

    def matmat(Q):
        Q = np.asarray(Q)
        return Dc @ lu.solve(np.asarray((Dc.T @ Q), dtype=float))

    T = spla.LinearOperator((n, n), matvec=matmat, matmat=matmat, dtype=float)
    ones = np.ones((n, 1))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, min(block, max(1, n - 2))))
    if n - 1 < 5 * X.shape[1]:
        # lobpcg's own switch to a dense eigensolver, which takes no
        # constraint Y: leave such small problems to the dense path
        raise _NotConverged("%d pressure dofs are too few for lobpcg" % n)
    out = []
    for largest in (False, True):
        w, V = spla.lobpcg(T, X.copy(), B=Mp, Y=ones, largest=largest,
                           tol=tol, maxiter=maxiter)
        j = int(np.argmin(w)) if not largest else int(np.argmax(w))
        lam, x = float(w[j]), V[:, j]
        r = matmat(x[:, None]).ravel() - lam * (Mp @ x)
        scale = np.linalg.norm(matmat(x[:, None])) + abs(lam) * np.linalg.norm(Mp @ x)
        if not np.isfinite(lam) or np.linalg.norm(r) > 1e-6 * scale:
            raise _NotConverged("lobpcg eigenpair residual too large")
        out.append(lam)
    return out[0], out[1]


def pressure_schur_extremes(K, D, Mp, method="auto"):
    """Spectrum bounds of the mass-preconditioned pressure Schur complement.

    K is the velocity stiffness on the unconstrained dofs (components
    stacked), D the matching divergence block and M_p the pressure mass. The
    constant-pressure direction is removed: dense work restricts to an
    explicit orthogonal complement of M_p 1, the iterative path keeps the
    LOBPCG block orthogonal to it. "auto" picks the dense path up to
    DENSE_LIMIT dofs. A non-converged iterative solve falls back to the
    dense path when the size permits, and so does a problem too small for
    LOBPCG's iterations; spectrum.method then reads "dense".
    """
    dofs = K.shape[0] + Mp.shape[0]
    if method == "auto":
        method = "dense" if dofs <= DENSE_LIMIT else "iterative"
    if method == "iterative":
        try:
            lmin, lmax = _iterative_extremes(K, D, Mp)
            return SchurSpectrum(lmin, lmax, dofs, "iterative")
        except _NotConverged:
            if dofs > DENSE_LIMIT:
                raise RuntimeError(
                    "iterative eigensolve did not converge and the problem "
                    "is too large for the dense fallback (%d dofs)" % dofs)
            method = "dense"
    if method != "dense":
        raise ValueError("unknown method %r" % (method,))
    lmin, lmax = _dense_extremes(K, D, Mp)
    return SchurSpectrum(lmin, lmax, dofs, "dense")


def pressure_schur_spectrum(glob, method="auto"):
    """SchurSpectrum of an assembled global system (Dirichlet eliminated)."""
    Kff, Df, _, _ = glob.free_blocks()
    return pressure_schur_extremes(Kff, Df, glob.Mp, method)


def pressure_schur_condition(glob, method="auto"):
    """kappa = sqrt(lambda_max / lambda_min), the quantity tabulated in the
    inf-sup condition studies."""
    return pressure_schur_spectrum(glob, method).kappa


def local_infsup(system, method="auto"):
    """Inf-sup constant beta_k of a single patch.

    The patch system must have Dirichlet conditions on the whole velocity
    boundary (ValueError otherwise); beta_k is the square root of the
    smallest nonzero generalized eigenvalue of (D_I K_II^-1 D_I^T, M_p),
    with K_II the vector Laplacian on the interior dofs and D_I = [D_0I |
    D_1I] the divergence acting on them, read off condensation_blocks().
    """
    ths = system.ths
    if any(ths.side_roles.get(side) != "dirichlet" for side in SIDES):
        raise ValueError("local inf-sup needs a fully Dirichlet velocity boundary")
    K_ii, W = system.condensation_blocks()
    ni, npre = ths.n_inner, ths.n_pressure
    D_i = np.hstack(W[ni:].reshape(2, npre, ni))
    spec = pressure_schur_extremes(sp.block_diag((K_ii, K_ii), format="csc"),
                                   sp.csr_matrix(D_i), system.Mp, method)
    return spec.beta


# ---------------------------------------------------------------------------
# skeleton Schur complements of a floating patch


def skeleton_matrices(system):
    """Dense (S_A, S_K) on the boundary velocity dofs of a floating patch.

    A floating patch has an interface on every side and no Dirichlet dof
    (ValueError otherwise). S_A eliminates interior velocity, pressure and
    the pressure-average multiplier from the full saddle point matrix; S_K
    eliminates the interior velocity from the vector Laplacian alone, both
    read off condensation_blocks().
    """
    ths = system.ths
    if len(ths.dirichlet) or any(ths.side_roles.get(side) != "interface" for side in SIDES):
        raise ValueError("skeleton matrices are defined for floating patches")
    ni, n, npre = ths.n_inner, ths.n_inner + ths.n_gamma, ths.n_pressure
    _, W = system.condensation_blocks()
    i, g = slice(0, ni), slice(ni, n)
    K, D = W[:n], W[n:].reshape(2, npre, n)
    Kgg, Kgi, Kii = (np.kron(np.eye(2), K[a, b]) for a, b in ((g, g), (g, i), (i, i)))
    Dg, Di = np.hstack(D[:, :, g]), np.hstack(D[:, :, i])
    ca = system.pressure_average_row()
    inner = np.block([
        [Kii, Di.T, np.zeros((2 * ni, 1))],
        [Di, np.zeros((npre, npre)), ca[:, None]],
        [np.zeros((1, 2 * ni)), ca[None, :], np.zeros((1, 1))],
    ])
    R = np.vstack([Kgi.T, Dg, np.zeros((1, Kgg.shape[0]))])
    S_A = Kgg - R.T @ np.linalg.solve(inner, R)
    S_K = Kgg - Kgi @ np.linalg.solve(Kii, Kgi.T)
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

    Each cell assembles the domain with all-Dirichlet velocity boundary and
    reports kappa, beta, delta_h and the dof count. Cells are independent and
    can run on a thread pool.
    """

    def __init__(self, domain, degrees, levels, smoothness=None, method="auto"):
        self.domain = domain
        self.degrees = list(degrees)
        self.levels = list(levels)
        self.smoothness = smoothness
        self.method = method

    def run_cell(self, degree, level):
        t0 = time.perf_counter()
        mp = load_domain(self.domain)
        spaces = taylor_hood_spaces(mp, degree, self.smoothness, level)
        glob = assemble_global(mp, spaces)
        spec = pressure_schur_spectrum(glob, self.method)
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
                raise RuntimeError("condition number below one: %r" % (row,))
        return rows
