"""Dual-primal tearing and interconnecting solver for multi-patch Stokes.

Each patch contributes an augmented saddle system with blocks ordered
[u_gamma | u_inner | p | mu_avg | mu_cont]: the Stokes blocks, a multiplier
pinning the patch-average pressure, and multipliers tying the primal values
(velocity corner values at shared vertices and net edge fluxes) to global
coarse unknowns. The remaining interface dofs are coupled through a signed
jump operator B and Lagrange multipliers lambda, leading to

    F lam = g,   F = B_Pi Acoarse^-1 B_Pi^T + sum_k B^k Abar_k^-1 B^k,T

solved by preconditioned conjugate gradients with the scaled Dirichlet
preconditioner. The Lanczos tridiagonal matrix assembled from the CG
coefficients provides the condition number estimate.
"""

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (
    SingularLocalSystemError,
    assemble_patch,
    edge_flux_rows,
    factorize,
    matched_side_dofs,
)

__all__ = (
    "SingularLocalSystemError",
    "PrimalConstraints",
    "AugmentedLocalSystem",
    "IetiOperator",
    "ScaledDirichletPreconditioner",
    "SolveReport",
    "setup_ieti",
    "solve_pcg",
    "solve_stokes_ieti",
    "verify_supmat",
)


# ---------------------------------------------------------------------------
# primal constraints and the jump operator


class PrimalConstraints:
    """Primal dof numbering and per-patch constraint rows.

    Global primal order: two velocity values per shared non-Dirichlet vertex,
    one net flux per interface, one average pressure per patch. Per patch the
    constraint rows are stacked [average | corners | fluxes]; flux rows pick
    up a right-hand-side shift from eliminated Dirichlet dofs on the edge.
    """

    def __init__(self, mp, spaces, systems):
        self.mp = mp
        self.vertices = mp.primal_vertices()
        self.interfaces = sorted(mp.interfaces, key=lambda f: (f.a, f.b, f.side_a))
        self.n_vertex = 2 * len(self.vertices)
        self.flux_offset = self.n_vertex
        self.avg_offset = self.n_vertex + len(self.interfaces)
        self.n_primal = self.avg_offset + mp.n_patches

        self.rows = []      # per patch: sparse (n_loc, n_x)
        self.shifts = []    # per patch: constraint rhs values
        self.globals_ = []  # per patch: global primal index per row
        self.signs = []     # per patch: +-1 weight tying row to its global dof

        vertex_corners = [[] for _ in range(mp.n_patches)]
        for vi, j in enumerate(self.vertices):
            for k, corner in mp.vertices[j].members:
                vertex_corners[k].append((vi, corner))
        patch_faces = [[] for _ in range(mp.n_patches)]  # (fi, side, sign), by fi
        for fi, iface in enumerate(self.interfaces):
            patch_faces[iface.a].append((fi, iface.side_a, 1.0))
            patch_faces[iface.b].append((fi, iface.side_b, -1.0))

        for k, ths in enumerate(spaces):
            sysk = systems[k]
            n_g, n_i = ths.n_gamma, ths.n_inner
            n_x = 2 * (n_g + n_i) + ths.n_pressure
            p_off = 2 * (n_g + n_i)
            ri, ci, vals = [], [], []
            shifts, globs, signs = [], [], []
            nrow = 0

            avg = sysk.pressure_average_row()
            ri.extend([nrow] * len(avg))
            ci.extend((p_off + np.arange(ths.n_pressure)).tolist())
            vals.extend(avg.tolist())
            shifts.append(0.0)
            globs.append(self.avg_offset + k)
            signs.append(1.0)
            nrow += 1

            for vi, corner in vertex_corners[k]:
                dof = ths.vel.corner_dof(*corner)
                for c in (0, 1):
                    ri.append(nrow)
                    ci.append(ths.gamma_pos(c, dof))
                    vals.append(1.0)
                    shifts.append(0.0)
                    globs.append(2 * vi + c)
                    signs.append(1.0)
                    nrow += 1

            flux = edge_flux_rows(mp.patches[k], ths.vel, [f[1] for f in patch_faces[k]])
            for fi, side, sign in patch_faces[k]:
                dofs, R = flux[side]
                is_dir = np.isin(dofs, ths.dirichlet)
                gd = sysk.dirichlet_values[:, np.searchsorted(ths.dirichlet, dofs[is_dir])]
                free = dofs[~is_dir]
                ri.extend([nrow] * (2 * len(free)))
                ci.extend(ths.gamma_pos(np.arange(2), free[:, None]).ravel().tolist())
                vals.extend(R[~is_dir].ravel().tolist())
                shifts.append(-float(np.sum(R[is_dir] * gd.T)))
                globs.append(self.flux_offset + fi)
                signs.append(sign)
                nrow += 1

            self.rows.append(sp.coo_matrix((vals, (ri, ci)), shape=(nrow, n_x)).tocsr())
            self.shifts.append(np.array(shifts))
            self.globals_.append(np.array(globs, dtype=int))
            self.signs.append(np.array(signs))

    def n_local(self, k):
        return self.rows[k].shape[0]


def build_jump_operator(constraints, spaces):
    """Signed jump matrix B over the u_gamma blocks of all patches, stacked.

    Columns offsets[k]:offsets[k+1] are the u_gamma block of patch k, in its
    own order. One multiplier row per matched non-corner interface dof pair
    and component: +1 on the lower patch, -1 on the higher. Rows are ordered
    by (patch pair, component, position along the edge). Returns (B, offsets).
    """
    mp = constraints.mp
    offsets = np.cumsum([0] + [2 * ths.n_gamma for ths in spaces])
    comp = np.arange(2)[:, None]
    cols = [np.zeros((2, 0), dtype=int)]  # per row: column on the lower, on the higher patch
    for iface in constraints.interfaces:
        da, db = matched_side_dofs(mp, spaces, iface)
        cols.append(np.stack([
            offsets[iface.a] + spaces[iface.a].gamma_pos(comp, da[1:-1]).ravel(),
            offsets[iface.b] + spaces[iface.b].gamma_pos(comp, db[1:-1]).ravel(),
        ]))
    cols = np.concatenate(cols, axis=1)
    n = cols.shape[1]
    B = sp.csr_matrix((np.repeat([1.0, -1.0], n), (np.tile(np.arange(n), 2), cols.ravel())),
                      shape=(n, offsets[-1]))
    return B, offsets


# ---------------------------------------------------------------------------
# local factorizations and the primal basis


class AugmentedLocalSystem:
    """Checked factorization of one augmented patch matrix.

    A failed check means the constraint set leaves the saddle system
    singular (e.g. a floating patch stripped of its corner and flux rows).
    """

    def __init__(self, system, C, shifts, label=""):
        self.A3 = system.saddle_matrix()
        self.n_x = n = self.A3.shape[0]
        self.n_mu = C.shape[0]
        self.C = C
        self.shifts = shifts
        a, c = self.A3.tocoo(), C.tocoo()
        aug = sp.csc_matrix(  # [[A3, C^T], [C, 0]]
            (np.concatenate([a.data, c.data, c.data]),
             (np.concatenate([a.row, c.row + n, c.col]),
              np.concatenate([a.col, c.col, c.row + n]))),
            shape=(n + self.n_mu, n + self.n_mu))
        self.lu = factorize(
            aug, "augmented patch system %s (%d constraint rows)" % (label, self.n_mu))

    def solve_x(self, rhs_x, rhs_mu=None):
        """Solve with the given equilibrium/constraint rhs, return the x part.

        A rhs_x shorter than n_x fills the leading entries (the u_gamma
        block); the rest of the equilibrium rhs is zero.
        """
        rhs = np.zeros(self.n_x + self.n_mu)
        rhs[: len(rhs_x)] = rhs_x
        if rhs_mu is not None:
            rhs[self.n_x :] = rhs_mu
        return self.lu.solve(rhs)[: self.n_x]


def build_primal_basis(aug, ths):
    """Columns of the local primal basis, one per local constraint.

    Solves the augmented system with unit constraint values. On a patch
    without a Neumann side the first (averaging) column must have zero
    velocity blocks and constant pressure, to 1e-6 relative: that holds up
    to the quadrature error of the divergence matrix on rational geometry.
    A known limit: on rectangle_with_hole at p=1, l=1 the default nquad (4)
    leaves the column off by 2.6e-6 and this raises; nquad=6 gives 5e-10,
    and the cell then solves and matches the monolithic solve.
    """
    n_x, n_mu = aug.n_x, aug.n_mu
    rhs = np.zeros((n_x + n_mu, n_mu))
    rhs[n_x:, :] = np.eye(n_mu)
    X = aug.lu.solve(rhs)
    psi_x = X[:n_x, :]
    psi_mu = X[n_x:, :]

    repro = aug.C @ psi_x - np.eye(n_mu)
    if np.abs(repro).max() > 1e-8:
        raise SingularLocalSystemError(
            "primal basis does not reproduce its constraints (err %.2e)"
            % np.abs(repro).max()
        )
    if "neumann" not in ths.side_roles.values():
        nu = 2 * (ths.n_gamma + ths.n_inner)
        scale = max(1.0, np.abs(psi_x[:, 0]).max())
        vel_err = np.abs(psi_x[:nu, 0]).max() if nu else 0.0
        prs_err = np.abs(psi_x[nu:, 0] - 1.0).max()
        if max(vel_err, prs_err) > 1e-6 * scale:
            raise SingularLocalSystemError(
                "averaging basis column lost its structure "
                "(velocity %.2e, pressure %.2e)" % (vel_err, prs_err)
            )
    return psi_x, psi_mu


# ---------------------------------------------------------------------------
# the dual-primal operator


class IetiOperator:
    """The dual-primal operator F, its right-hand side and the recovery.

    B is the jump matrix over all patches' u_gamma blocks (columns
    gamma_slices[k] for patch k); apply_F, rhs and recover each make one
    product with B^T and one with B around the per-patch solves.
    """

    def __init__(self, mp, spaces, systems, use_global_pressure_mean=True):
        self.mp = mp
        self.spaces = spaces
        self.systems = systems
        self.constraints = constraints = PrimalConstraints(mp, spaces, systems)
        self.use_global_pressure_mean = use_global_pressure_mean

        self.B, offsets = build_jump_operator(constraints, spaces)
        self.n_lambda = self.B.shape[0]
        self.gamma_slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.locals_ = []
        self.psi_x = []
        self.psi_mu = []
        n_pi = constraints.n_primal
        A_pi = np.zeros((n_pi, n_pi))
        psi_g = ([], [], [])  # signed u_gamma rows of the primal basis, on B's columns
        b_pi = np.zeros(n_pi)
        for k, ths in enumerate(spaces):
            aug = AugmentedLocalSystem(
                systems[k], constraints.rows[k], constraints.shifts[k],
                label="patch %d" % k,
            )
            px, pm = build_primal_basis(aug, ths)
            self.locals_.append(aug)
            self.psi_x.append(px)
            self.psi_mu.append(pm)

            G = constraints.globals_[k]
            s = constraints.signs[k]
            contrib = px.T @ (aug.A3 @ px)
            np.add.at(A_pi, (G[:, None], G[None, :]), (s[:, None] * s[None, :]) * contrib)
            bx = systems[k].rhs()
            gloc = px.T @ bx + pm.T @ constraints.shifts[k]
            np.add.at(b_pi, G, s * gloc)
            ng2 = 2 * ths.n_gamma
            psi_g[0].append(np.repeat(offsets[k] + np.arange(ng2), len(G)))
            psi_g[1].append(np.tile(G, ng2))  # G has no repeats within a patch
            psi_g[2].append((px[:ng2] * s).ravel())
        rows, cols, vals = (np.concatenate(a) for a in psi_g)
        self.A_pi = A_pi
        self.B_pi = (self.B @ sp.csr_matrix((vals, (rows, cols)),
                                            shape=(offsets[-1], n_pi))).toarray()
        self.b_pi = b_pi

        if use_global_pressure_mean:
            areas = np.array([s.area for s in systems])
            row = np.zeros(n_pi)
            row[constraints.avg_offset :] = areas / areas.sum()
            self.C_pi = row
            coarse = np.zeros((n_pi + 1, n_pi + 1))
            coarse[:n_pi, :n_pi] = A_pi
            coarse[:n_pi, n_pi] = row
            coarse[n_pi, :n_pi] = row
        else:
            self.C_pi = None
            coarse = A_pi
        self._coarse_lu = factorize(coarse, "coarse primal system")
        self.n_coarse = coarse.shape[0]
        self.n_primal = n_pi

    def coarse_solve(self, rhs_primal):
        rhs = np.zeros(self.n_coarse)
        rhs[: self.n_primal] = rhs_primal
        return self._coarse_lu.solve(rhs)[: self.n_primal]

    def apply_F(self, lam):
        t = self.B.T @ lam
        y = np.empty_like(t)
        for aug, sl in zip(self.locals_, self.gamma_slices):
            y[sl] = aug.solve_x(t[sl])[: sl.stop - sl.start]
        return self.B_pi @ self.coarse_solve(self.B_pi.T @ lam) + self.B @ y

    def rhs(self):
        y = np.empty(self.B.shape[1])
        for k, (aug, sl) in enumerate(zip(self.locals_, self.gamma_slices)):
            x = aug.solve_x(self.systems[k].rhs(), self.constraints.shifts[k])
            y[sl] = x[: sl.stop - sl.start]
        return self.B_pi @ self.coarse_solve(self.b_pi) + self.B @ y

    def recover(self, lam):
        """Per-patch velocity and pressure coefficients (Dirichlet re-added)."""
        x_pi = self.coarse_solve(self.b_pi - self.B_pi.T @ lam)
        t = self.B.T @ lam
        us, ps = [], []
        for k, (aug, sl) in enumerate(zip(self.locals_, self.gamma_slices)):
            ths = self.spaces[k]
            ng2, ni2 = 2 * ths.n_gamma, 2 * ths.n_inner
            r = self.systems[k].rhs()
            r[:ng2] -= t[sl]
            x = aug.solve_x(r, self.constraints.shifts[k])
            G, s = self.constraints.globals_[k], self.constraints.signs[k]
            x = x + self.psi_x[k] @ (s * x_pi[G])
            us.append(self.systems[k].expand(x[:ng2], x[ng2 : ng2 + ni2]))
            ps.append(x[ng2 + ni2 :])
        return us, ps, x_pi


class ScaledDirichletPreconditioner:
    """M_sD = sum_k B^k D^-1 S_K^k D^-1 B^k,T with D = 2 I.

    S_K is the velocity Schur complement on the interface block. Both
    components share the scalar stiffness, so one interior Poisson solve
    with two right-hand-side columns applies it; pressure never enters.
    B is the stacked jump matrix of IetiOperator. blocks holds per patch
    (K_gg, K_gi, LU of K_ii) of one component; apply uses K_gg and K_gi
    stacked block-diagonally over all patches, acting on the interface
    values arranged one scalar dof per row, one component per column.
    """

    def __init__(self, spaces, systems, B):
        self.B = B
        self.blocks = []
        self._interior = []  # (LU of K_ii, its rows in the stacked interior block)
        cols = [np.zeros((0, 2), dtype=int)]
        off = inner = 0
        for k, (ths, sysk) in enumerate(zip(spaces, systems)):
            Kgg, Kgi, Kii = sysk.scalar_blocks
            lu_ii = (factorize(Kii, "interior stiffness of patch %d" % k)
                     if Kii.shape[0] else None)
            self.blocks.append((Kgg, Kgi, lu_ii))
            ng, ni = ths.n_gamma, ths.n_inner
            cols.append(off + np.arange(2 * ng).reshape(2, ng).T)
            if lu_ii is not None:
                self._interior.append((lu_ii, slice(inner, inner + ni)))
            off += 2 * ng
            inner += ni
        self._cols = np.concatenate(cols)  # column of B per (scalar dof, component)
        self._Kgg = sp.block_diag([b[0] for b in self.blocks], format="csr")
        self._Kgi = sp.block_diag([b[1] for b in self.blocks], format="csr")

    def apply(self, lam):
        V = 0.5 * (self.B.T @ lam)[self._cols]
        W = self._Kgg @ V
        Z = self._Kgi.T @ V
        for lu_ii, sl in self._interior:
            Z[sl] = lu_ii.solve(Z[sl])
        W -= self._Kgi @ Z
        y = np.empty(self.B.shape[1])
        y[self._cols] = 0.5 * W
        return self.B @ y


# ---------------------------------------------------------------------------
# conjugate gradients with Lanczos condition estimate


class SolveReport:
    """Outcome of a PCG solve.

    breakdown is None, or why the iteration stopped early: "nonpositive
    curvature" (p.Fp <= 0, F or the preconditioner is not positive definite)
    or "non-finite residual". A breakdown always means converged is False.
    """

    def __init__(self, iterations, residuals, converged, eig_min, eig_max, kappa,
                 timings=None, breakdown=None):
        self.iterations = iterations
        self.residuals = residuals
        self.converged = converged
        self.eig_min = eig_min
        self.eig_max = eig_max
        self.kappa = kappa
        self.timings = timings or {}
        self.breakdown = breakdown

    def __repr__(self):
        extra = "" if self.breakdown is None else ", breakdown=%r" % self.breakdown
        return "SolveReport(it=%d, converged=%s, kappa=%.3g%s)" % (
            self.iterations, self.converged, self.kappa, extra)


def _lanczos_estimate(alphas, betas):
    m = len(alphas)
    if m == 0:
        return 1.0, 1.0, 1.0
    diag = np.empty(m)
    off = np.empty(max(m - 1, 0))
    for j in range(m):
        diag[j] = 1.0 / alphas[j]
        if j > 0:
            diag[j] += betas[j - 1] / alphas[j - 1]
        if j < m - 1:
            off[j] = np.sqrt(betas[j]) / alphas[j]
    if m == 1:
        return diag[0], diag[0], 1.0
    ev = sla.eigh_tridiagonal(diag, off, eigvals_only=True)
    emin, emax = float(ev[0]), float(ev[-1])
    return emin, emax, emax / emin


def solve_pcg(apply_op, apply_prec, g, tol=1e-6, max_iter=500, seed=42):
    """Preconditioned CG for F lam = g with a random seeded initial guess.

    Stops when the Euclidean residual norm drops below tol times the initial
    one. On a breakdown (p.Fp <= 0 or a non-finite residual) it stops before
    the bad step, with converged False and the reason in report.breakdown.
    The condition number estimate comes from the eigenvalues of the Lanczos
    tridiagonal matrix built from the CG coefficients.
    """
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return np.zeros(len(g)), SolveReport(0, [0.0], True, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=len(g))
    r = g - apply_op(lam)
    r0 = np.linalg.norm(r)
    residuals = [r0]
    if not np.isfinite(r0):
        return lam, SolveReport(0, residuals, False, 1.0, 1.0, 1.0,
                                breakdown="non-finite residual")
    if r0 == 0.0:
        return lam, SolveReport(0, residuals, True, 1.0, 1.0, 1.0)
    z = apply_prec(r)
    p = z.copy()
    rz = r @ z
    alphas, betas = [], []
    converged = False
    breakdown = None
    for _ in range(max_iter):
        q = apply_op(p)
        pq = p @ q
        if not pq > 0.0:
            breakdown = "nonpositive curvature"
            break
        alpha = rz / pq
        r_next = r - alpha * q
        res = np.linalg.norm(r_next)
        if not np.isfinite(res):
            breakdown = "non-finite residual"
            break
        alphas.append(alpha)
        lam += alpha * p
        r = r_next
        residuals.append(res)
        if res <= tol * r0:
            converged = True
            break
        z = apply_prec(r)
        rz_new = r @ z
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new
    emin, emax, kappa = _lanczos_estimate(alphas, betas[: len(alphas) - 1])
    return lam, SolveReport(len(alphas), residuals, converged, emin, emax, kappa,
                            breakdown=breakdown)


# ---------------------------------------------------------------------------
# drivers


def setup_ieti(mp, spaces, rhs=None, dirichlet=None, use_global_pressure_mean=True,
               nquad=None, systems=None):
    if systems is None:
        systems = [
            assemble_patch(mp.patches[k], spaces[k], rhs, dirichlet, nquad)
            for k in range(mp.n_patches)
        ]
    op = IetiOperator(mp, spaces, systems,
                      use_global_pressure_mean=use_global_pressure_mean)
    pc = ScaledDirichletPreconditioner(spaces, systems, op.B)
    return op, pc


def solve_stokes_ieti(mp, spaces, rhs=None, dirichlet=None,
                      use_global_pressure_mean=True, tol=1e-6, max_iter=500,
                      seed=42, nquad=None, systems=None):
    """Assemble, solve the multiplier system, recover patch solutions.

    report.timings holds the wall seconds of the phases "setup" (assembly
    when systems is None, local factorizations, primal basis, coarse
    problem, preconditioner), "rhs", "pcg" and "recover".
    """
    t0 = time.perf_counter()
    op, pc = setup_ieti(mp, spaces, rhs, dirichlet, use_global_pressure_mean,
                        nquad, systems)
    t1 = time.perf_counter()
    g = op.rhs()
    t2 = time.perf_counter()
    lam, report = solve_pcg(op.apply_F, pc.apply, g, tol=tol, max_iter=max_iter,
                            seed=seed)
    t3 = time.perf_counter()
    us, ps, _ = op.recover(lam)
    report.timings = {"setup": t1 - t0, "rhs": t2 - t1, "pcg": t3 - t2,
                      "recover": time.perf_counter() - t3}
    return us, ps, report


# ---------------------------------------------------------------------------
# sup-representation identities (brute-force verification)


def _brute_sup_matrix(A, B, Z):
    """B Z (Z^T A Z)^-1 Z^T B^T: the Gram matrix of the supremum over span(Z)."""
    if Z.shape[1] == 0:
        return np.zeros((B.shape[0], B.shape[0]))
    AZ = Z.T @ A @ Z
    return B @ Z @ np.linalg.solve(AZ, Z.T @ B.T)


def verify_supmat(seed=0, instances=50, nmax=8, tol=1e-8):
    """Check the three sup representations on random block systems.

    M0 = B A^-1 B^T equals the supremum Gram matrix over the whole space;
    M1 (one constraint block C) the supremum over ker C; M2 (saddle-coupled
    constraint blocks C, D) the supremum over the set of w with C w
    orthogonal to ker D. Returns a dict with the largest relative error.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < instances:
        n = int(rng.integers(2, nmax + 1))
        m1 = int(rng.integers(1, n + 1))
        m2 = int(rng.integers(1, n))
        m3 = int(rng.integers(0, m2 + 1))
        G = rng.standard_normal((n, n))
        A = G @ G.T + n * np.eye(n)
        B = rng.standard_normal((m1, n))
        C = rng.standard_normal((m2, n))
        D = rng.standard_normal((m3, m2))

        M0 = B @ np.linalg.solve(A, B.T)
        err = _rel(M0, _brute_sup_matrix(A, B, np.eye(n)))

        S1 = np.block([[A, C.T], [C, np.zeros((m2, m2))]])
        if np.linalg.cond(S1) > 1e12:
            continue
        M1 = B @ np.linalg.solve(S1, np.vstack([B.T, np.zeros((m2, m1))]))[:n]
        err = max(err, _rel(M1, _brute_sup_matrix(A, B, sla.null_space(C))))

        S2 = np.block([
            [A, C.T, np.zeros((n, m3))],
            [C, np.zeros((m2, m2)), D.T],
            [np.zeros((m3, n)), D, np.zeros((m3, m3))],
        ])
        if np.linalg.cond(S2) > 1e12:
            continue
        M2 = B @ np.linalg.solve(S2, np.vstack([B.T, np.zeros((m2 + m3, m1))]))[:n]
        N = sla.null_space(D) if m3 else np.eye(m2)
        Z2 = sla.null_space(N.T @ C) if N.shape[1] else np.eye(n)
        err = max(err, _rel(M2, _brute_sup_matrix(A, B, Z2)))

        # a square invertible D makes the kernel implication vacuous, so the
        # constrained representation collapses back to the unconstrained one
        if m3 == m2 and np.linalg.cond(D) < 1e10:
            err = max(err, _rel(M2, M0))

        worst = max(worst, err)
        done += 1
    return {"instances": done, "max_rel_err": worst, "ok": bool(worst <= tol)}


def _rel(X, Y):
    scale = max(np.abs(X).max(), np.abs(Y).max(), 1e-30)
    return float(np.abs(X - Y).max() / scale)
