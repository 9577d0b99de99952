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

Abar_k^-1 maps interface values to interface values, so each patch is
condensed onto its interface once, at setup (Farhat et al. below; Li &
Widlund, SISC 2006, for BDDC on incompressible Stokes): the interior
velocity is eliminated through the half solves of one band Cholesky of the
scalar interior stiffness K_ii, which both components share
(PatchStokesSystem.condense_interior), and the dense reduced system on
[u_gamma | p | mu] is factored. Its inverse's u_gamma block F_k and the
preconditioner's scalar Schur complement S_K = K_gg - K_gi K_ii^-1 K_ig
are read off as dense blocks. A PCG iteration then applies the local part
of F and the preconditioner as products with the block diagonals of the
F_k and of the S_K, and solves only the coarse system.

The local primal basis psi of a patch solves the augmented system with unit
constraint values, [[A3, C^T], [C, 0]] [psi; psi_mu] = [0; I]. Since
A3 psi + C^T psi_mu = 0 and C psi = I, its coarse contribution is
psi^T A3 psi = -psi_mu (Farhat, Lesoinne, Le Tallec, Pierson & Rixen, IJNME
2001), so Acoarse is read off the multipliers of the basis solve, and no
patch saddle matrix is ever assembled on this path.

Setup runs in this order. The constraint rows and the jump matrix come
first; their index work (where each constraint value goes, interface
positions) runs once per role class of patches, and only the values per
patch. The constraint rows C of a patch are one dense block on
[u_gamma | p], the only columns they act on and the layout R reads. Then,
per patch: the interior condensation; one solve with the reduced system R
on the unit columns of u_gamma and of mu, whose blocks are F_k and the
reduced rows [u_gamma | p | mu] of psi (its interior rows are never
needed: C has no interior columns, and the check of the averaging column
sweeps back that column alone); and one solve with the local right-hand
side, z_k = A_k^-1 [b_k; shifts_k]. The augmented matrix is symmetric, so
psi^T [b_k; shifts_k], the patch's share of the coarse right-hand side, is
the multiplier part of z_k. The right-hand side of the multiplier system
then reads the u_gamma part of z_k, and the recovery adds one solve per
patch whose interior right-hand side is zero, with the primal correction
entering as constraint values. AugmentedLocalSystem.C, the constraint
rows on all unknowns as a sparse matrix, is built only when asked for;
besides the tests, only perfbench/run.py:ieti_counts reads it.
"""

import time
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import assemble_patch, element_forms, family_flux_rows
from .linalg import SingularLocalSystemError, factorize

__all__ = (
    "SingularLocalSystemError",
    "PrimalConstraints",
    "CondensedLU",
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


def _role_class(ths):
    """The objects a patch's dof positions depend on: taylor_hood_spaces
    gives the patches of one role class the same ones (a space built on its
    own is a class of one)."""
    return id(ths.vel), id(ths.pre), id(ths.pos)


class PrimalConstraints:
    """Primal dof numbering and per-patch constraint rows.

    Global primal order: two velocity values per shared non-Dirichlet vertex,
    one net flux per interface, one average pressure per patch. Per patch the
    constraint rows are stacked [average | corners | fluxes]; flux rows pick
    up a right-hand-side shift from eliminated Dirichlet dofs on the edge.
    rows[k] is the dense (n_mu, 2 n_gamma + n_pressure) block of patch k on
    [u_gamma | p], as AugmentedLocalSystem takes it: no row acts on an
    interior velocity dof. The flux rows come from family_flux_rows, once
    per family and side. Where each value goes (a row and a column per
    value) is worked out once per role class with equal corners and faces
    in the same order; per patch only the values are formed, the
    pressure-average row, the flux values and the Dirichlet shifts, and
    stored into the block with one fancy-index assignment.
    """

    def __init__(self, mp, spaces, systems):
        self.mp = mp
        self.vertices = mp.primal_vertices()
        self.interfaces = sorted(mp.interfaces, key=lambda f: (f.a, f.b, f.side_a))
        self.n_vertex = 2 * len(self.vertices)
        self.flux_offset = self.n_vertex
        self.avg_offset = self.n_vertex + len(self.interfaces)
        self.n_primal = self.avg_offset + mp.n_patches

        self.rows = []      # per patch: dense (n_mu, 2 n_gamma + n_pressure)
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

        fluxes = family_flux_rows(mp.patches, spaces, [[f[1] for f in faces]
                                                       for faces in patch_faces])
        patterns = {}
        for k, ths in enumerate(spaces):
            sysk = systems[k]
            faces, corners = patch_faces[k], vertex_corners[k]
            sides = tuple(f[1] for f in faces)
            key = (_role_class(ths), tuple(c for _, c in corners), sides)
            if key not in patterns:
                patterns[key] = _constraint_pattern(ths, [c for _, c in corners], sides)
            pat = patterns[key]

            R = np.concatenate([fluxes[k][side][1] for side in sides] + [np.zeros((0, 2))])
            C = np.zeros(pat.shape)
            C[pat.rows, pat.cols] = np.concatenate([sysk.pressure_average_row(),
                                                    np.ones(pat.n_corner_vals),
                                                    R[pat.free].ravel()])
            self.rows.append(C)

            # flux shifts from the eliminated Dirichlet dofs on each face: at
            # most its two end dofs, so bincount's running sums are np.sum's
            # (an empty bincount is integer, hence the cast)
            gd = sysk.dirichlet_values[:, pat.dir_index]
            lift = np.bincount(pat.lift_bins, weights=(R[pat.is_dir] * gd.T).ravel(),
                               minlength=len(faces))
            vi = np.array([v for v, _ in corners], dtype=int)
            self.shifts.append(np.concatenate([np.zeros(1 + 2 * len(vi)), -lift.astype(float)]))
            self.globals_.append(np.concatenate([[self.avg_offset + k],
                                                 (2 * vi[:, None] + np.arange(2)).ravel(),
                                                 self.flux_offset + np.array(
                                                     [f[0] for f in faces], dtype=int)]))
            self.signs.append(np.concatenate([np.ones(1 + 2 * len(vi)), [f[2] for f in faces]]))


def _constraint_pattern(ths, corners, sides):
    """Where PrimalConstraints stores the values of one role class with the
    given primal corners and faces.

    The rows are [average | (corner, component) | face] and the columns
    [u_gamma | p]; the velocity entries, one per (scalar dof, component),
    come from one gamma_pos call. The values of a patch, [average row | ones
    | flux values on the free face dofs], go to (rows, cols), one entry
    each.
    """
    ng2 = 2 * ths.n_gamma
    dofs = [ths.vel.side_dofs(side) for side in sides]
    face = np.repeat(np.arange(len(sides)), [len(d) for d in dofs])
    dofs = np.concatenate(dofs + [np.zeros(0, dtype=int)])
    is_dir = ths.pos[0, dofs] < 0
    free = ~is_dir
    nc = len(corners)
    cdofs = np.array([ths.vel.corner_dof(*c) for c in corners], dtype=int)
    scalar = np.repeat(np.concatenate([cdofs, dofs[free]]), 2)
    return SimpleNamespace(
        shape=(1 + 2 * nc + len(sides), ng2 + ths.n_pressure),
        rows=np.concatenate([np.zeros(ths.n_pressure, dtype=int), 1 + np.arange(2 * nc),
                             np.repeat(1 + 2 * nc + face[free], 2)]),
        cols=np.concatenate([ng2 + np.arange(ths.n_pressure),
                             ths.gamma_pos(np.arange(len(scalar)) % 2, scalar)]),
        n_corner_vals=2 * nc, free=free, is_dir=is_dir,
        dir_index=np.searchsorted(ths.dirichlet, dofs[is_dir]),
        lift_bins=np.repeat(face[is_dir], 2))


def build_jump_operator(constraints, spaces):
    """Signed jump matrix B over the u_gamma blocks of all patches, stacked.

    Columns offsets[k]:offsets[k+1] are the u_gamma block of patch k, in its
    own order. One multiplier row per matched non-corner interface dof pair
    and component: +1 on the lower patch, -1 on the higher. Rows are ordered
    by (patch pair, component, position along the edge). The positions of a
    side's non-corner dofs are looked up once per role class and side.
    Returns (B, offsets).
    """
    offsets = np.cumsum([0] + [2 * ths.n_gamma for ths in spaces])
    comp = np.arange(2)[:, None]
    side_pos = {}

    def positions(ths, side):  # (2, n): u_gamma positions along the side
        key = (_role_class(ths), side)
        if key not in side_pos:
            side_pos[key] = ths.gamma_pos(comp, ths.vel.side_dofs(side)[1:-1])
        return side_pos[key]

    cols = [np.zeros((2, 0), dtype=int)]  # per row: column on the lower, on the higher patch
    for iface in constraints.interfaces:
        pa = positions(spaces[iface.a], iface.side_a)
        pb = positions(spaces[iface.b], iface.side_b)
        if iface.reversed_:
            pb = pb[:, ::-1]
        if pa.shape != pb.shape:
            raise ValueError("interface dof counts differ")
        cols.append(np.stack([offsets[iface.a] + pa.ravel(), offsets[iface.b] + pb.ravel()]))
    cols = np.concatenate(cols, axis=1)
    n = cols.shape[1]
    B = sp.csr_matrix((np.repeat([1.0, -1.0], n), (np.tile(np.arange(n), 2), cols.ravel())),
                      shape=(n, offsets[-1]))
    return B, offsets


# ---------------------------------------------------------------------------
# local factorizations and the primal basis


class CondensedLU:
    """Solver of an augmented patch system through its interior condensation.

    The unknowns are ordered [u_gamma | u_inner | p | mu], each velocity
    block component major; the reduced ones [u_gamma | p | mu]. interior is
    the BandCholesky of the scalar interior stiffness K_ii, shared by both
    velocity components; reduced the factor of the dense reduced system R;
    Y is condense_interior's L^-1 P [K_ig | D_0i^T | D_1i^T]. solve takes a
    full right-hand side (1-D or a column per solve): w = forward(b_i), Y
    products, one R solve and x_i = backward(w - Y V) (interior_velocity).
    An interior right-hand side that is exactly zero skips the forward
    sweep, as w is then zero. L and U are the block diagonals of the two
    factors' triangles, the fill it holds; besides the tests, only
    perfbench/run.py:ieti_counts reads them.
    """

    def __init__(self, interior, reduced, Y, n_gamma, n_pressure):
        self.interior, self.reduced, self._Y = interior, reduced, Y
        self._ng, self._ni, self._np = n_gamma, Y.shape[0], n_pressure
        n = reduced.shape[0] + 2 * self._ni
        self.shape = (n, n)

    def solve(self, b):
        ng, ni, npre, Y = self._ng, self._ni, self._np, self._Y
        nu = 2 * (ng + ni)
        B = b.reshape(len(b), -1)
        k = B.shape[1]
        r = np.concatenate([B[: 2 * ng], B[nu:]])
        w = None
        if B[2 * ng : nu].any():
            # interior rhs, one column per (component, solve)
            b_i = B[2 * ng : nu].reshape(2, ni, k).transpose(1, 0, 2).reshape(ni, 2 * k)
            w = self.interior.forward(b_i)
            P = Y.T @ w
            r[:ng] -= P[:ng, :k]
            r[ng : 2 * ng] -= P[:ng, k:]
            r[2 * ng : 2 * ng + npre] -= P[ng : ng + npre, :k] + P[ng + npre :, k:]
        y = self.reduced.solve(r)
        out = np.concatenate([y[: 2 * ng], self.interior_velocity(y, w), y[2 * ng :]])
        return out.reshape(b.shape)

    def interior_velocity(self, y, w=None):
        """The interior velocity rows (2 n_inner, component major) of the
        solution whose reduced part [u_gamma | p | ...] is y (a column per
        solve): backward(w - Y V), with w the forward sweep of the interior
        right-hand side, or None when that is zero."""
        ng, ni, npre, Y = self._ng, self._ni, self._np, self._Y
        k = y.shape[1]
        if not ni:
            return np.zeros((0, k))
        V = np.zeros((Y.shape[1], 2 * k))
        V[:ng, :k] = y[:ng]
        V[:ng, k:] = y[ng : 2 * ng]
        V[ng : ng + npre, :k] = V[ng + npre :, k:] = y[2 * ng : 2 * ng + npre]
        v = Y @ V
        x_i = self.interior.backward(np.negative(v, out=v) if w is None else w - v)
        return x_i.reshape(ni, 2, k).transpose(1, 0, 2).reshape(2 * ni, k)

    @property
    def L(self):
        return sp.block_diag([f.L for f in (self.interior, self.reduced) if f is not None],
                             format="csc")

    @property
    def U(self):
        return sp.block_diag([f.U for f in (self.interior, self.reduced) if f is not None],
                             format="csc")


class AugmentedLocalSystem:
    """Condensed factorization of one augmented patch matrix.

    [[A3, C^T], [C, 0]] is never formed. The interior velocity is eliminated
    at setup: K_ii, the scalar interior stiffness, is factored once for both
    components, and the dense reduced system R on [u_gamma | p | mu],

        R = [[K_gg, D_g^T, C_g^T], [D_g, 0, C_p^T], [C_g, C_p, 0]]
            - [K_gi; D_i; 0] K_ii^-1 [K_ig, D_i^T, 0],

    is factored next through factorize. K_ii is factored, and S, the
    condensed divergence D_g and D_i K_ii^-1 D_i^T are formed, by
    PatchStokesSystem.condense_interior; its factor and Y go on to
    CondensedLU. C is the dense block [C_g, C_p] of the constraint rows on
    [u_gamma | p] (PrimalConstraints.rows), kept as it is in C_reduced; a
    block of another width raises ValueError. label names the patch in
    errors. One solve with R on the unit columns of u_gamma and of mu
    yields, at setup:

    - F: the u_gamma x u_gamma block of the augmented inverse (that of
      R^-1), the patch's share of the dual-primal operator;
    - basis: the reduced rows [u_gamma | p | mu] of the local primal basis
      A^-1 [0; I], one column per constraint; its interior velocity is
      CondensedLU.interior_velocity of these rows, as C has no interior
      columns.

    S is the scalar Schur complement K_gg - K_gi K_ii^-1 K_ig, which the
    preconditioner applies to each component.

    lu solves the whole augmented system (see CondensedLU); A3 and C, the
    constraint rows on all n_x unknowns, are built only when asked for. A
    failed check on R means the constraint set leaves the saddle system
    singular (e.g. a floating patch stripped of its corner and flux rows).
    """

    def __init__(self, system, C, label="patch"):
        self.system = system
        ths = system.ths
        ng, npre = ths.n_gamma, ths.n_pressure
        ng2 = 2 * ng
        if C.shape[1] != ng2 + npre:
            raise ValueError("constraint rows of %s have %d columns, not the %d of "
                             "[u_gamma | p]" % (label, C.shape[1], ng2 + npre))
        self.n_x = ths.n_local
        self.n_mu = len(C)
        self.C_reduced = C

        cond = system.condense_interior("interior stiffness of %s" % label)
        self.S = cond.S
        p = slice(ng2, ng2 + npre)
        R = np.zeros((ng2 + npre + self.n_mu,) * 2)
        R[:ng, :ng] = R[ng:ng2, ng:ng2] = self.S
        R[p, :ng] = cond.Dg[0]
        R[p, ng:ng2] = cond.Dg[1]
        R[p, p] = -cond.T
        R[p.stop :, : p.stop] = C
        R[: p.stop, p.stop :] = R[p.stop :, : p.stop].T
        R[:ng2, p] = R[p, :ng2].T
        lu_r = factorize(R, "condensed system of %s (%d constraint rows)" % (label, self.n_mu))
        E = np.zeros((len(R), ng2 + self.n_mu))  # unit columns [E_gamma | E_mu]
        E[np.arange(ng2), np.arange(ng2)] = 1.0
        E[p.stop + np.arange(self.n_mu), ng2 + np.arange(self.n_mu)] = 1.0
        Z = lu_r.solve(E)  # copied out below, so that Z is freed
        self.F = Z[:ng2, :ng2].copy()
        self.basis = Z[:, ng2:].copy()
        self.lu = CondensedLU(cond.lu, lu_r, cond.Y, ng, npre)

    @property
    def A3(self):
        """The patch saddle matrix, built on each access; besides the tests,
        only perfbench/run.py:ieti_counts reads it."""
        return self.system.saddle_matrix()

    @property
    def C(self):
        """The constraint rows on all n_x unknowns [u_gamma | u_inner | p],
        sparse, built from C_reduced on each access; besides the tests, only
        perfbench/run.py:ieti_counts reads it."""
        ng2 = 2 * self.system.ths.n_gamma
        full = np.zeros((self.n_mu, self.n_x))
        full[:, :ng2] = self.C_reduced[:, :ng2]
        full[:, self.n_x - self.system.ths.n_pressure :] = self.C_reduced[:, ng2:]
        return sp.csr_matrix(full)

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
    """The u_gamma and multiplier rows (psi_gamma, psi_mu) of the local
    primal basis, one column per local constraint: aug.basis, the solve of
    the augmented system with unit constraint values, checked.

    C psi = I must hold to 1e-8, read on the u_gamma and pressure rows
    (aug.C_reduced has no interior columns). On a patch without a Neumann
    side the first (averaging) column must have zero velocity blocks, the
    interior one from a backward half solve of that column alone, and constant
    pressure, to 1e-6 relative: that holds up to the quadrature error of
    the divergence matrix on rational geometry. A known limit: on
    rectangle_with_hole at p=1, l=1 the default nquad (4) leaves the column
    off by 2.6e-6 and this raises; nquad=6 gives 5e-10, and the cell then
    solves and matches the monolithic solve.
    """
    n_mu, ng2, npre = aug.n_mu, 2 * ths.n_gamma, ths.n_pressure
    X = aug.basis
    repro = aug.C_reduced @ X[: ng2 + npre] - np.eye(n_mu)
    if np.abs(repro).max() > 1e-8:
        raise SingularLocalSystemError(
            "primal basis does not reproduce its constraints (err %.2e)"
            % np.abs(repro).max()
        )
    if "neumann" not in ths.side_roles.values():
        col = X[: ng2 + npre, :1]
        u_i = aug.lu.interior_velocity(col)
        scale = max(1.0, np.abs(col).max(), np.abs(u_i).max(initial=0.0))
        vel_err = max(np.abs(col[:ng2]).max(initial=0.0), np.abs(u_i).max(initial=0.0))
        prs_err = np.abs(col[ng2:] - 1.0).max()
        if max(vel_err, prs_err) > 1e-6 * scale:
            raise SingularLocalSystemError(
                "averaging basis column lost its structure "
                "(velocity %.2e, pressure %.2e)" % (vel_err, prs_err)
            )
    return X[:ng2], X[ng2 + npre :]


# ---------------------------------------------------------------------------
# the dual-primal operator


def _block_diagonal(blocks):
    """CSR matrix with the dense square blocks on its diagonal, every entry
    of every block stored, and the blocks as views of its data.

    Returns (matrix, views): views[k] is blocks[k]'s place in matrix.data,
    reshaped to a square, so a caller that keeps the views in place of the
    blocks holds each entry once. Built in one pass: scipy's block_diag
    converts each block on its own (4.7 against 1.0 ms for the 64 F_k of
    quarter_annulus(1,2,8,8), p=2, l=2)."""
    sizes = [len(b) for b in blocks]
    starts = np.cumsum([0] + sizes)
    indices = np.concatenate([np.tile(np.arange(a, b, dtype=np.int32), b - a)
                              for a, b in zip(starts[:-1], starts[1:])])
    indptr = np.concatenate([[0], np.cumsum(np.repeat(sizes, sizes))])
    A = sp.csr_matrix((np.concatenate([b.ravel() for b in blocks]), indices, indptr),
                      shape=(starts[-1],) * 2)
    ends = np.cumsum([n * n for n in sizes])
    return A, [A.data[e - n * n : e].reshape(n, n) for n, e in zip(sizes, ends)]


class IetiOperator:
    """The dual-primal operator F, its right-hand side and the recovery.

    B is the jump matrix over all patches' u_gamma blocks (columns
    gamma_slices[k] for patch k). F is the CSR block diagonal of the
    patches' condensed blocks F_k, on the same columns, and the only copy
    of them: each local system's F is a view of F.data. apply_F is the
    coarse term plus B F B^T lam, with no local solve.

    At setup each patch's augmented system is solved once with its local
    right-hand side, z_k = A_k^-1 [b_k; shifts_k]; x_local[k] is its x part.
    As A_k is symmetric, the coarse right-hand side psi_k^T [b_k; shifts_k]
    is the multiplier part of z_k. rhs reads the u_gamma rows of x_local and
    makes no local solve. recover adds to x_local[k] one solve with -B_k^T
    lam on u_gamma, zero on the interior and pressure rows and the primal
    values s x_pi[G] on the constraint rows, so the primal correction
    enters as constraint values and the interior forward sweep is skipped.

    The coarse layer stays sparse. A_pi sums, over the patches, the signed
    symmetric part of -psi_mu (which equals psi^T A3 psi, see the module
    docstring) at the patch's global primal indices; B_pi = B Psi_gamma is
    the sparse product of B with the signed u_gamma rows of the primal
    bases. The coarse system, A_pi bordered by the area-weighted mean of
    the patch pressure averages iff mp.pressure_up_to_constant, goes to
    factorize as COO triplets.

    setup_phases holds the wall seconds of "constraints" (primal rows and
    the jump matrix), "local" (condensation, primal bases, F and the local
    right-hand-side solves) and "coarse" (the coarse matrices and their
    factorization).
    """

    def __init__(self, mp, spaces, systems):
        t0 = time.perf_counter()
        self.mp = mp
        self.spaces = spaces
        self.systems = systems
        self.constraints = constraints = PrimalConstraints(mp, spaces, systems)

        self.B, offsets = build_jump_operator(constraints, spaces)
        t1 = time.perf_counter()
        self.n_lambda = self.B.shape[0]
        self.gamma_slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self.locals_ = []
        self.x_local = []
        n_pi = constraints.n_primal
        a_pi = ([], [], [])  # triplets of A_pi
        psi_g = ([], [], [])  # signed u_gamma rows of the primal basis, on B's columns
        b_pi = np.zeros(n_pi)
        for k, ths in enumerate(spaces):
            aug = AugmentedLocalSystem(systems[k], constraints.rows[k], label="patch %d" % k)
            pg, pm = build_primal_basis(aug, ths)
            self.locals_.append(aug)

            G = constraints.globals_[k]
            s = constraints.signs[k]
            # psi^T A3 psi = -psi_mu, from A3 psi + C^T psi_mu = 0 and C psi = I
            contrib = -0.5 * (pm + pm.T)
            a_pi[0].append(np.repeat(G, len(G)))
            a_pi[1].append(np.tile(G, len(G)))
            a_pi[2].append(((s[:, None] * s[None, :]) * contrib).ravel())
            z = aug.lu.solve(np.concatenate([systems[k].rhs(), constraints.shifts[k]]))
            self.x_local.append(z[: aug.n_x])
            np.add.at(b_pi, G, s * z[aug.n_x :])  # psi^T [b; shifts], A symmetric
            ng2 = 2 * ths.n_gamma
            psi_g[0].append(np.repeat(offsets[k] + np.arange(ng2), len(G)))
            psi_g[1].append(np.tile(G, ng2))  # G has no repeats within a patch
            psi_g[2].append((pg * s).ravel())
        self.F, views = _block_diagonal([aug.F for aug in self.locals_])
        for aug, F in zip(self.locals_, views):
            aug.F = F
        t2 = time.perf_counter()
        rows, cols, vals = (np.concatenate(a) for a in psi_g)
        self.B_pi = self.B @ sp.csr_matrix((vals, (rows, cols)), shape=(offsets[-1], n_pi))
        self.b_pi = b_pi
        rows, cols, vals = (np.concatenate(a) for a in a_pi)
        self.A_pi = sp.csr_matrix((vals, (rows, cols)), shape=(n_pi, n_pi))

        coarse = self.A_pi
        if mp.pressure_up_to_constant:
            areas = np.array([s.area for s in systems])
            row = areas / areas.sum()
            avg = constraints.avg_offset + np.arange(len(areas))
            border = np.full(len(areas), n_pi)
            coarse = sp.coo_matrix(  # [[A_pi, row^T], [row, 0]]
                (np.concatenate([vals, row, row]),
                 (np.concatenate([rows, avg, border]), np.concatenate([cols, border, avg]))),
                shape=(n_pi + 1, n_pi + 1))
        self._coarse_lu = factorize(coarse, "coarse primal system")
        self.n_coarse = coarse.shape[0]
        self.n_primal = n_pi
        self.setup_phases = {"constraints": t1 - t0, "local": t2 - t1,
                             "coarse": time.perf_counter() - t2}

    def coarse_solve(self, rhs_primal):
        rhs = np.zeros(self.n_coarse)
        rhs[: self.n_primal] = rhs_primal
        return self._coarse_lu.solve(rhs)[: self.n_primal]

    def apply_F(self, lam):
        return (self.B_pi @ self.coarse_solve(self.B_pi.T @ lam)
                + self.B @ (self.F @ (self.B.T @ lam)))

    def rhs(self):
        y = np.concatenate([x[: sl.stop - sl.start]
                            for x, sl in zip(self.x_local, self.gamma_slices)])
        return self.B_pi @ self.coarse_solve(self.b_pi) + self.B @ y

    def recover(self, lam):
        """Per-patch velocity and pressure coefficients (Dirichlet re-added)."""
        x_pi = self.coarse_solve(self.b_pi - self.B_pi.T @ lam)
        t = self.B.T @ lam
        us, ps = [], []
        for k, (aug, sl) in enumerate(zip(self.locals_, self.gamma_slices)):
            ths = self.spaces[k]
            ng2, ni2 = 2 * ths.n_gamma, 2 * ths.n_inner
            G, s = self.constraints.globals_[k], self.constraints.signs[k]
            x = self.x_local[k] + aug.solve_x(-t[sl], s * x_pi[G])
            us.append(self.systems[k].expand(x[:ng2], x[ng2 : ng2 + ni2]))
            ps.append(x[ng2 + ni2 :])
        return us, ps, x_pi


class ScaledDirichletPreconditioner:
    """M_sD = sum_k B^k D^-1 S_K^k D^-1 B^k,T with D = 2 I.

    S_K is the velocity Schur complement on the interface block. Both
    components share the scalar complement S that each local system read
    off at setup, from the K_ii factor it holds. The CSR block diagonal S of
    these is their only copy (each local system's S becomes a view of
    S.data), and it acts on both components at once: apply multiplies it
    with a two-column block, between products with the jump matrix B of
    IetiOperator whose columns are reordered to [component 0 of every patch
    | component 1 of every patch].
    """

    def __init__(self, locals_, B):
        self.B = B
        self.locals_ = locals_
        self.S, views = _block_diagonal([aug.S for aug in locals_])
        for aug, S in zip(locals_, views):
            aug.S = S
        # B's columns run over the patches' u_gamma blocks [component 0 |
        # component 1]; new[j] is column j's place in the reordered B
        sizes = [len(S) for S in views]
        starts, n = np.cumsum([0] + sizes), sum(sizes)
        new = np.concatenate([np.zeros(0, dtype=np.int64)] +
                             [np.arange(c * n + a, c * n + a + m)
                              for a, m in zip(starts, sizes) for c in (0, 1)])
        self._B = sp.csr_matrix((B.data, new[B.indices], B.indptr), shape=B.shape)

    @property
    def blocks(self):
        """Per patch (K_gg, K_gi, factor of K_ii) of one velocity component,
        K_gg and K_gi sparse; scattered again on each access. Besides the
        tests, only perfbench/run.py:ieti_counts reads it."""
        out = []
        for aug in self.locals_:
            ni, ng = aug.system.ths.n_inner, aug.system.ths.n_gamma
            K = aug.system.condensation_blocks()[1][ni : ni + ng]
            out.append((sp.csr_matrix(K[:, ni:]), sp.csr_matrix(K[:, :ni]), aug.lu.interior))
        return out

    def apply(self, lam):
        v = (self._B.T @ lam).reshape(2, -1).T  # one column per component
        return 0.25 * (self._B @ (self.S @ v).T.ravel())


# ---------------------------------------------------------------------------
# conjugate gradients with Lanczos condition estimate


class SolveReport:
    """Outcome of a PCG solve.

    breakdown is None, or why the iteration stopped early: "nonpositive
    curvature" (p.Fp <= 0, F or the preconditioner is not positive definite)
    or "non-finite residual". A breakdown always means converged is False.
    timings and setup_phases hold wall seconds (see solve_stokes_ieti):
    "rhs" reads the local solutions stored at setup and takes next to no
    time, and the "local" setup phase includes the local right-hand-side
    solves.
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
        self.setup_phases = {}
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


def setup_ieti(mp, spaces, rhs=None, dirichlet=None, nquad=None, systems=None):
    """The dual-primal operator and the scaled Dirichlet preconditioner.

    The patch systems are assembled unless given: the element matrices and
    the Dirichlet projection once per family of patches (element_forms),
    the rest per patch (assemble_patch).
    op.setup_phases holds the wall seconds of "assembly" (next to nothing
    when systems are given), "constraints", "local", "coarse" (see
    IetiOperator) and "preconditioner". The coarse system fixes the
    pressure mean iff mp.pressure_up_to_constant.
    """
    t0 = time.perf_counter()
    if systems is None:
        forms = element_forms(mp.patches, spaces, rhs, nquad, dirichlet)
        systems = [assemble_patch(geo, ths, elements=el)
                   for geo, ths, el in zip(mp.patches, spaces, forms)]
    t1 = time.perf_counter()
    op = IetiOperator(mp, spaces, systems)
    t2 = time.perf_counter()
    pc = ScaledDirichletPreconditioner(op.locals_, op.B)
    op.setup_phases = {"assembly": t1 - t0, **op.setup_phases,
                       "preconditioner": time.perf_counter() - t2}
    return op, pc


def solve_stokes_ieti(mp, spaces, rhs=None, dirichlet=None, tol=1e-6, max_iter=500,
                      seed=42, nquad=None, systems=None):
    """Assemble, solve the multiplier system, recover patch solutions.

    The pressure has mean zero iff mp.pressure_up_to_constant (no side
    tagged "neumann"). report.timings holds the wall seconds of the phases
    "setup" (assembly when systems is None, local factorizations, primal
    basis, local right-hand-side solves, coarse problem, preconditioner),
    "rhs" (about 0 s: it reads the local solutions of setup and makes one
    coarse solve), "pcg" and "recover"; report.setup_phases splits "setup"
    (see setup_ieti; its "local" phase includes the right-hand-side solves).
    """
    t0 = time.perf_counter()
    op, pc = setup_ieti(mp, spaces, rhs, dirichlet, nquad, systems)
    t1 = time.perf_counter()
    g = op.rhs()
    t2 = time.perf_counter()
    lam, report = solve_pcg(op.apply_F, pc.apply, g, tol=tol, max_iter=max_iter,
                            seed=seed)
    t3 = time.perf_counter()
    us, ps, _ = op.recover(lam)
    report.timings = {"setup": t1 - t0, "rhs": t2 - t1, "pcg": t3 - t2,
                      "recover": time.perf_counter() - t3}
    report.setup_phases = op.setup_phases
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
