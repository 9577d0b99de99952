"""B-spline spaces on the unit interval and the unit square.

Spaces are described by strictly increasing breakpoints in [0, 1], a degree p
and a smoothness 0 <= s <= p-1. The open knot vector repeats the end
breakpoints p+1 times and every interior breakpoint p-s times, so the space
has dimension (p+1) + (#interior breakpoints) * (p-s) and is C^s across the
breakpoints. Evaluation uses the Cox-de Boor recursion, vectorised over
arrays of points (one span search and one recursion for all of them), and is
right-continuous, except at x = 1 where the left limit is taken.

Callers that need one table at many points (the map kernels of geometry,
the element quadrature of assembly) ask for it once per kernel call and
share it across the patches they evaluate; this module keeps no state.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = (
    "UnivariateSplineSpace",
    "TensorSplineSpace",
    "make_open_knots",
    "find_span",
    "eval_all_derivatives",
    "insert_knot",
    "promote_coefficients",
    "gauss_rule_1d",
)


def check_breakpoints(breakpoints):
    """Validate a breakpoint vector and return it as a float array."""
    z = np.asarray(breakpoints, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("breakpoints must be a 1d sequence with at least 2 entries")
    if not np.all(np.diff(z) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    if z[0] != 0.0 or z[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    return z


def make_open_knots(breakpoints, degree, smoothness):
    """Open knot vector with interior multiplicity degree - smoothness."""
    z = check_breakpoints(breakpoints)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= smoothness <= degree - 1:
        raise ValueError("smoothness must satisfy 0 <= s <= degree-1")
    rep = degree - smoothness
    return np.concatenate(
        [
            np.full(degree + 1, z[0]),
            np.repeat(z[1:-1], rep),
            np.full(degree + 1, z[-1]),
        ]
    )


def find_span(knots, degree, x):
    """Index i with knots[i] <= x < knots[i+1], clamped to nonempty spans.

    x may be a scalar (an int is returned) or an array (an int array of the
    same shape). For x at (or beyond) the right end the last nonempty span
    is returned, so evaluation there is the left limit.
    """
    n = len(knots) - degree - 1  # number of basis functions
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, degree, n - 1)
    return int(span) if np.ndim(span) == 0 else span


def eval_all_derivatives(knots, degree, x, nders):
    """Values and derivatives of the active basis functions at x.

    For a scalar x returns (first, ders) where ders[k, j] is the k-th
    derivative of basis function first+j, for k = 0..nders and
    j = 0..degree. For a 1d array of points returns (first, ders) with first
    of shape (n,) and ders of shape (nders+1, n, degree+1).

    This is algorithm A2.3 of Piegl & Tiller, The NURBS Book, with the point
    axis vectorised; only the loops over the degree run in Python.
    """
    knots = np.asarray(knots, dtype=float)
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    p = degree
    span = find_span(knots, p, xs)
    offs = np.arange(p + 1)[:, None]
    left = xs - knots[span + 1 - offs]   # left[j] = x - knots[span+1-j]
    right = knots[span + offs] - xs      # right[j] = knots[span+j] - x
    ndu = np.empty((p + 1, p + 1, xs.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    nd = min(nders, p)
    ders = np.zeros((nders + 1, p + 1, xs.size))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, xs.size))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    r = p
    for k in range(1, nd + 1):
        ders[k, :] *= r
        r *= p - k
    first, ders = span - p, ders.transpose(0, 2, 1)
    if scalar:
        return int(first[0]), ders[:, 0]
    return first, ders


def insert_knot(knots, degree, coeffs, x):
    """Boehm single-knot insertion.

    coeffs may be vector valued (shape (n, ...)). Returns (new_knots,
    new_coeffs) representing the same spline on the refined knot vector.
    """
    t = np.asarray(knots, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    p = degree
    n = c.shape[0]
    if n != len(t) - p - 1:
        raise ValueError("coefficient count does not match knot vector")
    if not t[p] <= x <= t[n]:
        raise ValueError("knot to insert lies outside the interval")
    k = find_span(t, p, x)
    new = np.empty((n + 1,) + c.shape[1:])
    new[: k - p + 1] = c[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        denom = t[i + p] - t[i]
        if denom <= 0.0:
            raise ValueError("knot multiplicity would exceed the degree")
        a = (x - t[i]) / denom
        new[i] = a * c[i] + (1.0 - a) * c[i - 1]
    new[k + 1 :] = c[k:]
    return np.insert(t, k + 1, x), new


def _refine_breakpoints(breakpoints, levels):
    z = np.asarray(breakpoints, dtype=float)
    for _ in range(levels):
        mid = 0.5 * (z[:-1] + z[1:])
        z = np.sort(np.concatenate([z, mid]))
    return z


def promote_coefficients(src, dst, coeffs):
    """Coefficients of a spline from space src expressed in the finer space dst.

    dst must contain src (same degree, refined breakpoints, smoothness not
    larger at shared breakpoints); the representation is exact and computed by
    repeated knot insertion.
    """
    if src.degree != dst.degree:
        raise ValueError("spaces must have the same degree")
    knots = src.knots.copy()
    c = np.asarray(coeffs, dtype=float)
    if c.shape[0] != src.dim:
        raise ValueError("coefficient count does not match the source space")
    target = dst.knots
    tvals, tcounts = np.unique(target[dst.degree + 1 : -(dst.degree + 1)], return_counts=True)
    for x, want in zip(tvals, tcounts):
        have = int(np.sum(np.isclose(knots, x, rtol=0.0, atol=1e-14)))
        for _ in range(want - have):
            knots, c = insert_knot(knots, src.degree, c, x)
    if len(knots) != len(target) or not np.allclose(knots, target, atol=1e-14):
        raise ValueError("destination space does not refine the source space")
    return c


class UnivariateSplineSpace:
    """Spline space of given degree and smoothness on [0, 1].

    Attributes
    ----------
    breakpoints : ndarray
        Strictly increasing, from 0 to 1.
    degree, smoothness : int
    knots : ndarray
        Open knot vector.
    dim : int
        Number of basis functions.
    """

    def __init__(self, breakpoints, degree, smoothness):
        self.breakpoints = check_breakpoints(breakpoints)
        self.degree = int(degree)
        self.smoothness = int(smoothness)
        self.knots = make_open_knots(self.breakpoints, self.degree, self.smoothness)
        self.dim = len(self.knots) - self.degree - 1

    def __repr__(self):
        return "UnivariateSplineSpace(p=%d, s=%d, %d elements, dim %d)" % (
            self.degree,
            self.smoothness,
            self.nel,
            self.dim,
        )

    @property
    def nel(self):
        return len(self.breakpoints) - 1

    def eval_all(self, x, nders=1):
        return eval_all_derivatives(self.knots, self.degree, x, nders)

    def greville(self):
        """Greville abscissae: the mean of knots i+1 .. i+p for each function i."""
        return sliding_window_view(self.knots[1:-1], self.degree).mean(axis=1)

    def collocation(self, points, der=0):
        """Dense matrix of basis (derivative) values at the given points."""
        return self.collocations(points, der)[der]

    def collocations(self, points, nders=1):
        """(nders+1, len(points), dim): the dense matrices of the basis
        derivatives 0..nders at the given points, from one recursion."""
        pts = np.atleast_1d(np.asarray(points, dtype=float)).ravel()
        first, ders = eval_all_derivatives(self.knots, self.degree, pts, nders)
        out = np.zeros((nders + 1, pts.size, self.dim))
        cols = first[:, None] + np.arange(self.degree + 1)
        out[:, np.arange(pts.size)[:, None], cols] = ders
        return out

    def interpolate(self, f):
        """Coefficients interpolating f at the Greville points.

        Exact whenever f lies in the space (in particular for polynomials of
        degree <= p).
        """
        g = self.greville()
        return np.linalg.solve(self.collocation(g), np.asarray([f(x) for x in g], dtype=float))

    def refine_uniform(self, levels=1):
        """Space on 'levels' times bisected breakpoints, same degree/smoothness."""
        if levels < 0:
            raise ValueError("levels must be nonnegative")
        return UnivariateSplineSpace(
            _refine_breakpoints(self.breakpoints, levels), self.degree, self.smoothness
        )

    def element_span_starts(self):
        """First active basis index on each breakpoint interval."""
        mids = 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])
        return find_span(self.knots, self.degree, mids) - self.degree

    def tabulate(self, points, nders=1):
        """Basis table at an (nel, nq) array of points, nq per element.

        Returns (first, vals) with first of shape (nel,) and vals of shape
        (nders+1, nel, nq, degree+1); points[e] must lie in element e.
        """
        pts = np.asarray(points, dtype=float)
        nel, nq = pts.shape
        if nel != self.nel:
            raise ValueError("one row of points per element expected")
        first = self.element_span_starts()
        f, ders = eval_all_derivatives(self.knots, self.degree, pts.ravel(), nders)
        wrong = np.flatnonzero(f.reshape(nel, nq) != first[:, None])
        if wrong.size:
            e, q = divmod(int(wrong[0]), nq)
            raise ValueError("point %r not in element %d" % (pts[e, q], e))
        return first, ders.reshape(nders + 1, nel, nq, self.degree + 1)


def gauss_rule_1d(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


def element_rule(breakpoints, n):
    """Per-element Gauss points/weights: arrays of shape (nel, n)."""
    return rule_on_elements(breakpoints, gauss_rule_1d(n))


def rule_on_elements(breakpoints, rule):
    """element_rule with its rule (x, w) on [0, 1], built once, given."""
    z = np.asarray(breakpoints, dtype=float)
    h = np.diff(z)[:, None]
    return z[:-1, None] + h * rule[0], h * rule[1]


class TensorSplineSpace:
    """Tensor product of two univariate spaces; x index runs fastest."""

    def __init__(self, space_x, space_y):
        self.space_x = space_x
        self.space_y = space_y
        self.nx = space_x.dim
        self.ny = space_y.dim
        self.dim = self.nx * self.ny

    @classmethod
    def from_breakpoints(cls, bkx, bky, degree, smoothness):
        if np.isscalar(degree):
            degree = (degree, degree)
        if np.isscalar(smoothness):
            smoothness = (smoothness, smoothness)
        return cls(
            UnivariateSplineSpace(bkx, degree[0], smoothness[0]),
            UnivariateSplineSpace(bky, degree[1], smoothness[1]),
        )

    def __repr__(self):
        return "TensorSplineSpace(%r x %r)" % (self.space_x, self.space_y)

    def index(self, ix, iy):
        return iy * self.nx + ix

    def refine_uniform(self, levels=1):
        return TensorSplineSpace(
            self.space_x.refine_uniform(levels), self.space_y.refine_uniform(levels)
        )

    def side_dofs(self, side):
        """Indices of the dofs with nonzero trace on a side, ordered along it.

        The edge parameter runs with increasing y on west/east and increasing
        x on south/north.
        """
        ax = np.arange(self.nx)
        ay = np.arange(self.ny)
        if side == "west":
            return self.index(0, ay)
        if side == "east":
            return self.index(self.nx - 1, ay)
        if side == "south":
            return self.index(ax, 0)
        if side == "north":
            return self.index(ax, self.ny - 1)
        raise ValueError("unknown side %r" % (side,))

    def side_space(self, side):
        return self.space_y if side in ("west", "east") else self.space_x

    def corner_dof(self, cx, cy):
        return self.index((self.nx - 1) * cx, (self.ny - 1) * cy)

    def corner_dofs(self):
        return {(cx, cy): self.corner_dof(cx, cy) for cx in (0, 1) for cy in (0, 1)}
