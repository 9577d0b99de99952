"""Built-in multi-patch domains.

All constructions produce exactly matching interface traces: neighboring
patches share control points (and weights) along the common edge, so the
glued parameterizations agree pointwise, not just as point sets.
"""

import inspect
import os
import re

import numpy as np

from .bspline import TensorSplineSpace, insert_knot
from .geometry import GeometryMap, bilinear_patch, build_multipatch, load_multipatch

__all__ = (
    "grid_domain",
    "strip_domain",
    "quarter_annulus_domain",
    "quarter_annulus_patch",
    "rectangle_with_hole_domain",
    "build_domain",
    "parse_domain",
    "load_domain",
)


def grid_domain(m, n):
    """m x n unit-square patches tiling [0, m] x [0, n]."""
    if m < 1 or n < 1:
        raise ValueError("grid needs at least one patch per direction")
    patches = []
    for j in range(n):
        for i in range(m):
            patches.append(
                bilinear_patch((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
            )
    return build_multipatch(patches)


def strip_domain(length):
    """A row of unit squares: [0, length] x [0, 1]."""
    return grid_domain(length, 1)


def quarter_annulus_patch(r_in=1.0, r_out=2.0):
    """Exact rational map of the unit square onto a quarter annulus.

    xi1 is the radial direction (degree 1), xi2 the angular one (degree 2,
    middle weight sqrt(2)/2); the Jacobian determinant is positive.
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    space = TensorSplineSpace.from_breakpoints([0.0, 1.0], [0.0, 1.0], (1, 2), (0, 1))
    w = np.sqrt(0.5)
    control = []
    weights = []
    for wy, (cx, cy) in ((1.0, (1.0, 0.0)), (w, (1.0, 1.0)), (1.0, (0.0, 1.0))):
        for r in (r_in, r_out):
            control.append((r * cx, r * cy))
            weights.append(wy)
    return GeometryMap(space, np.array(control), np.array(weights))


def _split_bezier(geo, m, n):
    """Split a single-element map into m x n subpatches, exactly.

    Cuts at uniform parameter values via homogeneous-coordinate knot
    insertion to full multiplicity, then extracts the Bezier segments.
    """
    sx, sy = geo.space.space_x, geo.space.space_y
    if sx.nel != 1 or sy.nel != 1:
        raise ValueError("can only split single-element maps")
    px, py = sx.degree, sy.degree
    if geo.weights is None:
        hom = geo.control.copy()
        ncomp = 2
    else:
        hom = np.column_stack([geo.control * geo.weights[:, None], geo.weights])
        ncomp = 3
    net = hom.reshape(geo.space.ny, geo.space.nx, ncomp)
    kx, ky = sx.knots.copy(), sy.knots.copy()
    for i in range(1, m):
        for _ in range(px):
            arr = np.moveaxis(net, 1, 0)
            kx, arr = insert_knot(kx, px, arr, i / m)
            net = np.moveaxis(arr, 0, 1)
    for j in range(1, n):
        for _ in range(py):
            ky, net = insert_knot(ky, py, net, j / n)

    # the Bezier patches share one space, which is never modified
    space = TensorSplineSpace.from_breakpoints(
        [0.0, 1.0], [0.0, 1.0], (px, py), (max(px - 1, 0), max(py - 1, 0))
    )
    patches = []
    for j in range(n):
        for i in range(m):
            block = net[j * py : j * py + py + 1, i * px : i * px + px + 1, :]
            flat = block.reshape(-1, ncomp)
            if ncomp == 2:
                patches.append(GeometryMap(space, flat.copy()))
            else:
                wts = flat[:, 2]
                patches.append(GeometryMap(space, flat[:, :2] / wts[:, None], wts.copy()))
    return patches


def quarter_annulus_domain(r_in=1.0, r_out=2.0, m=8, n=8):
    """Quarter annulus split into m (radial) x n (angular) patches."""
    return build_multipatch(_split_bezier(quarter_annulus_patch(r_in, r_out), m, n))


def _ring_patch(quadrant):
    """Ring patch between the unit circle and the square [-2, 2]^2.

    Covers the 90 degree sector centered on the +x, +y, -x or -y axis
    (quadrant 0..3); xi1 runs radially from the circle to the square side,
    xi2 counterclockwise.
    """
    s = np.sqrt(0.5)
    r2 = np.sqrt(2.0)
    # unit vectors at sector start / center / end, and the two square corners
    table = {
        0: (((s, -s), (1, 0), (s, s)), ((2, -2), (2, 2))),
        1: (((s, s), (0, 1), (-s, s)), ((2, 2), (-2, 2))),
        2: (((-s, s), (-1, 0), (-s, -s)), ((-2, 2), (-2, -2))),
        3: (((-s, -s), (0, -1), (s, -s)), ((-2, -2), (2, -2))),
    }
    (u0, u1, u2), (c0, c1) = table[quadrant]
    inner = np.array([u0, (r2 * u1[0], r2 * u1[1]), u2])
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    outer = np.array([c0, 0.5 * (c0 + c1), c1])
    space = TensorSplineSpace.from_breakpoints([0.0, 1.0], [0.0, 1.0], (1, 2), (0, 1))
    control = np.empty((6, 2))
    weights = np.ones(6)
    for iy in range(3):
        control[iy * 2 + 0] = inner[iy]
        control[iy * 2 + 1] = outer[iy]
    weights[2] = s  # middle of the inner arc; outer row stays affine
    return GeometryMap(space, control, weights)


def rectangle_with_hole_domain():
    """Channel (-2, 30) x (-2, 2) with a circular hole of radius 1 at the origin.

    Four rational ring patches around the hole plus seven affine patches
    extending the channel; the inlet is the left side, the outlet the right
    side (tagged neumann), everything else dirichlet.
    """
    patches = [_ring_patch(q) for q in range(4)]
    for i in range(7):
        x0 = 2.0 + 4.0 * i
        patches.append(bilinear_patch((x0, -2), (x0 + 4, -2), (x0, 2), (x0 + 4, 2)))

    def tag(k, side, mid):
        if abs(mid[0] - 30.0) < 1e-9:
            return "neumann"
        return "dirichlet"

    return build_multipatch(patches, boundary=tag)


_BUILDERS = {
    "grid": grid_domain,
    "strip": strip_domain,
    "quarter_annulus": quarter_annulus_domain,
    "rectangle_with_hole": rectangle_with_hole_domain,
}


def build_domain(name, **params):
    """Construct a built-in domain by name."""
    return _builder(name)(**params)


def _builder(name):
    if name not in _BUILDERS:
        raise ValueError(
            "unknown domain %r (choose from %s)" % (name, ", ".join(sorted(_BUILDERS)))
        )
    return _BUILDERS[name]


# the builder parameters that count patches
_PATCH_COUNTS = ("m", "n", "length")


def parse_domain(spec):
    """Build a domain from a compact string such as 'grid(2,3)' or 'strip(4)'.

    The arguments fill the builder's parameters in order. More arguments
    than it has, fewer than it needs, a patch count (m, n, length) that is
    not an integer literal or a value that is not a number raise ValueError.
    """
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*", spec)
    if not m:
        raise ValueError("cannot parse domain spec %r" % (spec,))
    name = m.group(1)
    builder = _builder(name)
    signature = inspect.signature(builder)
    params = signature.parameters
    args = m.group(2).split(",") if (m.group(2) or "").strip() else []
    needed = sum(p.default is p.empty for p in params.values())
    if not needed <= len(args) <= len(params):
        raise ValueError("domain spec %r: expected %s%s, got %d arguments"
                         % (spec, name, signature, len(args)))
    kwargs = {}
    for key, text in zip(params, args):
        try:
            kwargs[key] = int(text) if key in _PATCH_COUNTS or "." not in text else float(text)
        except ValueError:
            raise ValueError("domain spec %r: %s must be %s, got %r" % (
                spec, key, "an integer" if key in _PATCH_COUNTS else "a number",
                text.strip())) from None
    return builder(**kwargs)


def load_domain(spec):
    """Built-in domain spec such as 'grid(2,2)', or a geometry file path."""
    if os.path.exists(spec):
        return load_multipatch(spec)
    return parse_domain(spec)
