import numpy as np
import pytest

from ietistokes.bspline import (
    TensorSplineSpace,
    UnivariateSplineSpace,
    element_rule,
    eval_all_derivatives,
    gauss_rule_1d,
    insert_knot,
    make_open_knots,
    promote_coefficients,
)


def naive_bspline(knots, degree, i, x):
    # Cox-de Boor recursion straight from the definition (0/0 := 0),
    # right-continuous; only valid away from the right endpoint.
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + degree] > knots[i]:
        left = (x - knots[i]) / (knots[i + degree] - knots[i]) * naive_bspline(
            knots, degree - 1, i, x
        )
    right = 0.0
    if knots[i + degree + 1] > knots[i + 1]:
        right = (knots[i + degree + 1] - x) / (
            knots[i + degree + 1] - knots[i + 1]
        ) * naive_bspline(knots, degree - 1, i + 1, x)
    return left + right


def naive_bspline_derivative(knots, degree, i, x, der, left_limit=False):
    # k-th derivative by the recursive difference formula, down to the
    # degree-0 indicators; left_limit uses half-open intervals (a, b] so the
    # value at the right end of the knot vector is the left limit.
    if der == 0:
        if degree == 0:
            lo, hi = knots[i], knots[i + 1]
            inside = lo < x <= hi if left_limit else lo <= x < hi
            return 1.0 if inside else 0.0
        out = 0.0
        if knots[i + degree] > knots[i]:
            out += (x - knots[i]) / (knots[i + degree] - knots[i]) * naive_bspline_derivative(
                knots, degree - 1, i, x, 0, left_limit)
        if knots[i + degree + 1] > knots[i + 1]:
            out += (knots[i + degree + 1] - x) / (
                knots[i + degree + 1] - knots[i + 1]
            ) * naive_bspline_derivative(knots, degree - 1, i + 1, x, 0, left_limit)
        return out
    out = 0.0
    if knots[i + degree] > knots[i]:
        out += degree / (knots[i + degree] - knots[i]) * naive_bspline_derivative(
            knots, degree - 1, i, x, der - 1, left_limit)
    if knots[i + degree + 1] > knots[i + 1]:
        out -= degree / (knots[i + degree + 1] - knots[i + 1]) * naive_bspline_derivative(
            knots, degree - 1, i + 1, x, der - 1, left_limit)
    return out


def eval_spline(space, coeffs, x, der=0):
    first, ders = space.eval_all(x, der)
    return ders[der] @ coeffs[first : first + space.degree + 1]


def test_dimension_examples():
    assert UnivariateSplineSpace([0, 0.5, 1], 2, 1).dim == 4
    assert UnivariateSplineSpace([0, 0.5, 1], 2, 0).dim == 5


@pytest.mark.parametrize("degree", range(1, 7))
def test_dimension_formula_brute_force(degree):
    rng = np.random.default_rng(7 + degree)
    interior = np.sort(rng.uniform(0.1, 0.9, size=4))
    z = np.concatenate([[0.0], interior, [1.0]])
    for s in range(degree):
        sp = UnivariateSplineSpace(z, degree, s)
        assert sp.dim == (degree + 1) + 4 * (degree - s)
        assert sp.dim == len(sp.knots) - degree - 1
        # the basis functions are linearly independent: full rank at Greville
        coll = sp.collocation(sp.greville())
        assert np.linalg.matrix_rank(coll) == sp.dim


def test_greville_is_the_per_function_knot_mean_bit_for_bit():
    rng = np.random.default_rng(11)
    for degree in range(1, 8):
        for s in range(degree):
            for nint in (0, 1, 5):
                z = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size=nint)), [1.0]])
                sp = UnivariateSplineSpace(z, degree, s)
                ref = np.array([sp.knots[i + 1 : i + degree + 1].mean() for i in range(sp.dim)])
                got = sp.greville()
                assert got.shape == (sp.dim,) and np.array_equal(got, ref)


def test_eval_example_hats():
    sp = UnivariateSplineSpace([0, 0.5, 1], 1, 0)
    first, ders = sp.eval_all(0.25, 0)
    assert first == 0
    assert np.allclose(ders[0], [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("degree,smoothness", [(1, 0), (2, 1), (3, 0), (3, 2), (4, 1), (5, 4)])
def test_values_match_naive_recursion(degree, smoothness):
    rng = np.random.default_rng(degree * 10 + smoothness)
    z = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 3)), [1.0]])
    sp = UnivariateSplineSpace(z, degree, smoothness)
    for x in rng.uniform(0.0, 0.999, size=60):
        if np.min(np.abs(sp.knots - x)) < 1e-9:
            continue
        first, ders = sp.eval_all(x, 0)
        dense = np.zeros(sp.dim)
        dense[first : first + degree + 1] = ders[0]
        naive = np.array([naive_bspline(sp.knots, degree, i, x) for i in range(sp.dim)])
        assert np.abs(dense - naive).max() < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("continuity", ["C0", "Cmax"])
def test_batched_evaluation_matches_naive_recursion(degree, continuity):
    # one call over an array holding the ends, the interior breakpoints and
    # random points; breakpoints are right limits, x = 1 the left limit
    smoothness = 0 if continuity == "C0" else degree - 1
    z = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    sp = UnivariateSplineSpace(z, degree, smoothness)
    rng = np.random.default_rng(degree)
    xs = np.concatenate([z, rng.uniform(0.0, 1.0, 12)])
    first, ders = eval_all_derivatives(sp.knots, degree, xs, degree)
    assert first.shape == xs.shape and ders.shape == (degree + 1, xs.size, degree + 1)
    for der in range(degree + 1):
        naive = np.array([
            [naive_bspline_derivative(sp.knots, degree, i, x, der, left_limit=x == 1.0)
             for i in range(sp.dim)]
            for x in xs
        ])
        scale = max(1.0, np.abs(naive).max())
        assert np.abs(sp.collocation(xs, der=der) - naive).max() < 1e-11 * scale
        # a table does not depend on how many derivatives one recursion makes
        assert np.array_equal(sp.collocations(xs, degree)[der], sp.collocation(xs, der=der))
        dense = np.zeros((xs.size, sp.dim))
        cols = first[:, None] + np.arange(degree + 1)
        dense[np.arange(xs.size)[:, None], cols] = ders[der]
        assert np.abs(dense - naive).max() < 1e-11 * scale
    # the scalar call is the same kernel on one point
    for j, x in enumerate(xs):
        f, d = eval_all_derivatives(sp.knots, degree, x, degree)
        assert f == first[j] and np.array_equal(d, ders[:, j])
    # a second call with equal inputs in new arrays gives the same table
    first2, ders2 = eval_all_derivatives(sp.knots.copy(), degree, xs.copy(), degree)
    assert np.array_equal(first2, first) and np.array_equal(ders2, ders)


def test_tabulate_rejects_point_outside_element():
    sp = UnivariateSplineSpace([0.0, 0.5, 1.0], 2, 1)
    pts, _ = element_rule(sp.breakpoints, 3)
    first, vals = sp.tabulate(pts)
    assert vals.shape == (2, 2, 3, 3)
    assert list(first) == list(sp.element_span_starts())
    pts[1, 2] = 0.25  # lies in element 0
    with pytest.raises(ValueError, match="not in element 1"):
        sp.tabulate(pts)


def test_partition_of_unity():
    rng = np.random.default_rng(42)
    sp = UnivariateSplineSpace(np.linspace(0, 1, 9), 3, 1)
    for x in rng.uniform(0, 1, size=1000):
        _, ders = sp.eval_all(x, 1)
        assert abs(ders[0].sum() - 1.0) < 1e-12
        assert abs(ders[1].sum()) < 1e-9


def test_endpoint_conventions():
    # s = 0 gives a kink at the breakpoints; der=1 picks the right-limit
    # polynomial at interior breakpoints and the left limit at x = 1.
    sp = UnivariateSplineSpace([0, 0.5, 1], 2, 0)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(sp.dim)
    eps = 1e-9
    from_right = (eval_spline(sp, c, 0.5 + eps) - eval_spline(sp, c, 0.5)) / eps
    assert abs(eval_spline(sp, c, 0.5, der=1) - from_right) < 1e-5
    assert abs(eval_spline(sp, c, 1.0) - eval_spline(sp, c, 1.0 - eps)) < 1e-6
    first, _ = sp.eval_all(1.0, 0)
    assert first == sp.dim - 3  # last element's functions stay active at 1


@pytest.mark.parametrize("degree,smoothness", [(2, 1), (3, 1), (4, 3)])
def test_derivatives_match_finite_differences(degree, smoothness):
    rng = np.random.default_rng(degree)
    sp = UnivariateSplineSpace([0, 0.3, 0.7, 1], degree, smoothness)
    c = rng.standard_normal(sp.dim)
    h = 1e-6
    for x in rng.uniform(0.05, 0.95, size=40):
        if np.min(np.abs(np.array([0.3, 0.7]) - x)) < 2 * h:
            continue
        fd = (eval_spline(sp, c, x + h) - eval_spline(sp, c, x - h)) / (2 * h)
        assert abs(eval_spline(sp, c, x, der=1) - fd) < 1e-4 * max(1.0, abs(fd))


def test_insert_knot_preserves_values():
    rng = np.random.default_rng(11)
    sp = UnivariateSplineSpace([0, 0.25, 1], 3, 1)
    c = rng.standard_normal(sp.dim)
    knots, cc = insert_knot(sp.knots, 3, c, 0.6)
    knots, cc = insert_knot(knots, 3, cc, 0.25)  # raise multiplicity of 0.25
    fine = UnivariateSplineSpace.__new__(UnivariateSplineSpace)
    fine.knots = knots
    fine.degree = 3
    fine.dim = len(knots) - 4
    for x in rng.uniform(0, 1, size=50):
        assert abs(eval_spline(fine, cc, x) - eval_spline(sp, c, x)) < 1e-12


@pytest.mark.parametrize("degree,smoothness", [(2, 1), (3, 2), (4, 0)])
def test_refinement_nested(degree, smoothness):
    # every coarse basis function is exactly representable after refinement
    rng = np.random.default_rng(5)
    coarse = UnivariateSplineSpace([0, 0.5, 1], degree, smoothness)
    fine = coarse.refine_uniform(2)
    assert fine.nel == 4 * coarse.nel
    xs = rng.uniform(0, 1, size=200)
    for i in range(coarse.dim):
        e = np.zeros(coarse.dim)
        e[i] = 1.0
        ce = promote_coefficients(coarse, fine, e)
        for x in xs:
            assert abs(eval_spline(fine, ce, x) - eval_spline(coarse, e, x)) < 1e-12


def test_gauss_rule_exactness():
    x, w = gauss_rule_1d(3)
    assert abs(w @ x**4 - 1.0 / 5.0) < 1e-14  # 3 points integrate degree 5
    assert abs(w @ x**5 - 1.0 / 6.0) < 1e-14
    assert abs(w @ x**6 - 1.0 / 7.0) > 1e-6  # but not degree 6
    for n in range(1, 8):
        x, w = gauss_rule_1d(n)
        for k in range(2 * n):
            assert abs(w @ x**k - 1.0 / (k + 1)) < 1e-13


def test_element_rule_partitions():
    pts, wts = element_rule([0, 0.25, 0.5, 1.0], 4)
    assert pts.shape == (3, 4)
    assert abs(wts.sum() - 1.0) < 1e-14
    assert (pts[0] < 0.25).all() and (pts[2] > 0.5).all()


def test_tensor_indexing_and_sides():
    sp = TensorSplineSpace.from_breakpoints([0, 0.5, 1], [0, 1], 2, (1, 1))
    assert sp.nx == 4 and sp.ny == 3 and sp.dim == 12
    assert sp.index(2, 1) == 1 * 4 + 2  # x runs fastest
    assert list(sp.side_dofs("west")) == [0, 4, 8]
    assert list(sp.side_dofs("east")) == [3, 7, 11]
    assert list(sp.side_dofs("south")) == [0, 1, 2, 3]
    assert list(sp.side_dofs("north")) == [8, 9, 10, 11]
    assert sp.corner_dof(1, 1) == 11
    assert sp.side_space("west") is sp.space_y


def test_validation_errors():
    with pytest.raises(ValueError):
        make_open_knots([0, 0.5, 0.5, 1], 2, 1)  # not strictly increasing
    with pytest.raises(ValueError):
        make_open_knots([0.1, 1], 2, 1)  # does not start at 0
    with pytest.raises(ValueError):
        make_open_knots([0, 1], 2, 2)  # smoothness too high
    with pytest.raises(ValueError):
        UnivariateSplineSpace([0, 1], 0, 0)
