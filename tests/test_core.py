import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimix.core import (
    Basis,
    Curve,
    LabeledCurveSet,
    TimeGrid,
    bspline_basis,
    design_matrix,
    gaussian_logpdf,
    logsumexp,
    read_curveset,
    ridge_solve,
    vandermonde,
    variance_floor,
    write_curveset,
)
from regimix.errors import DataError


def grid(*pts):
    return TimeGrid(np.array(pts, dtype=float))


class TestTimeGrid:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            grid(5.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            grid(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid(0.0, 2.0, 1.0)

    def test_points_are_immutable(self):
        g = grid(0.0, 1.0)
        with pytest.raises(ValueError):
            g.points[0] = 3.0


class TestCurveSet:
    def test_labels_must_cover_classes(self):
        g = grid(0.0, 1.0)
        with pytest.raises(ValueError):
            LabeledCurveSet(np.zeros((2, 2)), np.array([1, 1]), g, n_classes=2)

    def test_class_slicing(self):
        g = grid(0.0, 1.0)
        data = LabeledCurveSet(
            np.arange(8.0).reshape(4, 2), np.array([1, 2, 1, 2]), g, n_classes=2
        )
        np.testing.assert_array_equal(data.class_indices(2), [1, 3])
        assert data.class_values(1).shape == (2, 2)
        assert data.curve(3).values[0] == 6.0


class TestVandermonde:
    def test_degree_two_rows(self):
        mat = vandermonde(grid(0.0, 1.0, 2.0), 2).matrix
        np.testing.assert_array_equal(mat, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])

    def test_degree_one_fractional(self):
        mat = vandermonde(grid(0.0, 0.5, 1.0), 1).matrix
        np.testing.assert_array_equal(mat, [[1, 0], [1, 0.5], [1, 1]])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            vandermonde(grid(0.0, 1.0), -1)


def _cox_de_boor(x, k, i, knots):
    """Direct recursion for one B-spline basis value (independent oracle)."""
    if k == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + k] != knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * _cox_de_boor(x, k - 1, i, knots)
    right = 0.0
    if knots[i + k + 1] != knots[i + 1]:
        right = (
            (knots[i + k + 1] - x)
            / (knots[i + k + 1] - knots[i + 1])
            * _cox_de_boor(x, k - 1, i + 1, knots)
        )
    return left + right


class TestBsplineBasis:
    def test_constant_basis(self):
        mat = bspline_basis(grid(0.0, 0.5, 1.0), order=1, interior_knots=0).matrix
        np.testing.assert_allclose(mat, np.ones((3, 1)))

    def test_partition_of_unity(self):
        g = TimeGrid(np.linspace(-2.0, 3.0, 37))
        mat = bspline_basis(g, order=4, interior_knots=6).matrix
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mat >= 0)

    def test_matches_cox_de_boor_recursion(self):
        g = TimeGrid(np.linspace(0.0, 1.0, 10))
        order, interior = 4, 3
        mat = bspline_basis(g, order, interior).matrix
        assert mat.shape == (10, 7)

        t0, t1 = 0.0, 1.0
        knots = np.concatenate(
            [np.full(order, t0), np.linspace(t0, t1, interior + 2)[1:-1], np.full(order, t1)]
        )
        expected = np.zeros((10, 7))
        for j, x in enumerate(g.points):
            for i in range(7):
                expected[j, i] = _cox_de_boor(x, order - 1, i, knots)
        # the half-open recursion drops the right endpoint; the last basis
        # function equals 1 there by the closed convention
        expected[-1, -1] = 1.0
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    def test_over_parameterized_rejected(self):
        with pytest.raises(ValueError):
            bspline_basis(grid(0.0, 1.0, 2.0), order=4, interior_knots=3)

    def test_design_matrix_dispatch(self):
        g = TimeGrid(np.linspace(0.0, 1.0, 12))
        poly = design_matrix(g, Basis.polynomial(2))
        assert poly.matrix.shape == (12, 3)
        spl = design_matrix(g, Basis.bspline(4, 2))
        assert spl.matrix.shape == (12, 6)


class TestGaussianLogpdf:
    def test_standard_normal_at_mode(self):
        assert gaussian_logpdf(0.0, 0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_zero_residual_any_variance(self):
        for v in (0.25, 1.0, 7.5):
            assert gaussian_logpdf(3.0, 3.0, v) == pytest.approx(
                -0.5 * math.log(2 * math.pi * v), abs=1e-12
            )

    def test_direct_formula(self):
        assert gaussian_logpdf(1.0, 0.0, 2.0) == pytest.approx(
            -0.5 * math.log(4 * math.pi) - 0.25, abs=1e-12
        )

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_logpdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_logpdf(0.0, 0.0, -1.0)


class TestLogsumexp:
    def test_two_zeros(self):
        assert logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)

    def test_no_underflow(self):
        assert logsumexp(np.array([-1000.0, -1000.0])) == pytest.approx(
            -1000.0 + math.log(2), abs=1e-12
        )

    def test_small_magnitude_direct(self):
        expected = 3 + math.log(1 + math.exp(-1) + math.exp(-2))
        assert logsumexp(np.array([1.0, 2.0, 3.0])) == pytest.approx(expected, abs=1e-12)

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]))

    def test_axis_reduction(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            logsumexp(x, axis=1), [math.log(2), 1 + math.log(2)], atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, values, c):
        v = np.array(values)
        lhs = logsumexp(v + c)
        rhs = logsumexp(v) + c
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


class TestRidgeSolve:
    def test_well_conditioned_passthrough(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(ridge_solve(a, np.array([2.0, 3.0])), [1.0, 1.0])

    def test_singular_falls_back(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        x = ridge_solve(a, np.array([2.0, 2.0]))
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(a @ x, [2.0, 2.0], atol=1e-4)

    def test_matches_direct_solve_when_well_conditioned(self):
        rng = np.random.default_rng(12)
        for dim in (1, 4, 12):
            a = rng.normal(size=(dim, dim))
            gram = a @ a.T + dim * np.eye(dim)
            rhs = rng.normal(size=dim)
            expected = np.linalg.solve(gram, rhs)
            err = np.linalg.norm(ridge_solve(gram, rhs) - expected)
            assert err <= 1e-12 * np.linalg.norm(expected)

    def test_rank_deficient_and_zero_grams_stay_finite(self):
        t = np.linspace(0.0, 1.0, 9)
        design = np.column_stack([np.ones_like(t), t, t])  # repeated column
        y = 1.0 + 2.0 * t
        x = ridge_solve(design.T @ design, design.T @ y)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(design @ x, y, atol=1e-6)
        assert np.all(np.isfinite(ridge_solve(np.zeros((3, 3)), np.ones(3))))

    def test_non_finite_gram_raises(self):
        for bad in (np.nan, np.inf):
            gram = np.array([[bad, 0.0], [0.0, 1.0]])
            with pytest.raises(np.linalg.LinAlgError):
                ridge_solve(gram, np.array([1.0, 1.0]))

    def test_stack_matches_per_matrix_solves(self):
        rng = np.random.default_rng(21)
        for dim in (1, 3):
            a = rng.normal(size=(5, dim, dim))
            grams = a @ a.transpose(0, 2, 1) + dim * np.eye(dim)
            grams[2] = 0.0  # one singular member
            grams[2, 0, 0] = 1.0
            rhs = rng.normal(size=(5, dim))
            x = ridge_solve(grams, rhs)
            assert x.shape == (5, dim)
            for g in range(5):
                solo = ridge_solve(grams[g], rhs[g])
                np.testing.assert_allclose(x[g], solo, rtol=1e-12, atol=1e-12)
                if g != 2:  # the others take no ridge
                    expected = np.linalg.solve(grams[g], rhs[g])
                    np.testing.assert_allclose(x[g], expected, rtol=1e-12, atol=1e-12)
            if dim > 1:
                # the singular member alone is shifted: its null directions
                # get rhs / ridge, not the unregularised (infinite) solution
                ridge = 1e-10 * 1.0 / dim
                np.testing.assert_allclose(x[2, 1:], rhs[2, 1:] / ridge, rtol=1e-9)

    def test_stack_with_non_finite_member_raises(self):
        grams = np.stack([np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])])
        with pytest.raises(np.linalg.LinAlgError):
            ridge_solve(grams, np.ones((2, 2)))


class TestVarianceFloor:
    def test_scales_with_spread(self):
        small = variance_floor(np.zeros((3, 4)))
        big = variance_floor(1e6 * np.random.default_rng(0).normal(size=(3, 4)))
        assert small == 1e-10
        assert big > small


class TestCurveSetFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        g = TimeGrid(np.sort(rng.uniform(-5, 5, size=9)))
        data = LabeledCurveSet(
            rng.normal(scale=1e3, size=(5, 9)),
            np.array([1, 2, 1, 3, 2]),
            g,
            n_classes=3,
        )
        gp, cp = tmp_path / "grid.csv", tmp_path / "curves.csv"
        write_curveset(data, str(gp), str(cp))
        loaded = read_curveset(str(gp), str(cp))
        np.testing.assert_array_equal(loaded.grid.points, data.grid.points)
        np.testing.assert_array_equal(loaded.values, data.values)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_written_files_are_stable(self, tmp_path):
        g = grid(0.0, 1.0)
        data = LabeledCurveSet(np.array([[1.5, -2.25]]), np.array([1]), g, 1)
        write_curveset(data, str(tmp_path / "g.csv"), str(tmp_path / "c.csv"))
        first = (tmp_path / "c.csv").read_bytes()
        write_curveset(data, str(tmp_path / "g.csv"), str(tmp_path / "c.csv"))
        assert (tmp_path / "c.csv").read_bytes() == first

    def test_bad_row_width_reported(self, tmp_path):
        (tmp_path / "grid.csv").write_text("0.0,1.0\n")
        (tmp_path / "curves.csv").write_text("1,0.5\n")
        with pytest.raises(DataError):
            read_curveset(str(tmp_path / "grid.csv"), str(tmp_path / "curves.csv"))

    def test_non_integer_label_rejected(self, tmp_path):
        (tmp_path / "grid.csv").write_text("0.0,1.0\n")
        (tmp_path / "curves.csv").write_text("a,0.5,0.5\n")
        with pytest.raises(DataError):
            read_curveset(str(tmp_path / "grid.csv"), str(tmp_path / "curves.csv"))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_curveset(str(tmp_path / "nope.csv"), str(tmp_path / "also_nope.csv"))


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(np.array([1.0]), grid(0.0, 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Curve(np.array([1.0, np.nan]), grid(0.0, 1.0))
