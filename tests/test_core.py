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
    csv_text,
    design_matrix,
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

    def test_bit_identical_to_scipy(self):
        """scipy's design matrix is the reference: same knots, same bits.

        A design whose columns cannot all be independent on its grid, by
        a maximum matching of scipy's non-zero pattern, is rejected."""
        interpolate = pytest.importorskip("scipy.interpolate")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(12)
        cases = [
            (np.linspace(0.0, 1.0, 200), 4, 10),  # piecewise benchmark grid
            (np.arange(21.0), 4, 8),  # waveform benchmark grid
            (np.arange(21.0) + 1e4, 4, 8),
            (np.linspace(-1.0, 2.0, 7), 3, 4),  # exactly order + knots points
        ]
        cases += [(np.linspace(-3.0, 5.0, 25), order, 0) for order in range(1, 6)]
        cases += [(np.linspace(0.0, 1.0, 30), order, 5) for order in range(1, 6)]
        for _ in range(40):
            m = int(rng.integers(6, 60))
            points = np.unique(rng.uniform(-1e3, 1e3, m))
            order = int(rng.integers(1, 6))
            cases.append((points, order, int(rng.integers(0, points.size - order + 1))))
        singular = 0
        for points, order, interior in cases:
            t0, t1 = points[0], points[-1]
            knots = np.concatenate([
                np.full(order, t0),
                np.linspace(t0, t1, interior + 2)[1:-1],
                np.full(order, t1),
            ])
            expected = interpolate.BSpline.design_matrix(points, knots, order - 1).toarray()
            pattern = sparse.csr_matrix(expected.T != 0)
            match = csgraph.maximum_bipartite_matching(pattern, perm_type="column")
            if np.any(match < 0):
                singular += 1
                with pytest.raises(ValueError, match="singular spline basis"):
                    bspline_basis(TimeGrid(points), order, interior)
                continue
            mat = bspline_basis(TimeGrid(points), order, interior).matrix
            np.testing.assert_array_equal(mat, expected, err_msg=f"{order=} {interior=}")
        # both kinds occur, and as many grids are compared as the 34 before
        # the check (the 14 fixed ones and 20 random ones)
        assert singular > 0 and len(cases) - singular >= 34

    def test_singular_on_its_grid_rejected(self):
        # 10 columns but rank 8: no grid point lies inside the supports of
        # the middle functions (Schoenberg-Whitney fails)
        points = np.concatenate([np.linspace(0.0, 0.05, 10), np.linspace(0.95, 1.0, 10)])
        with pytest.raises(ValueError, match="function 5 of 10 is zero on every grid point"):
            bspline_basis(TimeGrid(points), order=4, interior_knots=6)

    def test_over_parameterized_rejected(self):
        with pytest.raises(ValueError):
            bspline_basis(grid(0.0, 1.0, 2.0), order=4, interior_knots=3)

    def test_design_matrix_dispatch(self):
        g = TimeGrid(np.linspace(0.0, 1.0, 12))
        poly = design_matrix(g, Basis.polynomial(2))
        assert poly.matrix.shape == (12, 3)
        spl = design_matrix(g, Basis.bspline(4, 2))
        assert spl.matrix.shape == (12, 6)


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

    @pytest.mark.parametrize("last, message", [
        ("2,0.5", "expected label + 2 values, got 2 fields"),
        ("z,0.5,0.5", "invalid literal for int() with base 10: 'z'"),
        ("2,0.5,x", "could not convert string to float: 'x'"),
        ("5,0.5,0.5", "label above the number of curves (2)"),
    ], ids=["fields", "label", "value", "label-above-count"])
    def test_error_names_the_line_counting_blank_lines(self, tmp_path, last, message):
        # blank lines are skipped but counted: the bad line is line 4, which
        # the value error used to report as line 2
        (tmp_path / "grid.csv").write_text("0.0,1.0\n")
        (tmp_path / "curves.csv").write_text(f"1,0.5,0.5\n\n \n{last}\n")
        with pytest.raises(DataError) as exc:
            read_curveset(str(tmp_path / "grid.csv"), str(tmp_path / "curves.csv"))
        assert str(exc.value).startswith(f"{tmp_path / 'curves.csv'}:4: {message}")

    def test_written_text_is_repr(self, tmp_path):
        # a float field is written as repr(float(v)), numpy scalars included,
        # and every value reads back bit for bit
        table = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-05, 0.1 + 0.2, 3.0]
        row = [*table, *map(np.float64, table), 7, "x"]
        assert csv_text([row, []]) == ",".join(
            [*(repr(float(v)) for v in row[:-2]), "7", "x"]) + "\n\n"

        data = LabeledCurveSet(np.array([table, table[::-1]]), np.array([2, 1]),
                               grid(*range(len(table))), 2)
        gp, cp = tmp_path / "grid.csv", tmp_path / "curves.csv"
        write_curveset(data, str(gp), str(cp))
        assert gp.read_text() == ",".join(repr(float(t)) for t in range(len(table))) + "\n"
        assert cp.read_text() == "".join(
            f"{label}," + ",".join(repr(v) for v in values) + "\n"
            for label, values in ((2, table), (1, table[::-1])))
        loaded = read_curveset(str(gp), str(cp))
        assert loaded.values.tobytes() == data.values.tobytes()
        assert loaded.grid.points.tobytes() == data.grid.points.tobytes()

    def test_every_mutation_loads_or_is_data_error(self, tmp_path):
        # each field of a small grid and curve file replaced by another
        # token, each field, row and point dropped or doubled, and the grid
        # reordered: the result either loads as a valid curve set or is a
        # DataError, never another exception. What loads holds only tokens
        # that int() (labels) and float() (values) take, read as they read
        # them: the accepted set never widens. It narrows: "1_0" and digits
        # outside ASCII, which float() takes, are rejected as values.
        grid_row = ["0.0", "0.5", "1.0"]
        rows = [["1", "0.1", "0.2", "0.3"], ["2", "1.0", "1.1", "1.2"], ["1", "0.0", "0.1", "0.2"]]
        tokens = ["", " ", "x", "nan", "inf", "-inf", "1e309", "-1e309", "1.5", "1.0", "+1",
                  "-1", "0", "3", "4", "1_0", " 2 ", "99999999999999999999", "-" + "9" * 30,
                  "\u0661", "\u0662.5", "1#2", "#", "0x1", "1d0", "1j", "'1'", "\u00a01.25",
                  "\t2"]

        def variants():
            for i in range(len(grid_row)):
                for token in tokens:
                    yield grid_row[:i] + [token] + grid_row[i + 1:], rows
                yield grid_row[:i] + grid_row[i + 1:], rows  # a missing point
                yield grid_row[:i + 1] + grid_row[i:], rows  # a duplicate point
            yield grid_row[::-1], rows
            yield [grid_row[1], grid_row[0], grid_row[2]], rows
            yield [], rows
            for j, row in enumerate(rows):
                for k in range(len(row)):
                    for token in tokens:
                        yield grid_row, rows[:j] + [row[:k] + [token] + row[k + 1:]] + rows[j + 1:]
                    yield grid_row, rows[:j] + [row[:k] + row[k + 1:]] + rows[j + 1:]
                    yield grid_row, rows[:j] + [row[:k + 1] + row[k:]] + rows[j + 1:]
                yield grid_row, rows[:j] + rows[j + 1:]
                yield grid_row, rows[:j] + [row, row] + rows[j + 1:]
            yield grid_row, []

        gp, cp = tmp_path / "grid.csv", tmp_path / "curves.csv"
        outcomes = {"loaded": 0, "rejected": 0}
        for points, curves in variants():
            gp.write_text(",".join(points) + "\n")
            cp.write_text("".join(",".join(row) + "\n" for row in curves))
            try:
                data = read_curveset(str(gp), str(cp))
            except DataError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            assert data.grid.points.tolist() == [float(t) for t in points], (points, curves)
            assert data.labels.tolist() == [int(row[0]) for row in curves], (points, curves)
            assert data.values.tolist() == [[float(v) for v in row[1:]] for row in curves], (
                points, curves)
            assert not any("_" in t or any(c.isdigit() and not c.isascii() for c in t)
                           for row in curves for t in row[1:]), (points, curves)
            assert np.all(np.diff(data.grid.points) > 0), (points, curves)
            assert np.all(np.isfinite(data.values)), (points, curves)
            assert data.values.shape == (len(curves), len(data.grid))
            assert sorted(set(data.labels.tolist())) == list(range(1, data.n_classes + 1))
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(np.array([1.0]), grid(0.0, 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Curve(np.array([1.0, np.nan]), grid(0.0, 1.0))
