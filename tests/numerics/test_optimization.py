"""Tests for the fitting utilities in repro.numerics.optimization."""

import numpy as np
import pytest

from repro.numerics.optimization import (
    FitResult,
    grid_search,
    least_squares_fit,
    mean_relative_error,
    multi_start_least_squares,
    sum_of_squares,
)


class TestLossHelpers:
    def test_sum_of_squares(self):
        assert sum_of_squares(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_sum_of_squares_zero(self):
        assert sum_of_squares(np.zeros(5)) == 0.0

    def test_mean_relative_error_exact(self):
        predicted = np.array([1.0, 2.0, 4.0])
        actual = np.array([1.0, 2.0, 4.0])
        assert mean_relative_error(predicted, actual) == 0.0

    def test_mean_relative_error_values(self):
        predicted = np.array([1.1, 1.8])
        actual = np.array([1.0, 2.0])
        assert mean_relative_error(predicted, actual) == pytest.approx(0.1)

    def test_mean_relative_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_relative_error(np.zeros(3), np.zeros(4))

    def test_mean_relative_error_handles_zero_actual(self):
        value = mean_relative_error(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(value)


class TestLeastSquaresFit:
    def test_fits_linear_model(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 10, 40)
        y = 3.0 * x - 2.0 + rng.normal(0, 0.01, x.size)

        def residual(theta):
            return theta[0] * x + theta[1] - y

        result = least_squares_fit(residual, [1.0, 0.0], names=("slope", "intercept"))
        assert result.success
        assert result.parameters[0] == pytest.approx(3.0, abs=0.01)
        assert result.parameters[1] == pytest.approx(-2.0, abs=0.05)
        assert result.as_dict()["slope"] == pytest.approx(3.0, abs=0.01)

    def test_bounds_are_respected(self):
        def residual(theta):
            return np.array([theta[0] - 10.0])

        result = least_squares_fit(residual, [0.5], bounds=([0.0], [1.0]))
        assert 0.0 <= result.parameters[0] <= 1.0
        assert result.parameters[0] == pytest.approx(1.0, abs=1e-6)

    def test_initial_guess_clipped_into_bounds(self):
        def residual(theta):
            return np.array([theta[0]])

        result = least_squares_fit(residual, [5.0], bounds=([0.0], [1.0]))
        assert result.parameters[0] <= 1.0

    def test_rejects_empty_guess(self):
        with pytest.raises(ValueError):
            least_squares_fit(lambda theta: theta, [])

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            least_squares_fit(lambda theta: theta, [1.0, 2.0], bounds=([0.0], [1.0]))

    def test_as_dict_requires_names(self):
        result = least_squares_fit(lambda theta: theta, [1.0])
        with pytest.raises(ValueError):
            result.as_dict()


def batch_wrap(residual_one):
    """Adapt a single-point residual to the batched-callback signature."""

    def residual_batch(points, start_indices):
        return [residual_one(point) for point in points]

    return residual_batch


class TestMultiStartLeastSquares:
    def test_converges_on_exponential_fit(self):
        x = np.linspace(0.0, 3.0, 25)
        target = 1.3 * np.exp(-0.7 * x)

        def residual(theta):
            return theta[0] * np.exp(-theta[1] * x) - target

        result = multi_start_least_squares(
            batch_wrap(residual),
            [[0.5, 0.1], [2.0, 2.0]],
            bounds=([0.0, 0.0], [5.0, 5.0]),
            names=("a", "b"),
        )
        assert result.best.parameters == pytest.approx([1.3, 0.7], abs=1e-8)
        assert result.best.as_dict()["a"] == pytest.approx(1.3, abs=1e-8)
        assert result.best.loss < 1e-16
        assert result.converged.all()
        assert result.start_losses.shape == (2,)

    def test_matches_scipy_least_squares(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 10.0, 40)
        y = 3.0 * x - 2.0 + rng.normal(0.0, 0.01, x.size)

        def residual(theta):
            return theta[0] * x + theta[1] - y

        ours = multi_start_least_squares(batch_wrap(residual), [[1.0, 0.0]])
        scipy_fit = least_squares_fit(residual, [1.0, 0.0])
        assert ours.best.parameters == pytest.approx(scipy_fit.parameters, abs=1e-7)
        assert ours.best.loss == pytest.approx(scipy_fit.loss, rel=1e-9)

    def test_multi_start_escapes_bad_basin(self):
        # loss has a local minimum near theta=0 and the global one at theta=3;
        # only the start seeded in the right basin finds it.
        def residual(theta):
            t = theta[0]
            return np.array([t * (t - 2.0) * (t - 3.0), 0.1 * (t - 3.0)])

        result = multi_start_least_squares(
            batch_wrap(residual), [[0.1], [2.8]], bounds=([-1.0], [4.0])
        )
        assert result.best.parameters[0] == pytest.approx(3.0, abs=1e-6)
        assert result.best_start == 1
        # The other start stayed in its own basin but still improved.
        assert result.start_losses[0] <= np.inf

    def test_bounds_are_respected(self):
        def residual(theta):
            return np.array([theta[0] - 10.0])

        result = multi_start_least_squares(
            batch_wrap(residual), [[0.5]], bounds=([0.0], [1.0])
        )
        assert result.best.parameters[0] == pytest.approx(1.0)

    def test_never_worsens_the_seed_loss(self):
        def residual(theta):
            return np.array([np.exp(theta[0]) - 1.0, theta[1] ** 2])

        seeds = np.array([[0.3, -0.4], [1.0, 1.0]])
        result = multi_start_least_squares(batch_wrap(residual), seeds)
        for row, seed in enumerate(seeds):
            seed_loss = sum_of_squares(residual(seed))
            assert result.start_losses[row] <= seed_loss + 1e-15

    def test_start_indices_passed_through(self):
        seen = []

        def residual_batch(points, start_indices):
            seen.append(np.asarray(start_indices).copy())
            return [np.array([point[0] - start]) for point, start in zip(points, start_indices)]

        result = multi_start_least_squares(residual_batch, [[5.0], [5.0]], max_iterations=8)
        # Each start converges to its own index because the residual depends
        # on the per-start context passed via start_indices.
        assert result.start_parameters[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert result.start_parameters[1, 0] == pytest.approx(1.0, abs=1e-8)
        assert all(len(indices) > 0 for indices in seen)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            multi_start_least_squares(batch_wrap(lambda t: t), np.empty((0, 2)))

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            multi_start_least_squares(
                batch_wrap(lambda t: t), [[1.0, 2.0]], bounds=([0.0], [1.0])
            )

    def test_rejects_wrong_result_count(self):
        def bad_batch(points, start_indices):
            return [np.zeros(2)]

        with pytest.raises(ValueError):
            multi_start_least_squares(bad_batch, [[1.0], [2.0]])

    def test_all_nan_residuals_raise(self):
        def nan_batch(points, start_indices):
            return [np.full(3, np.nan) for _ in points]

        with pytest.raises(RuntimeError):
            multi_start_least_squares(nan_batch, [[1.0]])

    def test_stalled_start_is_not_counted_as_converged(self):
        # The loss is lowest exactly at the seed and jumps everywhere else, so
        # the forward-difference gradient stays large while every damped step
        # is rejected: damping runs out without an accepted step.
        seed = 1.0

        def residual(theta):
            return np.array([1.0 if theta[0] == seed else 2.0])

        result = multi_start_least_squares(batch_wrap(residual), [[seed]])
        assert result.stalled.tolist() == [True]
        assert result.converged.tolist() == [False]
        assert result.hit_iteration_cap.tolist() == [False]
        assert result.best.success is False
        assert result.iterations == 1
        # Stopping early leaves the start at its best-known point.
        assert result.best.parameters.tolist() == [seed]
        assert result.best.loss == pytest.approx(0.5)

    def test_stalled_and_converged_starts_are_told_apart(self):
        def residual(theta):
            if theta[0] < 0.0:
                return np.array([1.0 if theta[0] == -1.0 else 2.0])
            return np.array([theta[0] - 2.0])

        result = multi_start_least_squares(batch_wrap(residual), [[-1.0], [0.5]])
        assert result.stalled.tolist() == [True, False]
        assert result.converged.tolist() == [False, True]
        assert result.best_start == 1
        assert result.best.success is True

    def test_iteration_cap_is_reported(self):
        x = np.linspace(0.0, 3.0, 25)
        target = 1.3 * np.exp(-0.7 * x)

        def residual(theta):
            return theta[0] * np.exp(-theta[1] * x) - target

        result = multi_start_least_squares(
            batch_wrap(residual), [[0.5, 0.1], [2.0, 2.0]], max_iterations=2
        )
        assert result.iterations == 2
        assert result.hit_iteration_cap.tolist() == [True, True]
        assert not result.converged.any()
        assert not result.stalled.any()
        assert result.best.success is False


class TestGridSearch:
    def test_finds_minimum_of_quadratic(self):
        def objective(theta):
            return (theta[0] - 2.0) ** 2 + (theta[1] + 1.0) ** 2

        result = grid_search(
            objective,
            {"a": np.linspace(-3, 3, 13), "b": np.linspace(-3, 3, 13)},
        )
        assert result.success
        assert result.parameters[0] == pytest.approx(2.0)
        assert result.parameters[1] == pytest.approx(-1.0)
        assert result.n_evaluations == 169

    def test_result_as_dict(self):
        result = grid_search(lambda theta: theta[0] ** 2, {"x": [-1.0, 0.0, 1.0]})
        assert result.as_dict() == {"x": 0.0}

    def test_handles_all_nan_objective(self):
        result = grid_search(lambda theta: float("nan"), {"x": [0.0, 1.0]})
        assert not result.success
        assert result.loss == np.inf

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            grid_search(lambda theta: 0.0, {})
        with pytest.raises(ValueError):
            grid_search(lambda theta: 0.0, {"x": []})


class TestFitResult:
    def test_dataclass_roundtrip(self):
        result = FitResult(
            parameters=np.array([1.0, 2.0]),
            loss=0.5,
            success=True,
            n_evaluations=10,
            message="ok",
            names=("a", "b"),
        )
        assert result.as_dict() == {"a": 1.0, "b": 2.0}
        assert result.loss == 0.5
