"""Bit-identity oracle for the batched Crank-Nicolson engine.

``reference_solve`` below is the engine's previous step loop, kept verbatim
apart from the freeze log it records: it gathers and scatters every
diffusion group's columns through fancy indexing on each Picard iteration
and resolves the factorizations on every step.  The production engine in
:class:`repro.numerics.backends.InternalBackend` reorders the same
arithmetic (group-contiguous layout, factorizations per distinct ``dt``,
unmasked updates while every column is active), so its outputs must equal
the reference's exactly -- ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest

from repro.core.dl_model import DiffusiveLogisticModel, _build_batch_reaction
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    PAPER_S1_HOP_PARAMETERS,
    DLParameters,
    ExponentialDecayGrowthRate,
)
from repro.numerics import operator_cache
from repro.numerics.finite_difference import second_derivative
from repro.numerics.grid import UniformGrid
from repro.numerics.integrators import CrankNicolsonIntegrator
from repro.numerics.pde_solver import (
    BatchReactionDiffusionProblem,
    ReactionDiffusionSolver,
    validated_output_times,
)

MODES = ("banded", "thomas", "dense")
_TIME_EPS = 1e-12


def reference_step(
    states, time, dt, laplacian, rates, unique_rates, group_columns, reaction,
    nodes, num_points, spacing, tolerance, max_iterations, operator_mode,
    freeze_log=None,
):
    factors = [
        operator_cache.crank_nicolson_operator(
            num_points, spacing, dt, float(rate), operator_mode
        )
        for rate in unique_rates
    ]
    if laplacian is None:
        diffusion_term = second_derivative(states, spacing) * rates[None, :]
    else:
        diffusion_term = (laplacian @ states) * rates[None, :]
    explicit_part = states + 0.5 * dt * diffusion_term
    reaction_old = reaction(states, nodes, time)

    new_states = states.copy()
    candidate = np.empty_like(states)
    active = np.ones(states.shape[1], dtype=bool)
    for iteration in range(max_iterations):
        reaction_new = reaction(new_states, nodes, time + dt)
        rhs = explicit_part + 0.5 * dt * (reaction_old + reaction_new)
        for factor, columns in zip(factors, group_columns):
            candidate[:, columns] = factor.solve(rhs[:, columns])
        change = np.max(np.abs(candidate - new_states), axis=0)
        new_states[:, active] = candidate[:, active]
        if freeze_log is not None:
            freeze_log.append(active & ~(change >= tolerance), iteration)
        active &= change >= tolerance
        if not active.any():
            break
    return new_states


class FreezeLog:
    """Records the Picard iteration at which each column froze, per step."""

    def __init__(self):
        self.iterations = set()

    def append(self, frozen_now, iteration):
        if frozen_now.any():
            self.iterations.add(iteration)


def reference_solve(problem, times, *, operator_mode, max_step, tolerance=1e-10,
                    max_iterations=12, freeze_log=None):
    grid = problem.grid
    num_points = grid.num_points
    spacing = grid.spacing
    nodes = grid.nodes
    laplacian = (
        operator_cache.neumann_laplacian_matrix(num_points, spacing)
        if operator_mode == "dense"
        else None
    )
    rates = problem.diffusion_rates
    unique_rates, group_of_column = np.unique(rates, return_inverse=True)
    group_columns = [np.nonzero(group_of_column == g)[0] for g in range(unique_rates.size)]

    states = problem.initial_states.copy()
    current_time = problem.start_time
    outputs = np.empty((times.size, num_points, problem.batch_size))
    output_index = 0
    while output_index < times.size and abs(times[output_index] - current_time) < _TIME_EPS:
        outputs[output_index] = states
        output_index += 1
    while output_index < times.size:
        target = times[output_index]
        while current_time < target - _TIME_EPS:
            dt = min(max_step, target - current_time)
            states = reference_step(
                states, current_time, dt, laplacian, rates, unique_rates,
                group_columns, problem.reaction, nodes, num_points, spacing,
                tolerance, max_iterations, operator_mode, freeze_log,
            )
            current_time += dt
        outputs[output_index] = states
        output_index += 1
    return outputs


def engine_solve(problem, times, *, operator_mode, max_step):
    solver = ReactionDiffusionSolver(max_step=max_step, operator=operator_mode)
    return solver.solve_batch(problem, times)


def dl_problem(rates, *, num_points=21, seed=0, start_time=1.0):
    """DL problems whose reaction is the one `solve_dl_batch` uses."""
    rng = np.random.default_rng(seed)
    batch = len(rates)
    parameter_sets = [
        DLParameters(
            diffusion_rate=float(rate),
            growth_rate=ExponentialDecayGrowthRate(
                amplitude=rng.uniform(0.0, 4.0),
                decay=rng.uniform(0.0, 3.0),
                floor=rng.uniform(0.0, 0.5),
                reference_time=start_time,
            ),
            carrying_capacity=rng.choice([25.0, 60.0]),
        )
        for rate in rates
    ]
    return BatchReactionDiffusionProblem(
        grid=UniformGrid(1.0, 6.0, num_points),
        initial_states=rng.uniform(0.0, 20.0, (num_points, batch)),
        diffusion_rates=np.asarray(rates, dtype=float),
        reaction=_build_batch_reaction(parameter_sets),
        start_time=start_time,
    )


def assert_bit_identical(problem, times, mode, max_step, freeze_log=None):
    times = validated_output_times(times, problem.start_time)
    expected = reference_solve(
        problem, times, operator_mode=mode, max_step=max_step, freeze_log=freeze_log
    )
    actual = engine_solve(problem, times, operator_mode=mode, max_step=max_step)
    assert np.array_equal(actual.states, expected, equal_nan=True)
    return actual


@pytest.mark.parametrize("mode", MODES)
class TestBitIdentity:
    def test_interleaved_diffusion_groups(self, mode):
        rates = [0.05, 0.01, 0.05, 0.2, 0.01, 0.05, 0.2, 0.01]
        solution = assert_bit_identical(dl_problem(rates), [1.0, 2.0, 3.0], mode, 0.05)
        assert solution.metadata["diffusion_groups"] == 3

    def test_contiguous_groups(self, mode):
        rates = [0.01] * 3 + [0.02] * 4 + [0.1]
        assert_bit_identical(dl_problem(rates, seed=1), [2.0, 4.0], mode, 0.05)

    def test_uneven_final_dt(self, mode):
        # 0.57 / 0.03 and 0.43 / 0.03 are not whole: each output interval
        # ends on a shorter step with its own factorizations.
        rates = [0.02, 0.07, 0.02]
        assert_bit_identical(dl_problem(rates, seed=2), [1.0, 1.57, 2.0], mode, 0.03)

    def test_columns_freeze_at_different_iterations(self, mode):
        rates = [0.01, 0.03, 0.01, 0.03, 0.05, 0.01]
        log = FreezeLog()
        assert_bit_identical(dl_problem(rates, seed=3), [1.0, 2.0], mode, 0.05, log)
        assert len(log.iterations) > 1

    def test_random_mixed_groups(self, mode):
        rng = np.random.default_rng(11)
        rates = rng.choice([0.005, 0.01, 0.02, 0.05, 0.1], size=40)
        assert_bit_identical(
            dl_problem(rates, num_points=41, seed=4), [1.0, 2.0, 2.5], mode, 0.05
        )

    def test_single_column(self, mode):
        assert_bit_identical(dl_problem([0.03], seed=5), [1.0, 3.0], mode, 0.05)


def exploding_problem():
    """Column 1 blows up through inf to NaN; its neighbours stay finite."""
    num_points = 11
    rates = np.array([0.01, 0.01, 0.02, 0.01])
    strength = np.array([0.5, 1e6, 0.5, 0.3])

    def reaction(states, positions, time):
        return strength[None, :] * states * states

    return BatchReactionDiffusionProblem(
        grid=UniformGrid(1.0, 3.0, num_points),
        initial_states=np.full((num_points, rates.size), 1.0),
        diffusion_rates=rates,
        reaction=reaction,
        start_time=1.0,
    )


@pytest.mark.parametrize("mode", ("banded", "thomas"))
def test_blow_up_stays_in_its_column(mode):
    with np.errstate(all="ignore"):
        solution = assert_bit_identical(exploding_problem(), [1.0, 1.2, 1.5], mode, 0.05)
    final = solution.states[-1]
    assert not np.isfinite(final[:, 1]).all()
    assert np.isfinite(final[:, [0, 2, 3]]).all()


def test_blow_up_rejected_alike_by_dense_lu():
    # scipy's lu_solve refuses non-finite right-hand sides; the reference
    # loop and the engine fail the same way.
    times = validated_output_times([1.0, 1.5], 1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_solve(exploding_problem(), times, operator_mode="dense", max_step=0.05)
        with pytest.raises(ValueError, match="infs or NaNs"):
            engine_solve(exploding_problem(), times, operator_mode="dense", max_step=0.05)


class TestPicardCounters:
    def test_single_iteration_cap_reports_nonconverged_steps(self):
        problem = dl_problem([0.01, 0.05, 0.01])
        solver = ReactionDiffusionSolver(
            integrator=CrankNicolsonIntegrator(max_picard_iterations=1), max_step=0.05
        )
        metadata = solver.solve_batch(problem, [1.0, 2.0]).metadata
        assert metadata["steps"] == 20
        assert metadata["picard_iterations"] == 20
        assert metadata["nonconverged_steps"] == 20

    def test_default_settings_converge_every_step(self):
        problem = dl_problem([0.01, 0.05, 0.01])
        metadata = ReactionDiffusionSolver(max_step=0.05).solve_batch(
            problem, [1.0, 2.0]
        ).metadata
        assert metadata["nonconverged_steps"] == 0
        assert metadata["steps"] < metadata["picard_iterations"] <= 12 * metadata["steps"]

    def test_sequential_solve_reports_counters(self):
        phi = InitialDensity(
            distances=np.arange(1.0, 7.0), densities=np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.2])
        )
        solution = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS).solve(phi, [2.0, 6.0])
        metadata = solution.pde_solution.metadata
        assert metadata["nonconverged_steps"] == 0
        assert metadata["picard_iterations"] >= metadata["steps"]
