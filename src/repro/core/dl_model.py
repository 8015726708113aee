"""The Diffusive Logistic model (Equation 4 of the paper).

``DiffusiveLogisticModel`` combines

* the **growth process** -- logistic growth of the density within a distance
  group, ``r(t) * I * (1 - I / K)``, and
* the **diffusion process** -- Fick's-law spreading of information across
  distance groups, ``d * d2I/dx2`` with no-flux (Neumann) boundaries,

and integrates the resulting PDE forward from the initial density function
phi using the method-of-lines solver in :mod:`repro.numerics.pde_solver`.

The solution is returned as a :class:`DLSolution`, which can be sampled at the
integer distances where densities are actually meaningful in a social
network, and converted to a :class:`~repro.cascade.density.DensitySurface`
for direct comparison against observations.

Besides the one-at-a-time :class:`DiffusiveLogisticModel`,
:func:`solve_dl_batch` advances many (parameters, phi) pairs together through
the batched solver engine -- the workhorse behind batched calibration
(:func:`repro.core.calibration.calibrate_dl_model`) and multi-story
prediction (:class:`repro.core.prediction.BatchPredictor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cascade.density import DensitySurface
from repro.core.initial_density import InitialDensity
from repro.core.parameters import (
    ConstantGrowthRate,
    DLParameters,
    ExponentialDecayGrowthRate,
)
from repro.numerics.grid import UniformGrid
from repro.numerics.integrators import TimeIntegrator
from repro.numerics.pde_solver import (
    BatchReactionDiffusionProblem,
    PDESolution,
    ReactionDiffusionProblem,
    ReactionDiffusionSolver,
)


@dataclass
class DLSolution:
    """A solved DL model: dense PDE solution plus the modelling context.

    Attributes
    ----------
    pde_solution:
        The underlying dense-in-space solution.
    parameters:
        The DL parameters used.
    initial_density:
        The phi the solve started from.
    """

    pde_solution: PDESolution
    parameters: DLParameters
    initial_density: InitialDensity

    @property
    def times(self) -> np.ndarray:
        """Output times of the solve."""
        return self.pde_solution.times.copy()

    @property
    def grid(self) -> UniformGrid:
        """The spatial grid the PDE was solved on."""
        return self.pde_solution.grid

    def density_at(self, distance: float, time: float) -> float:
        """Predicted density at one (distance, time) pair."""
        return float(self.pde_solution.sample([distance], time)[0])

    def profile(self, time: float, distances: "np.ndarray | None" = None) -> np.ndarray:
        """Predicted density over distance at one output time.

        ``distances`` defaults to the observation distances of phi (the
        integer distances where density is meaningful).
        """
        if distances is None:
            distances = self.initial_density.distances
        return self.pde_solution.sample(np.asarray(distances, dtype=float), time)

    def to_surface(self, distances: "np.ndarray | None" = None, unit: str = "percent") -> DensitySurface:
        """Sample the solution at integer distances into a DensitySurface."""
        if distances is None:
            distances = self.initial_density.distances
        distances = np.asarray(distances, dtype=float)
        values = self.pde_solution.sample_surface(distances)
        return DensitySurface(
            distances=distances,
            times=self.pde_solution.times.copy(),
            values=np.maximum(values, 0.0),
            group_sizes=np.ones(distances.size),
            unit=unit,
            metadata={"source": "dl_model_prediction"},
        )


class DiffusiveLogisticModel:
    """The paper's PDE model for spatio-temporal information diffusion.

    Parameters
    ----------
    parameters:
        The DL parameters (d, r, K).
    points_per_unit:
        Spatial resolution of the solve: grid intervals per unit of distance.
    integrator:
        Optional time integrator; defaults to Crank-Nicolson.
    max_step:
        Maximum internal time step in hours.
    backend:
        ``"internal"``, ``"thomas"`` or ``"scipy"`` (see
        :class:`~repro.numerics.pde_solver.ReactionDiffusionSolver`).
    operator:
        Crank-Nicolson operator factorization mode (``"auto"``, ``"banded"``,
        ``"thomas"`` or ``"dense"``), forwarded to the solver.
    """

    def __init__(
        self,
        parameters: DLParameters,
        points_per_unit: int = 20,
        integrator: "TimeIntegrator | None" = None,
        max_step: float = 0.02,
        backend: str = "internal",
        operator: str = "auto",
    ) -> None:
        if points_per_unit < 2:
            raise ValueError("points_per_unit must be at least 2")
        self._parameters = parameters
        self._points_per_unit = points_per_unit
        self._solver = ReactionDiffusionSolver(
            integrator=integrator, max_step=max_step, backend=backend, operator=operator
        )

    @property
    def parameters(self) -> DLParameters:
        """The DL parameters."""
        return self._parameters

    @property
    def solver(self) -> ReactionDiffusionSolver:
        """The underlying reaction-diffusion solver."""
        return self._solver

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def build_problem(
        self, initial_density: InitialDensity, grid: "UniformGrid | None" = None
    ) -> ReactionDiffusionProblem:
        """Assemble the reaction-diffusion problem for a given phi."""
        grid = grid if grid is not None else initial_density.default_grid(self._points_per_unit)
        parameters = self._parameters

        def reaction(density: np.ndarray, positions: np.ndarray, time: float) -> np.ndarray:
            return parameters.reaction(density, positions, time)

        return ReactionDiffusionProblem(
            grid=grid,
            initial_condition=initial_density.sample(grid),
            diffusion=parameters.diffusion_rate,
            reaction=reaction,
            start_time=initial_density.initial_time,
        )

    def solve(
        self,
        initial_density: InitialDensity,
        times: "np.ndarray | list[float]",
        grid: "UniformGrid | None" = None,
    ) -> DLSolution:
        """Integrate the DL equation from phi and sample it at ``times``.

        ``times`` may or may not include the initial time; it is always added
        so the returned solution contains the initial profile as well.
        """
        times = sorted(set(float(t) for t in times) | {initial_density.initial_time})
        problem = self.build_problem(initial_density, grid)
        pde_solution = self._solver.solve(problem, times)
        return DLSolution(
            pde_solution=pde_solution,
            parameters=self._parameters,
            initial_density=initial_density,
        )

    def predict(
        self,
        initial_density: InitialDensity,
        times: "np.ndarray | list[float]",
        distances: "np.ndarray | list[float] | None" = None,
    ) -> DensitySurface:
        """Convenience wrapper: solve and sample at integer distances.

        Returns a :class:`DensitySurface` whose rows are the requested times
        (plus the initial time) and whose columns are ``distances``
        (defaulting to phi's observation distances).
        """
        solution = self.solve(initial_density, times)
        return solution.to_surface(distances)


# ---------------------------------------------------------------------- #
# Batched solving
# ---------------------------------------------------------------------- #
_SPATIALLY_UNIFORM_RATES = (ConstantGrowthRate, ExponentialDecayGrowthRate)


def _spread_like(states: np.ndarray, row: "Sequence[float] | np.ndarray") -> np.ndarray:
    """A matrix shaped and laid out like ``states`` whose rows all equal ``row``."""
    matrix = np.empty_like(states)
    matrix[...] = row
    return matrix


def _build_batch_reaction(parameter_sets: "Sequence[DLParameters]"):
    """Vectorised logistic reaction ``r_j(t) * U_j * (1 - U_j / K_j)``.

    When every growth rate is spatially uniform (the paper's setting) the
    per-column rates collapse to one scalar per column and the whole reaction
    is a single elementwise expression.  Those rates depend on the time
    only, so they are evaluated once per distinct time: a Crank-Nicolson
    step evaluates the reaction at its start time once and at its end time
    on every Picard iteration, so the two latest times are kept.  Rates and
    capacities are spread to full matrices shaped and laid out like the
    state, which multiply faster than broadcast rows.  Otherwise each
    column's rate profile is evaluated separately (still one call per step,
    not per solve).
    """
    capacities = np.asarray([p.carrying_capacity for p in parameter_sets])
    if all(isinstance(p.growth_rate, _SPATIALLY_UNIFORM_RATES) for p in parameter_sets):
        growth_rates = [p.growth_rate for p in parameter_sets]
        rates_at: "dict[float, np.ndarray]" = {}
        limits: "list[np.ndarray]" = []

        def reaction(states: np.ndarray, positions: np.ndarray, time: float) -> np.ndarray:
            rates = rates_at.get(time)
            if rates is None:
                if len(rates_at) > 1:
                    del rates_at[next(iter(rates_at))]
                rates = rates_at[time] = _spread_like(
                    states, [rate.at_time(time) for rate in growth_rates]
                )
            if not limits:
                limits.append(_spread_like(states, capacities))
            return rates * states * (1.0 - states / limits[0])

        return reaction

    def reaction(states: np.ndarray, positions: np.ndarray, time: float) -> np.ndarray:
        out = np.empty_like(states)
        for j, parameters in enumerate(parameter_sets):
            out[:, j] = parameters.reaction(states[:, j], positions, time)
        return out

    return reaction


def solve_dl_batch(
    parameter_sets: "Sequence[DLParameters] | DLParameters",
    initial_densities: "Sequence[InitialDensity] | InitialDensity",
    times: "np.ndarray | list[float]",
    points_per_unit: int = 20,
    max_step: float = 0.02,
    backend: str = "internal",
    operator: str = "auto",
    grid: "UniformGrid | None" = None,
) -> "list[DLSolution]":
    """Solve many DL problems in one batched PDE solve.

    Either argument may be a single object, which is broadcast against the
    other: one phi with N parameter candidates (calibration), N phis with one
    parameter set (multi-story prediction with shared parameters), or
    matching-length sequences of both.

    All members must share the spatial setup -- the same distance interval
    and the same initial time -- because the batch advances as columns of one
    state matrix on one grid.  Callers with heterogeneous stories should
    group them (as :class:`repro.core.prediction.BatchPredictor` does) and
    make one call per group.

    Returns one :class:`DLSolution` per member, in order, numerically
    matching what :meth:`DiffusiveLogisticModel.solve` produces one at a
    time (the batched engine steps identically, per column).
    """
    if isinstance(parameter_sets, DLParameters):
        parameter_sets = [parameter_sets]
    else:
        parameter_sets = list(parameter_sets)
    if isinstance(initial_densities, InitialDensity):
        initial_densities = [initial_densities]
    else:
        initial_densities = list(initial_densities)
    if not parameter_sets or not initial_densities:
        raise ValueError("at least one parameter set and one initial density are required")
    if len(parameter_sets) == 1 and len(initial_densities) > 1:
        parameter_sets = parameter_sets * len(initial_densities)
    if len(initial_densities) == 1 and len(parameter_sets) > 1:
        initial_densities = initial_densities * len(parameter_sets)
    if len(parameter_sets) != len(initial_densities):
        raise ValueError(
            f"cannot broadcast {len(parameter_sets)} parameter sets against "
            f"{len(initial_densities)} initial densities"
        )

    reference = initial_densities[0]
    for phi in initial_densities[1:]:
        if (
            phi.lower != reference.lower
            or phi.upper != reference.upper
            or phi.initial_time != reference.initial_time
        ):
            raise ValueError(
                "all initial densities in a batch must share the same distance "
                f"interval and initial time; got [{phi.lower}, {phi.upper}] at "
                f"t={phi.initial_time} vs [{reference.lower}, {reference.upper}] "
                f"at t={reference.initial_time}"
            )

    grid = grid if grid is not None else reference.default_grid(points_per_unit)
    times = sorted(set(float(t) for t in times) | {reference.initial_time})
    initial_states = np.column_stack([phi.sample(grid) for phi in initial_densities])
    diffusion_rates = np.asarray([p.diffusion_rate for p in parameter_sets])

    problem = BatchReactionDiffusionProblem(
        grid=grid,
        initial_states=initial_states,
        diffusion_rates=diffusion_rates,
        reaction=_build_batch_reaction(parameter_sets),
        start_time=reference.initial_time,
        # Per-column reactions keep non-batched backends (e.g. scipy) at
        # O(batch) instead of O(batch^2) when they fall back to sequential
        # column solves.
        column_reactions=[p.reaction for p in parameter_sets],
    )
    solver = ReactionDiffusionSolver(max_step=max_step, backend=backend, operator=operator)
    batch_solution = solver.solve_batch(problem, times)
    return [
        DLSolution(
            pde_solution=batch_solution.column(j),
            parameters=parameter_sets[j],
            initial_density=initial_densities[j],
        )
        for j in range(len(parameter_sets))
    ]
