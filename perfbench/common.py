"""Inputs shared by the benchmark process and the daemons it starts."""

from __future__ import annotations


def explicit_parameters():
    """The DL parameters set on the daemons of the no-calibration workloads.

    The paper's hand-chosen story-s1 growth rate (Equation 7: a = 1.4,
    b = 1.5, c = 0.25) with a carrying capacity above the generator's
    30 % peak density.
    """
    from repro.core.parameters import DLParameters, ExponentialDecayGrowthRate

    return DLParameters(
        diffusion_rate=0.02,
        growth_rate=ExponentialDecayGrowthRate(amplitude=1.4, decay=1.5, floor=0.25),
        carrying_capacity=32.0,
    )
