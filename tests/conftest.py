"""Shared test helpers: builders for synthetic and surrogate-plant data,
a patch of the usable CPU count, a wait that places two fork-map tasks
in two processes, and the soft-threshold operator of the LASSO oracles."""

import multiprocessing

import numpy as np
import pytest

import throttleid.parallel
from throttleid.excitation import ExcitationConfig
from throttleid.pipeline import PipelineConfig
from throttleid.plant import PlantConfig, PlantTrajectory
from throttleid.regression import BasisSpec
from throttleid.tuning import SweepConfig


def soft_threshold(z, a):
    """Proximal operator of a*|.|: sign(z) * max(|z| - a, 0), the closed
    form of the univariate LASSO that the solver oracles check against."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - a, 0.0)


def usable_cpus(monkeypatch, count):
    """Make the fork map's affinity lookup report `count` usable CPUs."""
    monkeypatch.setattr(throttleid.parallel.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def two_at_once():
    """A wait that the first two callers leave together, or that fails
    after 10 s: two tasks that both call it run in two processes."""
    barrier = multiprocessing.Barrier(2)
    return lambda: barrier.wait(timeout=10)


def reduced_pipeline_config(out_dir: str, seed: int = 0) -> PipelineConfig:
    """A scaled-down configuration that runs every pipeline stage fast."""
    return PipelineConfig(
        plant=PlantConfig(),
        excitation=ExcitationConfig(m_levels=2, duration=6.0),
        history=4,
        basis=BasisSpec(),
        sweep=SweepConfig(n_grid=(3, 4), mu_grid=(1e-4, 1e-2), k=3),
        output_dir=out_dir,
        seed=seed,
    )


def ar2_trajectory(n_samples=9000, seed=11, a1=1.2, a2=-0.5, noise=6.0,
                   dt=0.01) -> PlantTrajectory:
    """Trajectory whose thrust channels follow a known order-2 linear
    difference system driven by white per-sample excitation.

    y_t = a1*y_{t-1} + a2*y_{t-2} + (1-a1-a2)*u_t + noise, unit DC
    gain, per engine independently. White input keeps the lag columns
    well conditioned, so the fitted order is decided by the dynamics
    rather than by shrinkage geometry. Pressure and masses are constant
    so only the thrust rows carry information.
    """
    rng = np.random.default_rng(seed)
    cmd = rng.uniform(260.0, 780.0, size=(n_samples, 4))
    b = 1.0 - a1 - a2
    y = np.zeros((n_samples + 1, 4))
    eps = rng.normal(0.0, noise, size=(n_samples + 1, 4))
    cmd_full = np.vstack([np.full((1, 4), 500.0), cmd])
    y[0] = 500.0
    y[1] = 500.0 if n_samples else y[0]
    for t in range(2, n_samples + 1):
        y[t] = a1 * y[t - 1] + a2 * y[t - 2] + b * cmd_full[t] + eps[t]
    return PlantTrajectory(
        dt=dt, commands=cmd_full, status=np.ones((n_samples + 1, 4)),
        thrusts=y, pressures=np.full(n_samples + 1, 1.8e6),
        m_fuel=np.zeros(n_samples + 1), m_ox=np.zeros(n_samples + 1),
        name="ar2")


@pytest.fixture(scope="session")
def default_plant_cfg():
    return PlantConfig()
