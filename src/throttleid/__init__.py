"""throttleid: sparse identification of throttleable engine dynamics.

A numpy toolkit that learns a history-based MIMO difference model of a
four-engine throttleable propulsion system from trajectories of a
built-in surrogate plant: excitation design, history-feature assembly,
L1-regularized polynomial regression, cross-validated hyperparameter
sweeps, and autoregressive rollout validation.

Importing it sets the OpenBLAS, OpenMP and MKL thread counts to 1 where
they are unset, so artifacts do not depend on the BLAS thread count; a
count already set is kept. An OpenBLAS that numpy loaded first is set to
one thread through its own setter; a BLAS without a known one keeps its count.
"""

import os
import sys


def _pin_openblas_threads() -> None:
    """Call the loaded OpenBLAS's thread-count setter with 1, if one is found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for handle in map(ctypes.CDLL, libs):
        for sym in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym)(1)
                return


if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" in sys.modules:
    _pin_openblas_threads()   # numpy's OpenBLAS has read the environment already
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .excitation import (ExcitationConfig, build_corpus, excitation_basis,
                         excitation_segment, ramp_trace, step_stair_trace,
                         thrust_levels)
from .features import Dataset, assemble, lambda_feature, merge
from .plant import (CommandTrace, PlantConfig, PlantState, PlantTrajectory,
                    PropellantDepletedError, module_mass, simulate, step)
from .pipeline import (PipelineConfig, cmd_gen_data, cmd_sweep, cmd_train,
                       cmd_validate)
from .regression import (BasisSpec, CoefficientModel, ConvergenceError,
                         Standardization, expand, fit_lasso, model_from_json,
                         model_to_json, predict, rmse, soft_threshold)
from .rollout import (RolloutDivergenceError, ValidationReport, descent_profile,
                      error_windows, rollout, teacher_forced_eval)
from .tuning import SweepConfig, SweepReport, pareto_table, sweep_history, sweep_mu

__version__ = "0.1.0"
