"""throttleid: sparse identification of throttleable engine dynamics.

A numpy toolkit that learns a history-based MIMO difference model of a
four-engine throttleable propulsion system from trajectories of a
built-in surrogate plant: excitation design, history-feature assembly,
L1-regularized polynomial regression, cross-validated hyperparameter
sweeps, and autoregressive rollout validation.

Importing it sets the OpenBLAS, OpenMP and MKL thread counts to 1 where
they are unset, so artifacts do not depend on the BLAS thread count; a
count already set is kept, and numpy imported first keeps its own.
"""

import os

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
