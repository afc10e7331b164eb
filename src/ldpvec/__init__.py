"""Locally differentially private aggregation of sparse ternary vectors.

Randomizers (single-hash collision, paired-bucket CoCo, baselines),
server-side estimation with simplex-projection post-processing, an exact
small-instance verification oracle, and a tight shuffle-model privacy
amplification accountant.
"""

from .aggregate import (
    aggregate_frequencies,
    mae,
    project_to_simplex,
    target_values,
    tve,
)
from .amplification import (
    AmplificationQuery,
    DivergenceResult,
    amplified_epsilon,
    collision_alpha,
    efmrtt_closed_form,
    generic_clone_alpha,
    pq_divergence,
)
from .coco import (
    CollisionRates,
    coco_choose_t,
    coco_params,
    coco_predicted_mse,
    coco_randomize_batch,
    collision_rates,
)
from .collision import (
    CollisionParams,
    collision_optimal_t,
    collision_params,
    collision_randomize_batch,
)
from .domain import EventId, MechanismParams, TernaryVector, user_hash_seeds
from .harness import ExperimentConfig, ReportRow, gen_synthetic_arrays, run_amplification_sweep, run_experiment
from .oracle import exact_estimator_moments, lower_bound_statistic_distribution, verify_ldp

__all__ = [name for name in dir() if not name.startswith("_")]
