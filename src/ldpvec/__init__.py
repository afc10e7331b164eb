"""Locally differentially private aggregation of sparse ternary vectors.

Randomizers (single-hash collision, paired-bucket CoCo, baselines),
server-side estimation with simplex-projection post-processing, an exact
small-instance verification oracle, and a tight shuffle-model privacy
amplification accountant.
"""

from .aggregate import (
    FrequencyEstimate,
    MeanEstimate,
    aggregate_frequencies,
    mae,
    mean_estimate,
    project_to_simplex,
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
from .baselines import BaselineParams
from .coco import (
    CocoWeights,
    CollisionRates,
    coco_choose_t,
    coco_mean_contribution,
    coco_nonmissing_contribution,
    coco_params,
    coco_predicted_mse,
    coco_randomize,
    collision_rates,
)
from .collision import (
    CollisionParams,
    collision_indicator_estimate,
    collision_optimal_t,
    collision_params,
    collision_randomize,
)
from .domain import (
    EventId,
    MechanismParams,
    PrivateView,
    TernaryVector,
    UserHash,
    discretize_ternary,
    draw_user_hash,
    event_set,
)
from .harness import ExperimentConfig, ReportRow, gen_synthetic, run_amplification_sweep, run_experiment
from .oracle import (
    ExactDistribution,
    MixtureDecomposition,
    enumerate_distribution,
    exact_estimator_moments,
    lower_bound_statistic_distribution,
    mixture_decompose,
    verify_ldp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
