"""Locally differentially private aggregation of sparse ternary vectors.

Randomizers (single-hash collision, paired-bucket CoCo, baselines),
server-side estimation with simplex-projection post-processing, an exact
small-instance verification oracle, and a shuffle-model privacy
amplification accountant, tight for the worst-case counting statistic.

The accountant's names (``amplified_epsilon``, ``AmplificationQuery`` and
the rest of ``amplification``) load on first use, and with them scipy, so
importing the package or the CLI for the estimators never loads scipy.
"""

from .aggregate import (
    aggregate_frequencies,
    mae,
    project_to_simplex,
    target_values,
    tve,
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
    collision_optimal_t,
    collision_params,
    collision_randomize_batch,
)
from .domain import EventId, MechanismParams, TernaryVector, user_hash_seeds
from .harness import ExperimentConfig, ReportRow, gen_synthetic_arrays, run_amplification_sweep, run_experiment
from .oracle import exact_estimator_moments, verify_ldp

# The accountant alone needs scipy.special, about half of a fresh start-up;
# its names are imported from ``amplification`` on first access (PEP 562).
_ACCOUNTANT = ("AmplificationQuery", "DivergenceResult", "amplified_epsilon", "collision_alpha",
               "efmrtt_closed_form", "generic_clone_alpha", "pq_divergence")

__all__ = sorted({name for name in dir() if not name.startswith("_")} | {"amplification", *_ACCOUNTANT})


def __getattr__(name: str):
    if name != "amplification" and name not in _ACCOUNTANT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(".amplification", __name__)
    return module if name == "amplification" else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
