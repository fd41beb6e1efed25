"""Active learning by parameter-noise stability.

Perturb the trained model's parameters with K shared random directions, embed
each unlabeled example by its scaled output deviations, and select a diverse
high-deviation batch with greedy k-center. Ships with baselines (random,
entropy, coreset, BADGE, MC-dropout BALD), a statistical verification suite
for the projected-gradient properties of the embedding, and a reproducible
experiment runner.
"""

__version__ = "0.1.0"

from .baselines import (bald_scores, select_bald_mcdropout, select_badge,
                        select_coreset, select_entropy, select_random)
from .data import (Dataset, gen_blobs, gen_linear_regression, gen_two_moons,
                   load_csv_tabular, load_idx, split, standardize)
from .loop import (STRATEGIES, CycleReport, ExperimentConfig, PoolState,
                   aggregate_runs, evaluate, run_active_learning, run_single_seed)
from .nn import (MlpModel, TrainConfig, apply_perturbation, build_mlp,
                 flatten_params, forward, jacobian, remove_perturbation, train)
from .selection import (SelectionRequest, greedy_k_center, k_center_normalized,
                        kmeans_pp, select, top_magnitude)
from .stability import (NoiseConfig, PerturbationSet, embedding,
                        pool_embeddings, sample_directions)
from .theory import (CheckReport, check_distance_equivalence,
                     check_inner_product_equivalence, check_jacobian_norm,
                     check_second_moment, concentration_trial,
                     sampling_efficiency_sweep)
