"""Joint layer-group and community recovery for mixture multilayer networks.

The estimator alternates exact subproblem solves for an orthonormal layer
factor W and a rank-constrained group core Q so that the adjacency tensor is
approximated by Q x1 W^T; clustering the rows of W groups the layers, and
spectral clustering of each group's aggregated adjacency recovers its
communities. A
regularized Tucker power iteration is included as a baseline, along with a
synthetic generator, evaluation metrics, identifiability diagnostics, and a
reproducible simulation harness.
"""

from .errors import (
    DegenerateIterateError,
    DegenerateSliceError,
    EmptyClusterError,
    EstimationError,
    InvalidPartitionError,
    NonFiniteObjectiveError,
    RankDeficientError,
    RetryExhaustedError,
)
from .tensors import (
    Tensor3,
    mode1_dematricize,
    mode1_matricize,
    mode1_product,
    mode23_product,
    read_tensor,
    write_tensor,
)
from .linalg import EigPairs, polar_project, rank_project, svd_top_left, sym_eig_topk
from .model import (
    GroundTruth,
    MmlsbmInstance,
    assemble_ground_truth,
    build_membership_matrix,
    instance_from_json,
    instance_to_json,
    load_instance,
    planted_connectivity,
    save_instance,
)
from .sampling import (
    as_generator,
    read_edge_list,
    sample_adjacency,
    sample_dataset,
    sample_instance,
    substream,
    write_edge_list,
)
from .clustering import (
    ClusteringResult,
    KmeansResult,
    cluster_factor_pair,
    kmeans,
    within_layer_labels,
)
from .metrics import (
    avg_within_error,
    best_permutation_error,
    confusion_matrix,
    score_result,
    within_layer_error,
)
from .initialization import clustering_to_w, spectral_init
from .solver import FactorPair, alma_fit, objective, q_update, w_update
from .twist import regularize_rows, twist_fit
from .diagnostics import (
    A1Report,
    ConditionNumbers,
    beta_nl,
    check_a1,
    condition_numbers,
    kappa_h,
)
from .harness import (
    ElbowRow,
    RunRecord,
    ScenarioConfig,
    aggregate,
    elbow_scan,
    emit_results,
    fit_method,
    run_scenario,
    run_single,
    scenario_config,
)

__version__ = "0.1.0"
