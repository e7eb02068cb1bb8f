"""Node and layer centrality for undirected multiplex networks.

The package computes a nonlinear coupled eigenvector centrality that scores
nodes and layers simultaneously and is well defined on arbitrary
non-negative multiplex data (no connectivity assumptions), together with
the linear eigenvector baselines it is usually compared against and
ranking-comparison analytics.
"""

__version__ = "0.1.0"

from .baselines import (
    CentralityMatrix,
    PerronResult,
    ScoreResult,
    aggregate_degree_centrality,
    aggregate_eigenvector_centrality,
    global_heterogeneous_centrality,
    layer_eigenvectors,
    layerwise_eigenvector_centrality,
    local_heterogeneous_centrality,
    matrix_perron,
    versatility_centrality,
)
from .errors import (
    DegenerateInputError,
    DimensionError,
    InputError,
    ParameterDomainError,
    ParseError,
    SupportMismatchError,
    ValidationError,
)
from .io import (
    EdgeListDocument,
    parse_multiplex_edges,
    read_scores,
    report_to_dict,
    to_network,
    write_multiplex_edges,
    write_position_table,
    write_scores,
)
from .network import (
    ConnectivityDiagnostics,
    InfluenceMatrix,
    MultiplexNetwork,
    aggregate_matrix,
    build_network,
    connectivity,
    khatri_rao_influence,
    permute,
    supra_adjacency,
)
from .ranking import (
    Ranking,
    SweepEntry,
    SweepResult,
    alpha_sweep,
    intersection_similarity,
    isim_curve,
    pearson,
    rank,
)
from .solver import (
    ContractionData,
    ConvergenceReport,
    IterationBound,
    NodeLayerScores,
    SolverParams,
    contraction_factor,
    contraction_gate_holds,
    eigen_residual,
    hilbert_distance,
    iteration_bound,
    node_layer_centrality,
    normalized_update,
    product_metric,
    raw_update,
)

__all__ = [name for name in dir() if not name.startswith("_")]
