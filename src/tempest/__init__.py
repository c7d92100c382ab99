"""SIS epidemics over aggregated-Markovian time-varying networks.

Builds dynamic graph models whose links switch through aggregated Markov
processes, evaluates almost-sure exponential-stability certificates (both
the exponential-size exact condition and the linear-size spectral
thresholds), and validates them against exact stochastic simulation.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    AMAI,
    AMEI,
    DynamicGraphModel,
    EdgeProcessModel,
    EdgeTable,
    MeanMatrix,
    arcs,
    build_coxian_edge,
    build_edge_markovian,
    build_static_edge,
    graph_complete_edge_markovian,
    graph_er_iv,
    graph_from_json,
    graph_small_world,
    graph_to_json,
    mean_matrix,
    sample_graph_path,
)
from .markov import CT, DT, MarkovChainSpec, stationary_distribution  # noqa: F401
from .oracle import (  # noqa: F401
    RandomMatrixSampler,
    assemble_exponential_generator,
    chung_tail_check,
    enumerate_subgraphs,
    expected_certificate,
    exponential_condition,
    pi_matrix,
    sample_certificate_matrix,
)
from .simulate import (  # noqa: F401
    SimulationTrace,
    decay_rate_estimate,
    empirical_threshold,
    propagate_linear,
    simulate_ct_exact,
    simulate_dt_exact,
)
from .spectral import (  # noqa: F401
    KappaParams,
    c_minus,
    kappa,
    kappa_inv_at_one,
    matrix_measure,
    maximize_on_interval,
    power_iteration_abscissa,
    spectral_abscissa,
)
from .thresholds import (  # noqa: F401
    EpidemicParams,
    ThresholdReport,
    certify,
    certify_amai_ct,
    certify_amei_ct,
    certify_amei_dt,
    certify_homogeneous,
    threshold_in_beta,
    xi_h_factor,
)
