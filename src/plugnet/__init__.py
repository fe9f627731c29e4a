"""Plug-and-play output consensus for passive heterogeneous networks.

Certify locally verifiable interface conditions when nodes or whole
subnetworks join a diffusively coupled network, and simulate the coupled
dynamics under noise to observe the consensus they guarantee.
"""

from .certificates import (
    BoundaryCheck,
    CertificateProblem,
    CertificateReport,
    GershgorinResult,
    PassivityIndices,
    SectorBounds,
    certificate_matrix,
    certify_fixed_network,
    certify_network_plug,
    certify_single_node_plug,
    check_edge_condition,
    compute_gamma_single,
    gershgorin_pd_check,
    intra_edge_margins,
    pd_oracle,
)
from .errors import (
    AssumptionViolation,
    DegenerateInput,
    EstimatorError,
    GraphError,
    PlugnetError,
    RealizationError,
    ScenarioError,
    SimulationDiverged,
    TableError,
    UnsolvableIndex,
)
from .graph import (
    Graph,
    PlugPlan,
    check_assumption_1,
    compose,
    incidence,
    is_connected,
)
from .metrics import (
    ConsensusEstimate,
    analytic_gain_bound,
    disagreement,
    estimate_io_gain,
    fit_gain_offset,
    truncated_norm,
)
from .passivity import (
    IfpIndex,
    LtiSystem,
    SectorCheck,
    SectorCoupling,
    estimate_ifp_index,
    evaluate_coupling,
    ifp_indices,
    linear_gain,
    polynomial_response,
    realize,
    realize_many,
    saturated_sine,
    saturated_sine_smooth,
    tabulated,
    verify_sector,
)
from .scenario import (
    NodeSpec,
    PlugEntry,
    ScenarioDocument,
    paper_example,
    parse_scenario,
    parse_scenario_dict,
    write_scenario,
)
from .sim import (
    NoiseSpec,
    PlugEvent,
    Scenario,
    SolverConfig,
    TrajectoryRecord,
    noise_stream,
    run,
    step,
    topology_phases,
)

__version__ = "0.1.0"
