"""Simulation and numerical analysis of a quantum-aided weak broadcast
protocol built on four-qubit singlet states."""

from .analytics import (
    BoundKind,
    FailureReport,
    failure_reports,
    pf_bruteforce,
    pf_no_faulty_exact,
    pf_R_bounds,
    pf_S_bounds,
)
from .adversary import (
    StrategyR,
    StrategyS,
    best_failure_probability_bruteforce,
    zeta_R,
    zeta_S,
)
from .metrics import (
    BitstringDistribution,
    DensityMatrix16,
    classical_fidelity,
    ingest_counts,
    ingest_density_matrix,
    quantum_fidelity_pure_target,
)
from .montecarlo import MonteCarloResult, estimate_pf
from .optimizer import NOT_FOUND, OUTSIDE_REGION, GridSpec, grid_search, m_min_upper
from .protocol import (
    ABORT,
    AdversaryConfig,
    Outcome,
    OutOfDomainError,
    ParameterError,
    ProtocolParams,
    Transcript,
    classify_broadcast,
    classify_weak_broadcast,
    run_protocol,
)
from .security import (
    chernoff_no_faulty,
    chernoff_R,
    chernoff_S,
    in_guaranteed_region,
    lambda_threshold,
)
from .source import (
    OUTCOME_PROBS,
    OUTCOMES,
    Event,
    GlobalCountList,
    LocalCountListR,
    LocalCountListS,
    global_counts,
    ideal_distribution,
    project_S,
    sample_event,
    substream,
)

__version__ = "0.1.0"
