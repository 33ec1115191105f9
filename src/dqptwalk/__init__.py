"""Split-step quantum walk quench toolkit.

Simulates sudden parameter quenches of one-dimensional two-band walks
(unitary, mixed-state, and lossy PT-symmetric variants), locates the
nonanalyticities of the return-rate function, tracks the quantized winding of
the Pancharatnam phase, and replays the interferometric measurement with its
full instrument-noise budget.
"""
from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    DqptWalkError,
    IllDefinedPhaseError,
    InsufficientResolutionError,
    InvalidInitialProtocolError,
    PhysicsError,
    PTBrokenError,
    TopologicalBoundaryError,
    TrivialQuenchError,
    UndefinedDynamicPhaseError,
    UnresolvedPhaseJumpError,
)
from .lattice import (
    CoinAngles,
    MomentumGrid,
    TimeGrid,
    coin_matrix,
    normalize_angle,
)
from .floquet import (
    PhaseDiagram,
    eigensystem_arrays,
    phase_diagram_scan,
    pt_classify,
    winding_global_berry,
    winding_unitary,
)
from .quench import (
    InitialState,
    LoschmidtField,
    QuenchSpec,
    SectorTable,
    evolve_position,
    initial_state,
    loschmidt_field,
    overlaps,
)
from .analysis import (
    CriticalSet,
    DqptReport,
    DtopTrace,
    FixedPointSet,
    RateTrace,
    analysis_report,
    detect_dqpt,
    dtop,
    dtop_trace,
    dynamic_phase,
    find_critical,
    find_fixed_points,
    rate_function,
)
from .measurement import (
    ErrorBarResult,
    ErrorModel,
    monte_carlo_errorbars,
    perturb_protocol,
    poisson_counts,
    reconstruct_pbar,
)

__version__ = "0.1.0"
