"""Remote state creation through homogeneous spin-1/2 XY chains.

The package simulates how an arbitrary one-excitation state prepared on the
first two nodes of a homogeneous chain shows up on the last node, and how a
unitary acting on the last two nodes (the extended receiver) enlarges the
set of receiver states that can be created remotely.  The workhorse is the
2x2 matrix of transition amplitudes from the sender pair to the receiver
pair: its singular value decomposition yields the optimal sender state, the
optimal receiver-side unitary and the maximal transfer probability in one
step.
"""

from .chain import (
    Coupling,
    CouplingModel,
    SpectralDecomposition,
    build_hamiltonian,
    chain_decomposition,
)
from .errors import (
    DegenerateProtocolError,
    EigensolverError,
    MaximumNotFoundError,
    SpinRscError,
)
from .optimize import (
    CriticalLength,
    OptimalProtocol,
    SweepModel,
    SweepRow,
    critical_length,
    lam_plus_sq,
    maximize_over_time,
    optimal_protocol,
    row_norm_sq,
    sweep,
)
from .oracle import (
    TransferMode,
    full_transition_amplitude,
    sample_max_transfer,
)
from .propagate import (
    amplitude_matrix,
    transition_amplitude,
)
from .rsc import (
    ControlParams,
    CoverageReport,
    CreatableParams,
    RegionGrid,
    beta2_coverage,
    create_state,
    receiver_from_params,
    region_grid,
)

__version__ = "0.1.0"
