"""Multiclass many-server Markov queues in the Halfin-Whitt regime.

A pool of ceil(r + a*sqrt(r)) identical servers serves several Poisson
customer classes under any non-idling policy; this package simulates such
systems exactly, solves small instances to numerical stationarity, and
verifies the drift identities, generator identities, sample-path couplings,
and Poisson tail bounds that govern their steady-state behavior.
"""

from .errors import (
    CycleTimeout,
    EmptySource,
    HypothesisViolated,
    InsufficientMemory,
    InvalidRate,
    NonUnitLoad,
    NotConverged,
    OrderingViolation,
    Reducible,
    SchemaError,
    ThetaOutOfRange,
    TruncationTooSmall,
    Unsupported,
)
from .model import (
    ClassParams,
    MacroState,
    SystemConfig,
    build_config,
    nominal_utilization,
)
from .policy import FIFO, KINDS, NONPREEMPTIVE, PREEMPTIVE, init_state
from .simulate import (
    RngStream,
    StationaryEstimate,
    jumps,
    regenerative_estimate,
)
from .coupling import (
    InfServerChain,
    MonotoneChain,
    run_infserver_coupled,
    run_monotone_coupled,
)
from .exact import (
    build_generator,
    enumerate_states,
    negpart_square_mgf,
    poisson_bound_scan,
    poisson_pmf,
    scaled_poisson_mgf,
    stationary,
)
from .verify import (
    FunctionalSpec,
    drift_bounds_abandon_check,
    drift_identity_check,
    generator_identity_check,
    lyapunov_pointwise_check,
    sweep,
)

__version__ = "0.1.0"
