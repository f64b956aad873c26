"""Quantum speed-limit bounds for unitary gates.

Lower bounds on the time needed to enact a unitary, parameterized only
by the trace modulus of the gate and gross statistics of the generating
energy spectrum, together with the exact minimal-time machinery
(eigenphase branch enumeration) used to verify them.
"""

from .bounds import (
    ML_TRACE_FACTOR,
    BoundSet,
    TraceInput,
    UndefinedBoundError,
    bound_set,
    bounds_from_products,
    ml_product,
    mt_from_deficit,
    mt_product,
)
from .catalog import (
    MubFamily,
    QubitParams,
    QutritMubParams,
    fourier,
    gauss_trace,
    grover,
    hadamard_power,
    mub_trace_cap,
    permutation,
    prior_mub_bound,
    qubit_exact_time,
    qubit_unitary,
    qutrit_mub,
    qutrit_phase_reduce,
)
from .harness import (
    CrossCheckError,
    CurvePoint,
    VerificationReport,
    figure_qubit,
    figure_qubit_mub,
    figure_qutrit,
    run_random_campaign,
)
from .linalg import (
    UNITARY_TOL,
    is_unitary,
    random_unitaries,
    random_unitary,
    square_matrix,
    trace_abs,
    unitarity_error,
)
from .minimal_time import (
    Dominance,
    VerificationRecord,
    dominance,
    dominance_from_phases,
    eigenphases,
    phases_from_levels,
    verify_dominance,
)
from .spectrum import EnergySpectrum, EnergyStats, compute_stats, level_stats

__version__ = "0.1.0"
