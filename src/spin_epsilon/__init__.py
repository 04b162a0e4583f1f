"""Classical and quantum minimal predictive models of the 1D Ising spin chain.

The package derives the exact single-step spin statistics of the infinite
nearest-neighbour Ising chain from its transfer matrix, embodies the
two-state epsilon-machine built on those statistics, constructs the optimal
quantum model whose memory states saturate the classical fidelity bound,
simulates the quantum sampling circuit exactly, and cross-checks everything
against a brute-force Boltzmann enumeration of finite spin rings.
"""

from .ising import IsingParams, TransitionMatrix, transition_matrix
from .distribution import FutureDistribution, entropy_bits, symbols_to_line
from .classical import (
    EpsilonMachine,
    classical_fidelity,
    future_distribution,
    sample_trajectory,
    statistical_complexity,
)
from .quantum import (
    ChainStatistics,
    QuantumModel,
    TmaxResult,
    build_quantum_model,
    complexity,
    fidelity_saturation_check,
    find_tmax,
    mixture_eigenvalues,
    quantum_statistical_complexity,
    stationary_density,
)
from .circuit import (
    StepUnitaries,
    assert_synchronization,
    branch_layers,
    build_step_unitaries,
    exact_output_distribution,
    sample_quantum_trajectory,
)
from .ring import (
    RingEnsemble,
    conditional_from_ring,
    enumerate_ring,
    extrapolated_conditional,
    magnetization,
    markov_gap,
    site_marginals,
)
from .sweep import SweepRow, compute_row, run_sweep, temperature_grid
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "IsingParams",
    "TransitionMatrix",
    "transition_matrix",
    "FutureDistribution",
    "entropy_bits",
    "symbols_to_line",
    "EpsilonMachine",
    "statistical_complexity",
    "future_distribution",
    "classical_fidelity",
    "sample_trajectory",
    "QuantumModel",
    "build_quantum_model",
    "stationary_density",
    "quantum_statistical_complexity",
    "mixture_eigenvalues",
    "ChainStatistics",
    "complexity",
    "fidelity_saturation_check",
    "find_tmax",
    "TmaxResult",
    "StepUnitaries",
    "build_step_unitaries",
    "branch_layers",
    "exact_output_distribution",
    "assert_synchronization",
    "sample_quantum_trajectory",
    "RingEnsemble",
    "enumerate_ring",
    "site_marginals",
    "magnetization",
    "conditional_from_ring",
    "extrapolated_conditional",
    "markov_gap",
    "SweepRow",
    "compute_row",
    "run_sweep",
    "temperature_grid",
    "run_verification",
    "__version__",
]
