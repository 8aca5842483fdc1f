"""bellmix: duty-cycled two-photon mixed-state source simulation and tomography.

Generate mixtures of the Bell states with controllable weight, simulate the
nine-setting, 36-outcome polarization tomography with Poisson counting,
reconstruct states by maximum-likelihood estimation, and evaluate purity,
tangle, visibility, and fidelity with bootstrap error bars.
"""

from .counting import (
    AcquisitionConfig,
    derive_seed,
    simulate_counts,
    visibility_scan,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigen,
    matrix_sqrt,
    nearest_physical,
)
from .metrics import (
    MetricsReport,
    family_purity,
    family_tangle,
    family_visibility,
    fidelity,
    purity,
    report_for,
    tangle,
    visibility,
)
from .optics import (
    ProjectorSet,
    WaveplateSetting,
    analyzer_projectors,
    standard_projector_set,
    waveplate_jones,
)
from .states import (
    NoiseParams,
    SourceConfig,
    bell_state,
    completely_mixed,
    generate,
    mix_duty_cycle,
)
from .sweep import SweepSpec, run_sweep
from .tomography import (
    ReconstructionResult,
    bootstrap_errors,
    log_likelihood,
    mle_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionConfig",
    "DensityMatrix",
    "MetricsReport",
    "NoiseParams",
    "ProjectorSet",
    "ReconstructionResult",
    "SourceConfig",
    "SweepSpec",
    "WaveplateSetting",
    "analyzer_projectors",
    "bell_state",
    "bootstrap_errors",
    "completely_mixed",
    "derive_seed",
    "family_purity",
    "family_tangle",
    "family_visibility",
    "fidelity",
    "generate",
    "hermitian_eigen",
    "log_likelihood",
    "matrix_sqrt",
    "mix_duty_cycle",
    "mle_reconstruct",
    "nearest_physical",
    "purity",
    "report_for",
    "run_sweep",
    "simulate_counts",
    "standard_projector_set",
    "tangle",
    "visibility",
    "visibility_scan",
    "waveplate_jones",
]
