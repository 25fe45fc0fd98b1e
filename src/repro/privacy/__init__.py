"""Privacy-oriented analysis of compression error (Section VII-D).

Error extraction, Laplace fitting, and the differential-privacy comparison
scaffolding (Laplace mechanism, equivalent-ε estimate, calibrated-noise
injection).
"""

from repro.privacy.dp import (
    EquivalentPrivacyEstimate,
    client_round_rng,
    equivalent_epsilon,
    laplace_mechanism,
    perturb_state_dict_with_laplace,
)
from repro.privacy.dp_codec import DPFedSZCompressor
from repro.privacy.error_analysis import (
    ErrorDistribution,
    analyze_array_errors,
    analyze_state_dict_errors,
    compression_errors_for_array,
)
from repro.privacy.laplace import LaplaceFit, error_histogram, fit_laplace

__all__ = [
    "EquivalentPrivacyEstimate",
    "client_round_rng",
    "equivalent_epsilon",
    "laplace_mechanism",
    "perturb_state_dict_with_laplace",
    "DPFedSZCompressor",
    "ErrorDistribution",
    "analyze_array_errors",
    "analyze_state_dict_errors",
    "compression_errors_for_array",
    "LaplaceFit",
    "error_histogram",
    "fit_laplace",
]
