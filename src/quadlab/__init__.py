"""Numerical laboratory for quadratic functional equations.

The library answers, with explicit constants and reproducible sampling,
questions of the form: how far is this map from being quadratic, and how
much does a small equation defect on part of the domain cost globally?

Modules:

* :mod:`quadlab.space` -- normed spaces and the restricted-pair sampler;
* :mod:`quadlab.quadratic` -- forms, map handles, residuals, parity;
* :mod:`quadlab.perturb` -- test maps with known perturbation envelopes;
* :mod:`quadlab.stability` -- constants, limit extraction, certificates;
* :mod:`quadlab.geometry` -- parallelogram law and exponent scans;
* :mod:`quadlab.asymptotics` -- shell profiles and asymptotic verdicts;
* :mod:`quadlab.textrows` -- float64 rows as CSV text, each value its ``repr``;
* :mod:`quadlab.cli` -- the ``quadlab`` command.
"""

from .asymptotics import (
    VERDICT_DECAYING,
    VERDICT_INCONCLUSIVE,
    VERDICT_PERSISTENT,
    AsymptoticVerdict,
    ShellProfile,
    asymptotic_verdict,
    shell_delta_profile,
)
from .errors import (
    DimensionMismatchError,
    ExtractionError,
    InfeasibleDomainError,
    ParameterError,
    UndefinedValueError,
)
from .geometry import (
    Exponents,
    ExponentScanTable,
    InnerProductVerdict,
    default_exponent_grid,
    detect_inner_product,
    exponent_scan,
    gq_norm_defect,
    parallelogram_defect,
    recover_gram,
)
from .perturb import (
    NoiseModel,
    make_odd_witness,
    make_perturbed,
    make_quadratic,
    noise_values,
    random_symmetric_form,
)
from .quadratic import (
    DerivationChainReport,
    EquationParams,
    MapHandle,
    QuadraticForm,
    derivation_chain_check,
    equation_params,
    parity_decompose,
    residual_gq,
    residual_q,
)
from .space import (
    Sampler,
    SpaceSpec,
    euclidean,
    norm_eval,
    p_norm,
    sample_pairs_restricted,
    sup_norm,
    weighted_quadratic,
)
from .stability import (
    BatchExtraction,
    CzerwikReport,
    ExtractionDiagnostics,
    StabilityCertificate,
    StabilityConstants,
    certify,
    estimate_delta_restricted,
    extract_quadratic,
    extract_quadratic_batch,
    stability_constants,
    verify_czerwik,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticVerdict",
    "BatchExtraction",
    "CzerwikReport",
    "DerivationChainReport",
    "DimensionMismatchError",
    "EquationParams",
    "ExponentScanTable",
    "Exponents",
    "ExtractionDiagnostics",
    "ExtractionError",
    "InfeasibleDomainError",
    "InnerProductVerdict",
    "MapHandle",
    "NoiseModel",
    "ParameterError",
    "QuadraticForm",
    "Sampler",
    "ShellProfile",
    "SpaceSpec",
    "StabilityCertificate",
    "StabilityConstants",
    "UndefinedValueError",
    "VERDICT_DECAYING",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_PERSISTENT",
    "asymptotic_verdict",
    "certify",
    "default_exponent_grid",
    "derivation_chain_check",
    "detect_inner_product",
    "equation_params",
    "estimate_delta_restricted",
    "euclidean",
    "exponent_scan",
    "extract_quadratic",
    "extract_quadratic_batch",
    "gq_norm_defect",
    "make_odd_witness",
    "make_perturbed",
    "make_quadratic",
    "noise_values",
    "norm_eval",
    "p_norm",
    "parallelogram_defect",
    "parity_decompose",
    "random_symmetric_form",
    "recover_gram",
    "residual_gq",
    "residual_q",
    "sample_pairs_restricted",
    "shell_delta_profile",
    "stability_constants",
    "sup_norm",
    "verify_czerwik",
    "weighted_quadratic",
]
