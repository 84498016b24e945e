"""Finite-space information geometry: measures, their fractional powers,
Markov kernels, parametrized measure models, and information loss.

The package works with measures on finite sample spaces (optionally carrying
grid coordinates and quadrature weights, so discretized continuous examples
fit the same types). On top of the measure algebra it provides Markov
kernels and statistics, parameter-indexed families of measures with their
Fisher metric and higher-order symmetric tensors, and the machinery for
sufficiency: information loss under kernels, the monotonicity theorem, and
Fisher-Neyman factorization checking.
"""

from .errors import (
    ContractError,
    DomainError,
    DominationError,
    EmptyFiberError,
    ExponentError,
    ExprSyntaxError,
    IgkError,
    NegativeDensityError,
    SpaceMismatchError,
    UnknownIdentifierError,
    UnsupportedError,
    ZeroMassError,
)
from .measures import (
    AtomLabels,
    Measure,
    PowerMeasure,
    ProbabilityMeasure,
    SampleSpace,
    SignedMeasure,
    d_pow_abs,
    d_pow_signed,
    dominates,
    jordan_decompose,
    lk_norm,
    multiply,
    normalize,
    pow_abs,
    pow_signed,
    power_norm,
    power_of_measure,
    radon_nikodym,
    tv_norm,
)
from .markov import (
    MarkovKernel,
    Statistic,
    TransverseFamily,
    as_kernel,
    compose,
    conditional_expectation,
    congruent_embedding,
    congruent_kernel_from_embedding,
    decompose_kernel,
    formal_power_derivative,
    is_congruent,
    power_pushforward,
    product_space,
    pushforward,
    transverse_measures,
)
from .models import (
    IntegrabilityReport,
    Jet,
    ParameterDomain,
    ParametrizedMeasureModel,
    TensorValue,
    amari_chentsov,
    canonical_tensor,
    check_k_integrability,
    evaluate,
    fisher_metric,
    jet,
    k_norm,
    log_derivative,
    mass_gradient,
    power_path,
    tau_n,
    tau_tensor,
)
from .infoloss import (
    ConflictWitness,
    FactorizationResult,
    LossEntry,
    LossReport,
    MonotonicityReport,
    SubgridFactor,
    check_monotonicity,
    equality_direction_check,
    fisher_neyman_check,
    information_loss,
    is_sufficient,
    loss_table,
)
from . import dsl, families, serialize

__version__ = "0.1.0"
