"""fracmax: desk-scale machinery for maximal Fourier multipliers over fractal dilation sets."""

from .dilation_sets import (
    BlockSet,
    CantorLike,
    DilationSet,
    DimensionEstimate,
    ExplicitPoints,
    LacunaryGrid,
    PowerSequence,
    UnionSet,
    dimension_bound_check,
    distance_integral,
    entropy_number,
    gap_sum,
    kappa,
    lorentz_membership,
    minkowski_dimension,
    rescaled_block,
)
from .fractional_calculus import (
    SampledPath,
    marchaud_derivative,
    rescaled_derivative_check,
    rl_integral,
    roundtrip_residual,
)
from .lp_frames import (
    BesovParams,
    GridFunction,
    SmoothCutoff,
    besov_norm,
    build_cutoffs,
    hoelder_norm,
    lp_piece,
    sigma2_norm,
)
from .maximal_lab import (
    FUNCTIONS,
    ExperimentConfig,
    GaussianBump,
    HWeights,
    ModulatedBump,
    RandomBand,
    apply_dilated_multiplier,
    build_function,
    halfwave_convergence,
    domination_ratio,
    maximal_function,
    mm_linf_h_norm,
    operator_norm_probe,
    square_functional,
)
from .multipliers import (
    FAMILIES,
    BandBump,
    Custom,
    LimitedDecay,
    Oscillatory,
    SlowDecay,
    decay_profile,
    embedding_check,
    evaluate,
    mtilde,
    mtilde_values,
)

__version__ = "0.1.0"
