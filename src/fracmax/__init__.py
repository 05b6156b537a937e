"""fracmax: desk-scale machinery for maximal Fourier multipliers over fractal dilation sets."""

from .dilation_sets import DilationSet, PowerSequence, kappa, minkowski_dimension, rescaled_block
from .fractional_calculus import SampledPath, marchaud_derivative, roundtrip_residual
from .lp_frames import BesovParams, sigma2_norm
from .multipliers import LimitedDecay

__version__ = "0.1.0"
