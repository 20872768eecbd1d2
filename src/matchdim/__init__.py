"""Matching and distance statistics with their governing entropy/dimension rates.

The package measures how fast the longest common substring of two encoded
sequences grows (and, for orbits of dynamical systems, how fast the shortest
distance between two trajectories shrinks), computes the collision-entropy
and correlation-dimension quantities that set those rates, and ships a Monte
Carlo harness plus CLI that checks the measured slopes against the closed
forms.
"""

from .sources import (Alphabet, IIDSource, MarkovSource, SymbolSeq, sample,
                      stationary_distribution)
from .encoders import (Encoder, IdentityEncoder, InputExhausted, StretchEncoder,
                       ZeroInflation, encode)
from .matching import MatchResult, highest_score, lcs_fast, lcs_oracle
from .entropy import (EntropyEstimate, ScrabbleSpectrum, build_qstar,
                      dominant_eigenvalue, empirical_plateau, renyi2_empirical,
                      renyi2_iid, renyi2_markov, renyi2_scrabble,
                      renyi2_zero_inflated)
from .dynamics import (Collapse, CoordinateProjection, IdentityObservation,
                       LipschitzAffine, Orbit, SkewSystem,
                       ThetaDriver, BernoulliDriver, UniformBallDriver,
                       TimesMap, ToralAutomorphism, default_toral_pair,
                       iterate, iterate_random, lebesgue_orbit, observe)
from .geometry import (DimensionFit, DistanceProfile, NearestPair, SlopeFit,
                       correlation_dimension, default_radius_window,
                       distance_profile, fit_slope, shortest_distance,
                       shortest_distance_fast)
from .harness import (ExperimentPlan, ExperimentResult, plan_from_config, run,
                      theoretical_slope_limit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
