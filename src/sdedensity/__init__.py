"""Local densities of scalar SDE solutions via the characteristic-function route.

The pipeline: declare piecewise drift/diffusion and a localization window,
continue the diffusion constantly outside the window, map to unit diffusion,
simulate paths with reproducible per-block keyed randomness, estimate the
localized characteristic function, check its decay against the frequency
bounds, invert to a density, and certify smoothness in space and time.
"""

from .bounds import (BoundReport, bound_plan, bound_report, matched_lookback_bound,
                     epsilon_rule, fit_decay, remainder, fixed_lookback_bound)
from .charfn import CharFnEstimate, FrequencyGrid, cf_from_samples, estimate_localized
from .config import PRESETS, Pipeline, RunConfig, piecewise_from_dict, preset
from .cutoff import CutoffFunction, make_bump, make_plateau_sequence
from .errors import ConfigError, DomainError, NumericsError, SdeDensityError
from .invert import DensityEstimate, decay_smoothness_constant, holder_norm, invert, pushforward
from .lamperti import LampertiMap, build_lamperti_map
from .model import (Affine, CoefficientModel, Constant, DriftFunctional, HolderPower,
                    LocalWindow, PiecewiseFunction, Polynomial, Sinusoid,
                    WeakDerivative, build_sigma_star)
from .oracle import (ReferenceModel, as_coefficient_model, exact_cf, exact_density,
                     localized_cf, sign_drift_model)
from .simulate import (PathEnsemble, SimConfig, load_ensemble, save_ensemble, simulate,
                       stopped_increment_moment)
from .util import MCEstimate

__version__ = "0.1.0"
