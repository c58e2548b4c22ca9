"""sil: singular-potential operators, sharp exponential-inequality
constants, and desk-scale verification of their boundedness/blow-up
dichotomies."""

__version__ = "0.1.0"

from .params import Params
from .grids import CartesianField, RadialFunction, log_grid
from .constants import (SharpConstants, ball_volume, kernel_sharp_constant,
                        riesz_normalization, sharp_gamma, sphere_area)
from .kernels import (KernelSpec, bessel_kernel, gradient_kernel,
                      hyperbolic_h2_exact, riesz_kernel)
from .measures import MeasureDensity, lebesgue, singular_measure
from .norms import lp_norm
from .rearrange import (RearrangedProfile, decreasing_rearrangement,
                        distribution_function, exp_regularized,
                        regularization_sandwich)
from .potentials import cartesian_convolve, radial_convolve
from .extremals import (ExtremalFamily, LogFamily, adams_family,
                        dilated_family, hyperbolic_log_family,
                        moser_log_family, normalize_ruf)
from .functionals import Domain, FunctionalSpec, mt_functional
from .oneil import (GarsiaState, KernelProfile, F_functional, garsia_integral,
                    garsia_samples, garsia_transform, kernel_profile,
                    level_set_measure, oneil_rhs)
