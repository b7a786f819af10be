"""Numerical laboratory for the Bohr phenomenon of analytic functions
omitting two values, built on the modular covering map of the disk."""

__version__ = "0.1.0"

from .bohr import (BASE_SLACK, BohrRadiusResult, InequalityCheck,
                   LittlewoodReport, bohr_operator, bohr_radius_solve,
                   cauchy_tail_bound, classical_bohr_check, littlewood_check,
                   main_theorem_check, von_neumann_check)
from .errors import BohrlabError, DomainError
from .generators import (Factor, LargeFunctionSpec, SchwarzFunction,
                         identity_schwarz, make_large_function,
                         random_large_function, random_mobius_bounded,
                         random_polynomial, random_schwarz)
from .geometry import boundary_distance, density_distance_products
from .harmonic import HarmonicPair, build_pair, harmonic_bohr_check
from .modular import (E_HALF_PI, E_PI, CoveringParameter, a_coeffs,
                      collision_search, j_coeffs_exact, j_eval, j_deriv,
                      j_series, q_eval, q_series, starlike_certificate)
from .series import TruncatedSeries
from .sweeps import SUITE_NAMES, j_max_modulus, run_suite
