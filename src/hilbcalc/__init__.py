"""Exact Hilbert coefficient calculator for graded modules.

Computes Hilbert series and coefficient tables of finitely generated
graded modules over polynomial rings, certifies superficial sequences
and systems of parameters, and checks how coefficient drops under
admissible parameter ideals detect depth.
"""

from hilbcalc.presentation import (
    CyclicModule,
    ResolutionPresentation,
    closed_form_family,
    module_dimension,
    module_table,
    series_of_cyclic,
    series_of_resolution,
)
from hilbcalc.polyring import (
    LinearForm,
    PolyIdeal,
    Polynomial,
    buchberger,
    colon,
    initial_ideal,
    quotient_by_linear,
)
from hilbcalc.oracle import graded_dimension, graded_profile, verify_series
from hilbcalc.series import (
    MINUS_INFINITY,
    CoefficientTable,
    HilbertSeries,
    IntPolynomial,
    binomial,
    combine,
    expand,
    h_polynomial,
    hilbert_coefficients,
    series_dimension,
    shift,
)
from hilbcalc.superficial import (
    depth,
    find_superficial_sequence,
    is_regular,
    is_ssop,
    is_superficial,
    quotient_module,
    socle_series,
    superficial_chain,
)
from hilbcalc.theorem import (
    maximal_times_prime_module,
    run_maximal_times_prime_suite,
    run_random_sensitivity_suite,
    run_two_prime_product_suite,
    two_prime_product_module,
    verify_depth_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "MINUS_INFINITY",
    "CoefficientTable",
    "CyclicModule",
    "HilbertSeries",
    "IntPolynomial",
    "LinearForm",
    "PolyIdeal",
    "Polynomial",
    "ResolutionPresentation",
    "binomial",
    "buchberger",
    "closed_form_family",
    "colon",
    "combine",
    "depth",
    "expand",
    "find_superficial_sequence",
    "graded_dimension",
    "graded_profile",
    "h_polynomial",
    "hilbert_coefficients",
    "initial_ideal",
    "is_regular",
    "is_ssop",
    "is_superficial",
    "maximal_times_prime_module",
    "module_dimension",
    "module_table",
    "quotient_by_linear",
    "quotient_module",
    "run_maximal_times_prime_suite",
    "run_random_sensitivity_suite",
    "run_two_prime_product_suite",
    "series_dimension",
    "series_of_cyclic",
    "series_of_resolution",
    "shift",
    "socle_series",
    "superficial_chain",
    "two_prime_product_module",
    "verify_depth_sensitivity",
    "verify_series",
    "__version__",
]
