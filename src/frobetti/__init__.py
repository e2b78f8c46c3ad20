"""Exact Frobenius Betti numbers, Hilbert-Kunz multiplicities, and syzygies
over standard-graded quotient rings F_p[x_1..x_n]/I.

All arithmetic is exact: prime-field coefficients, sparse polynomials under
degrevlex, Buchberger bases for modules, minimal free resolutions, bracket
powers, and rational asymptotic estimators.  See README.md for a tour.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticEstimate,
    LawReport,
    beta_sequence,
    hk_sequence,
    mu_sequence,
    verify_laws,
)
from .errors import FrobettiError
from .frobenius import BracketLevel, bracket_ideal, frobenius_power, twist_complex
from .groebner import (
    INFINITE,
    GroebnerBasis,
    SubmodulePresentation,
    cokernel_presentation,
    groebner_basis,
    ideal,
    quotient_module,
    syzygy_generators,
)
from .homology import (
    degreewise_homology_oracle,
    ext_length,
    finite_pd_certificate,
    homology_length,
    homology_presentation,
    tor_length,
)
from .onedim import (
    DiagnosisReport,
    buchsbaum_flag,
    choose_parameter,
    decide_beta_vanishing,
    decide_finite_pd_1dim,
    diagnose_onedim,
    h0_ring,
    lemma_h0_check,
    minimal_primes_monomial,
    syzygy_length_survey,
    tor_vanishing_vs_minimal_primes,
    xi_alternating_sum_check,
)
from .resolution import FreeComplex, MinimalResolution, SyzygyPresentation, minimize, resolve, syzygy
from .ring import Polynomial, QuotientRing, make_ring, poly_parse

__all__ = [
    "AsymptoticEstimate",
    "BracketLevel",
    "DiagnosisReport",
    "FreeComplex",
    "FrobettiError",
    "GroebnerBasis",
    "INFINITE",
    "LawReport",
    "MinimalResolution",
    "Polynomial",
    "QuotientRing",
    "SubmodulePresentation",
    "SyzygyPresentation",
    "beta_sequence",
    "bracket_ideal",
    "buchsbaum_flag",
    "choose_parameter",
    "cokernel_presentation",
    "decide_beta_vanishing",
    "decide_finite_pd_1dim",
    "degreewise_homology_oracle",
    "diagnose_onedim",
    "ext_length",
    "finite_pd_certificate",
    "frobenius_power",
    "groebner_basis",
    "h0_ring",
    "hk_sequence",
    "homology_length",
    "homology_presentation",
    "ideal",
    "lemma_h0_check",
    "make_ring",
    "minimal_primes_monomial",
    "minimize",
    "mu_sequence",
    "poly_parse",
    "quotient_module",
    "resolve",
    "syzygy",
    "syzygy_generators",
    "syzygy_length_survey",
    "tor_length",
    "tor_vanishing_vs_minimal_primes",
    "twist_complex",
    "verify_laws",
    "xi_alternating_sum_check",
]
