"""Enumeration-order analysis for computably enumerable sets of rationals."""

from .coorder import (
    Cell,
    FuelExhausted,
    GapEmpty,
    MatchSuccess,
    WitnessReport,
    finite_coorder,
    match_listing,
    prefix_coorder,
    search_shift_witnesses,
    witness_projections,
)
from .listings import (
    Listing,
    ListingExhausted,
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    interleave,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from .ordertype import OMEGA, OMEGA_STAR, block_signature, refute_type2
from .rational import format_rational, parse_rational

__version__ = "0.1.0"
