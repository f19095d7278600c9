"""Exact singularity invariants of hypersurfaces over F_p.

Frobenius root ideals, generalized test ideals tau(f^lambda), F-pure
thresholds, F-jumping numbers, and Frobenius-stabilization (HSL) numbers,
all in exact arithmetic, plus a batch CLI for scanning invariants across
primes.
"""

from .errors import (
    BadVariableName,
    ChainNotMonotone,
    CharpError,
    DuplicateVariable,
    EmptyVariableList,
    NotPrime,
    OutOfInterval,
    PartsMismatch,
    PolySyntaxError,
    ResourceLimit,
    RingMismatch,
    UnitPolynomial,
    UnknownVariable,
    UsageError,
    ZeroPolynomial,
)
from .ring import (
    Polynomial,
    RingContext,
    frob_power,
    is_prime,
    make_ring,
    parse_poly,
    poly_pow,
    pow_base_p,
)
from .groebner import (
    Ideal,
    buchberger,
    ideal_contains,
    ideal_equal,
    ideal_product,
    ideal_subset,
    normal_form,
    scale_ideal,
    unit_ideal,
)
from .frobenius import bracket_power, frob_root, mixed_root
from .testideal import (
    FptInterval,
    JumpCertificate,
    NuValue,
    PFracForm,
    cartier_chain,
    fpt,
    is_fjumping,
    jump_count_bound,
    jumps_in_unit_interval,
    nu,
    pfrac_form,
    tau,
    tau_left,
    tau_ppower,
    transport_jump,
)
from .hsl import HslReport, cartier_step, hsl_number, hsl_upper_bound
from .lucas import (
    binom_mod_p,
    binom_nonzero,
    diagonal_root_membership,
    digits_base_p,
    multinomial_mod_p,
    multinomial_nonzero,
)

__version__ = "0.1.0"
