"""Exact coefficient tables for a weight-13/2 Hecke cusp form, central values
of the quadratic twists of its weight-12 lift, an Euler-product mollifier,
the exponential-sum toolkit behind their analysis, and a CLI that tabulates
sign-change statistics of the coefficients."""

from .arith import (
    enumerate_nflat,
    is_fundamental_discriminant,
    kronecker,
)
from .hecke import (
    build_hecke_table,
    find_signflip_prime,
    shimura_identity_check,
    signflip_verify,
)
from .lvalue import central_lvalue, first_moment_scan, w_kernel, waldspurger_ratio
from .qseries import (
    CoeffTable,
    delta_halfintegral,
    delta_integral,
    load_coeffs,
    save_coeffs,
)

__version__ = "0.1.0"
