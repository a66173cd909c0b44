"""Hecke eigenvalues of the integral-weight lift and the exact coefficient
identity connecting them to the half-integral form, plus the unconditional
sign-flip construction.

For the weight-13/2 form the lift is the weight-12 discriminant form, so the
eigenvalues are tau(n) and the normalized ones are lambda(n) = tau(n)/n^{11/2}.
The identity alpha(n^2 d) = alpha(d) * sum_{r|n} mu(r) chi_d(r) r^{k-1}
tau(n/r), k = K = 6, is checked over exact integers: it is the coefficient
relation of the lift multiplied through by (n^2 d)^{(k-1/2)/2}, so no
tolerance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import factorize_small, kronecker, primes_up_to
from .errors import InconsistencyError
from .qseries import K, CoeffTable, delta_integral

__all__ = [
    "HeckeTable",
    "build_hecke_table",
    "shimura_identity_check",
    "find_signflip_prime",
    "signflip_verify",
]


@dataclass(eq=False)
class HeckeTable:
    """Exact tau(n) and floating lambda(n) = tau(n)/n^{11/2}, n <= N, where
    N = len(tau) - 1. Tables compare by identity."""

    tau: list
    N: int = field(init=False)
    _lambda: np.ndarray = field(init=False, default=None, repr=False)
    # central values L(1/2, chi_d) computed on this table, keyed by (d, tol)
    _central: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.N = len(self.tau) - 1

    @property
    def lam(self) -> np.ndarray:
        if self._lambda is None:
            n = np.arange(self.N + 1, dtype=np.float64)
            n[0] = 1.0
            self._lambda = np.fromiter(
                (float(t) for t in self.tau), dtype=np.float64, count=self.N + 1
            ) / n ** (K - 0.5)
            self._lambda[0] = 0.0
        return self._lambda


def build_hecke_table(N: int) -> HeckeTable:
    """Eigenvalue table for the weight-12 lift, the discriminant form. The
    Deligne bound |tau(p)| <= 2 p^{11/2} is checked exactly as
    tau(p)^2 <= 4 p^11; a violation raises InconsistencyError."""
    tau = delta_integral(N)
    for p in primes_up_to(N):
        if tau[p] * tau[p] > 4 * p**11:
            raise InconsistencyError(f"Deligne bound violated: tau({p})^2 > 4 {p}^11")
    return HeckeTable(tau=tau)


def shimura_identity_check(d: int, n: int, coeffs: CoeffTable, t: HeckeTable) -> bool:
    """Exact integer identity relating alpha at n^2 d to alpha at d.

    Requires d > 0 (the branch with positive twists for even k) and
    n^2 d within the coefficient table.
    """
    if d <= 0:
        raise ValueError("d must be a positive fundamental discriminant here")
    if n > t.N:
        raise ValueError(f"n = {n} exceeds eigenvalue table range {t.N}")
    rhs = 0
    for r, mu_r in factorize_small(n).squarefree_divisors():
        rhs += mu_r * kronecker(d, r) * r ** (K - 1) * t.tau[n // r]
    return coeffs.a(n * n * d) == coeffs.a(d) * rhs


def find_signflip_prime(t: HeckeTable, bound: int) -> int | None:
    """Smallest prime p <= bound with lambda(p) < -2/sqrt(p), i.e. with
    tau(p) < -2 p^{k-1} exactly; None if no witness below the bound."""
    if bound > t.N:
        raise ValueError(f"bound {bound} exceeds table range {t.N}")
    for p in primes_up_to(bound):
        if t.tau[p] < -2 * p ** (K - 1):
            return p
    return None


def signflip_verify(d: int, p: int, coeffs: CoeffTable) -> bool:
    """True iff alpha(d p^2) and alpha(d) have strictly opposite signs.

    Precondition: alpha(d) != 0 (raises otherwise) and d p^2 in range. With p
    from find_signflip_prime this holds for every d in the index set, because
    alpha(d p^2) = alpha(d) (tau(p) - chi_d(p) p^{k-1}) and
    tau(p) < -2 p^{k-1} forces the second factor negative.
    """
    ad = coeffs.a(d)
    if ad == 0:
        raise ValueError(f"alpha({d}) = 0: sign flip undefined")
    adp = coeffs.a(d * p * p)
    return (ad > 0) == (adp < 0) and adp != 0
