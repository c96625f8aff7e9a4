"""Normal-ordered multi-mode bosonic polynomials.

A monomial is keyed by a pair of exponent tuples ``(creation, annihilation)``,
one integer per mode, and represents the normal-ordered product

    prod_m  a_m^dagger ** creation[m]  *  a_m ** annihilation[m]

Coefficients are complex and carry rad/s units when the polynomial stands
for a Hamiltonian term. Products are re-normal-ordered exactly using the
single-mode identity

    a^p a^dag^q = sum_k  C(p,k) C(q,k) k!  a^dag^(q-k) a^(p-k),

applied mode by mode (operators of distinct modes commute). Only the modes
where an annihilator of the left factor meets a creator of the right one
contract; every other mode just adds its exponents.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from numbers import Number
from operator import add

import numpy as np

Monomial = tuple[tuple[int, ...], tuple[int, ...]]

PRUNE_TOL = 1e-18  # rad/s; coefficients below this are dropped


@lru_cache(maxsize=None)
def _contract_mode(q1: int, p2: int) -> tuple[tuple[int, int], ...]:
    """Contraction weights for a^q1 * a^dag^p2 within one mode.

    Returns (k, weight) pairs where k creations/annihilations annihilate
    against each other: a^q a^dag^p = sum_k C(q,k) C(p,k) k! a^dag^(p-k) a^(q-k).
    """
    return tuple((k, comb(q1, k) * comb(p2, k) * factorial(k)) for k in range(min(q1, p2) + 1))


class BosonicPolynomial:
    """Sparse normal-ordered polynomial in m bosonic modes."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: dict[Monomial, complex] | None = None):
        self.n_modes = n_modes
        self.terms: dict[Monomial, complex] = dict(terms) if terms else {}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n_modes: int) -> "BosonicPolynomial":
        return cls(n_modes)

    @classmethod
    def identity(cls, n_modes: int, coeff: complex = 1.0) -> "BosonicPolynomial":
        z = (0,) * n_modes
        return cls(n_modes, {(z, z): coeff})

    @classmethod
    def annihilation(cls, n_modes: int, mode: int, coeff: complex = 1.0) -> "BosonicPolynomial":
        c = (0,) * n_modes
        a = tuple(1 if m == mode else 0 for m in range(n_modes))
        return cls(n_modes, {(c, a): coeff})

    @classmethod
    def creation(cls, n_modes: int, mode: int, coeff: complex = 1.0) -> "BosonicPolynomial":
        c = tuple(1 if m == mode else 0 for m in range(n_modes))
        a = (0,) * n_modes
        return cls(n_modes, {(c, a): coeff})

    # -- ring operations ----------------------------------------------
    def _check(self, other: "BosonicPolynomial") -> None:
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch")

    def __add__(self, other: "BosonicPolynomial") -> "BosonicPolynomial":
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, 0.0) + val
        return BosonicPolynomial(self.n_modes, out)

    def __sub__(self, other: "BosonicPolynomial") -> "BosonicPolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, Number):
            return BosonicPolynomial(
                self.n_modes, {k: v * other for k, v in self.terms.items()}
            )
        if not isinstance(other, BosonicPolynomial):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, complex] = {}
        for (c1, a1), v1 in self.terms.items():
            for (c2, a2), v2 in other.terms.items():
                coeff = v1 * v2
                # cartesian product over the contraction counts k of the modes
                # where a1 meets c2, in mode order; every other mode only adds
                # its exponents (k = 0, an exact weight 1)
                stack = [(tuple(map(add, c1, c2)), tuple(map(add, a1, a2)), 1.0)]
                for m in range(self.n_modes):
                    if a1[m] > 0 and c2[m] > 0:
                        stack = [
                            (c[:m] + (c[m] - k,) + c[m + 1:],
                             a[:m] + (a[m] - k,) + a[m + 1:],
                             w * wk)
                            for c, a, w in stack
                            for k, wk in _contract_mode(a1[m], c2[m])
                        ]
                for c, a, w in stack:
                    out[(c, a)] = out.get((c, a), 0.0) + coeff * w
        return BosonicPolynomial(self.n_modes, out)

    __rmul__ = __mul__

    # -- hygiene --------------------------------------------------------
    def pruned(self, tol: float = PRUNE_TOL) -> "BosonicPolynomial":
        return BosonicPolynomial(
            self.n_modes, {k: v for k, v in self.terms.items() if abs(v) > tol}
        )

    def conjugate(self) -> "BosonicPolynomial":
        """Hermitian adjoint (creation/annihilation exponents swap)."""
        return BosonicPolynomial(
            self.n_modes, {(a, c): np.conj(v) for (c, a), v in self.terms.items()}
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=1.0)
        for (c, a), v in self.terms.items():
            if abs(self.terms.get((a, c), 0.0) - np.conj(v)) > tol * scale:
                return False
        return True

    def coefficient(self, creation: tuple[int, ...], annihilation: tuple[int, ...]) -> complex:
        return self.terms.get((tuple(creation), tuple(annihilation)), 0.0)

    # -- brute-force matrix representation (test oracle) ----------------
    def to_matrix(self, dim: int) -> np.ndarray:
        """Dense matrix on a Fock space truncated to `dim` levels per mode.

        Truncation is applied to the normal-ordered operators directly, so
        results are exact for matrix elements whose intermediate occupations
        stay below `dim`.
        """
        ad = np.diag(np.sqrt(np.arange(1, dim)), -1)  # creation
        an = ad.T.copy()
        eye = np.eye(dim)
        size = dim ** self.n_modes
        total = np.zeros((size, size), dtype=complex)
        for (c, a), v in self.terms.items():
            term = None
            for m in range(self.n_modes):
                op = np.linalg.matrix_power(ad, c[m]) @ np.linalg.matrix_power(an, a[m])
                term = op if term is None else np.kron(term, op)
            if term is None:
                term = np.eye(size)
            total += v * term
        return total

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"{v:.6g} * {c}|{a}" for (c, a), v in sorted(self.terms.items())]
        return f"BosonicPolynomial({self.n_modes} modes: " + "; ".join(parts) + ")"
