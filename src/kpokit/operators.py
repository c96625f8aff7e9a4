"""Normal-ordered multi-mode bosonic polynomials.

A monomial is keyed by a pair of exponent tuples ``(creation, annihilation)``,
one integer per mode, and represents the normal-ordered product

    prod_m  a_m^dagger ** creation[m]  *  a_m ** annihilation[m]

Coefficients carry rad/s units when the polynomial stands for a Hamiltonian
term. kpokit builds one kind: the quartic sum_j w_j b_j^dag^2 b_j^2 of
operators b_j = sum_p u[j, p] a_p, which is normal-ordered as written
because every b_j holds annihilators only.
"""

from __future__ import annotations

import functools
import itertools
from numbers import Number

import numpy as np

Monomial = tuple[tuple[int, ...], tuple[int, ...]]

PRUNE_TOL = 1e-18  # rad/s; coefficients below this are dropped


class BosonicPolynomial:
    """Sparse normal-ordered polynomial in m bosonic modes."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: dict[Monomial, complex] | None = None):
        self.n_modes = n_modes
        self.terms: dict[Monomial, complex] = dict(terms) if terms else {}

    @classmethod
    def quartic(cls, u, weight) -> "BosonicPolynomial":
        """sum_j weight[j] (b_j^dagger)^2 (b_j)^2 with b_j = sum_p u[j, p] a_p.

        With P[j, pq] = u[j, p] u[j, q] for each mode pair p <= q (doubled
        when p != q), a_p^dag a_q^dag a_r a_s has the coefficient
        sum_j weight[j] conj(P[j, pq]) P[j, rs]. For real weights that matrix
        is Hermitian; it is symmetrised, so a monomial and its adjoint get
        exactly conjugate coefficients. Keys run over the pairs in
        ``np.triu_indices`` order, creation pair outermost; the coefficients
        are Python floats (complex for complex input). A coefficient of size
        PRUNE_TOL or less is left out; a non-finite one is kept, so the
        polynomial's reader meets it. The pair indices and the keys are made
        once per mode count (`_pair_indices`, `_quartic_keys`), and the terms
        are kept by one array test of every size.
        """
        u = np.asarray(u)
        n_modes = u.shape[1]
        p, q, off_diagonal = _pair_indices(n_modes)
        pair = u[:, p] * u[:, q]
        pair[:, off_diagonal] *= 2
        c = (pair.conj().T * np.asarray(weight)) @ pair
        c = (0.5 * (c + c.conj().T)).ravel()
        kept = ~(_magnitudes(c) <= PRUNE_TOL)
        return cls(n_modes, dict(itertools.compress(zip(_quartic_keys(n_modes), c.tolist()),
                                                    kept.tolist())))

    def __mul__(self, other):
        if not isinstance(other, Number):
            return NotImplemented
        return BosonicPolynomial(self.n_modes, {k: v * other for k, v in self.terms.items()})

    __rmul__ = __mul__

    def pruned(self, tol: float = PRUNE_TOL) -> "BosonicPolynomial":
        return BosonicPolynomial(
            self.n_modes, {k: v for k, v in self.terms.items() if abs(v) > tol}
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=1.0)
        for (c, a), v in self.terms.items():
            if abs(self.terms.get((a, c), 0.0) - np.conj(v)) > tol * scale:
                return False
        return True

    def coefficient(self, creation: tuple[int, ...], annihilation: tuple[int, ...]) -> complex:
        return self.terms.get((tuple(creation), tuple(annihilation)), 0.0)

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"{v:.6g} * {c}|{a}" for (c, a), v in sorted(self.terms.items())]
        return f"BosonicPolynomial({self.n_modes} modes: " + "; ".join(parts) + ")"


def _magnitudes(values) -> np.ndarray:
    """abs of each value, bit for bit as Python's abs gives it: np.abs of a
    complex array differs from it in the last bit, np.hypot does not."""
    values = np.asarray(values)
    return np.hypot(values.real, values.imag)


@functools.lru_cache(maxsize=8)
def _pair_indices(n_modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.triu_indices(n_modes)`` and its off-diagonal mask, read-only;
    made once per mode count."""
    p, q = np.triu_indices(n_modes)
    arrays = (p, q, p != q)
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _quartic_keys(n_modes: int) -> tuple[Monomial, ...]:
    """The monomial of each element of the quartic's coefficient matrix, in
    ``ravel`` order; made once per mode count."""
    p, q, _ = _pair_indices(n_modes)
    pairs = [tuple(np.bincount([i, j], minlength=n_modes).tolist()) for i, j in zip(p, q)]
    return tuple((kc, ka) for kc in pairs for ka in pairs)
