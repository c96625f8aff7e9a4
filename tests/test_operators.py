"""Normal-ordered bosonic polynomial algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpokit.constants import GHZ, MHZ
from kpokit.operators import BosonicPolynomial
from kpokit.perturbation import CouplingGraph, ModeSpectrum, rwa_filter, sw_mixing, transform_kerr
from kpokit.pumpplan import PumpAssignment


def test_commutator_identity_single_mode():
    # a a+ = a+ a + 1
    a = BosonicPolynomial.annihilation(1, 0)
    adag = BosonicPolynomial.creation(1, 0)
    prod = a * adag
    assert prod.coefficient((1,), (1,)) == pytest.approx(1.0)
    assert prod.coefficient((0,), (0,)) == pytest.approx(1.0)
    assert len(prod.pruned().terms) == 2


def test_number_operator_square():
    # (a+ a)^2 = a+^2 a^2 + a+ a
    a = BosonicPolynomial.annihilation(1, 0)
    adag = BosonicPolynomial.creation(1, 0)
    n = adag * a
    n2 = n * n
    assert n2.coefficient((2,), (2,)) == pytest.approx(1.0)
    assert n2.coefficient((1,), (1,)) == pytest.approx(1.0)


def test_distinct_modes_commute():
    a0 = BosonicPolynomial.annihilation(2, 0)
    c1 = BosonicPolynomial.creation(2, 1)
    left = a0 * c1
    right = c1 * a0
    assert left.terms == right.terms


def test_scalar_multiplication_and_subtraction():
    p = BosonicPolynomial.creation(1, 0, 2.0)
    q = p * 0.5 - BosonicPolynomial.creation(1, 0)
    assert len(q.pruned().terms) == 0


def test_conjugate_swaps_exponents():
    p = BosonicPolynomial(2, {((1, 0), (0, 2)): 3.0 + 1.0j})
    pc = p.conjugate()
    assert pc.coefficient((0, 2), (1, 0)) == pytest.approx(3.0 - 1.0j)


def test_hermiticity_check():
    herm = BosonicPolynomial(1, {((1,), (0,)): 1.0 + 2.0j, ((0,), (1,)): 1.0 - 2.0j})
    assert herm.is_hermitian()
    broken = BosonicPolynomial(1, {((1,), (0,)): 1.0})
    assert not broken.is_hermitian()


def test_mode_count_mismatch_rejected():
    with pytest.raises(ValueError):
        BosonicPolynomial.zero(1) + BosonicPolynomial.zero(2)


def test_pruning_threshold():
    p = BosonicPolynomial(1, {((1,), (1,)): 1e-20, ((2,), (2,)): 1.0})
    assert len(p.pruned().terms) == 1


def _random_poly(rng, n_modes, n_terms, max_exp=2):
    terms = {}
    for _ in range(n_terms):
        c = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n_modes))
        a = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n_modes))
        terms[(c, a)] = complex(rng.normal(), rng.normal())
    return BosonicPolynomial(n_modes, terms)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_product_matches_matrix_representation(seed):
    # normal-ordered product agrees with brute-force matrices on a truncated
    # Fock space, on the block where truncation cannot leak
    rng = np.random.default_rng(seed)
    dim = 6
    p = _random_poly(rng, 2, 3)
    q = _random_poly(rng, 2, 3)
    prod = (p * q).pruned(1e-30)
    lhs = p.to_matrix(dim) @ q.to_matrix(dim)
    rhs = prod.to_matrix(dim)
    # restrict to low-occupation rows/columns where the truncated product
    # is exact (total degree of the factors is at most 4 per mode)
    keep = [i * dim + j for i in range(2) for j in range(2)]
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.allclose(lhs[np.ix_(keep, keep)], rhs[np.ix_(keep, keep)],
                       atol=1e-10 * scale)


@given(
    exps=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
    coeff=st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
)
@settings(max_examples=50, deadline=None)
def test_monomial_times_adjoint_is_hermitian(exps, coeff):
    c, a = (exps[0], exps[1]), (exps[2], exps[3])
    p = BosonicPolynomial(2, {(c, a): coeff})
    assert (p * p.conjugate()).is_hermitian()


@pytest.mark.parametrize("scalar", [np.int64(2), np.float32(2.0), np.float64(2.0),
                                    np.complex128(2.0), 2, 2.0, 2.0 + 0.0j])
def test_scalar_multiplication_accepts_numpy_scalars(scalar):
    p = BosonicPolynomial(2, {((1, 0), (0, 1)): 1.5 - 0.5j, ((0, 0), (0, 0)): 0.25})
    for product in (p * scalar, scalar * p):
        assert isinstance(product, BosonicPolynomial)
        assert product.terms == {key: v * 2 for key, v in p.terms.items()}


@pytest.mark.parametrize("operand", ["x", None, [1.0], object()])
def test_multiplication_by_a_non_number_raises_type_error(operand):
    p = BosonicPolynomial.creation(1, 0)
    with pytest.raises(TypeError):
        p * operand
    with pytest.raises(TypeError):
        operand * p


def test_product_mode_count_mismatch_rejected():
    with pytest.raises(ValueError):
        BosonicPolynomial.creation(1, 0) * BosonicPolynomial.creation(2, 0)


# -- the seed's product, kept as the bit-for-bit reference -----------------

def _reference_mul(self, other):
    """The product as first written: every mode's contraction options, full
    cartesian product. The fast path must reproduce its terms exactly."""
    if isinstance(other, (int, float, complex)):
        return BosonicPolynomial(
            self.n_modes, {k: v * other for k, v in self.terms.items()}
        )
    self._check(other)
    out = {}
    for (c1, a1), v1 in self.terms.items():
        for (c2, a2), v2 in other.terms.items():
            options = [
                [(k, math.comb(a1[m], k) * math.comb(c2[m], k) * math.factorial(k))
                 for k in range(min(a1[m], c2[m]) + 1)]
                for m in range(self.n_modes)
            ]
            _reference_accumulate(self.n_modes, out, c1, a1, c2, a2, v1 * v2, options)
    return BosonicPolynomial(self.n_modes, out)


def _reference_accumulate(n_modes, out, c1, a1, c2, a2, coeff, options):
    stack = [((), 1.0)]
    for opts in options:
        stack = [(ks + (k,), w * wk) for ks, w in stack for k, wk in opts]
    for ks, w in stack:
        c = tuple(c1[m] + c2[m] - ks[m] for m in range(n_modes))
        a = tuple(a1[m] + a2[m] - ks[m] for m in range(n_modes))
        out[(c, a)] = out.get((c, a), 0.0) + coeff * w


@pytest.mark.parametrize("seed", range(6))
def test_product_is_bit_identical_to_reference(seed):
    rng = np.random.default_rng(100 + seed)
    contracted = 0
    for _ in range(50):
        n_modes = int(rng.integers(1, 6))
        p = _random_poly(rng, n_modes, int(rng.integers(1, 5)), max_exp=3)
        q = _random_poly(rng, n_modes, int(rng.integers(1, 5)), max_exp=3)
        fast = p * q
        ref = _reference_mul(p, q)
        # values and key order both
        assert list(fast.terms.items()) == list(ref.terms.items())
        contracted += len(ref.terms) > len(p.terms) * len(q.terms)
    assert contracted >= 10


def test_transform_kerr_and_rwa_order_bit_identical_to_reference(monkeypatch):
    omega = np.array([10.0, 9.7, 9.9, 9.8]) * GHZ
    spectrum = ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ,
                            coupler_omega=12.0 * GHZ, coupler_kerr=20.0 * MHZ)
    h = np.full((4, 4), 5.0 * MHZ)
    np.fill_diagonal(h, 0.0)
    mix = sw_mixing(spectrum, CouplingGraph(h=h, g=np.full(4, 5.0 * MHZ)))
    pump = PumpAssignment(omega_p=tuple(2 * w for w in omega))

    def run():
        poly = transform_kerr(spectrum, mix)
        report = rwa_filter(poly, pump, coupler_mode=4)
        return list(poly.terms.items()), [
            (e.creation, e.annihilation, e.coefficient) for e in report.entries
        ]

    fast = run()
    monkeypatch.setattr(BosonicPolynomial, "__mul__", _reference_mul)
    monkeypatch.setattr(BosonicPolynomial, "__rmul__", _reference_mul)
    ref = run()
    assert len(ref[0]) == 225 and len(ref[1]) > 1
    assert fast == ref
