"""BosonicPolynomial and transform_kerr, against a normal-ordering reference.

transform_kerr builds its polynomial as one quartic from the mode-mixing
matrix. The reference below is the general normal-ordered product engine
it replaced, on plain term dicts {(creation, annihilation): coefficient}:
it substitutes the transformed operators and multiplies them out. The
brute-force matrix tests keep the reference itself checked.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpokit.constants import GHZ, MHZ
from kpokit.operators import PRUNE_TOL, BosonicPolynomial, _quartic_keys
from kpokit.perturbation import (
    CouplingGraph,
    ModeSpectrum,
    ReportEntry,
    classify_monomial,
    rwa_filter,
    sw_mixing,
    transform_kerr,
)
from kpokit.pumpplan import RESONANCE_TOL, PumpAssignment

# the unit circuit's coupler signs: KPOs 1 and 2 on one coupler node, 3 and 4 on the other
UNIT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

# -- the reference: normal-ordered products on term dicts ------------------

def _annihilation(n_modes, mode, coeff=1.0):
    a = tuple(1 if m == mode else 0 for m in range(n_modes))
    return {((0,) * n_modes, a): coeff}


def _creation(n_modes, mode, coeff=1.0):
    c = tuple(1 if m == mode else 0 for m in range(n_modes))
    return {(c, (0,) * n_modes): coeff}


def _add(p, q):
    out = dict(p)
    for key, val in q.items():
        out[key] = out.get(key, 0.0) + val
    return out


def _conjugate(p):
    return {(a, c): np.conj(v) for (c, a), v in p.items()}


def _nonzero(p):
    return {k: v for k, v in p.items() if abs(v) > PRUNE_TOL}


def _reference_mul(p, other):
    """The normal-ordered product: every mode's contraction options, full
    cartesian product, by a^q a^dag^p = sum_k C(q,k) C(p,k) k! a^dag^(p-k) a^(q-k)."""
    if isinstance(other, (int, float, complex)):
        return {k: v * other for k, v in p.items()}
    out = {}
    for (c1, a1), v1 in p.items():
        n_modes = len(c1)
        for (c2, a2), v2 in other.items():
            options = [
                [(k, math.comb(a1[m], k) * math.comb(c2[m], k) * math.factorial(k))
                 for k in range(min(a1[m], c2[m]) + 1)]
                for m in range(n_modes)
            ]
            _reference_accumulate(n_modes, out, c1, a1, c2, a2, v1 * v2, options)
    return out


def _reference_accumulate(n_modes, out, c1, a1, c2, a2, coeff, options):
    stack = [((), 1.0)]
    for opts in options:
        stack = [(ks + (k,), w * wk) for ks, w in stack for k, wk in opts]
    for ks, w in stack:
        c = tuple(c1[m] + c2[m] - ks[m] for m in range(n_modes))
        a = tuple(a1[m] + a2[m] - ks[m] for m in range(n_modes))
        out[(c, a)] = out.get((c, a), 0.0) + coeff * w


def _to_matrix(terms, n_modes, dim):
    """Dense matrix on a Fock space truncated to `dim` levels per mode.

    Truncation is applied to the normal-ordered operators directly, so
    results are exact for matrix elements whose intermediate occupations
    stay below `dim`.
    """
    ad = np.diag(np.sqrt(np.arange(1, dim)), -1)  # creation
    an = ad.T.copy()
    total = np.zeros((dim ** n_modes,) * 2, dtype=complex)
    for (c, a), v in terms.items():
        term = np.eye(1)
        for m in range(n_modes):
            op = np.linalg.matrix_power(ad, c[m]) @ np.linalg.matrix_power(an, a[m])
            term = np.kron(term, op)
        total += v * term
    return total


def _reference_transform_kerr(spectrum, mixing):
    """Each Kerr term (-K/2) a'^dag a'^dag a' a' multiplied out in normal order,
    with a_j' = a_j + sum_k htilde_kj a_k - gtilde_j a_g for a KPO and
    a_g' = a_g + sum_j gtilde_j a_j for the coupler."""
    n = spectrum.n_kpo
    m = n + 1 if spectrum.has_coupler else n
    g_tilde = mixing.g_tilde

    def quartic(a_new, kerr):
        adag = _conjugate(a_new)
        product = _reference_mul(_reference_mul(_reference_mul(adag, adag), a_new), a_new)
        return _reference_mul(product, -kerr / 2.0)

    total = {}
    for j in range(n):
        a_new = _annihilation(m, j)
        for k in range(n):
            if k != j and mixing.h_tilde[k, j] != 0.0:
                a_new = _add(a_new, _annihilation(m, k, mixing.h_tilde[k, j]))
        if g_tilde is not None and g_tilde[j] != 0.0:
            a_new = _add(a_new, _annihilation(m, n, -g_tilde[j]))
        total = _add(total, quartic(a_new, spectrum.kerr[j]))
    if spectrum.has_coupler and spectrum.coupler_kerr:
        a_new = _annihilation(m, n)
        if g_tilde is not None:
            for j in range(n):
                if g_tilde[j] != 0.0:
                    a_new = _add(a_new, _annihilation(m, j, g_tilde[j]))
        total = _add(total, quartic(a_new, spectrum.coupler_kerr))
    return _nonzero(total)


# -- the reference's algebra -------------------------------------------------

def test_commutator_identity_single_mode():
    # a a+ = a+ a + 1
    prod = _reference_mul(_annihilation(1, 0), _creation(1, 0))
    assert prod[((1,), (1,))] == pytest.approx(1.0)
    assert prod[((0,), (0,))] == pytest.approx(1.0)
    assert len(_nonzero(prod)) == 2


def test_number_operator_square():
    # (a+ a)^2 = a+^2 a^2 + a+ a
    n = _reference_mul(_creation(1, 0), _annihilation(1, 0))
    n2 = _reference_mul(n, n)
    assert n2[((2,), (2,))] == pytest.approx(1.0)
    assert n2[((1,), (1,))] == pytest.approx(1.0)


def test_distinct_modes_commute():
    a0, c1 = _annihilation(2, 0), _creation(2, 1)
    assert _reference_mul(a0, c1) == _reference_mul(c1, a0)


def test_scalar_multiplication_and_subtraction():
    p = _creation(1, 0, 2.0)
    q = _add(_reference_mul(p, 0.5), _reference_mul(_creation(1, 0), -1.0))
    assert not _nonzero(q)


def test_conjugate_swaps_exponents():
    pc = _conjugate({((1, 0), (0, 2)): 3.0 + 1.0j})
    assert pc[((0, 2), (1, 0))] == pytest.approx(3.0 - 1.0j)


def _random_poly(rng, n_modes, n_terms, max_exp=2):
    terms = {}
    for _ in range(n_terms):
        c = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n_modes))
        a = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(n_modes))
        terms[(c, a)] = complex(rng.normal(), rng.normal())
    return terms


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_product_matches_matrix_representation(seed):
    # normal-ordered product agrees with brute-force matrices on a truncated
    # Fock space, on the block where truncation cannot leak
    rng = np.random.default_rng(seed)
    dim = 6
    p = _random_poly(rng, 2, 3)
    q = _random_poly(rng, 2, 3)
    prod = _reference_mul(p, q)
    lhs = _to_matrix(p, 2, dim) @ _to_matrix(q, 2, dim)
    rhs = _to_matrix(prod, 2, dim)
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
    p = {(c, a): coeff}
    terms = _reference_mul(p, _conjugate(p))
    scale = max(map(abs, terms.values()), default=1.0)
    assert all(abs(terms.get((a, c), 0.0) - np.conj(v)) <= 1e-12 * scale
               for (c, a), v in terms.items())


# -- BosonicPolynomial ---------------------------------------------------------

@pytest.mark.parametrize("scalar", [np.int64(2), np.float32(2.0), np.float64(2.0),
                                    np.complex128(2.0), 2, 2.0, 2.0 + 0.0j])
def test_scalar_multiplication_accepts_numpy_scalars(scalar):
    p = BosonicPolynomial(2, {((1, 0), (0, 1)): 1.5 - 0.5j, ((0, 0), (0, 0)): 0.25})
    for product in (p * scalar, scalar * p):
        assert isinstance(product, BosonicPolynomial)
        assert product.terms == {key: v * 2 for key, v in p.terms.items()}


@pytest.mark.parametrize("operand", ["x", None, [1.0], object()])
def test_multiplication_by_a_non_number_raises_type_error(operand):
    p = BosonicPolynomial(1, {((1,), (0,)): 1.0})
    with pytest.raises(TypeError):
        p * operand
    with pytest.raises(TypeError):
        operand * p


def test_sums_and_polynomial_products_raise_type_error():
    # the polynomial only scales; it has no addition and no operator product
    p = BosonicPolynomial(1, {((1,), (0,)): 1.0})
    for combine in (lambda: p + 1, lambda: p - 1, lambda: 1 + p, lambda: 1 - p,
                    lambda: p + p, lambda: p - p, lambda: p * p):
        with pytest.raises(TypeError):
            combine()


@given(data=st.data(), n_modes=st.integers(min_value=1, max_value=3),
       n_rows=st.integers(min_value=1, max_value=3), complex_u=st.booleans())
@settings(max_examples=40, deadline=None)
def test_quartic_matches_dense_fock_matrices(data, n_modes, n_rows, complex_u):
    # sum_j w_j B_j^dag^2 B_j^2 is normal-ordered, so its truncated matrix is
    # exact at any cutoff
    entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    size = n_rows * n_modes
    u = np.array(data.draw(st.lists(entry, min_size=size, max_size=size)))
    if complex_u:
        u = u + 1j * np.array(data.draw(st.lists(entry, min_size=size, max_size=size)))
    u = u.reshape(n_rows, n_modes)
    w = np.array(data.draw(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                                    min_size=n_rows, max_size=n_rows)))
    dim = 3
    ops = [_to_matrix(_annihilation(n_modes, p), n_modes, dim) for p in range(n_modes)]
    expected = np.zeros((dim ** n_modes,) * 2, dtype=complex)
    for j in range(n_rows):
        b = sum(u[j, p] * ops[p] for p in range(n_modes))
        b2 = b @ b
        expected += w[j] * b2.conj().T @ b2
    poly = BosonicPolynomial.quartic(u, w)
    # a drawn zero leaves some coefficients 0, and those are left out; the
    # matrix comparison holds each one left out to 0
    assert poly.n_modes == n_modes and set(poly.terms) <= set(_quartic_keys(n_modes))
    assert all(abs(v) > PRUNE_TOL for v in poly.terms.values())
    assert np.allclose(_to_matrix(poly.terms, n_modes, dim), expected, rtol=0.0, atol=1e-12)
    assert all(v == np.conj(poly.terms[(a, c)]) for (c, a), v in poly.terms.items())


# -- transform_kerr against the reference --------------------------------------

def _seeded_cases(seed):
    """(spectrum, couplings, pump, coupler_mode) on a seeded resonant ladder
    (w1 + w2 = w3 + w4) and on seeded off-ladder frequencies, with and
    without a coupler, with coupler Kerr 0, and with KPOs 2 and 3 uncoupled.
    KPO 1 couples to every mode in each."""
    rng = np.random.default_rng(seed)
    cases = []
    for resonant in (True, False):
        eps = rng.uniform(80.0, 150.0)
        offsets = eps * np.array([0.0, -3.0, -1.0, -2.0])
        if not resonant:
            offsets = offsets + rng.uniform(-20.0, 20.0, 4)
        omega = 10.0 * GHZ + offsets * MHZ
        kerr = rng.uniform(1.0, 30.0, 4) * MHZ
        h = np.triu(rng.uniform(-10.0, 10.0, (4, 4)), 1) * MHZ
        h = h + h.T
        h_cut = h.copy()
        h_cut[1, 2] = h_cut[2, 1] = 0.0
        g = rng.uniform(50.0, 200.0, 4) * MHZ * UNIT_SIGNS
        pump = PumpAssignment(omega_p=tuple(2.0 * omega))
        for hh in (h, h_cut):
            cases.append((ModeSpectrum(omega=omega, kerr=kerr), CouplingGraph(h=hh), pump, None))
            for coupler_kerr in (20.0 * MHZ, 0.0):
                spectrum = ModeSpectrum(omega=omega, kerr=kerr, coupler_omega=13.0 * GHZ,
                                        coupler_kerr=coupler_kerr)
                cases.append((spectrum, CouplingGraph(h=hh, g=g), pump, 4))
    return cases


def _report_keys(report):
    return [(e.creation, e.annihilation) for e in report.entries]


def _assert_matches_reference(poly, ref):
    scale = max(abs(v) for v in ref.values())
    for key, v in ref.items():
        assert abs(poly.terms[key] - v) <= 1e-14 * scale
    for c, a in poly.terms:
        assert poly.terms[(a, c)] == poly.terms[(c, a)]
    four_body = ((1, 1, 0, 0, 0)[:poly.n_modes], (0, 0, 1, 1, 0)[:poly.n_modes])
    assert poly.terms[four_body] == pytest.approx(ref[four_body], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_transform_kerr_matches_reference(seed):
    for spectrum, couplings, pump, coupler_mode in _seeded_cases(seed):
        mix = sw_mixing(spectrum, couplings)
        poly = transform_kerr(spectrum, mix)
        ref = _reference_transform_kerr(spectrum, mix)
        # same keys in the same order, values to rounding
        assert list(poly.terms) == list(ref)
        _assert_matches_reference(poly, ref)
        # the reference's conjugate pairs differ in the last bit, so on the
        # resonant ladder it orders a tied pair by rounding; the kept
        # monomials agree up to a monomial and its adjoint
        report = rwa_filter(poly, pump, coupler_mode=coupler_mode)
        ref_report = rwa_filter(BosonicPolynomial(poly.n_modes, ref), pump,
                                coupler_mode=coupler_mode)
        assert ([frozenset({(c, a), (a, c)}) for c, a in _report_keys(report)]
                == [frozenset({(c, a), (a, c)}) for c, a in _report_keys(ref_report)])


@pytest.mark.parametrize("cut", ["h12", "g1", "h"])
def test_transform_kerr_key_order_when_kpo1_is_not_coupled_to_every_mode(cut):
    # the reference inserts a key when the first Kerr term that holds it is
    # expanded, so once KPO 1 misses a mode its order is no longer the
    # quartic's; the key set and the values still agree
    omega = np.array([10.0, 9.7, 9.9, 9.8]) * GHZ
    spectrum = ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ,
                            coupler_omega=12.0 * GHZ, coupler_kerr=20.0 * MHZ)
    h = np.array([[0.0, 5.0, 4.0, 3.0], [5.0, 0.0, 6.0, 2.0],
                  [4.0, 6.0, 0.0, 5.5], [3.0, 2.0, 5.5, 0.0]]) * MHZ
    g = np.array([5.0, 6.0, 7.0, 8.0]) * MHZ * UNIT_SIGNS
    if cut == "h12":
        h[0, 1] = h[1, 0] = 0.0
    elif cut == "g1":
        g[0] = 0.0
    else:
        h[:] = 0.0
    mix = sw_mixing(spectrum, CouplingGraph(h=h, g=g))
    poly = transform_kerr(spectrum, mix)
    ref = _reference_transform_kerr(spectrum, mix)
    order = {key: i for i, key in enumerate(BosonicPolynomial.quartic(np.ones((1, 5)), [1.0]).terms)}
    assert list(ref) != sorted(ref, key=order.get)
    assert list(poly.terms) == sorted(ref, key=order.get)
    _assert_matches_reference(poly, ref)


def test_transform_kerr_and_rwa_order_bit_identical_to_reference():
    omega = np.array([10.0, 9.7, 9.9, 9.8]) * GHZ
    spectrum = ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ,
                            coupler_omega=12.0 * GHZ, coupler_kerr=20.0 * MHZ)
    h = np.full((4, 4), 5.0 * MHZ)
    np.fill_diagonal(h, 0.0)
    mix = sw_mixing(spectrum, CouplingGraph(h=h, g=5.0 * MHZ * UNIT_SIGNS))
    pump = PumpAssignment(omega_p=tuple(2 * w for w in omega))

    poly = transform_kerr(spectrum, mix)
    ref = _reference_transform_kerr(spectrum, mix)
    assert len(ref) == 225
    assert list(poly.terms) == list(ref)
    _assert_matches_reference(poly, ref)
    report = rwa_filter(poly, pump, coupler_mode=4)
    ref_report = rwa_filter(BosonicPolynomial(5, ref), pump, coupler_mode=4)
    assert len(report.entries) > 1
    assert _report_keys(report) == _report_keys(ref_report)


# -- the quartic and rwa_filter against their loops on NumPy scalars -----------

def _numpy_scalar_quartic_terms(u, weight):
    """BosonicPolynomial.quartic's terms as first written: the pair keys made
    by np.bincount on every call, the values NumPy scalars."""
    u = np.asarray(u)
    n_modes = u.shape[1]
    p, q = np.triu_indices(n_modes)
    pair = u[:, p] * u[:, q]
    pair[:, p != q] *= 2
    c = (pair.conj().T * np.asarray(weight)) @ pair
    c = 0.5 * (c + c.conj().T)
    keys = [tuple(np.bincount([i, j], minlength=n_modes).tolist()) for i, j in zip(p, q)]
    return {(kc, ka): c[x, y] for x, kc in enumerate(keys) for y, ka in enumerate(keys)}


def _numpy_scalar_rwa_entries(poly, pump, coupler_mode=None):
    """rwa_filter's loop as first written, on NumPy floats. It indexes the
    pumps by mode number, so a coupler must be the last mode."""
    omega_p = np.asarray(pump.omega_p, dtype=float)
    entries = []
    for (c, a), v in _nonzero(poly.terms).items():
        if coupler_mode is not None and c[coupler_mode] != a[coupler_mode]:
            continue
        rotation = 0.0
        for mode in range(poly.n_modes):
            if mode == coupler_mode:
                continue
            rotation += (c[mode] - a[mode]) * omega_p[mode] / 2.0
        if abs(rotation) < RESONANCE_TOL:
            entries.append(ReportEntry(c, a, v, classify_monomial(c, a, coupler_mode),
                                       abs(rotation)))
    entries.sort(key=lambda e: -abs(e.coefficient))
    return entries


def _bits(value):
    """The IEEE bits of a real or complex scalar."""
    z = complex(value)
    return struct.pack("<dd", z.real, z.imag)


@pytest.mark.parametrize("seed", range(4))
def test_quartic_bit_identical_to_the_numpy_scalar_comprehension(seed):
    # the comprehension followed by the prune transform_kerr once made; with
    # no noise many coefficients are exactly 0, and the prune drops them
    rng = np.random.default_rng(seed)
    for n_modes in (1, 2, 4, 5):
        for complex_u, noise in ((False, 0.1), (True, 0.1), (False, 0.0)):
            n_rows = rng.integers(1, n_modes + 1)
            u = np.eye(n_modes)[:n_rows] + noise * rng.normal(size=(n_rows, n_modes))
            if complex_u:
                u = u + 0.1j * rng.normal(size=(n_rows, n_modes))
            weight = rng.uniform(-15.0, 15.0, n_rows) * MHZ
            terms = BosonicPolynomial.quartic(u, weight).terms
            reference = _nonzero(_numpy_scalar_quartic_terms(u, weight))
            if not noise and n_modes > 1:
                assert len(reference) < len(_quartic_keys(n_modes))
            assert list(terms) == list(reference)
            assert {type(v) for v in terms.values()} == {complex if complex_u else float}
            assert [_bits(v) for v in terms.values()] == [_bits(v) for v in reference.values()]


@pytest.mark.parametrize("seed", range(6))
def test_rwa_filter_bit_identical_to_the_numpy_float_loop(seed):
    rng = np.random.default_rng(seed)
    rotations = []
    for spectrum, couplings, pump, coupler_mode in _seeded_cases(seed):
        poly = transform_kerr(spectrum, sw_mixing(spectrum, couplings))
        numpy_poly = BosonicPolynomial(poly.n_modes,
                                       {k: np.float64(v) for k, v in poly.terms.items()})
        # pumps moved within the tolerance leave the kept terms a nonzero rotation
        jitter = rng.uniform(-0.25, 0.25, 4) * RESONANCE_TOL
        for pumps in (pump, PumpAssignment(omega_p=tuple(np.add(pump.omega_p, jitter)))):
            entries = rwa_filter(poly, pumps, coupler_mode=coupler_mode).entries
            reference = _numpy_scalar_rwa_entries(numpy_poly, pumps, coupler_mode)
            assert len(entries) > 1
            assert ([(e.creation, e.annihilation, e.classification) for e in entries]
                    == [(e.creation, e.annihilation, e.classification) for e in reference])
            assert ([(_bits(e.coefficient), _bits(e.rotation_residual)) for e in entries]
                    == [(_bits(e.coefficient), _bits(e.rotation_residual)) for e in reference])
            rotations += [e.rotation_residual for e in entries]
    assert any(rotations)


def _pruned_copy_rwa_entries(poly, pump, coupler_mode=None):
    """rwa_filter as it was before it pruned in its own loop: it iterates a
    pruned copy of the polynomial and adds every pumped mode to the rotation."""
    omega_p = np.asarray(pump.omega_p, dtype=float).tolist()
    kpo_modes = [mode for mode in range(poly.n_modes) if mode != coupler_mode]
    pumped = list(zip(kpo_modes, omega_p))
    entries = []
    for (c, a), v in _nonzero(poly.terms).items():
        if coupler_mode is not None and c[coupler_mode] != a[coupler_mode]:
            continue
        rotation = 0.0
        for mode, w in pumped:
            rotation += (c[mode] - a[mode]) * w / 2.0
        if abs(rotation) < RESONANCE_TOL:
            entries.append(ReportEntry(c, a, v, classify_monomial(c, a, coupler_mode),
                                       abs(rotation)))
    entries.sort(key=lambda e: -abs(e.coefficient))
    return entries


@pytest.mark.parametrize("seed", range(6))
def test_rwa_filter_bit_identical_to_the_pruned_copy_loop(seed):
    # transform_kerr's output holds no coefficient to prune, so terms at and
    # below PRUNE_TOL are added, among them stationary ones
    rng = np.random.default_rng(100 + seed)
    for spectrum, couplings, pump, coupler_mode in _seeded_cases(seed):
        poly = transform_kerr(spectrum, sw_mixing(spectrum, couplings))
        zero = (0,) * poly.n_modes
        one = tuple(int(m == 0) for m in range(poly.n_modes))
        small = {(one, one): PRUNE_TOL, (zero, zero): 0.0, (one, zero): 0.5 * PRUNE_TOL,
                 (zero, one): -0.0}
        poly = BosonicPolynomial(poly.n_modes, {**poly.terms, **small})
        jitter = rng.uniform(-0.25, 0.25, 4) * RESONANCE_TOL
        for pumps in (pump, PumpAssignment(omega_p=tuple(np.add(pump.omega_p, jitter)))):
            entries = rwa_filter(poly, pumps, coupler_mode=coupler_mode).entries
            reference = _pruned_copy_rwa_entries(poly, pumps, coupler_mode)
            assert len(entries) > 1
            assert not {(e.creation, e.annihilation) for e in entries} & set(small)
            assert ([(e.creation, e.annihilation, e.classification) for e in entries]
                    == [(e.creation, e.annihilation, e.classification) for e in reference])
            assert ([(_bits(e.coefficient), _bits(e.rotation_residual)) for e in entries]
                    == [(_bits(e.coefficient), _bits(e.rotation_residual)) for e in reference])


def _assert_same_entries(entries, reference):
    assert ([(e.creation, e.annihilation, e.classification) for e in entries]
            == [(e.creation, e.annihilation, e.classification) for e in reference])
    assert ([(_bits(e.coefficient), _bits(e.rotation_residual)) for e in entries]
            == [(_bits(e.coefficient), _bits(e.rotation_residual)) for e in reference])


@pytest.mark.parametrize("seed", range(3))
def test_rwa_filter_matches_the_pruned_copy_loop_at_the_tolerance(seed):
    # pump 4 stepped one float at a time across the value where the four-body
    # rotation (w1 + w2 - w3 - w4) / 2, summed in mode order, meets
    # RESONANCE_TOL: a sum in any other order (one matrix product, say)
    # moves some of these rotations across the tolerance
    near = []
    for spectrum, couplings, pump, coupler_mode in _seeded_cases(seed):
        poly = transform_kerr(spectrum, sw_mixing(spectrum, couplings))
        w1, w2, w3, _ = pump.omega_p
        w4 = w1 + w2 - w3 - 2.0 * RESONANCE_TOL
        for _ in range(8):
            w4 = math.nextafter(w4, -math.inf)
        for _ in range(17):
            pumps = PumpAssignment(omega_p=(w1, w2, w3, w4))
            entries = rwa_filter(poly, pumps, coupler_mode=coupler_mode).entries
            _assert_same_entries(entries, _pruned_copy_rwa_entries(poly, pumps, coupler_mode))
            near.append(w1 / 2.0 + w2 / 2.0 - w3 / 2.0 - w4 / 2.0 < RESONANCE_TOL)
            w4 = math.nextafter(w4, math.inf)
    assert any(near) and not all(near)


def test_rwa_filter_with_the_coupler_inside_the_mode_list():
    # the coupler moved from mode 4 to mode 2 of 5: the pumps skip it, and the
    # kept monomials are the coupler-last ones with their modes moved alike
    order = (0, 1, 4, 2, 3)
    for spectrum, couplings, pump, coupler_mode in _seeded_cases(0):
        if coupler_mode is None:
            continue
        poly = transform_kerr(spectrum, sw_mixing(spectrum, couplings))
        moved = BosonicPolynomial(5, {(tuple(c[m] for m in order), tuple(a[m] for m in order)): v
                                      for (c, a), v in poly.terms.items()})
        jitter = np.random.default_rng(7).uniform(-0.25, 0.25, 4) * RESONANCE_TOL
        for pumps in (pump, PumpAssignment(omega_p=tuple(np.add(pump.omega_p, jitter)))):
            entries = rwa_filter(moved, pumps, coupler_mode=2).entries
            _assert_same_entries(entries, _pruned_copy_rwa_entries(moved, pumps, 2))
            last = rwa_filter(poly, pumps, coupler_mode=4).entries
            assert len(entries) == len(last) > 1
            for e, f in zip(entries, last):
                assert e.creation == tuple(f.creation[m] for m in order)
                assert e.annihilation == tuple(f.annihilation[m] for m in order)
                assert (_bits(e.coefficient), _bits(e.rotation_residual), e.classification) == (
                    _bits(f.coefficient), _bits(f.rotation_residual), f.classification)


def test_quartic_keeps_a_non_finite_coefficient():
    # a prune by abs(v) > PRUNE_TOL would drop a NaN as if it were 0
    for weight in (math.nan, math.inf):
        with np.errstate(invalid="ignore"):  # inf * 0
            terms = BosonicPolynomial.quartic(np.eye(2), [weight, 1.0]).terms
        assert not all(math.isfinite(abs(v)) for v in terms.values())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0)],
                         ids=["nan", "inf", "-inf", "complex-nan"])
def test_rwa_filter_raises_on_a_non_finite_coefficient(value):
    four_body = ((1, 1, 0, 0), (0, 0, 1, 1))
    poly = BosonicPolynomial(4, {four_body: value, four_body[::-1]: value})
    pump = PumpAssignment(omega_p=tuple(2.0 * GHZ * np.array([10.0, 9.7, 9.9, 9.8])))
    with pytest.raises(ValueError, match="not finite"):
        rwa_filter(poly, pump)
