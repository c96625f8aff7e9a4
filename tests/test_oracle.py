"""Truncated-Fock-space diagonalization checks."""

import itertools
import os
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from kpokit import oracle
from kpokit.constants import GHZ, MHZ
from kpokit.oracle import (
    FockHamiltonian,
    build_hamiltonian,
    dressed_frequencies_exact,
    four_body_from_gap,
    four_body_kerr_dressed,
)
from kpokit.perturbation import (
    MIXING_LIMIT,
    CouplingGraph,
    ModeSpectrum,
    h4_general,
    mixing_from_frequencies,
)


def _ladder(eps_ghz=0.1, kerr_mhz=(5.1, 20.0, 20.0, 5.1)):
    w1 = 10.0
    omega = np.array([w1, w1 - 3 * eps_ghz, w1 - eps_ghz, w1 - 2 * eps_ghz]) * GHZ
    return ModeSpectrum(omega=omega, kerr=np.array(kerr_mhz) * MHZ)


def _full_h(value, n=4):
    h = np.full((n, n), value)
    np.fill_diagonal(h, 0.0)
    return h


def _total_parity(n_modes, d):
    occupations = np.indices((d,) * n_modes).reshape(n_modes, -1)
    return occupations.sum(axis=0) % 2


def _capped(n_modes, d, cap=6):
    """Which states of the even block hold at most `cap` quanta."""
    total = np.indices((d,) * n_modes).reshape(n_modes, -1).sum(axis=0)
    return total[total % 2 == 0] <= cap


def _full(ham):
    """The full matrix of a FockHamiltonian, its two parity blocks put back in place."""
    parity = _total_parity(ham.n_modes, ham.truncation)
    full = np.zeros((ham.dimension, ham.dimension))
    for p, block in enumerate((ham.even, ham.odd)):
        full[np.ix_(parity == p, parity == p)] = block
    return full


def test_single_mode_energies():
    spectrum = ModeSpectrum(omega=np.array([10.0 * GHZ]), kerr=np.array([20.0 * MHZ]))
    h = build_hamiltonian(spectrum, CouplingGraph(h=np.zeros((1, 1))), d=4)
    dense = _full(h)
    assert np.allclose(dense, np.diag(np.diag(dense)))
    # n-th level: n*w - (K/2) n (n-1)
    assert dense[1, 1] == pytest.approx(10.0 * GHZ)
    assert dense[2, 2] == pytest.approx(2 * 10.0 * GHZ - 20.0 * MHZ)
    assert dense[3, 3] == pytest.approx(3 * 10.0 * GHZ - 3 * 20.0 * MHZ)


def test_hamiltonian_is_hermitian_sparse():
    spectrum = _ladder()
    h = build_hamiltonian(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)), d=3)
    asym = _full(h) - _full(h).T
    assert np.count_nonzero(asym) == 0 or abs(asym).max() < 1e-9


# the unit circuit's coupler signs: KPOs 1 and 2 on one coupler node, 3 and 4 on the other
UNIT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_CACHES = (oracle._fock_basis, oracle._elements)  # as made, whatever a test patches


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


@pytest.fixture
def fresh_basis():
    """No basis or element table made before the test is used in it, and
    none made in it outlives it."""
    _clear_caches()
    yield _CACHES[0]
    _clear_caches()


# a1+ a2 without its adjoint, and a1+ alone, on four modes
_HOP_WITHOUT_ADJOINT = ((1, 0, 0, 0), (0, 1, 0, 0))
_ONE_CREATION = ((1, 0, 0, 0), (0, 0, 0, 0))
_ONE_ANNIHILATION = ((0, 0, 0, 0), (1, 0, 0, 0))


@pytest.fixture
def inject(monkeypatch):
    """inject(monomial) adds 1 MHz times the monomial to the polynomial of
    every Hamiltonian formed after it."""

    def place(monomial):
        polynomial = oracle._polynomial

        def faulty(spectrum, couplings):
            out = polynomial(spectrum, couplings)
            out.terms[monomial] = out.terms.get(monomial, 0.0) + 1.0 * MHZ
            return out

        monkeypatch.setattr(oracle, "_polynomial", faulty)

    return place


@pytest.mark.parametrize("space", [0, 1, 2], ids=["even", "odd", "hop"])
def test_hermitian_check_raises_on_an_injected_fault(inject, space):
    # a1+ a2 moves a quantum from mode 2 to mode 1 in every block, and
    # |1100> to |2000> in the hop space; without its adjoint each matrix
    # it reaches is asymmetric
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(5.0 * MHZ))
    oracle._build(oracle._polynomial(spectrum, couplings), 3, (space,))
    inject(_HOP_WITHOUT_ADJOINT)
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle._build(oracle._polynomial(spectrum, couplings), 3, (space,))


def test_an_even_only_build_still_checks_its_block(inject):
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(5.0 * MHZ))
    build_hamiltonian(spectrum, couplings, d=3, odd=False)
    four_body_kerr_dressed(spectrum, couplings)
    inject(_HOP_WITHOUT_ADJOINT)
    with pytest.raises(ValueError, match="not Hermitian"):
        build_hamiltonian(spectrum, couplings, d=3, odd=False)
    with pytest.raises(ValueError, match="not Hermitian"):
        build_hamiltonian(spectrum, couplings, d=3)
    # the estimate's hop space holds |1100> and |2000>, and meets the check too
    with pytest.raises(ValueError, match="not Hermitian"):
        four_body_kerr_dressed(spectrum, couplings)


def test_an_even_only_build_makes_no_odd_block(monkeypatch):
    # the odd block is neither built nor checked: at d = 3 the even block
    # holds 41 of the 81 states and the odd one 40
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(5.0 * MHZ))
    checked, check = [], oracle._check_hermitian
    monkeypatch.setattr(oracle, "_check_hermitian",
                        lambda matrix: (checked.append(matrix.shape), check(matrix)))
    assert build_hamiltonian(spectrum, couplings, d=3, odd=False).odd is None
    assert checked == [(41, 41)]
    build_hamiltonian(spectrum, couplings, d=3)
    assert checked == [(41, 41), (41, 41), (40, 40)]


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("coupler", [False, True], ids=["kpos", "coupler"])
def test_an_even_only_build_is_the_even_block_of_a_full_build(d, coupler):
    rng = np.random.default_rng(d)
    spectrum = _ladder(kerr_mhz=rng.uniform(2.0, 25.0, 4))
    couplings = CouplingGraph(h=_random_couplings(rng, [(1, 3)]))
    if coupler:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=rng.uniform(10.0, 90.0, 4) * MHZ * UNIT_SIGNS)
    full = build_hamiltonian(spectrum, couplings, d)
    even_only = build_hamiltonian(spectrum, couplings, d, odd=False)
    _assert_same_bits(even_only.even, full.even)
    # the odd block is not built, not left as zeros
    assert even_only.odd is None and full.odd is not None
    assert (even_only.n_modes, even_only.truncation, even_only.dimension) == (
        full.n_modes, full.truncation, full.dimension)
    with pytest.raises(ValueError, match="need the odd block"):
        dressed_frequencies_exact(even_only)


def test_container_follows_dense_limit(monkeypatch):
    # both blocks are dense; a block above the limit is refused
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(5.0 * MHZ))
    ham = build_hamiltonian(spectrum, couplings, d=4)
    assert isinstance(ham.even, np.ndarray) and isinstance(ham.odd, np.ndarray)
    assert ham.even.shape == ham.odd.shape == (128, 128)
    monkeypatch.setattr(oracle, "DENSE_LIMIT", 127)
    with pytest.raises(ValueError, match="holds 128 states, above DENSE_LIMIT = 127"):
        build_hamiltonian(spectrum, couplings, d=4)


def _kronecker_reference(spectrum, couplings, d):
    """The former assembly, kept as the reference: every term is embedded in
    the full space by a Kronecker chain and the sparse sums run in order.
    Returns the full matrix as an ndarray."""
    adag = sp.diags(np.sqrt(np.arange(1, d)), -1, format="csr")
    a = adag.T.tocsr()
    n_kpo = spectrum.n_kpo
    n_modes = n_kpo + 1 if spectrum.has_coupler else n_kpo

    def embed(op, mode):
        out = None
        for m in range(n_modes):
            factor = op if m == mode else sp.identity(d, format="csr")
            out = factor if out is None else sp.kron(out, factor, format="csr")
        return out

    num = (adag @ a).tocsr()
    kerr_op = (adag @ adag @ a @ a).tocsr()
    omega = list(spectrum.omega)
    kerr = list(spectrum.kerr)
    if spectrum.has_coupler:
        omega.append(spectrum.coupler_omega)
        kerr.append(spectrum.coupler_kerr or 0.0)
    total = sp.csr_matrix((d**n_modes, d**n_modes))
    diff = []
    for m in range(n_modes):
        total = total + omega[m] * embed(num, m)
        total = total - 0.5 * kerr[m] * embed(kerr_op, m)
        diff.append(embed((a - adag).tocsr(), m))
    for j in range(n_kpo):
        for k in range(j + 1, n_kpo):
            if couplings.h[j, k] != 0.0:
                total = total - couplings.h[j, k] * (diff[j] @ diff[k])
    if couplings.g is not None and spectrum.has_coupler:
        for j in range(n_kpo):
            if couplings.g[j] != 0.0:
                total = total - couplings.g[j] * (diff[j] @ diff[n_kpo])
    return total.toarray()


def _reference_hamiltonian(spectrum, couplings, d, *, odd=True):
    """The Kronecker reference as a FockHamiltonian, its parity blocks sliced out."""
    full = _kronecker_reference(spectrum, couplings, d)
    n_modes = spectrum.n_kpo + 1 if spectrum.has_coupler else spectrum.n_kpo
    parity = _total_parity(n_modes, d)
    even, odd = (full[np.ix_(parity == p, parity == p)] for p in (0, 1))
    return FockHamiltonian(n_modes=n_modes, truncation=d, even=even, odd=odd)


def _assert_same_bits(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def _random_couplings(rng, zeros):
    h = rng.uniform(1.0, 20.0, (4, 4)) * MHZ
    h = np.triu(h, 1)
    for j, k in zeros:
        h[j, k] = 0.0
    return h + h.T


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_direct_assembly_matches_kronecker_reference_on_ladders(d):
    rng = np.random.default_rng(100 + d)
    for eps_ghz in (0.1, 0.15, 0.2):
        spectrum = _ladder(eps_ghz, kerr_mhz=rng.uniform(2.0, 25.0, 4))
        for h in (_full_h(5.0 * MHZ), _random_couplings(rng, [(0, 2), (1, 3)])):
            couplings = CouplingGraph(h=h)
            _assert_same_bits(_full(build_hamiltonian(spectrum, couplings, d)),
                              _kronecker_reference(spectrum, couplings, d))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize(
    "signs", [UNIT_SIGNS, (1.0, -1.0, 1.0, -1.0), (-1.0, -1.0, -1.0, 1.0)],
    ids=["unit", "alt", "neg"]
)
def test_direct_assembly_matches_kronecker_reference_with_coupler(d, signs):
    rng = np.random.default_rng(7 * d)
    spectrum = ModeSpectrum(omega=_ladder().omega, kerr=rng.uniform(2.0, 25.0, 4) * MHZ,
                            coupler_omega=11.1 * GHZ, coupler_kerr=rng.uniform(0.5, 3.0) * MHZ)
    g = rng.uniform(10.0, 150.0, 4) * MHZ
    g[2] = 0.0
    couplings = CouplingGraph(h=_random_couplings(rng, [(0, 1)]), g=g * np.array(signs))
    _assert_same_bits(_full(build_hamiltonian(spectrum, couplings, d)),
                      _kronecker_reference(spectrum, couplings, d))
    # a coupler without Kerr and without couplings to it
    bare = ModeSpectrum(omega=spectrum.omega, kerr=spectrum.kerr, coupler_omega=9.3 * GHZ)
    for graph in (CouplingGraph(h=couplings.h), CouplingGraph(h=couplings.h, g=np.zeros(4))):
        _assert_same_bits(_full(build_hamiltonian(bare, graph, d)),
                          _kronecker_reference(bare, graph, d))


def test_direct_assembly_matches_kronecker_reference_on_one_mode():
    spectrum = ModeSpectrum(omega=np.array([10.0 * GHZ]), kerr=np.array([20.0 * MHZ]))
    for d in (3, 7):
        graph = CouplingGraph(h=np.zeros((1, 1)))
        _assert_same_bits(_full(build_hamiltonian(spectrum, graph, d)),
                          _kronecker_reference(spectrum, graph, d))


def test_the_builder_makes_the_transformed_kerr_quartic():
    # transform_kerr's sum_j (-K_j/2) b_j+^2 b_j^2, b_j = sum_p U[j, p] a_p,
    # on four KPOs and a coupler with Kerr: 225 monomials, whose 40860
    # elements in the even block land on 22331 positions, against the
    # quartic formed from Kronecker-embedded a and a+ at d = 4
    from kpokit.perturbation import sw_mixing, transform_kerr

    spectrum = _with_coupler(_ladder(eps_ghz=0.15))
    couplings = CouplingGraph(h=_random_couplings(np.random.default_rng(3), []),
                              g=np.array([20.0, 30.0, 25.0, 15.0]) * MHZ * UNIT_SIGNS)
    mixing = sw_mixing(spectrum, couplings)
    quartic = transform_kerr(spectrum, mixing)
    assert len(quartic.terms) == 225
    d, n = 4, 5
    blocks = oracle._build(quartic, d, (0, 1))
    u = np.eye(n)  # as transform_kerr forms it
    u[:4, :4] += mixing.h_tilde.T
    u[:4, 4] = -mixing.g_tilde
    u[4, :4] = mixing.g_tilde
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    lowering = [sp.kron(sp.kron(sp.identity(d**m), a), sp.identity(d ** (n - 1 - m)))
                for m in range(n)]
    reference = sp.csr_matrix((d**n, d**n))
    for j, kerr in enumerate([*spectrum.kerr, spectrum.coupler_kerr]):
        b = sum(u[j, p] * lowering[p] for p in range(n))
        reference = reference - 0.5 * kerr * (b.T @ b.T @ b @ b)
    reference = reference.toarray()
    parity = _total_parity(n, d)
    assert not reference[np.ix_(parity == 0, parity == 1)].any()
    for p, block in enumerate(blocks):
        expected = reference[np.ix_(parity == p, parity == p)]
        assert abs(block - expected).max() <= 1e-12 * abs(expected).max()


@pytest.mark.parametrize("coupler", [False, True], ids=["kpos-d4", "with-coupler-d3"])
def test_gap_scan_unchanged_by_direct_assembly(monkeypatch, coupler):
    spectrum = _ladder(eps_ghz=0.15)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    d = 4
    if coupler:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=20.0 * MHZ * UNIT_SIGNS)
        d = 3
    kwargs = dict(d=d, scan_halfwidth=3 * MHZ, n_scan=11)
    direct = four_body_from_gap(spectrum, couplings, **kwargs)
    monkeypatch.setattr(oracle, "build_hamiltonian", _reference_hamiltonian)
    reference = four_body_from_gap(spectrum, couplings, **kwargs)
    assert np.all(direct["gaps"] == reference["gaps"])
    assert direct["h_eff"] == reference["h_eff"]


def test_truncation_and_dimension_guards(monkeypatch, fresh_basis):
    spectrum = _ladder()
    # the truncation and the block sizes are checked before any basis, and
    # with it the occupation table, is made
    monkeypatch.setattr(oracle, "_fock_basis", None)
    with pytest.raises(ValueError, match="at least 3"):
        build_hamiltonian(spectrum, CouplingGraph(h=np.zeros((4, 4))), d=2)
    for d, states in ((9, 3281), (40, 1280000)):
        with pytest.raises(ValueError, match=f"holds {states} states, above DENSE_LIMIT = 2048"):
            build_hamiltonian(spectrum, CouplingGraph(h=np.zeros((4, 4))), d=d)
    with pytest.raises(ValueError, match="holds 3888 states, above DENSE_LIMIT"):
        build_hamiltonian(_with_coupler(spectrum),
                          CouplingGraph(h=np.zeros((4, 4)), g=np.zeros(4)), d=6)


def test_two_mode_avoided_crossing():
    # two degenerate linear modes coupled at h split by exactly 2h within
    # the rotating-wave part; counter-rotating corrections are O(h^2/w)
    h_c = 5.0 * MHZ
    spectrum = ModeSpectrum(omega=np.array([10.0, 10.0]) * GHZ, kerr=np.zeros(2))
    ham = build_hamiltonian(
        spectrum, CouplingGraph(h=np.array([[0.0, h_c], [h_c, 0.0]])), d=6
    )
    vals = np.sort(np.linalg.eigvalsh(_full(ham)))
    split = vals[2] - vals[1]
    assert split == pytest.approx(2 * h_c, rel=1e-3)


def test_dressed_frequencies_uncoupled_exact():
    spectrum = _ladder()
    ham = build_hamiltonian(spectrum, CouplingGraph(h=np.zeros((4, 4))), d=3)
    dressed = dressed_frequencies_exact(ham)
    assert np.allclose(dressed, spectrum.omega, rtol=1e-12)


def test_dressed_frequency_shift_matches_perturbation():
    # two linear modes: the exact dressed shift approaches h^2/Delta
    delta = 500 * MHZ
    h_c = 5.0 * MHZ
    spectrum = ModeSpectrum(
        omega=np.array([10.0 * GHZ, 10.0 * GHZ - delta]), kerr=np.zeros(2)
    )
    ham = build_hamiltonian(
        spectrum, CouplingGraph(h=np.array([[0.0, h_c], [h_c, 0.0]])), d=8
    )
    dressed = dressed_frequencies_exact(ham)
    shift = dressed[0] - spectrum.omega[0]
    assert shift == pytest.approx(h_c**2 / delta, rel=0.1)
    assert dressed[1] - spectrum.omega[1] == pytest.approx(-h_c**2 / delta, rel=0.1)


def test_dressed_frequencies_refuse_an_ambiguous_identification():
    # four degenerate modes in a chain 1-2-3-4: the single excitations are the
    # chain's standing waves, and mode 1 keeps at most (2/5) sin^2(2 pi/5) =
    # 0.36 of any one of them, so no eigenstate is mode 1's to report
    h = np.zeros((4, 4))
    h[[0, 1, 2], [1, 2, 3]] = h[[1, 2, 3], [0, 1, 2]] = 5.0 * MHZ
    spectrum = ModeSpectrum(omega=np.full(4, 10.0 * GHZ), kerr=np.full(4, 5.0 * MHZ))
    with pytest.raises(ValueError, match=r"single-excitation state of mode 0 ambiguous "
                                         r"\(overlap 0\.36\)"):
        dressed_frequencies_exact(build_hamiltonian(spectrum, CouplingGraph(h=h), d=3))


def test_gap_extraction_zero_couplings_gives_zero():
    spectrum = _ladder()
    result = four_body_from_gap(
        spectrum, CouplingGraph(h=np.zeros((4, 4))), d=3, scan_halfwidth=2 * MHZ, n_scan=11
    )
    # zero up to eigensolver roundoff on the ~1e11 rad/s frequency scale
    assert result["h_eff"] < 1e-12 * spectrum.omega.max()


@pytest.mark.parametrize("n_scan", [12, 41])
def test_gap_extraction_zero_couplings_refines_to_zero(n_scan):
    # an uncoupled pair crosses without repelling: the gap is |delta|, so g^2 =
    # delta^2 is itself the parabola the refinement fits, and its vertex lands
    # on 0 up to rounding, whether or not 0 is a scan point
    halfwidth = 2 * MHZ
    result = four_body_from_gap(
        _ladder(), CouplingGraph(h=np.zeros((4, 4))), d=4, scan_halfwidth=halfwidth,
        n_scan=n_scan,
    )
    assert abs(result["offset_min"]) < 1e-6 * halfwidth
    assert result["h_eff"] < 1e-6 * halfwidth


def test_gap_scan_too_narrow_to_resolve_the_crossing_raises():
    # the gaps barely move over a +-1e-9 MHz scan; their common value is the
    # unshifted gap, far above the avoided-crossing minimum
    with pytest.raises(ValueError, match="too little to resolve the avoided crossing"):
        four_body_from_gap(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3,
                           scan_halfwidth=1e-9 * MHZ)


def test_gap_extraction_requires_four_modes():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2))
    with pytest.raises(ValueError, match="four"):
        four_body_from_gap(spectrum, CouplingGraph(h=np.zeros((2, 2))), d=3,
                           scan_halfwidth=MHZ)


def test_gap_extraction_exchange_symmetry():
    # relabeling the pair (1,2) <-> (3,4) leaves |h_eff| unchanged
    spectrum = _ladder(eps_ghz=0.15)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    base = four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=3 * MHZ, n_scan=21)
    perm = [2, 3, 0, 1]
    swapped_spec = ModeSpectrum(
        omega=spectrum.omega[perm], kerr=spectrum.kerr[perm]
    )
    swapped = four_body_from_gap(
        swapped_spec, CouplingGraph(h=couplings.h[np.ix_(perm, perm)]),
        d=4, scan_halfwidth=3 * MHZ, n_scan=21,
    )
    assert swapped["h_eff"] == pytest.approx(base["h_eff"], rel=1e-6)


def test_gap_minimum_is_interior_and_refined():
    spectrum = _ladder(eps_ghz=0.15)
    result = four_body_from_gap(
        spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)), d=4,
        scan_halfwidth=3 * MHZ, n_scan=21,
    )
    assert abs(result["offset_min"]) < 3 * MHZ
    assert result["gap_min"] <= result["gaps"].min() + 1e-9 * abs(result["gaps"].min())
    assert result["h_eff"] > 0


def _with_coupler(spectrum):
    return ModeSpectrum(omega=spectrum.omega, kerr=spectrum.kerr,
                        coupler_omega=9.3 * GHZ, coupler_kerr=1.0 * MHZ)


@pytest.mark.parametrize("coupler", [False, True], ids=["kpos", "with-coupler"])
def test_hamiltonian_keeps_excitation_parity(coupler):
    spectrum = _ladder()
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    if coupler:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=20.0 * MHZ * UNIT_SIGNS)
    # the Kronecker reference has no element between the parity sectors
    full = _kronecker_reference(spectrum, couplings, 3)
    parity = _total_parity(5 if coupler else 4, 3)
    assert np.count_nonzero(full[np.ix_(parity == 0, parity == 1)]) == 0
    assert np.count_nonzero(full[np.ix_(parity == 1, parity == 0)]) == 0
    # the couplings are there: the even block is not diagonal
    even = build_hamiltonian(spectrum, couplings, d=3).even
    assert np.count_nonzero(even - np.diag(np.diag(even))) > 0


def _full_space_gap(spectrum, couplings, d, offset):
    """Gap of the two eigenstates with most weight on |1100>, |0011>, from a
    full-space Hamiltonian rebuilt with modes 1 and 2 shifted by offset/2."""
    shifted = ModeSpectrum(
        omega=spectrum.omega + np.array([offset, offset, 0.0, 0.0]) / 2.0,
        kerr=spectrum.kerr,
        coupler_omega=spectrum.coupler_omega,
        coupler_kerr=spectrum.coupler_kerr,
    )
    ham = build_hamiltonian(shifted, couplings, d)
    vals, vecs = np.linalg.eigh(_full(ham))
    pad = (0,) * (ham.n_modes - 4)
    a = np.ravel_multi_index((1, 1, 0, 0) + pad, (d,) * ham.n_modes)
    b = np.ravel_multi_index((0, 0, 1, 1) + pad, (d,) * ham.n_modes)
    top = np.argsort(vecs[a] ** 2 + vecs[b] ** 2)[-2:]
    return abs(vals[top[1]] - vals[top[0]])


@pytest.mark.parametrize("coupler", [False, True], ids=["kpos-d4", "with-coupler-d3"])
def test_gap_trace_matches_full_space_rebuild(coupler):
    spectrum = _ladder(eps_ghz=0.15)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    d = 4
    if coupler:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=20.0 * MHZ * UNIT_SIGNS)
        d = 3
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ, n_scan=11)
    expected = [_full_space_gap(spectrum, couplings, d, x) for x in result["offsets"]]
    assert result["gaps"] == pytest.approx(expected, rel=1e-8)
    # the block actually diagonalized: the even states of at most four quanta,
    # with those of six folded in
    n_modes = 5 if coupler else 4
    expected = (61, 45) if coupler else (42, 44)
    assert (result["dimension"], result["folded_dimension"]) == expected
    assert result["dimension"] == np.count_nonzero(_capped(n_modes, d, 4))
    assert result["truncation_bound"] <= result["roundoff"]
    assert 2 * oracle.OVERLAP_THRESHOLD < result["pair_weight"] <= 2.0 + 1e-12


@pytest.mark.parametrize(
    "case", ["eps50-d3", "eps300-d4", "with-coupler-d3"],
)
def test_parabolic_refinement_matches_bounded_brent(case):
    # bounded Brent on the full-space gap, over the same bracket and to the
    # same xatol, is the reference the parabolic refinement must meet
    from scipy.optimize import minimize_scalar

    eps_ghz, d, halfwidth = {"eps50-d3": (0.05, 3, 2 * MHZ), "eps300-d4": (0.3, 4, 2 * MHZ),
                             "with-coupler-d3": (0.15, 3, 3 * MHZ)}[case]
    spectrum = _ladder(eps_ghz)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    if case == "with-coupler-d3":
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=20.0 * MHZ * UNIT_SIGNS)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
    i = int(np.argmin(result["gaps"]))
    brent = minimize_scalar(
        lambda x: _full_space_gap(spectrum, couplings, d, x),
        bounds=(result["offsets"][i - 1], result["offsets"][i + 1]),
        method="bounded", options={"xatol": halfwidth * 1e-6},
    )
    assert result["h_eff"] == pytest.approx(brent.fun / 2.0, rel=1e-5)


def test_refined_gap_does_not_depend_on_the_scan_width(monkeypatch):
    # the ladder of `kpokit oracle` (eps 100 MHz, d 4): a refinement that
    # stopped at a step below 1e-6 of the half-width was 1e-7 high at +-20 MHz
    # and 5e-6 high at +-50 MHz; the guard promises REMAINDER_TOL of the gap
    spectrum, couplings = _ladder(eps_ghz=0.1), CouplingGraph(h=_full_h(5.0 * MHZ))
    solves = []
    eigh = np.linalg.eigh

    def counting(matrix):
        solves.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    narrow = four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=2 * MHZ)
    # the block eigensolve, the 41 scan points at once, one refinement point
    assert len(solves) == 3
    for halfwidth in (20 * MHZ, 50 * MHZ):
        wide = four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=halfwidth)
        assert wide["h_eff"] == pytest.approx(narrow["h_eff"], rel=oracle.REMAINDER_TOL)


def test_gap_rejects_hamiltonian_mixing_parity(inject):
    # a1+ links |0000> (even) and |1000> (odd)
    inject(_ONE_CREATION)
    with pytest.raises(ValueError, match="even and odd"):
        four_body_from_gap(_ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3,
                           scan_halfwidth=3 * MHZ, n_scan=11)


@pytest.mark.parametrize("monomial", [_ONE_CREATION, _ONE_ANNIHILATION],
                         ids=["creation", "annihilation"])
def test_build_rejects_either_parity_block(inject, monomial):
    # refused whichever space is built: an element between the blocks
    # would land in neither and go unseen
    inject(monomial)
    with pytest.raises(ValueError, match="even and odd"):
        build_hamiltonian(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3)
    with pytest.raises(ValueError, match="even and odd"):
        four_body_kerr_dressed(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)))


def test_basis_arrays_are_read_only(fresh_basis):
    basis = fresh_basis(5, 3)
    spectrum = _with_coupler(_ladder())
    monomials = tuple(oracle._polynomial(spectrum, CouplingGraph(
        h=_full_h(5.0 * MHZ), g=20.0 * MHZ * UNIT_SIGNS)).terms)
    # 10 diagonal monomials and four for each of 10 pairs of modes
    assert len(monomials) == 10 + 4 * 10
    tables = [oracle._elements(5, 3, space, monomials) for space in (0, 1, 2)]
    assert [table[0] for table in tables] == [122, 121, 34]
    arrays = [basis.occupations, basis.pair, *basis.spaces,
              *(x for block in basis.scan for x in block if x is not None),
              *(x for table in tables for x in table[1:])]
    # five arrays, six per fold (of at most 4, 6 and 8 quanta; the last
    # drops none, and its empty array is read-only too), four for the whole
    # block (it folds and drops none) and three per space's element table
    assert [len(block.dropped) for block in basis.scan[:-1]] == [16, 1, 0]
    assert len(arrays) == 5 + 3 * 6 + 4 + 3 * 3
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("n_modes, d, folds", [(4, 4, (4, 6, 8)), (4, 3, (4, 6)), (5, 3, (4, 6, 8))])
def test_scan_blocks_are_read_off_the_occupations(fresh_basis, n_modes, d, folds):
    # tier N keeps the states of at most N quanta and folds in those of
    # N + 2, for N = 4, 6, 8 where such states exist: at d = 3 four KPOs
    # hold at most eight quanta, so N = 6 folds |2222> alone
    basis = fresh_basis(n_modes, d)
    occupations = basis.occupations[:, basis.spaces[0]]
    *ladder, whole = basis.scan
    assert whole.folded is whole.dropped is None
    np.testing.assert_array_equal(whole.kept, np.arange(occupations.shape[1]))
    assert len(ladder) == len(folds)
    for n, fold in zip(folds, ladder):
        np.testing.assert_array_equal(fold.kept, np.flatnonzero(_capped(n_modes, d, n)))
        np.testing.assert_array_equal(fold.folded, np.flatnonzero(
            _capped(n_modes, d, n + 2) & ~_capped(n_modes, d, n)))
        np.testing.assert_array_equal(fold.dropped, np.flatnonzero(~_capped(n_modes, d, n + 2)))
        np.testing.assert_array_equal(
            np.sort(np.concatenate([fold.kept, fold.folded, fold.dropped])), whole.kept)
    for block in basis.scan:
        rows = block.kept if block.folded is None else np.concatenate([block.kept, block.folded])
        occ = occupations[:, rows]
        np.testing.assert_array_equal(block.half_pair_number, 0.5 * occ[:2].sum(axis=0))
        np.testing.assert_array_equal(block.two_quanta, occ.sum(axis=0) == 2)
        np.testing.assert_array_equal(block.kept[block.pair], basis.pair)


def test_builds_on_a_cached_basis_match_cold_builds(fresh_basis):
    # couplings A, then B, then A again on one basis, against each built
    # on a freshly made basis
    rng = np.random.default_rng(5)
    spectrum = _with_coupler(_ladder())
    graphs = [CouplingGraph(h=_full_h(5.0 * MHZ), g=20.0 * MHZ * UNIT_SIGNS),
              CouplingGraph(h=_random_couplings(rng, [(0, 2)]),
                            g=rng.uniform(10.0, 90.0, 4) * MHZ * UNIT_SIGNS)]
    cold = []
    for couplings in graphs:
        _clear_caches()
        cold.append(build_hamiltonian(spectrum, couplings, d=3))
    _clear_caches()
    warm = [build_hamiltonian(spectrum, couplings, d=3) for couplings in graphs + graphs[:1]]
    # one basis, and one element table per block of each polynomial: the
    # second graph has a zero coupling, so its monomials differ
    assert fresh_basis.cache_info().misses == 1
    assert oracle._elements.cache_info().misses == 4
    for ham, reference in zip(warm, cold + cold[:1]):
        _assert_same_bits(ham.even, reference.even)
        _assert_same_bits(ham.odd, reference.odd)


def test_scan_and_estimate_make_one_basis_per_shape(fresh_basis):
    # as one gap-scan benchmark task: the d = 4 scan and the d = 3 estimate
    spectrum, couplings = _ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ))
    four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=3 * MHZ)
    four_body_kerr_dressed(spectrum, couplings)
    info = fresh_basis.cache_info()
    assert info.misses == info.currsize == 2
    # and one element table each: the scan's even block and the estimate's hop space
    info = oracle._elements.cache_info()
    assert info.misses == info.currsize == 2


@pytest.mark.parametrize(
    "coupler, couplings, message",
    [
        (False, CouplingGraph(h=_full_h(5.0 * MHZ, n=3)),
         r"h has shape \(3, 3\), expected \(4, 4\) for 4 KPOs"),
        (False, CouplingGraph(h=_full_h(5.0 * MHZ, n=5)),
         r"h has shape \(5, 5\), expected \(4, 4\) for 4 KPOs"),
        (True, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(3, 20.0 * MHZ)),
         r"g has shape \(3,\), expected \(4,\) for 4 KPOs"),
        (False, CouplingGraph(h=_full_h(5.0 * MHZ), g=20.0 * MHZ * UNIT_SIGNS),
         "coupler couplings given but spectrum has no coupler mode"),
    ],
    ids=["h-3x3", "h-5x5", "g-length-3", "g-without-coupler"],
)
def test_build_rejects_couplings_that_do_not_fit_the_spectrum(coupler, couplings, message):
    # each is refused as sw_mixing refuses it, by the estimate too
    spectrum = _with_coupler(_ladder()) if coupler else _ladder()
    with pytest.raises(ValueError, match=message):
        build_hamiltonian(spectrum, couplings, d=3)
    with pytest.raises(ValueError, match=message):
        four_body_kerr_dressed(spectrum, couplings)


# the smallest weight |0011> keeps in the chosen pair on the `oracle` ladder
# at d=4; at 20 MHz, |0020> is degenerate with the pair (K3 = eps) and takes
# half of it, so |1100> anticrosses twice and neither crossing is two-level
STATE_WEIGHTS = {20: None, 30: 0.701, 50: 0.914, 100: 0.982, 200: 0.996}


@pytest.mark.parametrize("eps_mhz", STATE_WEIGHTS)
def test_gap_scan_refuses_a_crossing_that_is_not_two_level(eps_mhz):
    # the summed weight of both states stays above 2 * OVERLAP_THRESHOLD at
    # 20 MHz (about 1.25), so only a per-state check refuses that scan
    spectrum, couplings = _ladder(eps_ghz=eps_mhz / 1000), CouplingGraph(h=_full_h(5.0 * MHZ))
    halfwidth = (10 if eps_mhz <= 30 else 2) * MHZ
    if STATE_WEIGHTS[eps_mhz] is None:
        with pytest.raises(ValueError, match=r"\|0011> keeps weight 0\.4\d\d .* not two-level"):
            four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=halfwidth)
        return
    result = four_body_from_gap(spectrum, couplings, d=4, scan_halfwidth=halfwidth)
    assert result["state_weight"] == pytest.approx(STATE_WEIGHTS[eps_mhz], abs=1e-3)
    assert result["state_weight"] >= oracle.OVERLAP_THRESHOLD
    assert 2 * result["state_weight"] <= result["pair_weight"] <= 2.0 + 1e-12


def test_gap_raises_when_pair_not_identified(monkeypatch):
    # near the crossing the chosen pair holds ~1.98 of its weight of 2;
    # demanding 1.99 makes the identification fail loudly
    monkeypatch.setattr(oracle, "OVERLAP_THRESHOLD", 0.995)
    with pytest.raises(ValueError, match="pair not identified"):
        four_body_from_gap(_ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)),
                           d=3, scan_halfwidth=3 * MHZ, n_scan=11)


def _reference_gap_scan(spectrum, couplings, d, scan_halfwidth, n_scan=41):
    """The former scan, kept as the reference: one dense eigensolve of the
    shifted even block per scan and refinement point. Returns the gaps at
    the scan offsets, the refined minimum and |h_eff|, and the spectral
    norm of the unshifted block."""
    ham = build_hamiltonian(spectrum, couplings, d)
    basis = oracle._fock_basis(ham.n_modes, d)
    half_pair_number = 0.5 * basis.occupations[:2, basis.spaces[0]].sum(axis=0)
    pair = basis.pair

    def gap(delta):
        vals, vecs = np.linalg.eigh(ham.even + np.diag(delta * half_pair_number))
        overlaps = np.abs(vecs[pair, :]) ** 2
        chosen = overlaps.argmax(axis=1)
        if overlaps.max(axis=1).min() < oracle.OVERLAP_THRESHOLD or chosen[0] == chosen[1]:
            chosen = np.argsort(overlaps.sum(axis=0))[-2:]
        return float(abs(vals[chosen[0]] - vals[chosen[1]]))

    offsets = np.linspace(-scan_halfwidth, scan_halfwidth, n_scan)
    gaps = np.array([gap(x) for x in offsets])
    i_min = int(np.argmin(gaps))
    x = offsets[i_min - 1:i_min + 2].tolist()
    g = gaps[i_min - 1:i_min + 2].tolist()
    for _ in range(100):
        (a, m, b), (fa, fm, fb) = x, (v * v for v in g)
        p = (m - a) ** 2 * (fm - fb) - (m - b) ** 2 * (fm - fa)
        q = (m - a) * (fm - fb) - (m - b) * (fm - fa)
        u = m - 0.5 * p / q if q else m
        if not (abs(u - m) >= 1e-6 * scan_halfwidth and a < u < b):
            break
        g_u = gap(u)
        if g_u < g[1]:
            x, g = ([a, u, m], [g[0], g_u, g[1]]) if u < m else ([m, u, b], [g[1], g_u, g[2]])
        else:
            side = 0 if u < m else 2
            x[side], g[side] = u, g_u
    return {"gaps": gaps, "offset_min": x[1], "h_eff": g[1] / 2.0,
            "norm": np.linalg.norm(ham.even, 2)}


def _seeded_ladders(n):
    # resonant ladders as in the gap-scan benchmark: eps 100-300 MHz, six
    # couplings of 4-6 MHz, the ladder's Kerr coefficients
    rng = np.random.default_rng(2024)
    systems = []
    for _ in range(n):
        w1, eps = rng.uniform(9.5, 10.5) * GHZ, rng.uniform(100.0, 300.0) * MHZ
        omega = np.array([w1, w1 - 3 * eps, w1 - eps, w1 - 2 * eps])
        h = np.triu(rng.uniform(4.0, 6.0, (4, 4)) * MHZ, 1)
        spectrum = ModeSpectrum(omega=omega, kerr=_ladder().kerr)
        systems.append((spectrum, CouplingGraph(h=h + h.T), 4))
    return systems


def _coupler_system(d=3):
    spectrum = _with_coupler(_ladder(eps_ghz=0.15))
    return spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=20.0 * MHZ * UNIT_SIGNS), d


def _low_frequency_system():
    # a 2 GHz ladder coupled at 20 MHz, modes 1 and 2 moved so that the
    # crossing sits at zero offset: the counter-rotating admixture of the
    # zero- and four-quantum states is large enough that dropping the
    # second-order Loewdin term would move the gaps by several tolerances
    spectrum = ModeSpectrum(omega=np.array([2.0, 1.4, 1.8, 1.6]) * GHZ, kerr=_ladder().kerr)
    couplings = CouplingGraph(h=_full_h(20.0 * MHZ))
    crossing = _reference_gap_scan(spectrum, couplings, 4, 10 * MHZ)["offset_min"]
    omega = spectrum.omega + np.array([crossing, crossing, 0.0, 0.0]) / 2.0
    return ModeSpectrum(omega=omega, kerr=spectrum.kerr), couplings, 4


@pytest.mark.parametrize("case", ["ladders", "with-coupler-d3", "with-coupler-d4",
                                  "low-frequency"])
def test_one_eigensolve_scan_matches_per_point_dense_scan(case):
    # a gap may move by eigh's own round-off on the full block, 4 eps |H|;
    # the reference solves the whole even block (512 states with the coupler
    # at d = 4), the scan its 216 states of at most six quanta with the 155
    # of eight folded in
    if case == "ladders":
        systems = _seeded_ladders(20)
    elif case == "low-frequency":
        systems = [_low_frequency_system()]
    else:
        systems = [_coupler_system(d=int(case[-1]))]
    for spectrum, couplings, d in systems:
        result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
        reference = _reference_gap_scan(spectrum, couplings, d, 3 * MHZ)
        gaps, h_eff = reference["gaps"], reference["h_eff"]
        tolerance = np.maximum(1e-8 * gaps, 4 * np.finfo(float).eps * reference["norm"])
        assert np.all(abs(result["gaps"] - gaps) <= tolerance)
        assert abs(result["h_eff"] - h_eff) <= 1e-6 * h_eff


def _oracle_ladders():
    # the `kpokit oracle` ladder over eps 50-500 MHz and d 4-6, at its
    # default half-width of 2 MHz
    return [(_ladder(eps_ghz=eps_mhz / 1000), CouplingGraph(h=_full_h(5.0 * MHZ)), d)
            for eps_mhz in (50, 100, 200, 300, 500) for d in (4, 5, 6)]


def _reference_fold(spectrum, couplings, d):
    """The fold's levels found another way: M = (E - H_FF)^-1 H_FK from one
    solve, an orthonormal basis of span([I; M]) from a QR factorization,
    and the eigenvalues of H compressed onto it."""
    even = build_hamiltonian(spectrum, couplings, d, odd=False).even
    basis = oracle._fock_basis(5 if spectrum.has_coupler else 4, d)
    fold = basis.scan[0]
    energy = even[basis.pair, basis.pair].mean()
    h_ff = even[np.ix_(fold.folded, fold.folded)]
    m = np.linalg.solve(energy * np.eye(len(h_ff)) - h_ff, even[np.ix_(fold.folded, fold.kept)])
    q, _ = np.linalg.qr(np.vstack([np.eye(len(fold.kept)), m]))
    lifted = np.concatenate([fold.kept, fold.folded])
    return np.linalg.eigvalsh(q.T @ even[np.ix_(lifted, lifted)] @ q)


def _whole_block_scan(monkeypatch, spectrum, couplings, d, halfwidth):
    """The scan with every fold's bound read as infinite, so that it solves
    the whole even block."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_truncation_bound", lambda *args: (np.inf,) * 3)
        return four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)


@pytest.mark.parametrize("case", ["seeded-ladders", "oracle-ladders", "with-coupler-d3-d5"])
def test_gap_scan_tiers_on_the_suites_systems_match_the_whole_block(monkeypatch, case):
    # the N = 4 fold's bound reads 6e-6 to 1e-3 rad/s on the ladders against
    # a round-off of 2.3e-3 to 2.6e-3 rad/s, and 3.206e-3 plus a Galerkin
    # term of 1.3e-4 against 3.377e-3 with the coupler at d = 3; at d = 4
    # and 5 it exceeds that fold's round-off, and the N = 6 fold's reads
    # 1.5e-6 and 2.4e-6 rad/s against 1.8e-2 and 2.3e-2
    systems, halfwidth = {"seeded-ladders": (_seeded_ladders(20), 3 * MHZ),
                          "oracle-ladders": (_oracle_ladders(), 2 * MHZ),
                          "with-coupler-d3-d5": ([_coupler_system(d) for d in (3, 4, 5)],
                                                 3 * MHZ)}[case]
    for spectrum, couplings, d in systems:
        result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
        n_modes = 5 if spectrum.has_coupler else 4
        # the even states of at most N quanta, those of N + 2 folded in
        n = 6 if spectrum.has_coupler and d > 3 else 4
        tier = (np.count_nonzero(_capped(n_modes, d, n)),
                np.count_nonzero(_capped(n_modes, d, n + 2) & ~_capped(n_modes, d, n)))
        assert (result["dimension"], result["folded_dimension"]) == tier
        assert 0.0 < result["truncation_bound"] <= result["roundoff"]
        assert 0.0 < result["galerkin_residual"] <= result["roundoff"] - result["truncation_bound"]
        # the gaps and |h_eff| of the whole block, within the tolerance of
        # `test_one_eigensolve_scan_matches_per_point_dense_scan`, whose
        # round-off floor 4 eps |H| on a gap is 2 eps |H| on h_eff = gap / 2
        whole = _whole_block_scan(monkeypatch, spectrum, couplings, d, halfwidth)
        even = build_hamiltonian(spectrum, couplings, d, odd=False).even
        assert (whole["dimension"], whole["truncation_bound"]) == (len(even), 0.0)
        floor = 4 * np.finfo(float).eps * np.linalg.norm(even, 2)
        tolerance = np.maximum(1e-8 * whole["gaps"], floor)
        assert np.all(abs(result["gaps"] - whole["gaps"]) <= tolerance)
        assert abs(result["h_eff"] - whole["h_eff"]) <= max(1e-6 * whole["h_eff"], floor / 2)


def _roundoff_floor(whole):
    """4 eps |H|, the round-off floor of a gap, from a whole-block scan: its
    `roundoff` is dimension * eps * max |Lambda|, and |H| = max |Lambda|."""
    return 4 * whole["roundoff"] / whole["dimension"]


def _linear_coupler_system(g_mhz, d):
    # the paper's regime: the `oracle` ladder at eps = 100 MHz, no direct
    # coupling, and a linear coupler 1 GHz above mode 1 coupled at g
    ladder = _ladder()
    spectrum = ModeSpectrum(omega=ladder.omega, kerr=ladder.kerr,
                            coupler_omega=ladder.omega[0] + 1.0 * GHZ, coupler_kerr=0.0)
    return spectrum, CouplingGraph(h=np.zeros((4, 4)), g=g_mhz * MHZ * UNIT_SIGNS), d


@pytest.mark.parametrize("g_mhz, d, tier", [(50, 4, (216, 155)), (50, 5, (271, 320)),
                                            (150, 4, (371, 101)), (150, 5, (591, 381))])
def test_gap_scan_certifies_a_fold_at_the_papers_coupling(monkeypatch, g_mhz, d, tier):
    # at g = 150 MHz the states of at most six quanta move |h_eff| by
    # 0.79 rad/s, 40 times their round-off, so only the N = 8 fold is
    # certified; a lift of |M| ~ 0.026 also needs more of the series of
    # (I + S)^-1/2 than S^3. At 50 MHz the N = 4 fold's bound is 2.4 and
    # 5.9 rad/s against its round-off of about 5e-3 rad/s
    spectrum, couplings, d = _linear_coupler_system(g_mhz, d)
    halfwidth = 5 * MHZ
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
    assert (result["dimension"], result["folded_dimension"]) == tier
    # the folds of at most 4, 6 and 8 quanta in turn, until one is certified
    folds = [(np.count_nonzero(_capped(5, d, n)),
              np.count_nonzero(_capped(5, d, n + 2) & ~_capped(5, d, n))) for n in (4, 6, 8)]
    assert [t[:2] for t in result["tiers"]] == folds[:folds.index(tier) + 1]
    assert result["truncation_bound"] + result["galerkin_residual"] <= result["roundoff"]
    whole = _whole_block_scan(monkeypatch, spectrum, couplings, d, halfwidth)
    assert whole["dimension"] == (512 if d == 4 else 1563) > sum(tier)
    floor = _roundoff_floor(whole)
    assert np.all(abs(result["gaps"] - whole["gaps"]) <= np.maximum(1e-8 * whole["gaps"], floor))
    assert abs(result["h_eff"] - whole["h_eff"]) <= max(1e-8 * whole["gap_min"], floor)


def test_fold_bounds_the_share_of_the_six_quanta_sector(monkeypatch):
    # the share of delta^2 Dt_PQ (E - Lambda_Q)^-1 Dt_QP that the six-quanta
    # sector's eigenvectors add, from those of the states of at most six quanta,
    # on the `oracle` ladder at 300 MHz: the fold's bound on it is about
    # 4e6 times larger, and still 2e-9 rad/s at the half-width
    spectrum, couplings, d = _oracle_ladders()[9]
    halfwidth, bound, seen = 2 * MHZ, oracle._truncation_bound, []

    def recorded(*args):
        seen.append(bound(*args))
        return seen[-1]

    monkeypatch.setattr(oracle, "_truncation_bound", recorded)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
    assert result["folded_dimension"] == 44 and len(seen) == 1
    share = seen[0][1]
    # the states of at most six quanta, which the N = 6 fold keeps
    basis = oracle._fock_basis(4, d)
    six_cap = basis.scan[1]
    even = build_hamiltonian(spectrum, couplings, d, odd=False).even
    levels, vecs = np.linalg.eigh(even[np.ix_(six_cap.kept, six_cap.kept)])
    total = basis.occupations[:, basis.spaces[0][six_cap.kept]].sum(axis=0)
    model, six = ((vecs[total == q] ** 2).sum(axis=0) > 0.5 for q in (2, 6))
    assert np.count_nonzero(six) == 44
    half = six_cap.half_pair_number[:len(six_cap.kept), None]
    dt = vecs[:, model].T @ (half * vecs[:, six])
    pair = vecs[np.ix_(six_cap.pair, np.flatnonzero(model))] ** 2
    energy = np.sum(pair * levels[model]) / np.sum(pair)
    exact = np.linalg.norm(dt, 2) ** 2 / np.min(abs(energy - levels[six]))
    assert 0.0 < exact <= share
    assert share * halfwidth**2 < 1e-8

    def raised(*args):
        bound_, share_, galerkin = bound(*args)
        return bound_, share_ + halfwidth**-2, galerkin

    # and every point's remainder bound holds it: raised by 1 / halfwidth^2,
    # the share adds 1 rad/s at the ends of the scan
    monkeypatch.setattr(oracle, "_truncation_bound", raised)
    monkeypatch.setattr(oracle, "REMAINDER_TOL", 1.0)
    raised = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
    assert 1.0 <= raised["remainder_bound"] <= 1.0 + 2 * result["remainder_bound"]


def test_gap_scan_solves_the_whole_block_when_the_bound_exceeds_roundoff(monkeypatch):
    # the 2 GHz ladder coupled at 20 MHz: the N = 4, 6 and 8 folds' bounds,
    # about 3e2, 0.70 and 0.42 rad/s, exceed their round-offs of at most
    # 3.6e-3 rad/s; the states of at most six quanta alone put the gaps
    # 0.013-2.2 rad/s from the whole block's
    spectrum, couplings, d = _low_frequency_system()
    shapes, bounds = [], []
    eigh, bound = np.linalg.eigh, oracle._truncation_bound

    def counted(matrix):
        shapes.append(np.shape(matrix)[-2:])
        return eigh(matrix)

    def recorded(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(oracle, "_truncation_bound", recorded)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    # each fold's lift, |M| <= 0.024 to 0.032, needs the series of
    # (I + S)^-1/2 past S^3, and each is solved
    assert [shape for shape in shapes if shape != (10, 10)] == [
        (42, 42), (86, 86), (117, 117), (128, 128)]
    assert len(bounds) == 3 and all(b[0] > 0.4 for b in bounds)
    assert result["tiers"] == [(42, 44, bounds[0][0]), (86, 31, bounds[1][0]),
                               (117, 10, bounds[2][0]), (128, 0, 0.0)]
    assert result["dimension"] == 128
    assert result["truncation_bound"] == result["galerkin_residual"] == 0.0


def test_gap_scan_records_each_tier_it_tries(monkeypatch):
    # the suite's coupler system at d = 4: the N = 4 fold's bound, 2.5e-2
    # rad/s, exceeds even the N = 6 fold's round-off, 1.8e-2 rad/s
    spectrum, couplings, d = _coupler_system(4)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    (kept, folded, refused), last = result["tiers"]
    assert (kept, folded, last[:2]) == (81, 135, (216, 155))
    assert refused > result["roundoff"]
    assert last[2] == result["truncation_bound"] <= result["roundoff"]
    # on a ladder the N = 4 fold is the one tier tried
    ladder = four_body_from_gap(_ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)),
                                d=4, scan_halfwidth=3 * MHZ)
    assert ladder["tiers"] == [(42, 44, ladder["truncation_bound"])]
    # a fold refused before its bound is formed is recorded as infinite
    monkeypatch.setattr(oracle, "_fold", lambda *args: None)
    whole = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    assert whole["tiers"] == [(81, 135, np.inf), (216, 155, np.inf), (371, 101, np.inf),
                              (512, 0, 0.0)]


@pytest.mark.parametrize("lift", [0.01, 0.5, 0.9, 1.0])
def test_fold_orthonormalizes_any_lift_below_one(lift):
    # two kept states at 0, each coupled by `lift` to its own folded state
    # at 1: M = -lift I, whose series of (I + S)^-1/2 stopped at S^3 leaves
    # the lifted vectors 2e-3 from orthonormal at lift 0.5; the Ritz value of
    # H on [1; -lift] is -lift^2 / (1 + lift^2). Where the bound on |M|
    # reaches 1 the series does not converge, and the fold is refused
    even = np.zeros((4, 4))
    even[2, 2] = even[3, 3] = 1.0
    even[0, 2] = even[2, 0] = even[1, 3] = even[3, 1] = lift
    block = oracle._ScanBlock(np.array([0, 1]), np.array([2, 3]), np.array([], dtype=int),
                              None, None, None)
    solved = oracle._fold(even, block, np.array([0, 1]))
    if lift >= 1.0:
        assert solved is None
        return
    levels, vecs, _ = solved
    np.testing.assert_allclose(levels, -lift**2 / (1 + lift**2), rtol=1e-14)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(2), rtol=0.0, atol=1e-14)


def test_a_fold_with_nothing_dropped_is_certified(monkeypatch):
    # four KPOs at d = 3 hold at most eight quanta, so the N = 6 fold folds
    # |2222> alone and drops nothing: the norm of its empty H_DF is 0
    assert oracle._norm_bound(np.zeros((0, 1))) == 0.0
    spectrum, couplings, d = _ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)), 3
    fold = oracle._fold
    monkeypatch.setattr(oracle, "_fold", lambda even, block, pair: (
        None if len(block.kept) == 30 else fold(even, block, pair)))
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    assert result["tiers"] == [(30, 10, np.inf), (40, 1, result["truncation_bound"])]
    assert 0.0 < result["truncation_bound"] + result["galerkin_residual"] <= result["roundoff"]
    whole = _whole_block_scan(monkeypatch, spectrum, couplings, d, 3 * MHZ)
    assert whole["dimension"] == 41
    tolerance = np.maximum(1e-8 * whole["gaps"], _roundoff_floor(whole))
    assert np.all(abs(result["gaps"] - whole["gaps"]) <= tolerance)


def test_a_wrong_ritz_matrix_leaves_the_fold(monkeypatch):
    # the fold's vectors taken from a Ritz matrix of H_KK alone, the Schur
    # term H_KF M dropped: its truncation bound still passes, but the
    # residual inside the lifted space (the Galerkin term) does not
    spectrum, couplings, d = _ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)), 4
    fold, bound, seen, roundoffs = oracle._fold, oracle._truncation_bound, [], []

    def without_schur_term(even, block, pair):
        m, h_kk = (solved := fold(even, block, pair))[2][0], solved[2][3]
        s_vals, s_vecs = np.linalg.eigh(m.T @ m)
        g = (s_vecs / np.sqrt(1.0 + s_vals)) @ s_vecs.T
        theta, z = np.linalg.eigh(g @ h_kk @ g)
        roundoffs.append(len(theta) * np.finfo(float).eps * abs(theta).max())
        return theta, np.concatenate([g @ z, m @ g @ z]), solved[2]

    def recorded(*args):
        seen.append(bound(*args))
        return seen[-1]

    monkeypatch.setattr(oracle, "_truncation_bound", recorded)
    kept = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    assert (kept["dimension"], kept["folded_dimension"]) == (42, 44)
    assert seen == [(kept["truncation_bound"], seen[0][1], kept["galerkin_residual"])]
    assert kept["galerkin_residual"] < 0.1 * kept["roundoff"]
    seen.clear()
    monkeypatch.setattr(oracle, "_fold", without_schur_term)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    assert seen[0][0] <= roundoffs[0] < seen[0][2]
    # the N = 6 fold is refused likewise; the N = 8 one folds in states of
    # ten quanta, whose Schur term moves the model levels by less than its
    # round-off, and its Galerkin term says so
    assert [tier[:2] for tier in result["tiers"]] == [(42, 44), (86, 31), (117, 10)]
    assert roundoffs[1] < seen[1][2] and seen[2][2] < roundoffs[2]


@pytest.mark.parametrize("case", ["kpos-d4", "with-coupler-d3"])
def test_gap_scan_diagonalizes_the_even_block_once(monkeypatch, case):
    if case == "kpos-d4":
        spectrum, couplings, d = _ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)), 4
    else:
        spectrum, couplings, d = _coupler_system()
    shapes = []
    eigh = np.linalg.eigh

    def counted(matrix):
        shapes.append(np.shape(matrix)[-2:])
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    # the states of at most four quanta with those of six folded in: 42 of
    # 128 even states, and 61 of 122 with the coupler
    block = (result["dimension"],) * 2
    assert block[0] == {"kpos-d4": 42, "with-coupler-d3": 61}[case]
    assert shapes.count(block) == 1
    # every other solve is in the two-quantum manifold: C(n + 1, 2) states
    manifold = {"kpos-d4": 10, "with-coupler-d3": 15}[case]
    assert result["manifold_dimension"] == manifold
    assert set(shapes) - {block} == {(manifold, manifold)}
    # centred on the pair's energy the bound stays near 1e-6 rad/s; about
    # the mean of the manifold it would reach 1e-4 rad/s with the coupler
    assert 0.0 < result["remainder_bound"] < 1e-5


@pytest.mark.parametrize("case", ["seeded-ladders", "with-coupler-d4"])
def test_gram_norms_match_the_svd_norm_on_the_scans_matrices(monkeypatch, case):
    systems = _seeded_ladders(20) if case == "seeded-ladders" else [_coupler_system(4)]
    manifold = 10 if case == "seeded-ladders" else 15
    two_norm, seen = oracle._two_norm, []

    def recorded(matrix):
        seen.append((matrix, two_norm(matrix)))
        return seen[-1][1]

    monkeypatch.setattr(oracle, "_two_norm", recorded)
    for spectrum, couplings, d in systems:
        four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
    # per fold tried, Dt_PQ (a row per model state), then the bound's
    # residual and its Galerkin part (a column per one); with the coupler
    # the N = 4 and N = 6 folds
    assert len(seen) == (3 if case == "seeded-ladders" else 6) * len(systems)
    assert all(m.shape[0] == manifold for m, _ in seen[0::3])
    assert all(m.shape[1] == manifold for i in (1, 2) for m, _ in seen[i::3])
    for matrix, norm in seen:
        assert norm > 0.0
        assert norm == pytest.approx(np.linalg.norm(matrix, 2), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("relative, refused", [(1e-13, False), (1e-11, True)],
                         ids=["round-off", "fault"])
def test_hermitian_check_tolerates_round_off_alone(relative, refused):
    # one element of a built block moved by a fraction of its largest
    # element: not exactly symmetric, so the tolerant test decides
    matrix = build_hamiltonian(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3).even.copy()
    matrix[0, 1] += relative * abs(matrix).max()
    assert not np.array_equal(matrix, matrix.T)
    if refused:
        with pytest.raises(ValueError, match="not Hermitian"):
            oracle._check_hermitian(matrix)
    else:
        oracle._check_hermitian(matrix)


# finite frequencies whose sum over the modes of a state leaves the float
# range: the dressed frequencies had come out NaN, the Kerr-dressed estimate
# 9.1e-294, and the scan had blamed a manifold not separated
_OVERFLOWING = ModeSpectrum(omega=5e307 * np.array([1.0, 0.97, 0.99, 0.98]), kerr=_ladder().kerr)


@pytest.mark.parametrize("entry", ["dressed-frequencies", "gap-scan", "kerr-dressed"])
def test_an_overflowing_diagonal_is_refused(entry):
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    calls = {
        "dressed-frequencies":
            lambda: dressed_frequencies_exact(build_hamiltonian(_OVERFLOWING, couplings, d=3)),
        "gap-scan":
            lambda: four_body_from_gap(_OVERFLOWING, couplings, d=4, scan_halfwidth=3 * MHZ),
        "kerr-dressed": lambda: four_body_kerr_dressed(_OVERFLOWING, couplings),
    }
    with pytest.raises(ValueError, match="diagonal of the Hamiltonian overflows the "
                                         "floating-point range"):
        calls[entry]()


@pytest.mark.parametrize("coupler", [False, True], ids=["kpo-kpo", "kpo-coupler"])
def test_an_overflowing_coupling_is_refused(coupler):
    # 1e308 rad/s times an element product of up to 2 at d = 3; the first
    # position out of range, in row order, is <0011| a3 a4 |0022> of the
    # even block, of coefficient -h34, and <00011| a4 a5 |00022> with the
    # coupler, of coefficient -s4 g4 = g4
    if coupler:
        spectrum = _with_coupler(_ladder())
        couplings = CouplingGraph(h=_full_h(5.0 * MHZ), g=1e308 * UNIT_SIGNS)
        modes, coefficient = "(3, 4)", "1e+308"
    else:
        spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(1e308))
        modes, coefficient = "(2, 3)", "-1e+308"
    with pytest.raises(ValueError, match=re.escape(
            f"the term of modes {modes}, of coefficient {coefficient} rad/s, overflows the "
            "floating-point range")):
        build_hamiltonian(spectrum, couplings, d=3)
    if coupler:
        # the hop space holds at most one coupler quantum, so its coupler
        # elements reach only sqrt(2) * 1e308; the mixing check refuses instead
        with pytest.raises(ValueError, match="not perturbative"):
            four_body_kerr_dressed(spectrum, couplings)
    else:
        with pytest.raises(ValueError, match="overflows the floating-point range"):
            four_body_kerr_dressed(spectrum, couplings)


def test_gap_raises_when_remainder_bound_exceeds_tolerance(monkeypatch):
    # the Loewdin remainder of this scan is ~1e-6 rad/s against gaps of
    # 1e3-1e7 rad/s; demanding 1e-14 of each gap makes the scan fail loudly
    monkeypatch.setattr(oracle, "REMAINDER_TOL", 1e-14)
    with pytest.raises(ValueError, match="remainder bound .* exceeds 1e-14 of the gap"):
        four_body_from_gap(_ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)),
                           d=3, scan_halfwidth=3 * MHZ, n_scan=11)


def test_gap_scan_records_its_roundoff_and_names_it_when_refused(monkeypatch):
    spectrum, couplings = _ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ))
    kwargs = dict(d=3, scan_halfwidth=3 * MHZ, n_scan=11)
    roundoff = four_body_from_gap(spectrum, couplings, **kwargs)["roundoff"]
    # of the block actually diagonalized: the fold's 30 states
    levels = _reference_fold(spectrum, couplings, 3)
    assert len(levels) == 30
    assert roundoff == pytest.approx(len(levels) * np.finfo(float).eps * abs(levels).max(),
                                     rel=1e-12)
    monkeypatch.setattr(oracle, "REMAINDER_TOL", 1e-14)
    with pytest.raises(ValueError, match=re.escape(f"(eigh round-off {roundoff:.3g} rad/s)")):
        four_body_from_gap(spectrum, couplings, **kwargs)


def test_gap_scan_refuses_a_half_width_that_reaches_outside_the_model_space():
    # 1e300 rad/s once passed the finiteness check and overflowed in the
    # scan's delta**2, ending in "Eigenvalues did not converge"
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    prefix = r"scan half-width 1e\+300 rad/s times max \(n1 \+ n2\)/2 = 2 is 2e\+300 rad/s, "
    with pytest.raises(ValueError, match=prefix + r"not below the (\S+) rad/s from the pair's "
                       "energy to the nearest level outside the model space") as refused:
        four_body_from_gap(_ladder(), couplings, d=3, scan_halfwidth=1e300)
    separation = float(re.search(r"below the (\S+) rad/s", str(refused.value)).group(1))
    # the two-quantum pair sits about 2 w from the vacuum and the four quanta
    assert 1.1e11 < separation < 1.3e11
    # the limit is delta_max * 2 < separation, on the block every such scan solves
    with pytest.raises(ValueError, match="not below the"):
        four_body_from_gap(_ladder(), couplings, d=3, scan_halfwidth=1.001 * separation / 2)
    with pytest.raises(ValueError, match="Loewdin remainder bound"):
        four_body_from_gap(_ladder(), couplings, d=3, scan_halfwidth=0.999 * separation / 2)


def test_gap_raises_when_two_quantum_manifold_not_separated():
    # 100 MHz couplings between modes at 210-300 MHz mix two quanta with
    # zero and four, so fewer than 10 eigenstates stay mostly in the manifold
    spectrum = ModeSpectrum(omega=np.array([0.3, 0.21, 0.27, 0.24]) * GHZ,
                            kerr=np.full(4, 5.0 * MHZ))
    with pytest.raises(ValueError, match="9 eigenstates lie mostly in the 10-state two-quantum"):
        four_body_from_gap(spectrum, CouplingGraph(h=_full_h(100.0 * MHZ)), d=4,
                           scan_halfwidth=3 * MHZ)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"scan_halfwidth": 0.0}, "positive and finite"),
        ({"scan_halfwidth": -2 * MHZ}, "positive and finite"),
        ({"scan_halfwidth": float("nan")}, "positive and finite"),
        ({"scan_halfwidth": float("inf")}, "positive and finite"),
        ({"scan_halfwidth": 2 * MHZ, "n_scan": 2}, "at least 3"),
        # the gap's minimum sits near -0.24 MHz, outside the scan
        ({"scan_halfwidth": 0.1 * MHZ}, "no interior gap minimum in the scan range"),
    ],
    ids=["zero", "negative", "nan", "inf", "two-points", "minimum-outside"],
)
def test_gap_rejects_bad_scan_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        four_body_from_gap(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3, **kwargs)


def _resonant_random_system(rng):
    # w1 + w2 = w3 + w4 with every pair of modes at least 100 MHz apart;
    # Kerr up to 10 MHz keeps K/Delta <= 0.1 before scaling
    outer, middle = rng.uniform(100.0, 250.0, 2) * MHZ
    w1 = rng.uniform(9.0, 11.0) * GHZ
    omega = w1 - np.array([0.0, 2 * outer + middle, outer, outer + middle])
    kerr = rng.uniform(2.0, 10.0, 4) * MHZ
    h = rng.uniform(1.0, 5.0, (4, 4)) * MHZ
    h = np.triu(h, 1) + np.triu(h, 1).T
    return omega, kerr, h


@pytest.mark.parametrize("system", ["ladder", "random"])
def test_kerr_dressed_reduces_to_h4_general_at_small_kerr(system):
    # the Kerr-dressed correction to h4_general is O(K/Delta): with every
    # Kerr scaled by 1e-3 (K/Delta <= 2e-4) the two agree to 1e-3. The four
    # terms of h4_general can cancel, so the difference is measured against
    # the sum of their magnitudes
    if system == "ladder":
        spectrum = _ladder()
        omega, kerr, h = spectrum.omega, spectrum.kerr, _full_h(5.0 * MHZ)
    else:
        omega, kerr, h = _resonant_random_system(np.random.default_rng(2024))
    kerr = 1e-3 * kerr
    h_tilde = mixing_from_frequencies(h, omega)
    dressed = four_body_kerr_dressed(ModeSpectrum(omega=omega, kerr=kerr), CouplingGraph(h=h))
    leading = abs(h4_general(kerr, h_tilde))
    term_scale = h4_general(abs(kerr), abs(h_tilde))
    assert abs(dressed - leading) < 1e-3 * term_scale


def test_kerr_dressed_zero_couplings_gives_zero():
    spectrum = _ladder()
    assert four_body_kerr_dressed(spectrum, CouplingGraph(h=np.zeros((4, 4)))) == 0.0


def test_kerr_dressed_coupler_mode_enters_at_fourth_order_only():
    # a Kerr-weighted path through the coupler needs four hops, so at third
    # order a coupled coupler mode leaves the estimate unchanged
    spectrum = _ladder()
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    with_coupler = ModeSpectrum(
        omega=spectrum.omega, kerr=spectrum.kerr,
        coupler_omega=9.3 * GHZ, coupler_kerr=1.0 * MHZ,
    )
    coupled = CouplingGraph(h=couplings.h, g=20.0 * MHZ * UNIT_SIGNS)
    base = four_body_kerr_dressed(spectrum, couplings)
    assert base > 0
    assert four_body_kerr_dressed(with_coupler, coupled) == pytest.approx(base, rel=1e-9)


def test_kerr_dressed_requires_four_modes():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2))
    with pytest.raises(ValueError, match="four"):
        four_body_kerr_dressed(spectrum, CouplingGraph(h=np.zeros((2, 2))))


def test_kerr_dressed_rejects_strong_mixing():
    with pytest.raises(ValueError, match="not perturbative"):
        four_body_kerr_dressed(_ladder(), CouplingGraph(h=_full_h(80.0 * MHZ)))


def test_kerr_dressed_degenerate_intermediate_state_fails_loudly():
    # w1 = w3 puts |0110> on |1100> (and |1001> on |0011>): the mixing check
    # refuses it before any term is formed, so no 1/0 or 0 * inf warning
    # comes first
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.7, 10.0, 9.7]) * GHZ, kerr=_ladder().kerr)
    message = "intermediate-state mixing inf >= 0.5: not perturbative"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            four_body_kerr_dressed(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))


def _lowdin_eigenvalue_errors(energies, v, scale):
    """Largest eigenvalue error of the order-2 and order-3 model matrices on
    states 0 and 1 against exact diagonalization of diag(energies) + scale * v."""
    exact = np.linalg.eigvalsh(np.diag(energies) + scale * v)
    exact = exact[abs(exact) < 0.5]
    assert len(exact) == 2
    resolvent = 1.0 / (energies[:2, None] - energies[2:])
    terms = oracle._lowdin_terms(scale * v[:2, 2:], scale * v[2:, 2:], resolvent, 3)
    # the eigenvalues see a dropped symmetrization only at O(scale**4)
    for term in terms:
        assert np.array_equal(term, term.T)
    models = [np.diag(energies[:2]) + sum(terms[:k]) for k in (1, 2)]
    return np.array([abs(np.linalg.eigvalsh(m) - exact).max() for m in models])


def test_lowdin_terms_converge_at_their_order():
    # two model states 0.01 apart, twelve others 1 to 3 away on either side,
    # and a real symmetric V with no element inside the model space: halving
    # V cuts the order-2 error by 2**3 and the order-3 error by 2**4
    rng = np.random.default_rng(0)
    energies = np.concatenate(
        [[0.0, 0.01], rng.uniform(1.0, 3.0, 12) * rng.choice([-1.0, 1.0], 12)])
    v = rng.normal(size=(14, 14))
    v = v + v.T
    v[:2, :2] = 0.0
    ratio = _lowdin_eigenvalue_errors(energies, v, 0.01) / _lowdin_eigenvalue_errors(
        energies, v, 0.005)
    assert 7.5 < ratio[0] < 8.5
    assert 15.0 < ratio[1] < 17.0


def _kerr_dressed_systems(kind):
    if kind == "ladder":
        return [(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)))]
    rng = np.random.default_rng(77 if kind == "random" else 78)
    systems = []
    for _ in range(12):
        omega, kerr, h = _resonant_random_system(rng)
        if kind == "random":
            systems.append((ModeSpectrum(omega=omega, kerr=kerr), CouplingGraph(h=h)))
            continue
        spectrum = ModeSpectrum(omega=omega, kerr=kerr,
                                coupler_omega=omega[0] + rng.uniform(0.5, 1.5) * GHZ,
                                coupler_kerr=rng.uniform(1.0, 20.0) * MHZ)
        g = rng.uniform(10.0, 100.0, 4) * MHZ * UNIT_SIGNS
        systems.append((spectrum, CouplingGraph(h=h, g=g)))
    return systems


@pytest.mark.parametrize("kind", ["ladder", "random", "coupler"])
def test_kerr_dressed_truncation_three_matches_four(monkeypatch, kind):
    # every intermediate state holds at most 2 quanta per mode, so d = 3
    # already holds every term; the sums run over the same states in the
    # same order at either truncation
    systems = _kerr_dressed_systems(kind)
    ours = [four_body_kerr_dressed(*system) for system in systems]
    monkeypatch.setattr(oracle, "_LOWDIN_TRUNCATION", 4)
    theirs = [four_body_kerr_dressed(*system) for system in systems]
    for a, b in zip(ours, theirs):
        assert b > 0
        assert abs(a - b) <= 1e-12 * b


@pytest.mark.parametrize("coupler", [False, True])
def test_kerr_dressed_mixing_error_unchanged_by_truncation(monkeypatch, coupler):
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(80.0 * MHZ))
    if coupler:
        spectrum, couplings = _with_coupler(spectrum), CouplingGraph(
            h=_full_h(1.0 * MHZ), g=400.0 * MHZ * UNIT_SIGNS)
    messages = []
    for d in (3, 4):
        monkeypatch.setattr(oracle, "_LOWDIN_TRUNCATION", d)
        with pytest.raises(ValueError, match="not perturbative") as info:
            four_body_kerr_dressed(spectrum, couplings)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# -- the estimate's hop space --------------------------------------------------

def _brute_force_hop_space(n_modes, d):
    """|1100>, |0011> and every state one (+-1, +-1) step of a mode pair away
    from either, as full-space indices, by enumeration."""
    pad = (0,) * (n_modes - 4)
    bare = [(1, 1, 0, 0) + pad, (0, 0, 1, 1) + pad]
    states = set(bare)
    for state in bare:
        for j, k in itertools.combinations(range(n_modes), 2):
            for step_j, step_k in itertools.product((-1, 1), repeat=2):
                moved = list(state)
                moved[j] += step_j
                moved[k] += step_k
                if 0 <= moved[j] < d and 0 <= moved[k] < d:
                    states.add(tuple(moved))
    return sorted(np.ravel_multi_index(state, (d,) * n_modes) for state in states)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n_modes", [4, 5], ids=["kpos", "coupler"])
def test_hop_space_is_the_pair_and_every_state_one_step_away(fresh_basis, d, n_modes):
    basis = fresh_basis(n_modes, d)
    even, _, hop = basis.spaces
    assert hop.tolist() == _brute_force_hop_space(n_modes, d)
    # every hop state has even total excitation number, so the hop space
    # sits inside the even block
    assert np.all(basis.occupations[:, hop].sum(axis=0) % 2 == 0)
    if (n_modes, d) == (5, 3):
        assert (len(hop), len(even)) == (34, 122)


@pytest.mark.parametrize("n_modes", [4, 5], ids=["kpos", "coupler"])
def test_hop_space_matrix_is_the_even_block_restricted_to_it(n_modes):
    rng = np.random.default_rng(n_modes)
    spectrum = _ladder(kerr_mhz=rng.uniform(2.0, 25.0, 4))
    couplings = CouplingGraph(h=_random_couplings(rng, [(0, 2)]))
    if n_modes == 5:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=rng.uniform(10.0, 90.0, 4) * MHZ * UNIT_SIGNS)
    even_states, _, hop_states = oracle._fock_basis(n_modes, 3).spaces
    (hop,) = oracle._build(oracle._polynomial(spectrum, couplings), 3, (2,))
    within = np.searchsorted(even_states, hop_states)
    even = build_hamiltonian(spectrum, couplings, 3, odd=False).even
    _assert_same_bits(hop, even[np.ix_(within, within)])


def _even_block_kerr_dressed(spectrum, couplings):
    """four_body_kerr_dressed as it was before the hop space: from the whole
    d = 3 even block, of which it read the rows of |1100> and |0011> and V
    among the states one hop from them."""
    ham = build_hamiltonian(spectrum, couplings, 3, odd=False)
    a, b = oracle._fock_basis(ham.n_modes, ham.truncation).pair
    v = ham.even
    energies = v.diagonal().copy()
    np.fill_diagonal(v, 0.0)
    strength = np.maximum(abs(v[a]), abs(v[b]))
    hop = np.flatnonzero(strength)
    den = energies[[a, b], None] - energies[hop]
    with np.errstate(divide="ignore"):
        worst = float(np.max(strength[hop] / abs(den), initial=0.0))
    if worst >= MIXING_LIMIT:
        raise ValueError(
            f"intermediate-state mixing {worst:.3f} >= {MIXING_LIMIT}: not perturbative"
        )
    terms = oracle._lowdin_terms(v[np.ix_([a, b], hop)], v[np.ix_(hop, hop)], 1.0 / den, 3)
    return float(abs(sum(terms)[0, 1]))


def _design_systems(n):
    """(spectrum, couplings) of the first n inputs of the design benchmark
    (seed 0): the unit circuit's four KPOs with the coupler as a fifth mode."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark"))
    try:
        import inputs
        import tasks
    finally:
        sys.path.pop(0)
    outputs = [tasks.design_task(inputs.design_input(0, i)) for i in range(n)]
    return [(out["spectrum"], out["couplings"]) for out in outputs]


def _coupler_cases():
    """The coupler variants of the suite's ladder: a coupled coupler mode,
    one KPO not coupled to it, and a linear coupler."""
    spectrum, h = _with_coupler(_ladder()), _full_h(5.0 * MHZ)
    linear = ModeSpectrum(omega=spectrum.omega, kerr=spectrum.kerr,
                          coupler_omega=spectrum.coupler_omega, coupler_kerr=0.0)
    return [(spectrum, CouplingGraph(h=h, g=20.0 * MHZ * UNIT_SIGNS)),
            (spectrum, CouplingGraph(h=h, g=np.array([0.0, 20.0, 30.0, 40.0]) * MHZ * UNIT_SIGNS)),
            (linear, CouplingGraph(h=h, g=20.0 * MHZ * UNIT_SIGNS))]


@pytest.mark.parametrize("kind", ["ladder", "random", "coupler", "coupler-ladder", "design"])
def test_kerr_dressed_bit_identical_to_the_even_block_estimate(kind):
    if kind == "coupler-ladder":
        systems = _coupler_cases()
    elif kind == "design":
        systems = _design_systems(30)
    else:
        systems = _kerr_dressed_systems(kind)
    for spectrum, couplings in systems:
        ours = four_body_kerr_dressed(spectrum, couplings)
        assert ours > 0
        assert ours.hex() == _even_block_kerr_dressed(spectrum, couplings).hex()


def test_kerr_dressed_builds_no_fock_hamiltonian(monkeypatch):
    monkeypatch.setattr(oracle, "build_hamiltonian", None)
    for spectrum, couplings in _coupler_cases():
        assert four_body_kerr_dressed(spectrum, couplings) > 0
