"""Truncated-Fock-space diagonalization checks."""

import re
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


@pytest.fixture
def fresh_basis():
    """No basis made before the test is used in it, and none made in it outlives it."""
    make = oracle._fock_basis
    make.cache_clear()
    yield make
    make.cache_clear()


@pytest.fixture
def inject(monkeypatch, fresh_basis):
    """inject(row, col) makes every basis made after it carry one extra
    element of product 1 at (row, col), as part of the coupling of modes
    0 and 1, and drops the bases made before it."""

    def place(row, col):
        elements = oracle._pair_elements

        def faulty(occ, d):
            out = elements(occ, d)
            rows, cols, products = out[0, 1]
            out[0, 1] = (np.append(rows, row), np.append(cols, col), np.append(products, 1.0))
            return out

        monkeypatch.setattr(oracle, "_pair_elements", faulty)
        fresh_basis.cache_clear()

    return place


@pytest.mark.parametrize("element", [(0, 2), (1, 7)], ids=["even", "odd"])
def test_hermitian_check_raises_on_an_injected_fault(inject, element):
    # |0000> and |0002> are even, |0001> and |0021> odd; no term links
    # either pair, so one element there leaves its block asymmetric
    spectrum, couplings = _ladder(), CouplingGraph(h=_full_h(5.0 * MHZ))
    build_hamiltonian(spectrum, couplings, d=3)
    inject(*element)
    with pytest.raises(ValueError, match="not Hermitian"):
        build_hamiltonian(spectrum, couplings, d=3)


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
                total = total - couplings.s[j] * couplings.g[j] * (diff[j] @ diff[n_kpo])
    return total.toarray()


def _reference_hamiltonian(spectrum, couplings, d):
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
    "s", [None, (1.0, -1.0, 1.0, -1.0), (-1.0, -1.0, -1.0, 1.0)], ids=["default", "alt", "neg"]
)
def test_direct_assembly_matches_kronecker_reference_with_coupler(d, s):
    rng = np.random.default_rng(7 * d)
    spectrum = ModeSpectrum(omega=_ladder().omega, kerr=rng.uniform(2.0, 25.0, 4) * MHZ,
                            coupler_omega=11.1 * GHZ, coupler_kerr=rng.uniform(0.5, 3.0) * MHZ)
    g = rng.uniform(10.0, 150.0, 4) * MHZ
    g[2] = 0.0
    couplings = CouplingGraph(h=_random_couplings(rng, [(0, 1)]), g=g, s=s)
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


@pytest.mark.parametrize("coupler", [False, True], ids=["kpos-d4", "with-coupler-d3"])
def test_gap_scan_unchanged_by_direct_assembly(monkeypatch, coupler):
    spectrum = _ladder(eps_ghz=0.15)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    d = 4
    if coupler:
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=np.full(4, 20.0 * MHZ))
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
        couplings = CouplingGraph(h=couplings.h, g=np.full(4, 20.0 * MHZ))
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
        couplings = CouplingGraph(h=couplings.h, g=np.full(4, 20.0 * MHZ))
        d = 3
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ, n_scan=11)
    expected = [_full_space_gap(spectrum, couplings, d, x) for x in result["offsets"]]
    assert result["gaps"] == pytest.approx(expected, rel=1e-8)
    n_modes = 5 if coupler else 4
    assert result["dimension"] == (d**n_modes + 1) // 2
    assert 2 * oracle.OVERLAP_THRESHOLD < result["pair_weight"] <= 2.0 + 1e-12


@pytest.mark.parametrize(
    "case", ["eps10-d3", "eps300-d4", "with-coupler-d3"],
)
def test_parabolic_refinement_matches_bounded_brent(case):
    # bounded Brent on the full-space gap, over the same bracket and to the
    # same xatol, is the reference the parabolic refinement must meet
    from scipy.optimize import minimize_scalar

    eps_ghz, d, halfwidth = {"eps10-d3": (0.01, 3, 2 * MHZ), "eps300-d4": (0.3, 4, 2 * MHZ),
                             "with-coupler-d3": (0.15, 3, 3 * MHZ)}[case]
    spectrum = _ladder(eps_ghz)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    if case == "with-coupler-d3":
        spectrum = _with_coupler(spectrum)
        couplings = CouplingGraph(h=couplings.h, g=np.full(4, 20.0 * MHZ))
    result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=halfwidth)
    i = int(np.argmin(result["gaps"]))
    brent = minimize_scalar(
        lambda x: _full_space_gap(spectrum, couplings, d, x),
        bounds=(result["offsets"][i - 1], result["offsets"][i + 1]),
        method="bounded", options={"xatol": halfwidth * 1e-6},
    )
    assert result["h_eff"] == pytest.approx(brent.fun / 2.0, rel=1e-5)


def test_gap_rejects_hamiltonian_mixing_parity(inject):
    # one element linking |0000> (even) and |1000> (odd)
    inject(0, 27)
    with pytest.raises(ValueError, match="even and odd"):
        four_body_from_gap(_ladder(eps_ghz=0.15), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3,
                           scan_halfwidth=3 * MHZ, n_scan=11)


@pytest.mark.parametrize("element", [(0, 27), (27, 0)], ids=["even-odd", "odd-even"])
def test_build_rejects_either_parity_block(inject, element):
    # without the check the element would land in one block and fail the
    # Hermitian check instead
    inject(*element)
    with pytest.raises(ValueError, match="even and odd"):
        build_hamiltonian(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3)


def test_build_rejects_two_elements_at_one_position(inject):
    # (0, 36) = (|0000>, |1100>) already holds the coupling of modes 0 and
    # 1; a second element of the same value there would be lost unseen
    inject(0, 36)
    with pytest.raises(ValueError, match="share a position"):
        build_hamiltonian(_ladder(), CouplingGraph(h=_full_h(5.0 * MHZ)), d=3)


def test_basis_arrays_are_read_only(fresh_basis):
    basis = fresh_basis(5, 3)
    assert len(basis.steps) == 10
    arrays = [basis.occupations, basis.position, basis.pair, basis.number, basis.kerr,
              *basis.block_states,
              *(x for blocks in basis.steps.values() for block in blocks for x in block)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_builds_on_a_cached_basis_match_cold_builds(fresh_basis):
    # couplings A, then B, then A again on one basis, against each built
    # on a freshly made basis
    rng = np.random.default_rng(5)
    spectrum = _with_coupler(_ladder())
    graphs = [CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 20.0 * MHZ)),
              CouplingGraph(h=_random_couplings(rng, [(0, 2)]), g=rng.uniform(10.0, 90.0, 4) * MHZ)]
    cold = []
    for couplings in graphs:
        fresh_basis.cache_clear()
        cold.append(build_hamiltonian(spectrum, couplings, d=3))
    fresh_basis.cache_clear()
    warm = [build_hamiltonian(spectrum, couplings, d=3) for couplings in graphs + graphs[:1]]
    assert fresh_basis.cache_info().misses == 1
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


@pytest.mark.parametrize(
    "coupler, couplings, message",
    [
        (False, CouplingGraph(h=_full_h(5.0 * MHZ, n=3)),
         r"h has shape \(3, 3\), expected \(4, 4\) for 4 KPOs"),
        (False, CouplingGraph(h=_full_h(5.0 * MHZ, n=5)),
         r"h has shape \(5, 5\), expected \(4, 4\) for 4 KPOs"),
        (True, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(3, 20.0 * MHZ), s=np.ones(3)),
         r"g has shape \(3,\), expected \(4,\) for 4 KPOs"),
        (False, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 20.0 * MHZ)),
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
    half_pair_number = 0.5 * basis.occupations[:2, basis.block_states[0]].sum(axis=0)
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


def _coupler_system():
    spectrum = _with_coupler(_ladder(eps_ghz=0.15))
    return spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 20.0 * MHZ)), 3


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


@pytest.mark.parametrize("case", ["ladders", "with-coupler-d3", "low-frequency"])
def test_one_eigensolve_scan_matches_per_point_dense_scan(case):
    # a gap may move by eigh's own round-off on the full block, 4 eps |H|
    if case == "ladders":
        systems = _seeded_ladders(20)
    else:
        systems = [_coupler_system() if case == "with-coupler-d3" else _low_frequency_system()]
    for spectrum, couplings, d in systems:
        result = four_body_from_gap(spectrum, couplings, d=d, scan_halfwidth=3 * MHZ)
        reference = _reference_gap_scan(spectrum, couplings, d, 3 * MHZ)
        gaps, h_eff = reference["gaps"], reference["h_eff"]
        tolerance = np.maximum(1e-8 * gaps, 4 * np.finfo(float).eps * reference["norm"])
        assert np.all(abs(result["gaps"] - gaps) <= tolerance)
        assert abs(result["h_eff"] - h_eff) <= 1e-6 * h_eff


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
    block = (result["dimension"],) * 2
    assert shapes.count(block) == 1
    # every other solve is in the two-quantum manifold: C(n + 1, 2) states
    manifold = {"kpos-d4": 10, "with-coupler-d3": 15}[case]
    assert result["manifold_dimension"] == manifold
    assert set(shapes) - {block} == {(manifold, manifold)}
    # centred on the pair's energy the bound stays near 1e-6 rad/s; about
    # the mean of the manifold it would reach 1e-4 rad/s with the coupler
    assert 0.0 < result["remainder_bound"] < 1e-5


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
    levels = np.linalg.eigvalsh(build_hamiltonian(spectrum, couplings, d=3).even)
    assert roundoff == pytest.approx(len(levels) * np.finfo(float).eps * abs(levels).max(),
                                     rel=1e-12)
    monkeypatch.setattr(oracle, "REMAINDER_TOL", 1e-14)
    with pytest.raises(ValueError, match=re.escape(f"(eigh round-off {roundoff:.3g} rad/s)")):
        four_body_from_gap(spectrum, couplings, **kwargs)


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
    ],
    ids=["zero", "negative", "nan", "inf", "two-points"],
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
    coupled = CouplingGraph(h=couplings.h, g=np.full(4, 20.0 * MHZ))
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
        systems.append((spectrum, CouplingGraph(h=h, g=rng.uniform(10.0, 100.0, 4) * MHZ)))
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
            h=_full_h(1.0 * MHZ), g=np.full(4, 400.0 * MHZ))
    messages = []
    for d in (3, 4):
        monkeypatch.setattr(oracle, "_LOWDIN_TRUNCATION", d)
        with pytest.raises(ValueError, match="not perturbative") as info:
            four_body_kerr_dressed(spectrum, couplings)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
