"""Mixing coefficients, Kerr transformation, and closed-form couplings."""

import numpy as np
import pytest

from kpokit.constants import GHZ, KHZ, MHZ
from kpokit.operators import BosonicPolynomial
from kpokit.perturbation import (
    CouplingGraph,
    DegenerateModesError,
    MixingCoefficients,
    ModeSpectrum,
    ReportEntry,
    cross_kerr,
    dressed_spectrum,
    g4_closed_form,
    g4_symmetric,
    h4_detuning,
    h4_double_tilde,
    h4_general,
    h4_snail,
    h4_tilde,
    invert_dressed,
    ladder_frequencies,
    mixing_from_frequencies,
    rwa_filter,
    sw_mixing,
    transform_kerr,
)
from kpokit.oracle import build_hamiltonian, dressed_frequencies_exact, four_body_kerr_dressed
from kpokit.pumpplan import PumpAssignment

LADDER_GHZ = (10.0, 10.0 - 0.3, 10.0 - 0.1, 10.0 - 0.2)  # eps = 100 MHz


def _ladder_spectrum(eps_ghz=0.1, kerr_mhz=(5.1, 20.0, 20.0, 5.1), coupler=None):
    w1 = 10.0
    omega = np.array([w1, w1 - 3 * eps_ghz, w1 - eps_ghz, w1 - 2 * eps_ghz]) * GHZ
    return ModeSpectrum(
        omega=omega,
        kerr=np.array(kerr_mhz) * MHZ,
        coupler_omega=coupler[0] * GHZ if coupler else None,
        coupler_kerr=coupler[1] * MHZ if coupler else None,
    )


def _full_h(value):
    h = np.full((4, 4), value)
    np.fill_diagonal(h, 0.0)
    return h


# --------------------------------------------------------------------------
# mixing coefficients
# --------------------------------------------------------------------------

def test_mixing_ratio_direct():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2))
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ
    mix = sw_mixing(spectrum, CouplingGraph(h=h))
    assert mix.h_tilde[0, 1] == pytest.approx(0.05)
    assert mix.h_tilde[1, 0] == pytest.approx(-0.05)


def test_degenerate_pair_raises():
    spectrum = ModeSpectrum(omega=np.array([10.0, 10.0]) * GHZ, kerr=np.zeros(2))
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ
    with pytest.raises(DegenerateModesError, match="1 and 2"):
        sw_mixing(spectrum, CouplingGraph(h=h))


def test_kpo_degenerate_with_the_coupler_raises():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2),
                            coupler_omega=9.9 * GHZ, coupler_kerr=0.0)
    couplings = CouplingGraph(h=np.zeros((2, 2)), g=np.full(2, 5.0 * MHZ), s=np.ones(2))
    with pytest.raises(DegenerateModesError, match=r"KPO 2\b.*the coupler"):
        sw_mixing(spectrum, couplings)


@pytest.mark.parametrize("coupler_omega", [0.0, -1.0 * GHZ, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_coupler_frequency_must_be_positive_and_finite(coupler_omega):
    with pytest.raises(ValueError, match="coupler frequency"):
        ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2),
                     coupler_omega=coupler_omega, coupler_kerr=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("omega", [float("nan"), 1.0]), ("omega", [float("inf"), 1.0]),
     ("kerr", [0.0, float("nan")]), ("coupler_kerr", float("nan"))],
    ids=["omega-nan", "omega-inf", "kerr-nan", "coupler-kerr-nan"],
)
def test_mode_spectrum_rejects_non_finite_input(field, value):
    fields = dict(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2),
                  coupler_omega=9.3 * GHZ, coupler_kerr=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        ModeSpectrum(**fields)


@pytest.mark.parametrize(
    "fields, match",
    [(dict(h=np.zeros((4, 4)), g=np.array([np.nan, 1.0, 1.0, 1.0])), "finite"),
     (dict(h=np.zeros((4, 4)), g=np.ones(4), s=np.array([1.0, 1.0, np.inf, -1.0])), "finite"),
     (dict(h=np.array([[0.0, np.nan], [np.nan, 0.0]])), "h must be finite"),
     (dict(h=np.zeros((4, 4)), g=np.ones(4), s=np.ones(3)), "shape"),
     (dict(h=np.zeros((4, 4)), g=np.ones(5)), "shape"),
     (dict(h=np.zeros((4, 4)), g=np.ones(3)), "shape")],
    ids=["g-nan", "s-inf", "h-nan", "s-length-3", "g-length-5", "g-length-3"],
)
def test_coupling_graph_rejects_malformed_input(fields, match):
    with pytest.raises(ValueError, match=match):
        CouplingGraph(**{k: v * MHZ if k != "s" else v for k, v in fields.items()})


def test_a_coupler_kerr_without_a_coupler_frequency_is_refused():
    # the Kerr coefficient of a coupler that is not there would never be read
    with pytest.raises(ValueError, match="coupler Kerr coefficient given without a coupler"):
        ModeSpectrum(omega=np.array([10.0, 9.9]) * GHZ, kerr=np.zeros(2), coupler_kerr=20.0 * MHZ)


@pytest.mark.parametrize(
    "s, match",
    [(np.ones(4), "sign factors s given without coupler couplings g"),
     (np.array([1.0, 1.0, 0.5, -1.0]), r"sign factors s must be \+1 or -1"),
     (np.array([1.0, 0.0, -1.0, -1.0]), r"sign factors s must be \+1 or -1")],
    ids=["s-without-g", "half", "zero"],
)
def test_coupling_graph_refuses_sign_factors_it_would_not_read_as_signs(s, match):
    g = None if match.startswith("sign factors s given") else np.full(4, 5.0 * MHZ)
    with pytest.raises(ValueError, match=match):
        CouplingGraph(h=np.zeros((4, 4)), g=g, s=s)


@pytest.mark.parametrize(
    "couplings",
    [CouplingGraph(h=np.zeros((5, 5))),
     CouplingGraph(h=np.zeros((4, 4)), g=np.ones(5) * MHZ, s=np.ones(5)),
     CouplingGraph(h=np.zeros((4, 4)), g=np.ones(3) * MHZ, s=np.ones(3))],
    ids=["h-5x5", "g-length-5", "g-length-3"],
)
def test_sw_mixing_rejects_couplings_of_the_wrong_size(couplings):
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    with pytest.raises(ValueError, match="shape"):
        sw_mixing(spectrum, couplings)


def test_degenerate_uncoupled_pair_allowed():
    spectrum = ModeSpectrum(omega=np.array([10.0, 10.0]) * GHZ, kerr=np.zeros(2))
    mix = sw_mixing(spectrum, CouplingGraph(h=np.zeros((2, 2))))
    assert np.all(mix.h_tilde == 0.0)


def test_validity_warning_and_limit():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.98]) * GHZ, kerr=np.zeros(2))
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ  # ratio 0.25
    with pytest.warns(UserWarning, match="mixing ratio"):
        sw_mixing(spectrum, CouplingGraph(h=h))
    too_close = ModeSpectrum(omega=np.array([10.0, 9.992]) * GHZ, kerr=np.zeros(2))
    with pytest.raises(ValueError, match="not perturbative"):
        sw_mixing(too_close, CouplingGraph(h=h))


@pytest.mark.parametrize("coupler_ghz, ratio", [(11.0, "1.59e+298"), (10.0 + 1e-12, "inf")],
                         ids=["huge", "infinite"])
def test_a_refused_mixing_ratio_is_printed_short(coupler_ghz, ratio):
    # a coupler coupling of 1e308 rad/s to KPO 1, 1 GHz or 1 mrad/s away
    spectrum = _ladder_spectrum(coupler=(coupler_ghz, 20.0))
    couplings = CouplingGraph(h=np.zeros((4, 4)), g=np.array([1e308, 0.0, 0.0, 0.0]))
    for estimate in (sw_mixing, four_body_kerr_dressed):
        with pytest.raises(ValueError, match="not perturbative") as refused:
            estimate(spectrum, couplings)
        message = str(refused.value)
        assert len(message) < 120
        assert f"mixing {ratio} >=" in message or f"ratio {ratio} >=" in message


def test_the_mixing_warning_is_printed_short():
    spectrum = ModeSpectrum(omega=np.array([10.0, 9.98]) * GHZ, kerr=np.zeros(2))
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ  # ratio 0.25
    with pytest.warns(UserWarning, match=r"^mixing ratio 0\.25 exceeds 0\.2; "):
        sw_mixing(spectrum, CouplingGraph(h=h))


def test_device_table_mixing_populated():
    omega_t = np.array([9.33, 9.31, 9.35, 9.29]) * GHZ
    kerr_t = np.array([10.4, 15.2, 13.2, 10.0]) * MHZ
    omega, kerr = invert_dressed(omega_t, kerr_t)
    h = np.zeros((4, 4))
    for (j, k), v in {(0, 1): 5.8, (0, 2): 4.4, (0, 3): 2.5,
                      (1, 2): 4.5, (1, 3): 4.4, (2, 3): 4.7}.items():
        h[j, k] = h[k, j] = v * MHZ
    with pytest.warns(UserWarning, match="mixing ratio"):
        mix = sw_mixing(ModeSpectrum(omega=omega, kerr=kerr), CouplingGraph(h=h))
    for j in range(4):
        for k in range(4):
            if j != k:
                assert mix.h_tilde[j, k] != 0.0
    assert np.allclose(mix.h_tilde, -mix.h_tilde.T)


# --------------------------------------------------------------------------
# Kerr transformation and rotating-frame filter
# --------------------------------------------------------------------------

def test_single_mode_transform_is_identity():
    spectrum = ModeSpectrum(omega=np.array([10.0 * GHZ]), kerr=np.array([20.0 * MHZ]))
    mix = sw_mixing(spectrum, CouplingGraph(h=np.zeros((1, 1))))
    poly = transform_kerr(spectrum, mix)
    assert poly.coefficient((2,), (2,)) == pytest.approx(-10.0 * MHZ)
    assert len(poly.terms) == 1


def test_coupler_kerr_four_body_coefficient():
    spectrum = _ladder_spectrum(kerr_mhz=(0, 0, 0, 0), coupler=(12.0, 20.0))
    g = np.full(4, 5.0 * MHZ)
    mix = sw_mixing(spectrum, CouplingGraph(h=np.zeros((4, 4)), g=g))
    poly = transform_kerr(spectrum, mix)
    engine = poly.coefficient((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))
    s = np.array([1.0, 1.0, -1.0, -1.0])
    expected = -2.0 * 20.0 * MHZ * np.prod(s * mix.g_tilde) * np.prod(s)
    assert engine == pytest.approx(expected, rel=1e-12)
    assert engine == pytest.approx(-g4_closed_form(20.0 * MHZ, mix.g_tilde), rel=1e-12)


def test_single_kerr_four_body_coefficient():
    spectrum = _ladder_spectrum(kerr_mhz=(5.1, 0, 0, 0))
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    ht = mix.h_tilde
    expected = -2.0 * 5.1 * MHZ * ht[1, 0] * ht[2, 0] * ht[3, 0]
    assert poly.coefficient((1, 1, 0, 0), (0, 0, 1, 1)) == pytest.approx(expected, rel=1e-12)


def test_transform_output_hermitian():
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 5.0 * MHZ)))
    assert transform_kerr(spectrum, mix).is_hermitian()


def _coupled_mixing():
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    return sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 5.0 * MHZ)))


@pytest.mark.parametrize("coupler, change, match", [
    (False, {}, r"g_tilde but the spectrum has no coupler mode"),
    (True, {"h_tilde": np.zeros((3, 3))}, r"h_tilde has shape \(3, 3\), expected \(4, 4\)"),
    (True, {"h_tilde": np.zeros(4)}, r"h_tilde has shape \(4,\), expected \(4, 4\)"),
    (True, {"g_tilde": np.full(5, 0.01)}, r"g_tilde must have shape \(4,\) .*got \(5,\)"),
    (True, {"s": np.ones(3)}, r"s must have shape \(4,\) .*got \(3,\)"),
    (True, {"s": None}, r"s must have shape \(4,\) .*got None"),
    # s = 2 had made 225 terms and a coupler chi 4x the one of signs
    (True, {"s": np.full(4, 2.0)}, r"sign factors s must be \+1 or -1, got \[2.0, 2.0, 2.0, 2.0\]"),
], ids=["no-coupler", "h-3x3", "h-flat", "g-5", "s-3", "s-missing", "s-not-signs"])
def test_transform_kerr_rejects_mixing_that_does_not_fit_the_spectrum(coupler, change, match):
    mix = _coupled_mixing()
    fields = {"h_tilde": mix.h_tilde, "g_tilde": mix.g_tilde, "s": mix.s, **change}
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0) if coupler else None)
    with pytest.raises(ValueError, match=match):
        transform_kerr(spectrum, MixingCoefficients(**fields))


@pytest.mark.parametrize("name", ["h_tilde", "g_tilde", "s"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_transform_kerr_rejects_non_finite_mixing(name, value):
    # a NaN ratio makes NaN coefficients, which a prune by size would drop
    # as if they were 0, leaving a few terms and no error
    mix = _coupled_mixing()
    fields = {"h_tilde": mix.h_tilde.copy(), "g_tilde": mix.g_tilde.copy(), "s": mix.s.copy()}
    fields[name].flat[1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        transform_kerr(_ladder_spectrum(coupler=(12.0, 20.0)), MixingCoefficients(**fields))


def _exact_single_excitation_amplitudes(spectrum, couplings, d):
    """<G| a_j |E_p> over all modes, the coupler last: G the exact ground state
    and E_p the exact single-excitation state of mode p, each signed to
    overlap its bare state positively."""
    ham = build_hamiltonian(spectrum, couplings, d)
    n = ham.n_modes
    occ = np.indices((d,) * n).reshape(n, -1)
    even, odd = (np.flatnonzero(occ.sum(axis=0) % 2 == p) for p in (0, 1))
    ground = np.linalg.eigh(ham.even)[1][:, 0]
    ground = ground * np.sign(ground[0])
    vecs = np.linalg.eigh(ham.odd)[1]
    singles = np.searchsorted(odd, d ** np.arange(n - 1, -1, -1))
    states = vecs[:, abs(vecs[singles]).argmax(axis=1)]
    states = states * np.sign(states[singles, np.arange(n)])
    amplitudes = np.zeros((n, n))
    for j in range(n):
        # a_j takes odd state i, n_j >= 1, to the even state d**(n - 1 - j) before it
        lowered = occ[j, odd] >= 1
        rows = np.searchsorted(even, odd[lowered] - d ** (n - 1 - j))
        amplitudes[j] = (ground[rows] * np.sqrt(occ[j, odd[lowered]])) @ states[lowered]
    return amplitudes


def test_transformed_operators_match_the_exact_single_excitations():
    # a_j = sum_p U[j, p] a'_p, so U[j, p] is <G| a_j |E_p> to first order.
    # transform_kerr with a unit Kerr on mode j alone gives row j of U: the
    # coefficient of a_j+^2 a_j a_p is 2 U[j, p] that of a_j+^2 a_j^2
    # (U[j, j] = 1). The coupler at 10 GHz sits between KPOs above and below
    # it; with no direct KPO coupling, U's only off-diagonal entries are the
    # coupler's row and column, so a wrong sign in either shows
    omega = np.array([10.2, 9.9, 10.1, 9.8]) * GHZ
    spectrum = ModeSpectrum(omega=omega, kerr=np.array([5.1, 20.0, 20.0, 5.1]) * MHZ,
                            coupler_omega=10.0 * GHZ, coupler_kerr=20.0 * MHZ)
    couplings = CouplingGraph(h=np.zeros((4, 4)), g=np.full(4, 5.0 * MHZ))
    mixing = sw_mixing(spectrum, couplings)
    u = np.zeros((5, 5))
    for j in range(5):
        unit = ModeSpectrum(omega=omega, kerr=np.eye(5)[j, :4],
                            coupler_omega=10.0 * GHZ, coupler_kerr=float(j == 4))
        poly = transform_kerr(unit, mixing)
        twice = tuple(2 * np.eye(5, dtype=int)[j])
        for p in range(5):
            lowered = tuple(np.eye(5, dtype=int)[j] + np.eye(5, dtype=int)[p])
            u[j, p] = poly.coefficient(twice, lowered) / poly.coefficient(twice, twice)
            u[j, p] /= 1.0 if p == j else 2.0
    assert u[4, 0] == pytest.approx(0.025, rel=1e-12)  # g / (w_1 - w_g), s_1 = +1
    exact = _exact_single_excitation_amplitudes(spectrum, couplings, 3)
    assert exact[4, 0] == pytest.approx(0.02503, abs=1e-5)
    large = abs(u) >= 1e-3
    assert np.count_nonzero(large) == 13
    assert np.all(np.sign(u[large]) == np.sign(exact[large]))
    assert np.all(abs(u - exact)[large] <= 0.1 * abs(exact[large]))


def test_rwa_retains_only_matching_four_body_partition():
    spectrum = _ladder_spectrum()
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    # pumps at twice dressed-ish frequencies on the ladder: w1+w2 = w3+w4
    pump = PumpAssignment(omega_p=tuple(2 * w for w in spectrum.omega))
    report = rwa_filter(poly, pump)
    kept = {(e.creation, e.annihilation) for e in report.entries}
    assert ((1, 1, 0, 0), (0, 0, 1, 1)) in kept
    assert ((1, 0, 1, 0), (0, 1, 0, 1)) not in kept  # 13|24 partition rotates
    assert ((1, 0, 0, 1), (0, 1, 1, 0)) not in kept  # 14|23 partition rotates
    four_body = report.by_class("four-body")
    assert {(e.creation, e.annihilation) for e in four_body} == {
        ((1, 1, 0, 0), (0, 0, 1, 1)),
        ((0, 0, 1, 1), (1, 1, 0, 0)),
    }


def test_rwa_incommensurate_keeps_only_number_conserving():
    spectrum = _ladder_spectrum()
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    pump = PumpAssignment(
        omega_p=tuple(2 * x * GHZ for x in (9.270, 9.249, 9.289, 9.229))
    )
    report = rwa_filter(poly, pump)
    for entry in report.entries:
        assert entry.creation == entry.annihilation
        assert entry.classification in ("cross-kerr", "other")


def test_rwa_drops_unpaired_coupler_operators():
    spectrum = _ladder_spectrum(kerr_mhz=(0, 0, 0, 0), coupler=(12.0, 20.0))
    mix = sw_mixing(spectrum, CouplingGraph(h=np.zeros((4, 4)), g=np.full(4, 5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    pump = PumpAssignment(omega_p=tuple(2 * w for w in spectrum.omega))
    report = rwa_filter(poly, pump, coupler_mode=4)
    for entry in report.entries:
        assert entry.creation[4] == entry.annihilation[4]
    # coupler_mode is keyword-only, so a positional third argument cannot
    # bind to it
    with pytest.raises(TypeError):
        rwa_filter(poly, pump, 4)


@pytest.mark.parametrize(
    "n_pumps, coupler_mode, match",
    [(3, 4, "3 pump frequencies for 4 KPO modes"),
     (5, 4, "5 pump frequencies for 4 KPO modes"),
     (4, None, "4 pump frequencies for 5 KPO modes"),
     (4, 5, "coupler_mode 5 is not a mode"),
     (4, -1, "coupler_mode -1 is not a mode")],
    ids=["three-pumps", "five-pumps", "coupler-unnamed", "coupler-past-the-end",
         "coupler-negative"],
)
def test_rwa_filter_rejects_a_pump_or_coupler_index_that_does_not_fit(n_pumps, coupler_mode,
                                                                     match):
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    omega_p = [2 * w for w in spectrum.omega] + [2 * spectrum.coupler_omega]
    pump = PumpAssignment(omega_p=tuple(omega_p[:n_pumps]))
    with pytest.raises(ValueError, match=match):
        rwa_filter(poly, pump, coupler_mode=coupler_mode)


@pytest.mark.parametrize("coupler_mode", [True, False, 4.0, "4"],
                         ids=["true", "false", "float", "str"])
def test_rwa_filter_refuses_a_coupler_mode_that_is_not_an_integer(coupler_mode):
    # True is an int, so it would name mode 1 as the coupler
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 5.0 * MHZ)))
    pump = PumpAssignment(omega_p=tuple(2 * w for w in spectrum.omega))
    with pytest.raises(ValueError, match="coupler_mode must be an integer mode index"):
        rwa_filter(transform_kerr(spectrum, mix), pump, coupler_mode=coupler_mode)
    assert rwa_filter(transform_kerr(spectrum, mix), pump, coupler_mode=np.int64(4)).entries


@pytest.mark.parametrize("coupler_mode", [0, 2, 4])
def test_rwa_filter_assigns_the_pumps_to_the_kpo_modes_in_order(coupler_mode):
    # the coupler moved from mode 4 to coupler_mode, the KPOs keeping their
    # order around it: the same report, its monomials relabelled
    spectrum = _ladder_spectrum(coupler=(12.0, 20.0))
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ), g=np.full(4, 5.0 * MHZ)))
    poly = transform_kerr(spectrum, mix)
    pump = PumpAssignment(omega_p=tuple(2 * w for w in spectrum.omega))

    def move(exponents):
        kpos = list(exponents[:4])
        return tuple(kpos[:coupler_mode] + [exponents[4]] + kpos[coupler_mode:])

    moved = BosonicPolynomial(5, {(move(c), move(a)): v for (c, a), v in poly.terms.items()})
    report = rwa_filter(poly, pump, coupler_mode=4)
    relabelled = rwa_filter(moved, pump, coupler_mode=coupler_mode)
    assert len(report.entries) > 2
    assert relabelled.entries == [
        ReportEntry(move(e.creation), move(e.annihilation), e.coefficient, e.classification,
                    e.rotation_residual)
        for e in report.entries
    ]
    assert relabelled.by_class("four-body")


def test_report_serialization():
    spectrum = _ladder_spectrum()
    mix = sw_mixing(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))
    report = rwa_filter(
        transform_kerr(spectrum, mix),
        PumpAssignment(omega_p=tuple(2 * w for w in spectrum.omega)),
    )
    rows = report.to_rows()
    assert rows
    assert {"monomial", "class", "coefficient_MHz", "rotation_residual_Hz"} <= rows[0].keys()


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def test_g4_symmetric_anchor_values():
    assert g4_symmetric(5 * MHZ, 50 * MHZ, 20 * MHZ) / KHZ == pytest.approx(1.0, rel=1e-12)
    assert g4_symmetric(5 * MHZ, 50 * MHZ, 172 * MHZ) / KHZ == pytest.approx(8.6, rel=1e-12)
    with pytest.raises(ValueError):
        g4_symmetric(5 * MHZ, 0.0, 20 * MHZ)


def test_g4_vanishes_with_any_zero_ratio():
    assert g4_closed_form(20 * MHZ, np.array([0.05, 0.0, 0.02, -0.03])) == 0.0


def test_g4_forms_agree_on_symmetric_ladder():
    # coupler detunings (+2e, -e, +e, ... ): KPOs at w_g + (2, -1, 1, -2) eps
    eps, g_g, kerr_g = 100 * MHZ, 5 * MHZ, 20 * MHZ
    w_g = 12.0 * GHZ
    omega = w_g + np.array([2, -1, 1, -2]) * eps
    spectrum = ModeSpectrum(
        omega=omega, kerr=np.zeros(4), coupler_omega=w_g, coupler_kerr=kerr_g
    )
    mix = sw_mixing(spectrum, CouplingGraph(h=np.zeros((4, 4)), g=np.full(4, g_g)))
    assert g4_closed_form(kerr_g, mix.g_tilde) == pytest.approx(
        g4_symmetric(g_g, eps, kerr_g), rel=1e-12
    )


def test_h4_detuning_anchor_value():
    val = h4_detuning(5 * MHZ, 50 * MHZ, np.array([5.1, 20, 20, 5.1]) * MHZ)
    assert val / KHZ == pytest.approx(19.8667, rel=1e-4)


def test_h4_tilde_anchor_and_near_agreement():
    val = abs(h4_tilde(5 * MHZ, 20 * MHZ, epsilon=50 * MHZ))
    assert val / KHZ == pytest.approx(20.0, rel=1e-12)
    squid = h4_detuning(5 * MHZ, 50 * MHZ, np.array([5.1, 20, 20, 5.1]) * MHZ)
    assert abs(squid) == pytest.approx(val, rel=0.01)


def test_ladder_frequencies():
    eps, w1 = 50 * MHZ, 10 * GHZ
    assert ladder_frequencies(eps, w1) == [w1, w1 - 3 * eps, w1 - eps, w1 - 2 * eps]
    assert ladder_frequencies(eps) == [0.0, -3 * eps, -eps, -2 * eps]


@pytest.mark.parametrize("kerr_mhz", [(5.1, 20.0, 20.0, 5.1), (-7.3, 20.0, 18.0, -6.1),
                                      (20.0, 0.0, 0.0, 5.1)])
@pytest.mark.parametrize("eps_mhz", [20.0, 100.0, 500.0])
def test_ladder_forms_match_their_reduced_closed_forms(kerr_mhz, eps_mhz):
    # the hand-reduced formula each docstring states, as an independent reference
    k1, k2, k3, k4 = kerr = np.array(kerr_mhz) * MHZ
    h, eps = 5 * MHZ, eps_mhz * MHZ
    assert h4_detuning(h, eps, kerr) == pytest.approx(
        h**3 * ((k2 - k1) + 3 * (k3 - k4)) / (3 * eps**3), rel=1e-12)
    assert h4_tilde(h, k4, eps) == pytest.approx(-h**3 * k4 / eps**3, rel=1e-12)
    assert h4_double_tilde(h, k1, k4, eps) == pytest.approx(
        -h**3 * (k1 + 3 * k4) / (3 * eps**3), rel=1e-12)
    assert g4_symmetric(h, eps, k2) == pytest.approx(h**4 * k2 / (2 * eps**4), rel=1e-12)


def test_h4_general_vanishes_for_pairwise_equal_kerr():
    # K1 = K2 and K3 = K4 on the ladder: the four terms cancel in pairs
    kerr = np.array([20, 20, 5.1, 5.1]) * MHZ
    ht = mixing_from_frequencies(_full_h(5 * MHZ), ladder_frequencies(50 * MHZ))
    scale = 2 * 20 * MHZ * (5 / 50) ** 3
    assert abs(h4_general(kerr, ht)) < 1e-12 * scale


def test_h4_general_symmetric_cancellation():
    # equal Kerr and equal couplings on a ladder meeting w1+w2 = w3+w4
    spectrum = _ladder_spectrum(kerr_mhz=(20, 20, 20, 20))
    ht = mixing_from_frequencies(_full_h(5.0 * MHZ), spectrum.omega)
    scale = abs(2 * 20 * MHZ * 0.05**3)
    assert abs(h4_general(spectrum.kerr, ht)) < 1e-12 * scale


def test_h4_general_index_swap_invariance():
    # swapping KPOs 1 and 2, or 3 and 4, leaves the a1+ a2+ a3 a4 coefficient
    kerr = np.array([5.1, 20.0, 13.0, 7.0]) * MHZ
    omega = np.array(ladder_frequencies(50 * MHZ, 10 * GHZ))
    h = _full_h(4 * MHZ)
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = 5 * MHZ

    def h4(order):
        return h4_general(kerr[order], mixing_from_frequencies(h[np.ix_(order, order)],
                                                               omega[order]))

    base = h4([0, 1, 2, 3])
    assert h4([1, 0, 2, 3]) == pytest.approx(base, rel=1e-12)
    assert h4([0, 1, 3, 2]) == pytest.approx(base, rel=1e-12)


def test_h4_snail_sign_structure():
    kerr_snail = np.array([-20.0, 20.0, 20.0, -20.0]) * MHZ
    val = h4_snail(5 * MHZ, 7.9 * MHZ, 3.2 * MHZ, kerr_snail, 100 * MHZ)
    both_positive = h4_snail(5 * MHZ, 7.9 * MHZ, 3.2 * MHZ, np.abs(kerr_snail), 100 * MHZ)
    assert abs(val) > abs(both_positive)


def test_h4_snail_matches_its_ladder_closed_form():
    kerr = np.array([-7.3, 20.0, 18.0, -6.1]) * MHZ
    h_qn, h_nn, h_qq, eps = 5 * MHZ, 7.9 * MHZ, 3.2 * MHZ, 120 * MHZ
    k1, k2, k3, k4 = kerr
    closed = h_qn**2 * (-h_nn * (k1 + 3 * k4) + h_qq * (k2 + 3 * k3)) / (3 * eps**3)
    assert h4_snail(h_qn, h_nn, h_qq, kerr, eps) == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        h4_snail(h_qn, h_nn, h_qq, kerr, 0.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -50 * MHZ])
@pytest.mark.parametrize("form", [
    lambda eps: g4_symmetric(5 * MHZ, eps, 20 * MHZ),
    ladder_frequencies,
    lambda eps: h4_detuning(5 * MHZ, eps, np.array([5.1, 20.0, 20.0, 5.1]) * MHZ),
    lambda eps: h4_tilde(5 * MHZ, 20 * MHZ, eps),
    lambda eps: h4_double_tilde(5 * MHZ, 5.1 * MHZ, 20 * MHZ, eps),
    lambda eps: h4_snail(5 * MHZ, 7.9 * MHZ, 3.2 * MHZ, np.array([-7.3, 20.0, 18.0, -6.1]) * MHZ,
                         eps),
], ids=["g4_symmetric", "ladder_frequencies", "h4_detuning", "h4_tilde", "h4_double_tilde",
        "h4_snail"])
def test_ladder_forms_refuse_a_detuning_that_is_not_positive_and_finite(form, eps):
    # before, a NaN detuning passed the `epsilon <= 0` check and came out as NaN
    with pytest.raises(ValueError, match="unit detuning must be positive and finite"):
        form(eps)


def _kerr_with(bad):
    return np.array([5.1, 20.0, 20.0, bad]) * MHZ


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("form", [
    lambda bad: h4_general(_kerr_with(bad), np.full((4, 4), 0.05)),
    lambda bad: h4_general(_kerr_with(20.0), np.where(np.eye(4) > 0, 0.0, bad)),
    lambda bad: g4_closed_form(bad, np.full(4, 0.05)),
    lambda bad: g4_closed_form(20 * MHZ, np.array([0.05, bad, 0.05, 0.05])),
    lambda bad: mixing_from_frequencies(_full_h(5 * MHZ), [10 * GHZ, 9.9 * GHZ, bad, 9.8 * GHZ]),
    lambda bad: mixing_from_frequencies(_full_h(bad), [10 * GHZ, 9.9 * GHZ, 9.7 * GHZ, 9.8 * GHZ]),
    lambda bad: h4_detuning(5 * MHZ, 50 * MHZ, _kerr_with(bad)),
    lambda bad: h4_snail(5 * MHZ, 7.9 * MHZ, 3.2 * MHZ, _kerr_with(bad), 50 * MHZ),
    lambda bad: h4_tilde(bad, 20 * MHZ, 50 * MHZ),
    lambda bad: h4_double_tilde(5 * MHZ, bad, 20 * MHZ, 50 * MHZ),
    lambda bad: g4_symmetric(bad, 50 * MHZ, 20 * MHZ),
    lambda bad: g4_symmetric(5 * MHZ, 50 * MHZ, bad),
], ids=["h4_general-kerr", "h4_general-ratio", "g4_closed_form-kerr", "g4_closed_form-ratio",
        "mixing-omega", "mixing-coupling", "h4_detuning-kerr", "h4_snail-kerr",
        "h4_tilde-coupling", "h4_double_tilde-kerr", "g4_symmetric-coupling",
        "g4_symmetric-kerr"])
def test_closed_forms_refuse_non_finite_input(form, bad):
    # before, a NaN passed through as a NaN coupling and an inf as an inf one
    with pytest.raises(ValueError, match="finite"):
        form(bad)


@pytest.mark.parametrize("form", [
    lambda: g4_closed_form(1.0, [1e100] * 4),
    lambda: g4_symmetric(1e100, 1.0, 20 * MHZ),
    lambda: h4_general([1e300] * 4, np.full((4, 4), 1e100)),
    lambda: h4_detuning(1e7, 1e-290, [1e7, 2e7, 3e7, 4e7]),
], ids=["g4_closed_form-overflow", "g4_symmetric-overflow", "h4_general-overflow",
        "h4_detuning-inf-minus-inf"])
def test_closed_forms_refuse_a_result_that_is_not_finite(form):
    # from finite input: g4 had come out inf, and h4_detuning NaN, the sum
    # of an inf and a -inf term
    with pytest.raises(ValueError, match="is not finite"):
        form()


def test_closed_forms_match_engine_on_structured_systems():
    # each specialised formula against the engine coefficient of
    # a1+ a2+ a3 a4 on a system satisfying its assumptions
    eps = 100 * MHZ

    only_k4 = _ladder_spectrum(kerr_mhz=(0, 0, 0, 20.0))
    mix = sw_mixing(only_k4, CouplingGraph(h=_full_h(5.0 * MHZ)))
    engine = transform_kerr(only_k4, mix).coefficient((1, 1, 0, 0), (0, 0, 1, 1))
    assert -engine == pytest.approx(h4_tilde(5 * MHZ, 20 * MHZ, epsilon=eps), rel=1e-12)

    k1_and_k4 = _ladder_spectrum(kerr_mhz=(5.1, 0, 0, 20.0))
    mix = sw_mixing(k1_and_k4, CouplingGraph(h=_full_h(5.0 * MHZ)))
    engine = transform_kerr(k1_and_k4, mix).coefficient((1, 1, 0, 0), (0, 0, 1, 1))
    assert -engine == pytest.approx(
        h4_double_tilde(5 * MHZ, 5.1 * MHZ, 20 * MHZ, eps), rel=1e-12
    )

    squid = _ladder_spectrum(kerr_mhz=(5.1, 20, 20, 5.1))
    mix = sw_mixing(squid, CouplingGraph(h=_full_h(5.0 * MHZ)))
    engine = transform_kerr(squid, mix).coefficient((1, 1, 0, 0), (0, 0, 1, 1))
    assert -engine == pytest.approx(
        h4_detuning(5 * MHZ, eps, squid.kerr), rel=1e-12
    )


# --------------------------------------------------------------------------
# dressed spectrum, inversion, cross-Kerr
# --------------------------------------------------------------------------

def test_dressed_no_couplings():
    spectrum = _ladder_spectrum()
    dressed = dressed_spectrum(spectrum, CouplingGraph(h=np.zeros((4, 4))))
    assert np.allclose(dressed.omega_dressed, spectrum.omega - spectrum.kerr)
    assert np.allclose(dressed.kerr_dressed, spectrum.kerr)
    assert np.allclose(dressed.coupling_shift, 0.0)


def test_dressed_kerr_reduced_by_coupling():
    spectrum = _ladder_spectrum()
    dressed = dressed_spectrum(spectrum, CouplingGraph(h=_full_h(5.0 * MHZ)))
    assert np.all(dressed.kerr_dressed < spectrum.kerr)
    assert np.all(dressed.kerr_dressed > 0)


@pytest.mark.parametrize("coupler", [False, True], ids=["kpos", "with-coupler"])
@pytest.mark.parametrize("eps_ghz, bound", [(0.1, 0.06), (0.3, 0.01), (1.0, 0.01)],
                         ids=["100MHz", "300MHz", "1000MHz"])
def test_dressed_coupling_shift_matches_the_exact_single_excitations(eps_ghz, bound, coupler):
    # the oracle ladder, h = 5 MHz, and a coupler 1 GHz above KPO 1 with
    # g = 20 MHz; the shift is third order in c/Delta with the counter-rotating
    # term, so what it leaves out (Kerr in the denominators, fourth order)
    # falls with eps: 2.0%, 0.33%, 0.27% without a coupler, 5.3%, 0.68%,
    # 0.21% with one
    spectrum = _ladder_spectrum(eps_ghz, coupler=(11.0, 20.0) if coupler else None)
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ),
                              g=np.full(4, 20.0 * MHZ) if coupler else None)
    d_low, d_high = (3, 4) if coupler else (4, 5)
    exact, converged = (dressed_frequencies_exact(build_hamiltonian(spectrum, couplings, d))[:4]
                        - spectrum.omega for d in (d_low, d_high))
    assert np.all(abs(exact - converged) <= 1e-4 * abs(converged))
    shift = dressed_spectrum(spectrum, couplings).coupling_shift
    assert np.all(abs(shift - converged) <= bound * abs(converged))


def test_invert_dressed_table_row():
    omega, kerr = invert_dressed(np.array([9.33 * GHZ]), np.array([10.4 * MHZ]))
    assert omega[0] / GHZ == pytest.approx(9.3404, rel=1e-6)
    assert kerr[0] == pytest.approx(10.4 * MHZ)


def test_forward_inverse_round_trip():
    spectrum = _ladder_spectrum()
    couplings = CouplingGraph(h=_full_h(5.0 * MHZ))
    dressed = dressed_spectrum(spectrum, couplings)
    omega_est, kerr_est = invert_dressed(dressed.omega_dressed, dressed.kerr_dressed)
    # recovery up to the neglected coupling shift, bounded by the sum of
    # h^2/delta over the three partners of the closest-spaced mode
    tol = 1.5 * (5.0**2 / 100 + 5.0**2 / 200 + 5.0**2 / 300) * MHZ
    assert np.allclose(omega_est, spectrum.omega, atol=tol)


def test_cross_kerr_cancellation_and_value():
    spectrum = ModeSpectrum(
        omega=np.array([10.0, 9.9]) * GHZ, kerr=np.array([10.0, -10.0]) * MHZ
    )
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ
    mix = sw_mixing(spectrum, CouplingGraph(h=h))
    chi = cross_kerr(spectrum, mix)
    assert chi[0]["chi"] == 0.0

    spectrum2 = ModeSpectrum(
        omega=np.array([10.0, 9.9]) * GHZ, kerr=np.array([25.0, 15.0]) * MHZ
    )
    mix2 = sw_mixing(spectrum2, CouplingGraph(h=h))
    assert cross_kerr(spectrum2, mix2)[0]["chi"] / MHZ == pytest.approx(-0.2, rel=1e-9)


def test_cross_kerr_matches_engine_pairwise():
    # two-mode system, where no third-mode path contributes
    spectrum = ModeSpectrum(
        omega=np.array([10.0, 9.9]) * GHZ, kerr=np.array([25.0, 15.0]) * MHZ
    )
    h = np.array([[0.0, 5.0], [5.0, 0.0]]) * MHZ
    mix = sw_mixing(spectrum, CouplingGraph(h=h))
    poly = transform_kerr(spectrum, mix)
    chi = cross_kerr(spectrum, mix)[0]["chi"]
    assert poly.coefficient((1, 1), (1, 1)) == pytest.approx(chi, rel=1e-12)


def test_coupler_cross_kerr_matches_engine():
    spectrum = ModeSpectrum(
        omega=np.array([10.0 * GHZ]),
        kerr=np.array([10.0 * MHZ]),
        coupler_omega=12.0 * GHZ,
        coupler_kerr=20.0 * MHZ,
    )
    couplings = CouplingGraph(h=np.zeros((1, 1)), g=np.array([5.0 * MHZ]), s=np.array([1.0]))
    mix = sw_mixing(spectrum, couplings)
    poly = transform_kerr(spectrum, mix)
    chi = cross_kerr(spectrum, mix)[0]["chi"]
    assert poly.coefficient((1, 1), (1, 1)) == pytest.approx(chi, rel=1e-12)


def test_cross_kerr_reads_a_missing_coupler_kerr_as_zero():
    def coupler_chi(coupler_kerr):
        spectrum = ModeSpectrum(omega=np.array([10.0 * GHZ]), kerr=np.array([10.0 * MHZ]),
                                coupler_omega=12.0 * GHZ, coupler_kerr=coupler_kerr)
        couplings = CouplingGraph(h=np.zeros((1, 1)), g=np.array([5.0 * MHZ]),
                                  s=np.array([1.0]))
        return cross_kerr(spectrum, sw_mixing(spectrum, couplings))[0]["chi"]

    assert coupler_chi(None) == coupler_chi(0.0)
    assert coupler_chi(None) / MHZ == pytest.approx(-2.0 * 10.0 * (5.0 / 2000.0) ** 2, rel=0.01)


def test_order_structure_on_ladder():
    # log-log slopes of the closed forms over the detuning sweep
    eps_grid = np.linspace(30, 300, 20) * MHZ
    g4 = [abs(g4_symmetric(5 * MHZ, e, 20 * MHZ)) for e in eps_grid]
    h4 = [abs(h4_detuning(5 * MHZ, e, np.array([5.1, 20, 20, 5.1]) * MHZ)) for e in eps_grid]
    slope_g4 = np.polyfit(np.log(eps_grid), np.log(g4), 1)[0]
    slope_h4 = np.polyfit(np.log(eps_grid), np.log(h4), 1)[0]
    assert slope_g4 == pytest.approx(-4.0, abs=0.01)
    assert slope_h4 == pytest.approx(-3.0, abs=0.01)
