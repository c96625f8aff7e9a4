"""Capacitance-matrix assembly, inversion, mode reduction, and couplings."""

import json
import math
import re

import numpy as np
import pytest

from kpokit.constants import GHZ, MHZ
from kpokit.elements import SingleJunction, Snail, Squid
from kpokit.netlist import (
    Branch,
    CapacitanceMatrix,
    Capacitor,
    CircuitNetlist,
    build_capacitance_matrix,
    coupling_constants,
    extract_bare,
    invert_capacitance,
    load_netlist,
    mode_reduce,
    unit_circuit,
)
from kpokit.perturbation import ModeSpectrum

KPO_NODES = ("q1", "q2", "q3", "q4")
COUPLER_NODES = ("c5", "c6")


def _reduced(c_q, c_g, c_c):
    net = unit_circuit(c_q, c_g, c_c)
    g = invert_capacitance(build_capacitance_matrix(net), net)
    bare = extract_bare(net, KPO_NODES, COUPLER_NODES)
    return mode_reduce(g, KPO_NODES, COUPLER_NODES, bare=bare)


# --------------------------------------------------------------------------
# matrix assembly
# --------------------------------------------------------------------------

def test_single_node_matrix():
    net = CircuitNetlist(
        nodes=("a",), ground="gnd", capacitors=(Capacitor("a", "gnd", 100e-15),)
    )
    c = build_capacitance_matrix(net)
    assert c.matrix.shape == (1, 1)
    assert c.matrix[0, 0] == pytest.approx(100e-15)


def test_three_node_chain_matrix():
    caps = [Capacitor(n, "gnd", 100e-15) for n in ("a", "b", "c")]
    caps += [Capacitor("a", "b", 1e-15), Capacitor("b", "c", 1e-15)]
    net = CircuitNetlist(nodes=("a", "b", "c"), ground="gnd", capacitors=tuple(caps))
    m = build_capacitance_matrix(net).matrix
    assert np.allclose(np.diag(m), np.array([101, 102, 101]) * 1e-15)
    assert m[0, 1] == pytest.approx(-1e-15)
    assert m[1, 2] == pytest.approx(-1e-15)
    assert m[0, 2] == 0.0


def test_unit_circuit_matrix_structure():
    c_q, c_g, c_c = 500e-15, 500e-15, 1e-15
    m = build_capacitance_matrix(unit_circuit(c_q, c_g, c_c)).matrix
    # KPO rows: C_q + C_c on the diagonal, -C_c to the shared coupler node
    assert np.allclose(np.diag(m)[:4], c_q + c_c)
    # coupler rows: C_g + 2C_c on the diagonal, -C_g between the two
    assert np.allclose(np.diag(m)[4:], c_g + 2 * c_c)
    assert m[4, 5] == pytest.approx(-c_g)
    assert m[0, 4] == m[1, 4] == pytest.approx(-c_c)
    assert m[2, 5] == m[3, 5] == pytest.approx(-c_c)
    assert m[0, 1] == m[0, 2] == m[0, 5] == 0.0
    assert np.allclose(m, m.T)


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        CircuitNetlist(nodes=("a", "a"), ground="gnd", capacitors=())


def test_nonpositive_capacitance_rejected():
    with pytest.raises(ValueError, match="positive"):
        Capacitor("a", "gnd", 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_element_values_rejected(value):
    with pytest.raises(ValueError, match="capacitance a-gnd must be positive and finite"):
        Capacitor("a", "gnd", value)
    with pytest.raises(ValueError, match="series inductance must be non-negative and finite"):
        Branch(nodes=("a",), element=None, l_series=value)
    with pytest.raises(ValueError, match="SQUID inductance must be positive and finite"):
        Squid(l_j=value)
    with pytest.raises(ValueError, match="critical current must be positive and finite"):
        SingleJunction(i0=value)
    with pytest.raises(ValueError, match="critical current must be positive and finite"):
        Snail(i0=value, gamma=0.3)


def test_capacitance_matrix_symmetry_test_is_np_allclose():
    # the elementwise form in CapacitanceMatrix accepts exactly what
    # np.allclose(m, m.T) accepts, at and around its tolerance
    rng = np.random.default_rng(4)
    for scale in (1e-15, 1e-12, 1.0, 1e3):
        m = rng.uniform(0.1, 1.0, (6, 6)) * scale
        m = m + m.T
        for offset in (0.0, 0.9e-5, 1.1e-5, 1e-3):
            for absolute in (0.0, 0.5e-8, 2e-8):
                skewed = m.copy()
                skewed[0, 1] += offset * m[0, 1] + absolute
                skewed[1, 0] -= 0.5 * (offset * m[0, 1] + absolute)
                accepted = np.allclose(skewed, skewed.T)
                if accepted:
                    CapacitanceMatrix(skewed, tuple("abcdef"))
                else:
                    with pytest.raises(ValueError, match="must be symmetric"):
                        CapacitanceMatrix(skewed, tuple("abcdef"))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_capacitance_matrix_rejects_non_finite_entries(value):
    m = np.eye(2) * 1e-15
    m[1, 1] = value
    with pytest.raises(ValueError, match="must be finite"):
        CapacitanceMatrix(m, ("a", "b"))


def test_unknown_node_reference_rejected():
    with pytest.raises(ValueError, match="unknown node"):
        CircuitNetlist(
            nodes=("a",), ground="gnd", capacitors=(Capacitor("a", "zz", 1e-15),)
        )


# --------------------------------------------------------------------------
# inversion
# --------------------------------------------------------------------------

def test_diagonal_inverse():
    net = CircuitNetlist(
        nodes=("a", "b"),
        ground="gnd",
        capacitors=(Capacitor("a", "gnd", 50e-15), Capacitor("b", "gnd", 200e-15)),
    )
    g = invert_capacitance(build_capacitance_matrix(net), net)
    assert np.allclose(g.matrix, np.diag([1 / 50e-15, 1 / 200e-15]))


def test_inverse_identity_residual():
    c = build_capacitance_matrix(unit_circuit(500e-15, 500e-15, 1e-15))
    g = invert_capacitance(c)
    residual = np.max(np.abs(g.matrix @ c.matrix - np.eye(6)))
    assert residual < 1e-10


@pytest.mark.parametrize("diagonal, node", [((1e-315, 5e-13), "a"), ((5e-13, 1e-315), "b")])
def test_inversion_names_the_node_whose_capacitance_underflows(diagonal, node):
    # 1 / 1e-315 F overflows; before, the inverse held inf and the NaN
    # residual of its product with C passed the check
    c = CapacitanceMatrix(np.diag(diagonal), ("a", "b"))
    with pytest.raises(ValueError, match=re.escape(
            f"capacitance of node(s) {node} (1e-315 F) underflows the inversion")):
        invert_capacitance(c)


def test_inversion_refuses_a_residual_that_is_not_finite(monkeypatch):
    # a finite inverse whose product with C overflows: summed as inf - inf
    # it is NaN, which passed the check before (NaN > 1e-10 is False); a
    # fused multiply-add rounds it to inf instead
    c = CapacitanceMatrix(np.array([[10.0, 10.0], [10.0, 20.0]]), ("a", "b"))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([[6e307, -6e307],
                                                                   [-6e307, 6e307]]))
    with pytest.raises(ValueError, match="inversion residual (nan|inf) exceeds 1e-10"):
        invert_capacitance(c)


def test_floating_node_diagnosed():
    # node b has no capacitor at all: its matrix row is zero
    net = CircuitNetlist(
        nodes=("a", "b"),
        ground="gnd",
        capacitors=(Capacitor("a", "gnd", 100e-15),),
    )
    with pytest.raises(ValueError, match=r"\['b'\]"):
        invert_capacitance(build_capacitance_matrix(net), net)


def test_named_accessors_unit_circuit():
    net = unit_circuit(500e-15, 500e-15, 1e-15)
    g = invert_capacitance(build_capacitance_matrix(net), net).matrix
    # first-order estimate G12 ~ G13 ~ C_c/(4 C_q^2) = 1.0e9 1/F
    assert g[0, 1] == pytest.approx(1.0e9, rel=0.05)
    assert g[0, 2] == pytest.approx(1.0e9, rel=0.05)
    # the big coupler capacitance ties nodes 5 and 6 together, so G15 and
    # G16 are nearly equal; only their difference drives the coupler mode
    assert g[0, 4] > g[0, 5] > 0.0
    assert g[0, 4] == pytest.approx(g[0, 5], rel=0.01)


# --------------------------------------------------------------------------
# mode reduction
# --------------------------------------------------------------------------

def test_reduction_kpo_like_values():
    modes = _reduced(500e-15, 500e-15, 1e-15)
    assert np.allclose(modes.c_q_eff, 500e-15, rtol=0.01)
    assert modes.c_g_eff == pytest.approx(500e-15, rel=0.01)
    assert modes.discarded.high_frequency
    assert modes.discarded.capacitance == pytest.approx(2e-15, rel=0.01)


def test_reduction_transmon_like_values():
    modes = _reduced(100e-15, 100e-15, 1e-15 / math.sqrt(5))
    assert modes.c_g_eff == pytest.approx(100e-15, rel=0.01)


def test_decoupled_limit():
    # shrinking the coupling capacitor by 1000x shrinks every off-diagonal
    # entry of G_r, each coupling's kernel, at least by that factor,
    # extrapolating to zero at C_c = 0
    ref = _reduced(500e-15, 500e-15, 1e-15).g_r
    tiny = _reduced(500e-15, 500e-15, 1e-18).g_r
    off = ~np.eye(5, dtype=bool)
    assert np.all(abs(tiny[off]) < 2e-3 * abs(ref[off]))


def test_reduction_topology_errors():
    net = unit_circuit(500e-15, 500e-15, 1e-15)
    g = invert_capacitance(build_capacitance_matrix(net), net)
    with pytest.raises(ValueError, match="not in the inverse-matrix ordering"):
        mode_reduce(g, ("q1", "q2", "q3", "zz"), COUPLER_NODES)
    with pytest.raises(ValueError, match="four KPO nodes"):
        mode_reduce(g, ("q1", "q2"), COUPLER_NODES)


@pytest.mark.parametrize("kpo_nodes, coupler_nodes, node", [
    (("q1", "q1", "q3", "q4"), COUPLER_NODES, "q1"),
    (KPO_NODES, ("c5", "c5"), "c5"),
    (("q1", "q2", "q3", "c5"), COUPLER_NODES, "c5"),
], ids=["kpo-twice", "coupler-twice", "kpo-and-coupler"])
def test_reduction_refuses_a_node_named_twice(kpo_nodes, coupler_nodes, node):
    # q1 twice had read the diagonal G11 as the coupling h12
    net = unit_circuit(500e-15, 500e-15, 1e-15)
    g = invert_capacitance(build_capacitance_matrix(net), net)
    with pytest.raises(ValueError, match=f"node '{node}' is named more than once"):
        mode_reduce(g, kpo_nodes, coupler_nodes)


# --------------------------------------------------------------------------
# coupling constants
# --------------------------------------------------------------------------

def _spectrum(freqs_ghz=(10.0,) * 4, coupler_ghz=10.0):
    return ModeSpectrum(
        omega=np.array(freqs_ghz) * GHZ,
        kerr=np.zeros(4),
        coupler_omega=coupler_ghz * GHZ if coupler_ghz else None,
        coupler_kerr=0.0 if coupler_ghz else None,
    )


def test_coupler_coupling_five_mhz():
    modes = _reduced(500e-15, 500e-15, 1e-15)
    graphs = coupling_constants(modes, _spectrum())
    assert np.allclose(graphs["approx"].g / MHZ, 5.0, rtol=1e-6)
    assert np.allclose(graphs["exact"].g / MHZ, 5.0, rtol=0.01)


def test_direct_coupling_five_mhz():
    modes = _reduced(500e-15, 500e-15, 2e-15)
    graphs = coupling_constants(modes, _spectrum())
    assert graphs["approx"].h[0, 1] / MHZ == pytest.approx(5.0, rel=1e-6)
    assert graphs["exact"].h[0, 1] / MHZ == pytest.approx(5.0, rel=0.02)


def test_mixed_capacitance_coupling_five_mhz():
    # asymmetric KPO capacitances: the closed form uses their geometric mean
    c_c = math.sqrt(8.0 / 5.0) * 1e-15
    h_qn = c_c / (8 * math.sqrt(200e-15 * 500e-15)) * 10 * GHZ
    assert h_qn / MHZ == pytest.approx(5.0, rel=1e-9)


def test_exact_approx_agreement_bound():
    c_q, c_c = 500e-15, 1e-15
    modes = _reduced(c_q, 500e-15, c_c)
    graphs = coupling_constants(modes, _spectrum())
    bound = 3 * c_c / c_q
    for j in range(4):
        for k in range(j + 1, 4):
            exact, approx = graphs["exact"].h[j, k], graphs["approx"].h[j, k]
            assert abs(exact - approx) / abs(exact) < bound
        assert abs(graphs["exact"].g[j] - graphs["approx"].g[j]) / graphs["exact"].g[j] < bound


def test_coupling_symmetry():
    modes = _reduced(500e-15, 500e-15, 1e-15)
    graphs = coupling_constants(modes, _spectrum(freqs_ghz=(10.0, 9.7, 9.9, 9.8)))
    for name in ("exact", "approx"):
        h = graphs[name].h
        assert np.allclose(h, h.T)
        assert np.allclose(np.diag(h), 0.0)


def test_intermediate_node_suppression():
    # a KPO-coupler-KPO chain suppresses the end-to-end inverse element by
    # one factor of C_c/C relative to a direct C_c link
    c, c_c = 500e-15, 1e-15
    direct = CircuitNetlist(
        nodes=("a", "b"),
        ground="gnd",
        capacitors=(
            Capacitor("a", "gnd", c),
            Capacitor("b", "gnd", c),
            Capacitor("a", "b", c_c),
        ),
    )
    chained = CircuitNetlist(
        nodes=("a", "m", "b"),
        ground="gnd",
        capacitors=(
            Capacitor("a", "gnd", c),
            Capacitor("m", "gnd", c),
            Capacitor("b", "gnd", c),
            Capacitor("a", "m", c_c),
            Capacitor("m", "b", c_c),
        ),
    )
    g_direct = invert_capacitance(build_capacitance_matrix(direct), direct).matrix[0, 1]
    g_chain = invert_capacitance(build_capacitance_matrix(chained), chained).matrix[0, 2]
    ratio = g_chain / g_direct
    assert 0.5 * c_c / c < ratio < 2.0 * c_c / c


def test_permutation_invariance():
    base = unit_circuit(500e-15, 500e-15, 1e-15)
    spectrum = _spectrum(freqs_ghz=(10.0, 9.7, 9.9, 9.8))
    shuffled = CircuitNetlist(
        nodes=("c6", "q3", "q1", "c5", "q4", "q2"),
        ground="gnd",
        capacitors=base.capacitors,
    )
    out = {}
    for net in (base, shuffled):
        g = invert_capacitance(build_capacitance_matrix(net), net)
        bare = extract_bare(net, KPO_NODES, COUPLER_NODES)
        modes = mode_reduce(g, KPO_NODES, COUPLER_NODES, bare=bare)
        out[net.nodes] = coupling_constants(modes, spectrum)
    a, b = out.values()
    assert np.allclose(a["exact"].h, b["exact"].h)
    assert np.allclose(a["exact"].g, b["exact"].g)


def _unequal_unit_circuit(rng, spread, c_c=1e-15):
    """The unit circuit with each C_q drawn within +-spread of 500 fF: the
    netlist and its Maxwell matrix written out by hand, nodes q1-q4, c5, c6."""
    c_q = 500e-15 * (1.0 + rng.uniform(-spread, spread, 4))
    c_g = rng.uniform(450e-15, 550e-15)
    links = ((0, 4), (1, 4), (2, 5), (3, 5))
    nodes = KPO_NODES + COUPLER_NODES
    caps = [Capacitor(n, "gnd", c) for n, c in zip(KPO_NODES, c_q)]
    caps += [Capacitor("c5", "c6", c_g)] + [Capacitor(nodes[j], nodes[c], c_c) for j, c in links]
    maxwell = np.diag(np.append(c_q, [c_g, c_g]))
    maxwell[4, 5] = maxwell[5, 4] = -c_g
    for j, c in links:
        maxwell[j, j] += c_c
        maxwell[c, c] += c_c
        maxwell[j, c] = maxwell[c, j] = -c_c
    return CircuitNetlist(nodes=nodes, ground="gnd", capacitors=tuple(caps)), maxwell


@pytest.mark.parametrize("spread", [0.1, 0.3])
def test_unequal_kpo_capacitances_couple_through_their_own_inverse_entries(spread):
    # reading every pair off KPO 1's row of G had put h and g up to 29% off
    # G's own entries at a 10% spread, and up to 127% off approx at 30%
    rng = np.random.default_rng(int(spread * 100))
    c_c = 1e-15
    for _ in range(25):
        net, maxwell = _unequal_unit_circuit(rng, spread, c_c)
        modes = mode_reduce(invert_capacitance(build_capacitance_matrix(net), net),
                            KPO_NODES, COUPLER_NODES,
                            bare=extract_bare(net, KPO_NODES, COUPLER_NODES))
        spectrum = _spectrum(freqs_ghz=tuple(rng.uniform(9.0, 11.0, 4)),
                             coupler_ghz=rng.uniform(10.0, 12.0))
        graphs = coupling_constants(modes, spectrum)
        g = np.linalg.inv(maxwell)
        w = np.append(spectrum.omega, spectrum.coupler_omega)
        # G_r: the KPO block of G, the coupler column G_j5 - G_j6, G55 + G66 - 2 G56
        g_r = np.zeros((5, 5))
        g_r[:4, :4] = g[:4, :4]
        g_r[:4, 4] = g_r[4, :4] = g[:4, 4] - g[:4, 5]
        g_r[4, 4] = g[4, 4] + g[5, 5] - 2.0 * g[4, 5]
        cw = w / np.diag(g_r)
        k = 0.5 * g_r * np.sqrt(np.outer(cw, cw))
        exact, approx = graphs["exact"], graphs["approx"]
        off = ~np.eye(4, dtype=bool)
        assert exact.h[off] == pytest.approx(k[:4, :4][off], rel=1e-12, abs=0)
        assert exact.s * exact.g == pytest.approx(k[:4, 4], rel=1e-12, abs=0)
        assert np.array_equal(approx.s, exact.s)
        bound = 3 * c_c / min(modes.bare["c_q"])
        assert np.all(abs(exact.h - approx.h)[off] < bound * abs(exact.h[off]))
        assert np.all(abs(exact.g - approx.g) < bound * exact.g)


def _numpy_scalar_couplings(modes, spectrum):
    """coupling_constants' rule entry by entry on NumPy scalars, the exact
    couplings read off G_r with the coupler as mode 4: the exact and
    approximate (h, g, s), g and s None without a coupler."""
    w = list(spectrum.omega) + ([spectrum.coupler_omega] if spectrum.has_coupler else [])
    g_r = modes.g_r
    cw = [w[j] / g_r[j, j] for j in range(len(w))]  # C_j w_j
    c_c, c_q = modes.bare["c_c"], np.asarray(modes.bare["c_q"], dtype=float)
    h_exact, h_approx = np.zeros((4, 4)), np.zeros((4, 4))
    for j in range(4):
        for k in range(4):
            if j != k:
                h_exact[j, k] = 0.5 * g_r[j, k] * np.sqrt(cw[j] * cw[k])
                h_approx[j, k] = c_c / (8.0 * np.sqrt(c_q[j] * c_q[k])) * np.sqrt(w[j] * w[k])
    if not spectrum.has_coupler:
        return {"exact": (h_exact, None, None), "approx": (h_approx, None, None)}
    wg, c_g = spectrum.coupler_omega, modes.bare["c_g"]
    g_exact = np.array([abs(0.5 * g_r[j, 4] * np.sqrt(cw[j] * cw[4])) for j in range(4)])
    g_approx = np.array([c_c / (4.0 * np.sqrt(c_q[j] * c_g)) * np.sqrt(w[j] * wg)
                         for j in range(4)])
    s = np.array([-1.0 if g_r[j, 4] < 0 else 1.0 for j in range(4)])
    return {"exact": (h_exact, g_exact, s), "approx": (h_approx, g_approx, s)}


@pytest.mark.parametrize("seed", range(4))
def test_coupling_constants_bit_identical_to_the_numpy_scalar_loops(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        c_q = rng.uniform(150e-15, 600e-15, 4)
        c_c, c_g = rng.uniform(0.5e-15, 4e-15), rng.uniform(100e-15, 600e-15)
        caps = [Capacitor(n, "gnd", c) for n, c in zip(KPO_NODES, c_q)]
        caps += [Capacitor("c5", "c6", c_g), Capacitor("q1", "c5", c_c),
                 Capacitor("q2", "c5", c_c), Capacitor("q3", "c6", c_c),
                 Capacitor("q4", "c6", c_c)]
        net = CircuitNetlist(nodes=KPO_NODES + COUPLER_NODES, ground="gnd",
                             capacitors=tuple(caps))
        modes = mode_reduce(invert_capacitance(build_capacitance_matrix(net), net),
                            KPO_NODES, COUPLER_NODES,
                            bare=extract_bare(net, KPO_NODES, COUPLER_NODES))
        freqs = tuple(rng.uniform(8.0, 12.0, 4))
        for coupler_ghz in (rng.uniform(9.0, 13.0), None):
            spectrum = _spectrum(freqs_ghz=freqs, coupler_ghz=coupler_ghz)
            graphs = coupling_constants(modes, spectrum)
            for name, (h, g, s) in _numpy_scalar_couplings(modes, spectrum).items():
                assert np.array_equal(graphs[name].h.view(np.int64), h.view(np.int64))
                if g is None:
                    assert graphs[name].g is None and graphs[name].s is None
                else:
                    assert np.array_equal(graphs[name].g.view(np.int64), g.view(np.int64))
                    assert np.array_equal(graphs[name].s, s)


# --------------------------------------------------------------------------
# bare extraction and file I/O
# --------------------------------------------------------------------------

def test_extract_bare_values():
    net = unit_circuit(500e-15, 400e-15, 2e-15)
    bare = extract_bare(net, KPO_NODES, COUPLER_NODES)
    assert bare["c_c"] == pytest.approx(2e-15)
    assert bare["c_g"] == pytest.approx(400e-15)
    assert np.allclose(bare["c_q"], 500e-15)


def test_extract_bare_unequal_links_rejected():
    net = unit_circuit(500e-15, 500e-15, 1e-15)
    caps = tuple(
        Capacitor(c.node_a, c.node_b, 2e-15)
        if (c.node_a, c.node_b) == ("q1", "c5")
        else c
        for c in net.capacitors
    )
    bad = CircuitNetlist(nodes=net.nodes, ground=net.ground, capacitors=caps)
    with pytest.raises(ValueError, match="unequal"):
        extract_bare(bad, KPO_NODES, COUPLER_NODES)


def test_load_netlist_round_trip(tmp_path):
    doc = {
        "nodes": ["q1", "q2"],
        "ground": "gnd",
        "capacitors": [
            {"a": "q1", "b": "gnd", "f_farads": 500.0},
            {"a": "q2", "b": "gnd", "f_farads": 500.0},
            {"a": "q1", "b": "q2", "f_farads": 1.0},
        ],
        "branches": [
            {"node": "q1", "element": {"kind": "junction", "i0_na": 809.4}, "l_henries": 100.0}
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    net = load_netlist(str(path))
    assert net.nodes == ("q1", "q2")
    assert net.capacitors[0].capacitance == pytest.approx(500e-15)
    assert net.branches[0].l_series == pytest.approx(100e-12)
    assert net.branches[0].element.i0 == pytest.approx(809.4e-9)


def test_load_netlist_parse_error_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [,]}')
    with pytest.raises(ValueError, match="line 1"):
        load_netlist(str(path))


def test_load_netlist_missing_key(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"nodes": ["a"], "ground": "gnd"}))
    with pytest.raises(ValueError, match="capacitors"):
        load_netlist(str(path))


def test_branch_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Branch(nodes=("a",), element=None, l_series=-1e-12)
    with pytest.raises(ValueError, match="one node"):
        Branch(nodes=("a", "b", "c"), element=None)
