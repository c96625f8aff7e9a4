"""Lumped-element circuit descriptions and capacitance-network reduction.

Builds the Maxwell capacitance matrix of a netlist, inverts it, reduces
the two coupler nodes of the unit circuit to a single coupler mode, and
emits the two-body coupling constants (exact from the inverse matrix and
approximate from the weak-coupling closed forms).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from . import _Record
from .constants import FEMTO, NANO, PICO
from .elements import JunctionElement, SeriesStack, SingleJunction, Snail, Squid

if TYPE_CHECKING:
    import numpy as np

    from .perturbation import CouplingGraph, ModeSpectrum


class Capacitor(_Record):
    __slots__ = ("node_a", "node_b", "capacitance")

    def __init__(self, node_a: str, node_b: str, capacitance: float):
        object.__setattr__(self, "node_a", node_a)
        object.__setattr__(self, "node_b", node_b)  # may be the ground node
        object.__setattr__(self, "capacitance", capacitance)  # farads
        if not 0 < self.capacitance < math.inf:
            raise ValueError(f"capacitance {self.node_a}-{self.node_b} must be positive and "
                             f"finite, got {self.capacitance}")
        if self.node_a == self.node_b:
            raise ValueError(f"capacitor shorted on node {self.node_a}")


class Branch(_Record):
    """Inductive branch: a junction element plus linear series inductance."""

    __slots__ = ("nodes", "element", "l_series")

    def __init__(self, nodes: tuple[str, ...], element: JunctionElement | None,
                 l_series: float = 0.0):
        object.__setattr__(self, "nodes", nodes)  # (node,) to ground or (node_a, node_b)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "l_series", l_series)  # henries
        if len(self.nodes) not in (1, 2):
            raise ValueError("branch connects one node (to ground) or two nodes")
        if not 0 <= self.l_series < math.inf:
            raise ValueError(
                f"series inductance must be non-negative and finite, got {self.l_series}")


class CircuitNetlist(_Record):
    __slots__ = ("nodes", "ground", "capacitors", "branches")

    def __init__(self, nodes: tuple[str, ...], ground: str, capacitors: tuple[Capacitor, ...],
                 branches: tuple[Branch, ...] = ()):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "capacitors", capacitors)
        object.__setattr__(self, "branches", branches)
        if len(set(self.nodes)) != len(self.nodes):
            dupes = sorted({n for n in self.nodes if self.nodes.count(n) > 1})
            raise ValueError(f"duplicate node identifiers: {dupes}")
        known = set(self.nodes) | {self.ground}
        for cap in self.capacitors:
            for n in (cap.node_a, cap.node_b):
                if n not in known:
                    raise ValueError(f"capacitor references unknown node {n!r}")
        for br in self.branches:
            for n in br.nodes:
                if n not in known:
                    raise ValueError(f"branch references unknown node {n!r}")


class CapacitanceMatrix(_Record):
    """Maxwell capacitance matrix over the non-ground nodes [farads]."""

    __slots__ = ("matrix", "node_order")

    def __init__(self, matrix: np.ndarray, node_order: tuple[str, ...]):
        import numpy as np

        m = np.asarray(matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "node_order", node_order)
        if not np.all(np.isfinite(m)):
            raise ValueError("capacitance matrix must be finite")
        if not np.all(abs(m - m.T) <= 1e-8 + 1e-5 * abs(m.T)):  # np.allclose(m, m.T)
            raise ValueError("capacitance matrix must be symmetric")


class InverseCapacitance(_Record):
    """G = C^-1 [1/farads], rows and columns in node_order."""

    __slots__ = ("matrix", "node_order")

    def __init__(self, matrix: np.ndarray, node_order: tuple[str, ...]):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "node_order", node_order)


class DiscardedMode(_Record):
    """Record of the symmetric coupler combination dropped by the reduction."""

    __slots__ = ("capacitance", "high_frequency")

    def __init__(self, capacitance: float, high_frequency: bool):
        # farads, C+ = 2/(G55 + G66 + 2 G56) of (Q5 + Q6)/sqrt(2)
        object.__setattr__(self, "capacitance", capacitance)
        # True when C+ << effective coupler capacitance
        object.__setattr__(self, "high_frequency", high_frequency)


class ReducedModes(_Record):
    """G projected onto the five kept charges, KPOs 1-4 then the coupler.

    g_r = T^T G T, T holding the four KPO unit columns and a coupler column
    of +1 on the first coupler node and -1 on the second, so G_r[j, k] =
    G_jk, G_r[j, c] = G_j5 - G_j6 and G_r[c, c] = G55 + G66 - 2 G56; every
    mode's effective capacitance is 1/G_r[j, j].
    """

    __slots__ = ("g_r", "discarded", "bare")

    def __init__(self, g_r: np.ndarray, discarded: DiscardedMode, bare: dict | None = None):
        object.__setattr__(self, "g_r", g_r)  # (5, 5) reduced inverse capacitance [1/F]
        object.__setattr__(self, "discarded", discarded)
        # optional C_c, C_q, C_g from the netlist
        object.__setattr__(self, "bare", {} if bare is None else bare)

    @property
    def c_q_eff(self) -> np.ndarray:
        """Per-KPO effective capacitance 1/G_r[j, j] [F]."""
        import numpy as np

        return 1.0 / np.diag(self.g_r)[:4]

    @property
    def c_g_eff(self) -> float:
        """Coupler effective capacitance 1/G_r[c, c], C-/2 [F]."""
        return 1.0 / float(self.g_r[4, 4])


# --------------------------------------------------------------------------
# matrix assembly and inversion
# --------------------------------------------------------------------------

def build_capacitance_matrix(netlist: CircuitNetlist) -> CapacitanceMatrix:
    """Maxwell form: diagonal = sum of attached capacitances, off-diagonal
    = minus the direct capacitance between the node pair."""
    import numpy as np

    order = netlist.nodes
    index = {n: i for i, n in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    for cap in netlist.capacitors:
        a, b = cap.node_a, cap.node_b
        if a in index:
            m[index[a], index[a]] += cap.capacitance
        if b in index:
            m[index[b], index[b]] += cap.capacitance
        if a in index and b in index:
            m[index[a], index[b]] -= cap.capacitance
            m[index[b], index[a]] -= cap.capacitance
    return CapacitanceMatrix(matrix=m, node_order=order)


def _ungrounded_nodes(netlist: CircuitNetlist) -> list[str]:
    """Nodes with no capacitor path to ground (they make C singular)."""
    adjacency: dict[str, set[str]] = {n: set() for n in netlist.nodes}
    adjacency[netlist.ground] = set()
    for cap in netlist.capacitors:
        adjacency[cap.node_a].add(cap.node_b)
        adjacency[cap.node_b].add(cap.node_a)
    reached = {netlist.ground}
    frontier = [netlist.ground]
    while frontier:
        node = frontier.pop()
        for nb in adjacency[node]:
            if nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    return [n for n in netlist.nodes if n not in reached]


def invert_capacitance(
    c: CapacitanceMatrix, netlist: CircuitNetlist | None = None
) -> InverseCapacitance:
    """G = C^-1 via dense factorization, validated to G C = I at 1e-10.

    When the matrix is singular or indefinite and the netlist is supplied,
    the error names the node(s) lacking a ground path; when a capacitance is
    so small that G is not finite, it names the node(s) whose capacitance
    underflows the inversion; a residual that is not finite is refused like
    one above 1e-10.
    """
    import numpy as np

    m = c.matrix
    try:
        lower = np.linalg.cholesky(m)
        eye = np.eye(m.shape[0])
        g = np.linalg.solve(lower.T, np.linalg.solve(lower, eye))
    except np.linalg.LinAlgError:
        detail = ""
        if netlist is not None:
            floating = _ungrounded_nodes(netlist)
            if floating:
                detail = f": node(s) {floating} have no capacitor path to ground"
        raise ValueError(f"capacitance matrix is not positive definite{detail}")
    if not np.isfinite(g).all():
        # a node whose Cholesky pivot has no finite inverse, else each row
        # that the back substitution carried it into
        with np.errstate(divide="ignore", over="ignore"):
            bad = ~np.isfinite(1.0 / lower.diagonal() ** 2)
        if not bad.any():
            bad = ~np.isfinite(g).all(axis=1)
        nodes = ", ".join(f"{c.node_order[i]} ({m[i, i]:.3g} F)" for i in np.flatnonzero(bad))
        raise ValueError(f"capacitance of node(s) {nodes} underflows the inversion: "
                         "the inverse is not finite")
    g = 0.5 * (g + g.T)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is refused
        residual = np.max(np.abs(g @ m - np.eye(m.shape[0])))
    if not residual <= 1e-10:
        raise ValueError(f"inversion residual {residual:.2e} exceeds 1e-10")
    return InverseCapacitance(matrix=g, node_order=c.node_order)


# --------------------------------------------------------------------------
# mode reduction
# --------------------------------------------------------------------------

def mode_reduce(
    g: InverseCapacitance,
    kpo_nodes: tuple[str, ...],
    coupler_node_pair: tuple[str, str],
    bare: dict | None = None,
) -> ReducedModes:
    """Project G onto the four KPO charges and the coupler charge Q_c: G_r = T^T G T.

    Q_c is +1 on the first coupler node and -1 on the second, the antisymmetric
    mode (Q5 - Q6)/sqrt(2) of effective capacitance C-/2 = 1/G_r[c, c] (see
    `ReducedModes`). The symmetric (Q5 + Q6)/sqrt(2) is recorded as discarded,
    flagged high-frequency when its capacitance C+ is small.
    """
    import numpy as np

    index = {n: i for i, n in enumerate(g.node_order)}
    nodes = tuple(kpo_nodes) + tuple(coupler_node_pair)
    for n in nodes:
        if n not in index:
            raise ValueError(f"node {n!r} not in the inverse-matrix ordering")
        if nodes.count(n) > 1:
            raise ValueError(f"node {n!r} is named more than once among the KPO and coupler nodes")
    if len(kpo_nodes) != 4 or len(coupler_node_pair) != 2:
        raise ValueError("expected four KPO nodes and two coupler nodes")
    c1, c2 = (index[n] for n in coupler_node_pair)
    t = np.zeros((len(g.node_order), 5))
    t[[index[n] for n in kpo_nodes], range(4)] = 1.0
    t[[c1, c2], 4] = 1.0, -1.0
    g_r = t.T @ g.matrix @ t
    plus = g.matrix[c1, c1] + g.matrix[c2, c2] + 2.0 * g.matrix[c1, c2]
    if not (g_r[4, 4] > 0 and plus > 0):
        raise ValueError("coupler-node block is not reducible (non-positive modes)")
    c_plus = 2.0 / plus
    return ReducedModes(
        g_r=g_r,
        discarded=DiscardedMode(capacitance=c_plus, high_frequency=c_plus < 0.5 / g_r[4, 4]),
        bare=dict(bare) if bare else {},
    )


def ground_capacitances(netlist: CircuitNetlist) -> dict[str, float]:
    """Summed capacitance from each node to ground [farads], keyed by node;
    nodes with no capacitor to ground are absent."""
    to_ground: dict[str, float] = {}
    for cap in netlist.capacitors:
        a, b = cap.node_a, cap.node_b
        if netlist.ground in (a, b):
            node = b if a == netlist.ground else a
            to_ground[node] = to_ground.get(node, 0.0) + cap.capacitance
    return to_ground


def extract_bare(netlist: CircuitNetlist, kpo_nodes, coupler_node_pair) -> dict:
    """Read the design capacitances C_q (per KPO), C_g, C_c off the netlist.

    C_q are the KPO node-to-ground capacitors, C_g spans the two coupler
    nodes, and C_c is the KPO-coupler link (assumed equal for all links,
    validated).
    """
    import numpy as np

    to_ground = ground_capacitances(netlist)
    links = []
    c_g = None
    coupler = set(coupler_node_pair)
    for cap in netlist.capacitors:
        a, b = cap.node_a, cap.node_b
        if netlist.ground in (a, b):
            continue
        if a in coupler and b in coupler:
            c_g = cap.capacitance
        elif (a in coupler) != (b in coupler):
            links.append(cap.capacitance)
    if not links:
        raise ValueError("no KPO-coupler coupling capacitors found")
    if c_g is None:
        raise ValueError("no capacitor between the two coupler nodes")
    c_c = links[0]
    if any(abs(l - c_c) > 1e-12 * c_c for l in links):
        raise ValueError("unequal coupling capacitors; bare extraction assumes one C_c")
    try:
        c_q = np.array([to_ground[n] for n in kpo_nodes])
    except KeyError as exc:
        raise ValueError(f"node {exc.args[0]!r} has no capacitor to ground")
    return {"c_c": c_c, "c_q": c_q, "c_g": c_g}


# --------------------------------------------------------------------------
# two-body coupling constants
# --------------------------------------------------------------------------

def coupling_constants(
    modes: ReducedModes, spectrum: ModeSpectrum
) -> dict[str, CouplingGraph]:
    """Exact and approximate two-body couplings of the unit circuit.

    Exact, by one rule over the four KPOs and the coupler as the fifth mode:
    k_jk = (G_r[j, k]/2) sqrt(C_j C_k w_j w_k), C_j = 1/G_r[j, j] (see
    `ReducedModes`); h_jk = k_jk between KPOs, g_j = |k_jc|, and the sign
    of G_r[j, c] goes into both graphs as explicit s (-1 where G_r[j, c] < 0,
    else +1; the default (+1, +1, -1, -1) on the unit circuit).
    Approximate: h_jk = C_c/(8 sqrt(Cq_j Cq_k)) sqrt(w_j w_k);
    g_j = C_c/(4 sqrt(Cq_j Cg)) sqrt(w_j w_g), needing bare capacitances.
    """
    import numpy as np

    from .perturbation import CouplingGraph, _modes

    if spectrum.n_kpo != 4:
        raise ValueError("unit circuit has four KPOs")
    omega, _ = _modes(spectrum)
    n = len(omega)
    g_r = np.asarray(modes.g_r, dtype=float)[:n, :n]

    def graph(k: np.ndarray) -> CouplingGraph:
        k.flat[::n + 1] = 0.0
        if n == 4:
            return CouplingGraph(h=k)
        return CouplingGraph(h=k[:4, :4].copy(), g=abs(k[:4, 4]),
                             s=np.where(g_r[:4, 4] < 0, -1.0, 1.0))

    cw = omega / np.diag(g_r)  # C_j w_j
    out = {"exact": graph(0.5 * g_r * np.sqrt(np.outer(cw, cw)))}
    if modes.bare:
        # C_g/4 on the coupler's entry turns the h_jk form into the g_j one
        c = np.append(np.asarray(modes.bare["c_q"], dtype=float), modes.bare["c_g"] / 4.0)[:n]
        out["approx"] = graph(float(modes.bare["c_c"]) / (8.0 * np.sqrt(np.outer(c, c)))
                              * np.sqrt(np.outer(omega, omega)))
    return out


# --------------------------------------------------------------------------
# convenience builders and file I/O
# --------------------------------------------------------------------------

def unit_circuit(c_q: float, c_g: float, c_c: float) -> CircuitNetlist:
    """The six-node unit circuit: four KPOs (C_q to ground) linked pairwise
    to the two coupler nodes (KPOs 1,2 to node 5; KPOs 3,4 to node 6) via
    C_c; the coupler capacitance C_g spans the two coupler nodes."""
    kpo = [f"q{i}" for i in range(1, 5)]
    caps = [Capacitor(n, "gnd", c_q) for n in kpo]
    caps += [Capacitor("c5", "c6", c_g)]
    caps += [Capacitor("q1", "c5", c_c), Capacitor("q2", "c5", c_c)]
    caps += [Capacitor("q3", "c6", c_c), Capacitor("q4", "c6", c_c)]
    return CircuitNetlist(
        nodes=tuple(kpo) + ("c5", "c6"),
        ground="gnd",
        capacitors=tuple(caps),
    )


_JSON_TYPES = {"number": (int, float), "string": str, "list": list,
               "string or list": (str, list)}


def _field(entry: dict, key: str, what: str, kind: str = "number", default=None):
    """entry[key] as a JSON value of the given kind, or default when the key
    is absent and a default is given; a ValueError names what is wrong."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object, got {entry!r}")
    if key not in entry:
        if default is None:
            raise ValueError(f"{what} missing required key {key!r}")
        return default
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{what} {key!r} must be a {kind}, got {value!r}")
    return value


def _node_names(names: list, what: str) -> tuple[str, ...]:
    """The node names as a tuple; a ValueError names the first that is not a string."""
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must hold node names as strings, got {name!r}")
    return tuple(names)


def _element_from_dict(d: dict) -> JunctionElement:
    kind = _field(d, "kind", "netlist element", "string")
    what = f"netlist {kind} element"
    if kind == "squid":
        return Squid(l_j=_field(d, "l_j_ph", what) * PICO)
    if kind == "junction":
        return SingleJunction(i0=_field(d, "i0_na", what) * NANO)
    if kind == "series":
        return SeriesStack(
            elements=tuple(_element_from_dict(e) for e in _field(d, "elements", what, "list"))
        )
    if kind == "snail":
        return Snail(
            i0=_field(d, "i0_na", what) * NANO,
            gamma=_field(d, "gamma", what),
            n=_field(d, "n", what, default=2),
            phi_x=_field(d, "phi_x_turns", what, default=0.0) * 2.0 * math.pi,
        )
    raise ValueError(f"unknown element kind {kind!r}")


def load_netlist(path: str) -> CircuitNetlist:
    """Parse a netlist file (JSON). Units: capacitances fF, inductances pH,
    currents nA, fluxes in turns."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"netlist parse error at line {exc.lineno}: {exc.msg}")
    nodes = _node_names(_field(doc, "nodes", "netlist", "list"), "netlist 'nodes'")
    ground = _field(doc, "ground", "netlist", "string")
    caps = tuple(
        Capacitor(
            node_a=_field(c, "a", "netlist capacitor", "string"),
            node_b=_field(c, "b", "netlist capacitor", "string"),
            capacitance=_field(c, "f_farads", "netlist capacitor") * FEMTO,
        )
        for c in _field(doc, "capacitors", "netlist", "list")
    )
    branches = []
    for b in _field(doc, "branches", "netlist", "list", default=[]):
        node = _field(b, "node", "netlist branch", "string or list")
        ends = _node_names([node] if isinstance(node, str) else node, "netlist branch 'node'")
        element = _element_from_dict(b["element"]) if b.get("element") else None
        l_series = _field(b, "l_henries", "netlist branch", default=0.0)
        branches.append(Branch(nodes=ends, element=element, l_series=l_series * PICO))
    return CircuitNetlist(
        nodes=nodes,
        ground=ground,
        capacitors=caps,
        branches=tuple(branches),
    )
