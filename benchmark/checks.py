"""Output checks, run after the timed loop.

Each check compares a kpokit result with a computation made here, apart
from kpokit, or with a property the method must have. A check returns a
list of problems; an empty list means the result passed. Nothing here
imports kpokit.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math

import numpy as np

from inputs import THREE_BODY_KEYS, TWO_BODY_KEYS, softmax_probabilities

E_CHARGE = 1.602176634e-19
HBAR = 6.62607015e-34 / (2.0 * math.pi)
PHI0_REDUCED = HBAR / (2.0 * E_CHARGE)
RESONANCE_TOL = 2.0 * math.pi * 1e3  # rad/s
MHZ = 2.0 * math.pi * 1e6

GAP_RTOL = 1e-4          # own dense diagonalization vs gap_min
DRESSED_BOUND = 0.15     # acceptance-07's bound on |h_eff| vs the Kerr-dressed estimate


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# gap-scan
# --------------------------------------------------------------------------

def dense_fock_hamiltonian(omega, kerr, h, d: int) -> np.ndarray:
    """Lab-frame H from np.kron: w n - (K/2) a+^2 a^2 - h (a - a+)(a - a+)."""
    n = len(omega)
    adag = np.diag(np.sqrt(np.arange(1.0, d)), -1)
    a = adag.T
    eye = np.eye(d)

    def embed(op, mode):
        out = np.ones((1, 1))
        for m in range(n):
            out = np.kron(out, op if m == mode else eye)
        return out

    num = adag @ a
    quartic = adag @ adag @ a @ a
    diff = [embed(a - adag, m) for m in range(n)]
    ham = sum(omega[m] * embed(num, m) - 0.5 * kerr[m] * embed(quartic, m) for m in range(n))
    for j, k in itertools.combinations(range(n), 2):
        ham = ham - h[j, k] * (diff[j] @ diff[k])
    return ham


def basis_index(occupations, d: int) -> int:
    idx = 0
    for occ in occupations:
        idx = idx * d + occ
    return idx


def own_gap(omega, kerr, h, offset: float, d: int) -> float:
    """Gap between the two eigenstates with most weight on |1100> and |0011>,
    with modes 1 and 2 shifted by offset/2."""
    shifted = np.asarray(omega, dtype=float) + np.array([offset, offset, 0.0, 0.0]) / 2.0
    vals, vecs = np.linalg.eigh(dense_fock_hamiltonian(shifted, kerr, h, d))
    weight = vecs[basis_index((1, 1, 0, 0), d)] ** 2 + vecs[basis_index((0, 0, 1, 1), d)] ** 2
    top = np.argsort(weight)[-2:]
    return float(abs(vals[top[1]] - vals[top[0]]))


def gap_scan_problems(inp: dict, out: dict) -> list[str]:
    scan, dressed = out["scan"], out["kerr_dressed"]
    problems = []
    gaps, offsets = np.asarray(scan["gaps"]), np.asarray(scan["offsets"])
    i_min = int(np.argmin(gaps))
    if i_min in (0, len(gaps) - 1) or not offsets[0] < scan["offset_min"] < offsets[-1]:
        problems.append("scan minimum is not interior")
    if scan["h_eff"] != scan["gap_min"] / 2.0:
        problems.append("h_eff != gap_min / 2")
    mine = own_gap(inp["omega"], inp["kerr"], inp["h"], scan["offset_min"], inp["truncation"])
    if not _close(mine, scan["gap_min"], GAP_RTOL):
        problems.append(f"gap_min {scan['gap_min']!r} vs own diagonalization {mine!r}")
    if abs(abs(scan["h_eff"]) - dressed) > DRESSED_BOUND * dressed:
        problems.append(f"|h_eff| {scan['h_eff']!r} not within 15% of Kerr-dressed {dressed!r}")
    return problems


# --------------------------------------------------------------------------
# design
# --------------------------------------------------------------------------

def junction_mode(c: float, l_geom: float, l_junctions) -> tuple[float, float]:
    """omega = 1/sqrt(C L_total), hbar K = sum(L_J^3)/L_total^3 e^2/(2C)."""
    l_total = l_geom + sum(l_junctions)
    omega = 1.0 / math.sqrt(c * l_total)
    kerr = sum(l ** 3 for l in l_junctions) / l_total ** 3 * E_CHARGE ** 2 / (2.0 * c) / HBAR
    return omega, kerr


def snail_current(phi: float, gamma: float, n: int, phi_x: float) -> float:
    return gamma * math.sin(phi) - math.sin((phi_x - phi) / n)


def snail_frequency(c: float, l_geom: float, i0: float, gamma: float, n: int,
                    phi_x: float, phi: float) -> float:
    """1/sqrt(C L) with the SNAIL's inductance phi0/(c2 I0) at phase phi."""
    c2 = gamma * math.cos(phi) + math.cos((phi_x - phi) / n) / n
    return 1.0 / math.sqrt(c * (l_geom + PHI0_REDUCED / (c2 * i0)))


def four_body_identity(spectrum, couplings) -> float:
    """Acceptance-06's coefficient of a1+ a2+ a3 a4 after the transformation:
    -(sum_j 2 K_j prod_{k!=j} ht_kj + 2 K_g prod_j gt_j)."""
    w, kerr, h = spectrum.omega, spectrum.kerr, couplings.h
    kpo_term = 0.0
    for j in range(4):
        prod = 1.0
        for k in range(4):
            if k != j:
                prod *= h[k, j] / (w[k] - w[j])
        kpo_term += 2.0 * kerr[j] * prod
    g_tilde = couplings.g / (w - spectrum.coupler_omega)
    return -(kpo_term + 2.0 * spectrum.coupler_kerr * float(np.prod(g_tilde)))


def hermitian_problems(terms: dict) -> list[str]:
    scale = max((abs(v) for v in terms.values()), default=1.0)
    for (c, a), v in terms.items():
        if abs(terms.get((a, c), 0.0) - np.conj(v)) > 1e-12 * scale:
            return [f"transformed polynomial is not Hermitian at {(c, a)}"]
    return []


def plaquette_problems(rows: int, frequencies: dict, plaquettes: list) -> list[str]:
    if len(plaquettes) != rows * rows:
        return [f"{len(plaquettes)} plaquettes for a {rows}x{rows} lattice"]
    for p in plaquettes:
        w = [frequencies[i] for i in p["indices"]]
        residuals = (abs(w[a] + w[b] - w[c] - w[d])
                     for a, b, c, d in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)))
        if min(residuals) >= RESONANCE_TOL:
            return [f"plaquette {p['corners']} meets no pairing"]
    return []


def model_vector(model) -> np.ndarray:
    """The 15 coefficients of an energy model in softmax order."""
    return np.array([model.eta, *(model.lam[k] for k in THREE_BODY_KEYS),
                     *(model.mu[k] for k in TWO_BODY_KEYS), *model.nu], dtype=float)


def design_problems(inp: dict, out: dict) -> list[str]:
    """Every check of a design task except the pump audit."""
    problems = []
    l_geom = out["l_geom"]
    for k, l_j, mode in zip((1, 2), out["squid_l"], out["squids"]):
        omega, kerr = junction_mode(out["c_eff"][k], l_geom, [l_j])
        if not (_close(omega, mode.omega, 1e-12) and _close(kerr, mode.kerr, 1e-12)):
            problems.append(f"KPO {k + 1} mode differs from 1/sqrt(CL) and junction Kerr")
    omega, kerr = junction_mode(out["c_g_eff"], l_geom, [out["coupler_l"]])
    if not (_close(omega, out["coupler"].omega, 1e-12)
            and _close(kerr, out["coupler"].kerr, 1e-12)):
        problems.append("coupler mode differs from 1/sqrt(CL) and junction Kerr")
    for kpo, element, phi, mode in zip((0, 3), out["snails"], out["phi_bars"],
                                       out["snail_modes"]):
        residual = snail_current(phi, element.gamma, element.n, element.phi_x)
        if not abs(residual) < 1e-10:
            problems.append(f"SNAIL {kpo + 1} current residual {residual:.2e}")
        omega = snail_frequency(out["c_eff"][kpo], l_geom, element.i0, element.gamma,
                                element.n, element.phi_x, phi)
        if not _close(omega, mode.omega, 1e-12):
            problems.append(f"SNAIL {kpo + 1} frequency differs from 1/sqrt(CL)")

    expected = four_body_identity(out["spectrum"], out["couplings"])
    if not _close(out["four_body"].real, expected, 1e-10) or abs(out["four_body"].imag) > 0:
        problems.append(f"a1+a2+a3a4 coefficient {out['four_body']!r} vs identity {expected!r}")
    problems += hermitian_problems(out["poly_terms"])
    problems += plaquette_problems(out["plan_rows"], out["plan_frequencies"],
                                   out["plan_plaquettes"])

    even, odd = np.asarray(out["even"]), np.asarray(out["odd"])
    half = (len(even) - 1) // 2   # the grid spans 8 pi, so half of it is 4 pi
    if np.max(np.abs(even + odd - 1.0)) > 1e-12:
        problems.append("parity curve: even + odd != 1")
    if abs(even[0] - out["target_even"]) > 1e-9:
        problems.append(f"parity curve: even(0) {even[0]!r} != target {out['target_even']!r}")
    if np.max(np.abs(even[half:] - even[:half + 1])) > 1e-9:
        problems.append("parity curve: period is not 4 pi")

    fitted = model_vector(out["fit"])
    seeded = inp["fit_coeffs"]
    if np.max(np.abs(fitted - seeded)) > 1e-8 * max(1.0, np.max(np.abs(seeded))):
        problems.append("fit_energy_model did not recover the seeded coefficients")
    return problems


@functools.cache
def _relation_candidates(n: int, max_order: int) -> np.ndarray:
    """Every primitive, sign-normalised integer vector of n entries with
    0 < sum |n_j| <= max_order, one per row, as floats."""
    axis = np.arange(-max_order, max_order + 1, dtype=np.int8)
    grid = np.array(np.meshgrid(*([axis] * n), indexing="ij")).reshape(n, -1).T
    order = np.abs(grid).sum(axis=1)
    grid = grid[(order > 0) & (order <= max_order)]
    keep = [math.gcd(*(int(c) for c in v)) == 1 and v[np.nonzero(v)[0][0]] > 0 for v in grid]
    return grid[np.array(keep)].astype(float)


def true_relations(pumps, max_order: int) -> set:
    """Every primitive, sign-normalised integer relation sum n_j w_j = 0
    (within RESONANCE_TOL) with sum |n_j| <= max_order, by one vectorised pass."""
    candidates = _relation_candidates(len(pumps), max_order)
    resonant = candidates[np.abs(candidates @ np.asarray(pumps, dtype=float)) < RESONANCE_TOL]
    return {tuple(int(c) for c in v) for v in resonant}


def audit_problems(returned: list, truth: set) -> tuple[list[str], list]:
    """Problems with the relations detect_residual returned, and the true
    relations it missed."""
    problems = []
    if len(set(returned)) != len(returned):
        problems.append("duplicate relations")
    for coeffs in returned:
        nonzero = [c for c in coeffs if c != 0]
        if not nonzero or nonzero[0] < 0:
            problems.append(f"{coeffs} is not sign-normalised")
        elif math.gcd(*nonzero) != 1:
            problems.append(f"{coeffs} is not primitive")
        elif tuple(coeffs) not in truth:
            problems.append(f"{coeffs} is not resonant within tolerance")
    return problems, sorted(truth - {tuple(c) for c in returned})


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def parse_table(stdout: bytes) -> tuple[list[str], list[str], list[list[str]]]:
    text = stdout.decode()
    meta = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0] if rows else [], rows[1:]


ROW_COUNTS = {"quantize": 4, "couplings": 10, "sweep": 49, "snail": 9, "pump-plan": 16,
              "parity": 81, "boltzmann": 16, "fit": 18, "oracle": 41}


def _meta_value(meta: list[str], key: str) -> float:
    for line in meta:
        if line.startswith(key):
            return float(line[len(key):])
    raise KeyError(key)


def cli_problems(name: str, stdout: bytes, ctx: dict) -> list[str]:
    """Checks of one subcommand's stdout; ctx holds the generated inputs."""
    try:
        meta, header, rows = parse_table(stdout)
        values = [[float(x) for x in row[1:]] for row in rows] if name in (
            "quantize", "couplings", "boltzmann", "fit") else [[float(x) for x in row]
                                                               for row in rows]
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"{name}: output does not parse ({exc})"]
    if len(rows) != ROW_COUNTS[name]:
        return [f"{name}: {len(rows)} rows, expected {ROW_COUNTS[name]}"]
    table = np.array(values)
    problems = []
    if name == "quantize":
        c = ctx["c_q_ff"] * 1e-15
        for row, branch in zip(table, ctx["netlist"]["branches"]):
            element = branch["element"]
            if element["kind"] != "squid":
                continue
            omega, kerr = junction_mode(c, branch["l_henries"] * 1e-12,
                                        [element["l_j_ph"] * 1e-12])
            if not (_close(row[0], omega / (2e9 * math.pi), 1e-8)
                    and _close(row[1], kerr / MHZ, 1e-8)):
                problems.append(f"quantize: {branch['node']} differs from own formulas")
    elif name == "couplings":
        bound = 3.0 * ctx["c_c_ff"] / ctx["c_q_ff"]
        if np.any(np.abs(table[:, 0] - table[:, 1]) > bound * np.abs(table[:, 0])):
            problems.append("couplings: exact and approximate differ by more than 3 C_c/C_q")
    elif name == "sweep":
        log_eps = np.log(table[:, 0])
        for col, slope in zip(range(1, 6), (-4, -4, -3, -3, -3)):
            fitted = np.polyfit(log_eps, np.log(table[:, col]), 1)[0]
            if abs(fitted - slope) > 1e-6:
                problems.append(f"sweep: column {header[col]} slope {fitted:.6f}, not {slope}")
    elif name == "pump-plan":
        if "plaquette violations: 0" not in meta:
            problems.append("pump-plan: plaquette violations reported")
    elif name == "parity":
        if np.max(np.abs(table[:, 1] + table[:, 2] - 1.0)) > 1e-8 or \
                abs(table[0, 1] - 0.641) > 1e-8:
            problems.append("parity: even + odd != 1 or even(0) != 0.641")
    elif name == "boltzmann":
        coeffs = np.zeros(15)
        coeffs[0], coeffs[14] = -0.29, 0.4
        expected = softmax_probabilities(coeffs, math.pi / 2.0)
        if np.max(np.abs(table[:, 0] - expected)) > 1e-9:
            problems.append("boltzmann: probabilities differ from own softmax")
    elif name == "fit":
        fitted = table[:15, 0]
        seeded = ctx["fit_coeffs"]
        if np.max(np.abs(fitted - seeded)) > 1e-7:
            problems.append("fit: seeded coefficients not recovered")
    elif name == "oracle":
        h_eff = _meta_value(meta, "|h_eff|_MHz: ")
        reference = ctx["oracle_reference_mhz"]
        if abs(h_eff - reference) > DRESSED_BOUND * reference:
            problems.append(f"oracle: |h_eff| {h_eff} not within 15% of {reference}")
    return problems


def rejects_cleanly(code: int, stderr: bytes) -> bool:
    """A malformed input must end with KPOKIT-ERROR on stderr and exit 2."""
    return code == 2 and b"KPOKIT-ERROR" in stderr

