"""Coherent-state Ising model of a four-KPO plaquette.

Each KPO encodes a spin s_j = +-1 in its coherent state alpha_j s_j
exp(i theta_pj/2) (Puri et al., Nat. Commun. 8, 15785 (2017)). One rule maps
each coupling v of `MONOMIALS`, prod_j a_j+^c_j a_j^a_j plus its adjoint, to
the energy sign * 2v * prod_j alpha_j^(c_j+a_j) * cos(sum_j (c_j-a_j) theta_pj/2)
on the product of the spins with odd c_j + a_j; coherent drives add fields
2 eps_j alpha_j sin(theta_dj). State probabilities are Boltzmann, and fitting
the energy to measured ones is a linear problem in log-probability ratios.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np

from . import _Record

PROB_FLOOR = 1e-12

SPIN_STATES: tuple[tuple[int, ...], ...] = tuple(product((1, -1), repeat=4))

THREE_BODY_KEYS = ("234", "134", "124", "123")
TWO_BODY_KEYS = ("12", "13", "14", "23", "24", "34")

# the 15 spin products of the energy, one row per state of SPIN_STATES;
# columns: eta (s1s2s3s4), lambda (THREE_BODY_KEYS), mu (TWO_BODY_KEYS),
# nu1..nu4 (s_j; the nu4 term is further multiplied by sin(theta_d4))
_SPIN_PRODUCTS = ("1234",) + THREE_BODY_KEYS + TWO_BODY_KEYS + ("1", "2", "3", "4")
SPIN_FEATURES = np.array(
    [[math.prod(s[int(m) - 1] for m in term) for term in _SPIN_PRODUCTS] for s in SPIN_STATES],
    dtype=float,
)

# each coupling of InteractionSet: its monomial as (creation, annihilation)
# exponents of KPOs 1-4 (BosonicPolynomial's keys) and the sign of its term
MONOMIALS = {
    "h4": (((1, 1, 0, 0), (0, 0, 1, 1)), -1.0),  # a1+ a2+ a3 a4
    "g1": (((1, 0, 0, 1), (0, 2, 0, 0)), 1.0),   # a1+ a4+ a2^2
    "g2": (((0, 1, 1, 0), (2, 0, 0, 0)), 1.0),   # a2+ a3+ a1^2
    "g3": (((3, 0, 0, 0), (0, 0, 2, 1)), 1.0),   # a1+^3 a3^2 a4
    "g4": (((0, 3, 0, 0), (0, 0, 1, 2)), 1.0),   # a2+^3 a3 a4^2
}
# the SPIN_FEATURES column of each coupling: its modes of odd c_j + a_j
_COLUMNS = {name: _SPIN_PRODUCTS.index("".join(str(j + 1) for j in range(4) if (c[j] + a[j]) % 2))
            for name, ((c, a), _) in MONOMIALS.items()}


class OscillationConfig(_Record):
    """Per-KPO oscillation amplitude and drive/pump phases."""

    __slots__ = ("alpha", "epsilon_d", "theta_d", "theta_p")

    def __init__(self, alpha: np.ndarray, epsilon_d: np.ndarray, theta_d: np.ndarray,
                 theta_p: np.ndarray):
        # alpha dimensionless, >= 0; epsilon_d the coherent-drive amplitude, rad/s;
        # theta_d and theta_p the drive and pump phases, radians
        for name, value in zip(self.__slots__, (alpha, epsilon_d, theta_d, theta_p)):
            arr = np.asarray(value, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (4,):
                raise ValueError(f"{name} must have four entries")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} entries must be finite")
        if np.any(self.alpha < 0):
            raise ValueError("oscillation amplitudes must be non-negative")


class InteractionSet(_Record):
    """Rotating-frame interaction strengths [rad/s], one per MONOMIALS entry."""

    __slots__ = ("h4", "g1", "g2", "g3", "g4")

    def __init__(self, h4: float = 0.0, g1: float = 0.0, g2: float = 0.0, g3: float = 0.0,
                 g4: float = 0.0):
        object.__setattr__(self, "h4", h4)
        object.__setattr__(self, "g1", g1)  # a1+ a4+ a2^2 type
        object.__setattr__(self, "g2", g2)  # a1^2 a2+ a3+ type
        object.__setattr__(self, "g3", g3)  # a1+^3 a3^2 a4 type
        object.__setattr__(self, "g4", g4)  # a2+^3 a3 a4^2 type


class EffectiveEnergyModel(_Record):
    """Dimensionless effective-energy coefficients (inverse temperature
    absorbed): beta*E = eta*s1s2s3s4 + three-body + two-body + fields,
    with the nu4 field multiplied by sin(theta_d4)."""

    __slots__ = ("eta", "lam", "mu", "nu")

    def __init__(self, eta: float = 0.0, lam: dict | None = None, mu: dict | None = None,
                 nu: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)):
        lam, mu = lam or {}, mu or {}
        object.__setattr__(self, "eta", eta)
        # keys "234","134","124","123"
        object.__setattr__(self, "lam", {k: lam.get(k, 0.0) for k in THREE_BODY_KEYS})
        object.__setattr__(self, "mu", {k: mu.get(k, 0.0) for k in TWO_BODY_KEYS})  # "12".."34"
        object.__setattr__(self, "nu", nu)
        if not all(map(math.isfinite, _vector(self))):
            raise ValueError("energy coefficients must be finite")


# --------------------------------------------------------------------------
# forward model
# --------------------------------------------------------------------------

def effective_coefficients(config: OscillationConfig, ints: InteractionSet) -> dict:
    """Spin-energy coefficients [rad/s] from amplitudes, phases, and couplings.

    Each coupling gives its MONOMIALS term by the module's one rule (the
    four-body term carries cos(theta_p/2) with the aggregate pump phase);
    coherent drives contribute 2*eps_j*alpha_j*sin(theta_dj).
    """
    return _coefficients(config, config.theta_p, ints)


def _term(name: str, value: float, alpha, tp):
    """The module's rule for coupling `name` of strength `value` [rad/s] at
    pump phases `tp`, whose entries may be arrays."""
    (creation, annihilation), sign = MONOMIALS[name]
    coefficient, phase = sign * 2.0 * value, 0.0
    for j, (c, a) in enumerate(zip(creation, annihilation)):
        if c + a:
            coefficient = coefficient * alpha[j] ** (c + a)
            phase = phase + 0.5 * (c - a) * tp[j]
    return coefficient * np.cos(phase)


def _coefficients(config: OscillationConfig, tp, ints: InteractionSet) -> dict:
    """effective_coefficients at pump phases `tp`, whose four entries may be
    arrays of one shape: each phase-dependent coefficient then has that shape.
    A coupling of strength 0 gives 0.0, an overflow inf or nan."""
    a, td, eps = config.alpha, config.theta_d, config.epsilon_d
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = {name: _term(name, v, a, tp) if (v := getattr(ints, name)) else 0.0
                  for name in MONOMIALS}
        coeffs["eps"] = tuple(2.0 * eps[j] * a[j] * math.sin(td[j]) for j in range(4))
        # KPO 4's drive phase stays explicit in the energy model, so its
        # field coefficient is stored without the sine factor
        coeffs["nu4_base"] = 2.0 * eps[3] * a[3]
    return coeffs


def model_from_coefficients(coeffs: dict, beta: float) -> EffectiveEnergyModel:
    """Dimensionless energy model from rad/s coefficients at inverse
    temperature beta [s/rad].

    Each coupling biases the spins of odd degree in its monomial: h4 sets
    eta, g1/g3 mu14 and g2/g4 mu23. KPO 4's drive enters through the
    sin(theta_d4)-modulated field, so nu4 stores 2*beta*eps4*alpha4.
    """
    return _model(_model_columns(coeffs, beta))


def _model_columns(coeffs: dict, beta: float) -> list:
    """The 15 dimensionless coefficients of model_from_coefficients in
    SPIN_FEATURES column order (scalars, or arrays where `coeffs` holds them)."""
    sums = dict(zip(range(11, 15), (*coeffs["eps"][:3], coeffs["nu4_base"])))
    for name, column in _COLUMNS.items():
        sums[column] = sums[column] + coeffs[name] if column in sums else coeffs[name]
    with np.errstate(over="ignore", invalid="ignore"):  # the model and _softmax refuse inf
        return [beta * sums[k] if k in sums else 0.0 for k in range(len(_SPIN_PRODUCTS))]


def _model(vector) -> EffectiveEnergyModel:
    """The energy model of 15 coefficients in SPIN_FEATURES column order."""
    return EffectiveEnergyModel(
        eta=vector[0],
        lam=dict(zip(THREE_BODY_KEYS, vector[1:5])),
        mu=dict(zip(TWO_BODY_KEYS, vector[5:11])),
        nu=tuple(vector[11:]),
    )


def _vector(model: EffectiveEnergyModel) -> list:
    """The 15 coefficients of `model` in SPIN_FEATURES column order."""
    return [model.eta, *model.lam.values(), *model.mu.values(), *model.nu]


def _energies(columns, theta_d4: float) -> np.ndarray:
    """Dimensionless beta*E of every state, in SPIN_STATES order along the
    last axis, of 15 coefficients in SPIN_FEATURES column order or of rows of them."""
    features = SPIN_FEATURES.copy()
    features[:, -1] *= math.sin(theta_d4)  # whose bits do not depend on NumPy's build
    with np.errstate(over="ignore", invalid="ignore"):  # _softmax refuses the overflow
        return np.asarray(columns, dtype=float) @ features.T


def _softmax(energies: np.ndarray) -> np.ndarray:
    """exp(-E)/Z along the last axis, each row shifted by its minimum so no
    weight overflows. Raises ValueError unless every energy is finite."""
    if not np.isfinite(energies).all():
        raise ValueError("state energies are not finite: the energy coefficients overflow")
    with np.errstate(over="ignore"):  # a spread past the float range weighs exactly 0
        weights = np.exp(-(energies - energies.min(axis=-1, keepdims=True)))
    return weights / weights.sum(axis=-1, keepdims=True)


def boltzmann_probabilities(
    model: EffectiveEnergyModel, theta_d4: float = math.pi / 2.0
) -> dict[tuple[int, ...], float]:
    """p_s = exp(-beta*E_s)/Z over the 16 states; overflow-safe."""
    return dict(zip(SPIN_STATES, _softmax(_energies(_vector(model), theta_d4))))


def parity_curve(
    config: OscillationConfig,
    ints: InteractionSet,
    theta_p_grid: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Even/odd parity totals versus the aggregate pump phase.

    The grid value replaces theta_p1 (all other pump phases held at 0),
    so the aggregate phase theta_p1 + theta_p2 - theta_p3 - theta_p4 sweeps
    the grid. Pure cos(theta_p/2) dependence gives a period of 4*pi.

    The whole grid is one array computation: the (points, 15) coefficient
    table of model_from_coefficients, boltzmann_probabilities' energies and
    softmax row by row, and one sum over the even-parity states.
    """
    grid = np.asarray(theta_p_grid, dtype=float)
    coeffs = _coefficients(config, (grid, 0.0, 0.0, 0.0), ints)
    columns = np.empty((grid.size, len(_SPIN_PRODUCTS)))
    for k, column in enumerate(_model_columns(coeffs, beta)):
        columns[:, k] = column
    probs = _softmax(_energies(columns, config.theta_d[3]))
    even = probs[:, SPIN_FEATURES[:, 0] == 1.0].sum(axis=1)
    return even, 1.0 - even


def beta_for_even_parity(
    config: OscillationConfig, ints: InteractionSet, target_even: float = 0.641
) -> float:
    """Inverse temperature that puts the parity-curve maximum at target_even.

    With only the four-body term active the even total is
    1/(1 + exp(2*eta)), so eta = ln((1-target)/target)/2 and beta follows
    from eta = beta * h4_breve at theta_p = 0.
    """
    if not 0.5 < target_even < 1.0:
        raise ValueError("target even-parity fraction must lie in (0.5, 1)")
    h4_breve = _coefficients(config, np.zeros(4), ints)["h4"]
    if h4_breve == 0.0:
        raise ValueError("four-body coefficient vanishes; beta is unconstrained")
    eta = 0.5 * math.log((1.0 - target_even) / target_even)
    with np.errstate(over="ignore"):
        beta = eta / h4_breve
    if not (np.isfinite(beta) and beta != 0.0):
        raise ValueError(f"beta = {eta:g} / {h4_breve:g} rad/s is not finite and nonzero")
    return beta


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

# M of fit_energy_model: -(each state's features - the reference's, SPIN_STATES[-1])
_DESIGN = -(SPIN_FEATURES[:-1] - SPIN_FEATURES[-1])
_DESIGN.flags.writeable = False
_NU4_NORM = math.hypot(*_DESIGN[:, -1])


class FitResult(_Record):
    __slots__ = ("model", "reference", "residual_norm", "condition_number")

    def __init__(self, model: EffectiveEnergyModel, reference: dict, residual_norm: float,
                 condition_number: float):
        object.__setattr__(self, "model", model)
        # A, B, C of p_ref = A exp(B sin(theta) + C)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "residual_norm", residual_norm)
        object.__setattr__(self, "condition_number", condition_number)


def fit_energy_model(theta_d4: np.ndarray, probabilities: np.ndarray) -> FitResult:
    """Recover all 15 energy coefficients from probability-vs-phase data.

    `probabilities` is (n_points, 16), columns ordered as SPIN_STATES. Each
    ln(p_s/p_ref) is linear in the coefficients; point i's rows are M with
    its nu4 column m times s_i = sin(theta_i), so the 15n rows are
    (Q (x) I) [[r11 M_a, r12 m], [0, r22 m]] for the thin QR [1, s] = Q R.
    With that rank-one lower block as one row r22 |m| on nu4, 16 rows keep
    the solution and singular values (condition number below 1e8) and read
    sums over the points of math.log's log-ratios (bits independent of
    NumPy). ln p_ref = ln A + C + B sin(theta) is fitted on [1, s],
    refused where its Frobenius condition number |R|_F^2/det R exceeds 1e8
    or A overflows or underflows past the smallest normal float; only
    A*exp(C) is identifiable, so C = 0.
    """
    theta_d4 = np.asarray(theta_d4, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(theta_d4), 16):
        raise ValueError("probability table must be (n_points, 16)")
    if len(theta_d4) < 16:
        raise ValueError("need at least 16 phase grid points")
    if not np.isfinite(theta_d4).all():
        raise ValueError("phases theta_d4 must be finite")
    if not np.isfinite(probs).all():
        raise ValueError("probabilities must be finite")
    if (lowest := probs.min()) < 0:
        raise ValueError("negative probabilities in data")
    if lowest < PROB_FLOOR:
        warnings.warn(f"probabilities below {PROB_FLOOR} floored before taking logs", stacklevel=2)
        probs = np.maximum(probs, PROB_FLOOR)

    ratios = probs / probs[:, -1:]  # 15 ratios per point, then p_ref
    ratios[:, -1] = probs[:, -1]
    logs = np.fromiter(map(math.log, ratios.ravel().tolist()), float, ratios.size).reshape(-1, 16)
    sin_t = np.array([math.sin(t) for t in theta_d4.tolist()])
    n, mean = len(sin_t), sin_t.mean()
    d = sin_t - mean
    r11, r22 = math.sqrt(n), math.sqrt(d @ d)
    totals, moments = logs.sum(axis=0), d @ logs
    last = r22 * _NU4_NORM  # the rank-one block as a row
    design = np.append(r11 * _DESIGN, [[0.0] * 14 + [last]], axis=0)
    design[:15, -1] *= mean  # r12 = r11 * mean
    rhs = totals / r11
    rhs[-1] = _DESIGN[:, -1] @ moments[:-1] / last if last else 0.0
    coeffs, _, _, singular = np.linalg.lstsq(design, rhs, rcond=None)
    s_max, s_min = float(singular[0]), float(singular[-1])
    cond = s_max / s_min if s_min else math.inf
    if s_max > 1e8 * s_min:
        raise ValueError(f"ill-conditioned design matrix (condition number {cond:.2e})")
    fitted = _DESIGN[:, :-1] @ coeffs[:-1] + np.outer(coeffs[-1] * sin_t, _DESIGN[:, -1])
    residual = float(np.linalg.norm(fitted - logs[:, :-1]))

    if not n + sin_t @ sin_t <= 1e8 * r11 * r22:
        raise ValueError("reference curve unidentifiable: cond [1, sin(theta_d4)] > 1e8")
    b = float(moments[-1] / r22**2)
    ln_a = totals[-1] / n - mean * b
    if not math.log(np.finfo(float).tiny) <= ln_a < math.log(np.finfo(float).max):
        raise ValueError(f"reference amplitude A = exp({ln_a:.3g}) "
                         f"{'overflows' if ln_a > 0 else 'underflows'}")
    return FitResult(model=_model(coeffs), reference={"A": math.exp(ln_a), "B": b, "C": 0.0},
                     residual_norm=residual, condition_number=cond)


def estimate_h4(
    eta: float,
    nu4: float,
    epsilon4: float,
    alpha: np.ndarray,
    theta_p: float = 0.0,
) -> float:
    """|h4| from the fitted eta/nu4 ratio (inverse temperature cancels).

    nu4 = 2*beta*eps4*alpha4 and eta is beta times the rule's four-body
    term, so |h4| = |eta/nu4| * |2*eps4*alpha4| / |that term at h4 = 1|.
    Raises ValueError when eta, nu4, eps4 or the estimate is not finite.
    """
    if not all(map(math.isfinite, (eta, nu4, epsilon4))):
        raise ValueError(f"eta, nu4 and epsilon4 must be finite, got {eta}, {nu4}, {epsilon4}")
    if nu4 == 0.0:
        raise ValueError("nu4 must be nonzero to form the ratio")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (4,):
        raise ValueError("alpha must have four entries")
    with np.errstate(over="ignore", invalid="ignore"):
        unit = _term("h4", 1.0, alpha, (theta_p, 0.0, 0.0, 0.0))
    if not (np.isfinite(unit) and unit != 0.0):
        raise ValueError(f"four-body coefficient vanishes or overflows at this pump phase "
                         f"({unit:g} * h4)")
    estimate = abs(eta / nu4) * abs(2.0 * epsilon4 * alpha[3]) / abs(unit)
    if not math.isfinite(estimate):
        raise ValueError(f"|h4| overflows the floating-point range (eta/nu4 = {eta / nu4:g})")
    return estimate
