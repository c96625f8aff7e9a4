"""Coherent-state Ising model of a four-KPO plaquette.

Each KPO encodes a spin s_j = +-1 in its bifurcated coherent state. The
four-body, residual, and coherent-drive interactions map to an effective
classical energy over the 16 spin states; state probabilities follow a
Boltzmann distribution, and the inverse map (fitting energy coefficients
from measured probabilities) is a linear problem in log-probability
ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

PROB_FLOOR = 1e-12

SPIN_STATES: tuple[tuple[int, ...], ...] = tuple(product((1, -1), repeat=4))

THREE_BODY_KEYS = ("234", "134", "124", "123")
TWO_BODY_KEYS = ("12", "13", "14", "23", "24", "34")

# the 15 spin products of the energy, one row per state of SPIN_STATES;
# columns: eta (s1s2s3s4), lambda (THREE_BODY_KEYS), mu (TWO_BODY_KEYS),
# nu1..nu4 (s_j; the nu4 term is further multiplied by sin(theta_d4))
SPIN_FEATURES = np.array(
    [
        [math.prod(s[int(m) - 1] for m in term)
         for term in ("1234",) + THREE_BODY_KEYS + TWO_BODY_KEYS + ("1", "2", "3", "4")]
        for s in SPIN_STATES
    ],
    dtype=float,
)


@dataclass(frozen=True)
class OscillationConfig:
    """Per-KPO oscillation amplitude and drive/pump phases."""

    alpha: np.ndarray    # dimensionless, >= 0
    epsilon_d: np.ndarray  # rad/s coherent-drive amplitude
    theta_d: np.ndarray  # radians, drive phases
    theta_p: np.ndarray  # radians, pump phases

    def __post_init__(self):
        for name in ("alpha", "epsilon_d", "theta_d", "theta_p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (4,):
                raise ValueError(f"{name} must have four entries")
        if np.any(self.alpha < 0):
            raise ValueError("oscillation amplitudes must be non-negative")

    @property
    def theta_p_aggregate(self) -> float:
        return _aggregate_phase(self.theta_p)


def _aggregate_phase(tp):
    """theta_p1 + theta_p2 - theta_p3 - theta_p4; the entries may be arrays."""
    return tp[0] + tp[1] - tp[2] - tp[3]


@dataclass(frozen=True)
class InteractionSet:
    """Rotating-frame interaction strengths [rad/s]."""

    h4: float = 0.0
    g1: float = 0.0  # a1+ a4+ a2^2 type
    g2: float = 0.0  # a1^2 a2+ a3+ type
    g3: float = 0.0  # a1+^3 a3^2 a4 type
    g4: float = 0.0  # a2+^3 a3 a4^2 type


@dataclass(frozen=True)
class EffectiveEnergyModel:
    """Dimensionless effective-energy coefficients (inverse temperature
    absorbed): beta*E = eta*s1s2s3s4 + three-body + two-body + fields,
    with the nu4 field multiplied by sin(theta_d4)."""

    eta: float = 0.0
    lam: dict = field(default_factory=dict)  # keys "234","134","124","123"
    mu: dict = field(default_factory=dict)   # keys "12".."34"
    nu: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "lam", {k: self.lam.get(k, 0.0) for k in THREE_BODY_KEYS})
        object.__setattr__(self, "mu", {k: self.mu.get(k, 0.0) for k in TWO_BODY_KEYS})


def parity(s: tuple[int, ...]) -> int:
    return s[0] * s[1] * s[2] * s[3]


# --------------------------------------------------------------------------
# forward model
# --------------------------------------------------------------------------

def effective_coefficients(config: OscillationConfig, ints: InteractionSet) -> dict:
    """Spin-energy coefficients [rad/s] from amplitudes, phases, and couplings.

    The four-body term carries cos(theta_p/2) with the aggregate pump
    phase; each residual term carries its own half-integer phase
    combination; coherent drives contribute 2*eps_j*alpha_j*sin(theta_dj).
    """
    return _coefficients(config, config.theta_p, ints)


def _coefficients(config: OscillationConfig, tp, ints: InteractionSet) -> dict:
    """effective_coefficients at pump phases `tp`, whose four entries may be
    arrays of one shape: each phase-dependent coefficient then has that shape."""
    a = config.alpha
    td = config.theta_d
    eps = config.epsilon_d
    return {
        "h4": -2.0 * ints.h4 * a[0] * a[1] * a[2] * a[3]
        * np.cos(_aggregate_phase(tp) / 2.0),
        "g1": 2.0 * ints.g1 * a[0] * a[3] * a[1] ** 2
        * np.cos(tp[0] / 2.0 + tp[3] / 2.0 - tp[1]),
        "g2": 2.0 * ints.g2 * a[0] ** 2 * a[1] * a[2]
        * np.cos(tp[0] - tp[1] / 2.0 - tp[2] / 2.0),
        "g3": 2.0 * ints.g3 * a[0] ** 3 * a[2] ** 2 * a[3]
        * np.cos(1.5 * tp[0] - tp[2] - tp[3] / 2.0),
        "g4": 2.0 * ints.g4 * a[1] ** 3 * a[2] * a[3] ** 2
        * np.cos(1.5 * tp[1] - tp[2] / 2.0 - tp[3]),
        "eps": tuple(2.0 * eps[j] * a[j] * math.sin(td[j]) for j in range(4)),
        # KPO 4's drive phase stays explicit in the energy model, so its
        # field coefficient is stored without the sine factor
        "nu4_base": 2.0 * eps[3] * a[3],
    }


def model_from_coefficients(coeffs: dict, beta: float) -> EffectiveEnergyModel:
    """Dimensionless energy model from rad/s coefficients at inverse
    temperature beta [s/rad].

    Residual terms g1/g3 bias s1*s4 and g2/g4 bias s2*s3; KPO 4's drive
    enters through the sin(theta_d4)-modulated field, so nu4 stores
    2*beta*eps4*alpha4 without the phase factor.
    """
    columns = _model_columns(coeffs, beta)
    return EffectiveEnergyModel(
        eta=columns[0],
        mu=dict(zip(TWO_BODY_KEYS, columns[5:11])),
        nu=tuple(columns[11:]),
    )


def _model_columns(coeffs: dict, beta: float) -> list:
    """The 15 dimensionless coefficients of model_from_coefficients in
    SPIN_FEATURES column order (scalars, or arrays where `coeffs` holds them)."""
    eps = coeffs["eps"]
    return [
        beta * coeffs["h4"],
        0.0, 0.0, 0.0, 0.0,                                # lambda
        0.0, 0.0, beta * (coeffs["g1"] + coeffs["g3"]),    # mu 12, 13, 14
        beta * (coeffs["g2"] + coeffs["g4"]), 0.0, 0.0,    # mu 23, 24, 34
        beta * eps[0], beta * eps[1], beta * eps[2], beta * coeffs["nu4_base"],
    ]


def _features_at(theta_d4: float) -> np.ndarray:
    """SPIN_FEATURES with the nu4 column multiplied by sin(theta_d4)."""
    features = SPIN_FEATURES.copy()
    features[:, -1] *= math.sin(theta_d4)
    return features


def _energies(model: EffectiveEnergyModel, theta_d4: float) -> np.ndarray:
    """Dimensionless beta*E of every state, in SPIN_STATES order."""
    coeffs = np.array([model.eta, *model.lam.values(), *model.mu.values(), *model.nu])
    return _features_at(theta_d4) @ coeffs


def state_energy(model: EffectiveEnergyModel, s: tuple[int, ...], theta_d4: float = math.pi / 2.0) -> float:
    """Dimensionless beta*E of one spin state."""
    return float(_energies(model, theta_d4)[SPIN_STATES.index(tuple(s))])


def boltzmann_probabilities(
    model: EffectiveEnergyModel, theta_d4: float = math.pi / 2.0
) -> dict[tuple[int, ...], float]:
    """p_s = exp(-beta*E_s)/Z over the 16 states; overflow-safe."""
    energies = _energies(model, theta_d4)
    weights = np.exp(-(energies - energies.min()))
    probs = weights / weights.sum()
    return dict(zip(SPIN_STATES, probs))


def parity_split(probs: dict[tuple[int, ...], float]) -> tuple[float, float]:
    even = sum(p for s, p in probs.items() if parity(s) == 1)
    return even, 1.0 - even


def parity_curve(
    config: OscillationConfig,
    ints: InteractionSet,
    theta_p_grid: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Even/odd parity totals versus the aggregate pump phase.

    The grid value replaces theta_p1 (all other pump phases held at 0),
    so theta_p_aggregate sweeps the grid directly. Pure cos(theta_p/2)
    dependence gives a period of 4*pi.

    The whole grid is one array computation: the (points, 15) coefficient
    table of model_from_coefficients (only its h4, g1, g2 and g3 terms
    depend on theta_p1), one product with the features at theta_d4, a
    row-wise shifted softmax as in boltzmann_probabilities, and one sum
    over the even-parity states.
    """
    grid = np.asarray(theta_p_grid, dtype=float)
    coeffs = _coefficients(config, (grid, 0.0, 0.0, 0.0), ints)
    columns = np.column_stack(np.broadcast_arrays(*_model_columns(coeffs, beta)))
    energies = columns @ _features_at(config.theta_d[3]).T
    weights = np.exp(-(energies - energies.min(axis=1, keepdims=True)))
    probs = weights / weights.sum(axis=1, keepdims=True)
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
    cfg0 = OscillationConfig(
        alpha=config.alpha,
        epsilon_d=np.zeros(4),
        theta_d=config.theta_d,
        theta_p=np.zeros(4),
    )
    h4_breve = effective_coefficients(cfg0, ints)["h4"]
    if h4_breve == 0.0:
        raise ValueError("four-body coefficient vanishes; beta is unconstrained")
    eta = 0.5 * math.log((1.0 - target_even) / target_even)
    return eta / h4_breve


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

_REF_STATE = (-1, -1, -1, -1)
_REF_COL = SPIN_STATES.index(_REF_STATE)
_OTHER_COLS = [col for col in range(16) if col != _REF_COL]


@dataclass(frozen=True)
class FitResult:
    model: EffectiveEnergyModel
    reference: dict          # A, B, C of p_ref = A exp(B sin(theta) + C)
    residual_norm: float
    condition_number: float


def _fit_system(theta_d4: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares system of fit_energy_model, 15 rows per phase point.

    Built for all points at once: the (points, 16, 15) feature table with
    its nu4 column scaled by each point's math.sin(theta), its differences
    to the reference state, and the logs of one array of probability ratios
    (math.log, element by element, whose bits do not depend on NumPy's
    build). Row i*15 + k holds point i and the k-th state other than the
    reference, each element the float that _features_at(theta_i) gives.
    """
    sin_t = np.array([math.sin(t) for t in theta_d4.tolist()])
    features = np.repeat(SPIN_FEATURES[np.newaxis], len(sin_t), axis=0)
    features[:, :, -1] *= sin_t[:, np.newaxis]
    design = -(features[:, _OTHER_COLS] - features[:, _REF_COL, np.newaxis])
    ratios = probs[:, _OTHER_COLS] / probs[:, _REF_COL, np.newaxis]
    rhs = np.array([math.log(r) for r in ratios.ravel().tolist()])
    return design.reshape(-1, SPIN_FEATURES.shape[1]), rhs


def fit_energy_model(theta_d4: np.ndarray, probabilities: np.ndarray) -> FitResult:
    """Recover all 15 energy coefficients from probability-vs-phase data.

    `probabilities` is (n_points, 16), columns ordered as SPIN_STATES.
    The log-ratio ln(p_s/p_ref) = -(beta*E_s - beta*E_ref) is linear in
    the coefficients, so the fit is a single least-squares solve, whose
    system is formed for all phase points in one array expression
    (`_fit_system`); the reference state's own curve is then fitted to
    A*exp(B sin(theta)+C).
    Only the product A*exp(C) is identifiable, so C is reported as 0.
    """
    theta_d4 = np.asarray(theta_d4, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(theta_d4), 16):
        raise ValueError("probability table must be (n_points, 16)")
    if len(theta_d4) < 16:
        raise ValueError("need at least 16 phase grid points")
    if not np.all(np.isfinite(theta_d4)):
        raise ValueError("phases theta_d4 must be finite")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(probs < 0):
        raise ValueError("negative probabilities in data")
    if np.any(probs < PROB_FLOOR):
        warnings.warn(
            f"probabilities below {PROB_FLOOR} floored before taking logs",
            stacklevel=2,
        )
        probs = np.maximum(probs, PROB_FLOOR)

    design, rhs = _fit_system(theta_d4, probs)
    cond = np.linalg.cond(design)
    if cond > 1e8:
        raise ValueError(f"ill-conditioned design matrix (condition number {cond:.2e})")
    coeffs, _, _, _ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = float(np.linalg.norm(design @ coeffs - rhs))

    model = EffectiveEnergyModel(
        eta=coeffs[0],
        lam=dict(zip(THREE_BODY_KEYS, coeffs[1:5])),
        mu=dict(zip(TWO_BODY_KEYS, coeffs[5:11])),
        nu=tuple(coeffs[11:]),
    )
    # reference curve: ln p_ref = ln A + C + B sin(theta)
    sin_t = np.sin(theta_d4)
    b, intercept = np.polyfit(sin_t, np.log(probs[:, _REF_COL]), 1)
    reference = {"A": math.exp(intercept), "B": float(b), "C": 0.0}
    return FitResult(
        model=model, reference=reference, residual_norm=residual, condition_number=cond
    )


def estimate_h4(
    eta: float,
    nu4: float,
    epsilon4: float,
    alpha: np.ndarray,
    theta_p: float = 0.0,
) -> float:
    """|h4| from the fitted eta/nu4 ratio (inverse temperature cancels).

    nu4 = 2*beta*eps4*alpha4 and eta = -2*beta*h4*alpha1..alpha4*cos(tp/2),
    so |h4| = |eta/nu4| * 2*eps4*alpha4 / (2*prod(alpha)*|cos(tp/2)|).
    """
    if nu4 == 0.0:
        raise ValueError("nu4 must be nonzero to form the ratio")
    alpha = np.asarray(alpha, dtype=float)
    denom = 2.0 * float(np.prod(alpha)) * abs(math.cos(theta_p / 2.0))
    if denom == 0.0:
        raise ValueError("four-body coefficient vanishes at this pump phase")
    return abs(eta / nu4) * 2.0 * epsilon4 * alpha[3] / denom
