"""Spin-state Boltzmann model: forward probabilities and coefficient fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpokit import spinmodel
from kpokit.constants import KHZ, MHZ
from kpokit.spinmodel import (
    PROB_FLOOR,
    SPIN_FEATURES,
    SPIN_STATES,
    EffectiveEnergyModel,
    InteractionSet,
    OscillationConfig,
    beta_for_even_parity,
    boltzmann_probabilities,
    effective_coefficients,
    estimate_h4,
    fit_energy_model,
    model_from_coefficients,
    parity_curve,
)

ALPHA = np.array([5.9, 4.5, 1.3, 5.3])


def _config(theta_p1=0.0, theta_d=None, eps_d=None):
    return OscillationConfig(
        alpha=ALPHA,
        epsilon_d=np.zeros(4) if eps_d is None else np.asarray(eps_d, dtype=float),
        theta_d=np.full(4, math.pi / 2) if theta_d is None else np.asarray(theta_d, dtype=float),
        theta_p=np.array([theta_p1, 0.0, 0.0, 0.0]),
    )


def _random_model(rng, scale=1.0):
    return EffectiveEnergyModel(
        eta=scale * rng.normal(),
        lam={k: scale * rng.normal() for k in ("234", "134", "124", "123")},
        mu={k: scale * rng.normal() for k in ("12", "13", "14", "23", "24", "34")},
        nu=tuple(scale * rng.normal() for _ in range(4)),
    )


# --------------------------------------------------------------------------
# forward model
# --------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="four entries"):
        OscillationConfig(
            alpha=np.ones(3), epsilon_d=np.zeros(4),
            theta_d=np.zeros(4), theta_p=np.zeros(4),
        )
    with pytest.raises(ValueError, match="non-negative"):
        _config_bad = OscillationConfig(
            alpha=np.array([1.0, -1.0, 1.0, 1.0]), epsilon_d=np.zeros(4),
            theta_d=np.zeros(4), theta_p=np.zeros(4),
        )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["alpha", "epsilon_d", "theta_d", "theta_p"])
def test_config_rejects_non_finite_entries(name, value):
    entries = dict(alpha=np.ones(4), epsilon_d=np.zeros(4), theta_d=np.zeros(4),
                   theta_p=np.zeros(4))
    entries[name] = np.array([0.5, value, 0.5, 0.5])
    with pytest.raises(ValueError, match=f"{name} entries must be finite"):
        OscillationConfig(**entries)


@pytest.mark.parametrize(
    "fields",
    [dict(eta=math.inf), dict(lam={"123": math.nan}), dict(mu={"14": -math.inf}),
     dict(nu=(0.0, 0.0, 0.0, math.nan))],
    ids=["eta", "lambda", "mu", "nu"],
)
def test_energy_model_rejects_non_finite_coefficients(fields):
    with pytest.raises(ValueError, match="energy coefficients must be finite"):
        EffectiveEnergyModel(**fields)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        probs = boltzmann_probabilities(_random_model(rng, scale=3.0))
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert all(p >= 0 for p in probs.values())


@given(eta=st.floats(-50, 50, allow_nan=False), nu1=st.floats(-50, 50, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_probabilities_normalized_under_extreme_coefficients(eta, nu1):
    model = EffectiveEnergyModel(eta=eta, nu=(nu1, 0.0, 0.0, 0.0))
    probs = boltzmann_probabilities(model)
    assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_overflowing_energies_raise():
    # finite coefficients whose energies overflow: no nan probabilities
    with pytest.raises(ValueError, match="state energies are not finite"):
        boltzmann_probabilities(EffectiveEnergyModel(eta=1e308, nu=(1e308, -1e308, 0.0, 0.0)))


def test_energy_spread_past_the_float_range_keeps_the_ground_states():
    # every energy is finite, but their spread is not: the excited states weigh 0
    probs = boltzmann_probabilities(EffectiveEnergyModel(eta=8e307, nu=(8e307, 0.0, 0.0, 0.0)))
    ground = [s for s in SPIN_STATES if s[0] == -1 and math.prod(s) == -1]
    assert [probs[s] for s in ground] == [0.25] * 4
    assert sum(probs.values()) == 1.0


def test_null_model_is_uniform():
    probs = boltzmann_probabilities(EffectiveEnergyModel())
    assert all(p == pytest.approx(1 / 16, rel=1e-14) for p in probs.values())


def test_strong_four_body_freezes_even_sector():
    probs = boltzmann_probabilities(EffectiveEnergyModel(eta=-30.0))
    even = sum(p for s, p in probs.items() if math.prod(s) == 1)
    assert even == pytest.approx(1.0, abs=1e-12)
    even_states = [s for s in SPIN_STATES if math.prod(s) == 1]
    for s in even_states:
        assert probs[s] == pytest.approx(1 / 8, rel=1e-12)


def _state_energies(model, theta_d4):
    """beta*E of each state from boltzmann_probabilities' log-ratios. Every
    spin product sums to 0 over the 16 states, so the energies do too."""
    logs = {s: math.log(p) for s, p in boltzmann_probabilities(model, theta_d4).items()}
    mean = sum(logs.values()) / len(logs)
    return {s: mean - v for s, v in logs.items()}


def test_state_energy_components():
    model = EffectiveEnergyModel(eta=-1.0, nu=(0.0, 0.0, 0.0, -2.0))
    energies = _state_energies(model, theta_d4=math.pi / 2)
    assert energies[(1, 1, 1, 1)] == pytest.approx(-3.0)
    assert energies[(1, 1, 1, -1)] == pytest.approx(1.0 + 2.0)
    assert _state_energies(model, theta_d4=0.0)[(1, 1, 1, 1)] == pytest.approx(-1.0)


def test_four_body_coefficient_vanishes_at_pump_phase_pi():
    ints = InteractionSet(h4=0.1 * MHZ)
    coeffs = effective_coefficients(_config(theta_p1=math.pi), ints)
    assert abs(coeffs["h4"]) < 1e-10 * MHZ


def test_drive_fields_vanish_at_zero_drive_phase():
    cfg = _config(theta_d=np.zeros(4), eps_d=np.full(4, 50 * KHZ))
    coeffs = effective_coefficients(cfg, InteractionSet(h4=0.1 * MHZ))
    assert coeffs["eps"] == (0.0, 0.0, 0.0, 0.0)
    assert coeffs["nu4_base"] == pytest.approx(2 * 50 * KHZ * ALPHA[3])


def test_residual_terms_bias_spin_pairs():
    ints = InteractionSet(g1=10 * KHZ, g3=5 * KHZ)
    coeffs = effective_coefficients(_config(), ints)
    model = model_from_coefficients(coeffs, beta=1.0 / MHZ)
    assert model.mu["14"] != 0.0
    assert model.mu["23"] == 0.0
    ints2 = InteractionSet(g2=10 * KHZ)
    model2 = model_from_coefficients(effective_coefficients(_config(), ints2), 1.0 / MHZ)
    assert model2.mu["23"] != 0.0
    assert model2.mu["14"] == 0.0


# --------------------------------------------------------------------------
# parity curve
# --------------------------------------------------------------------------

def test_parity_curve_shape():
    ints = InteractionSet(h4=0.1 * MHZ)
    cfg = _config(eps_d=np.full(4, 1 * KHZ))
    beta = beta_for_even_parity(cfg, ints, target_even=0.641)
    grid = np.linspace(0.0, 4 * math.pi, 81)
    even, odd = parity_curve(cfg, ints, grid, beta)

    assert np.allclose(even + odd, 1.0, atol=1e-12)
    # period 4*pi in the aggregate pump phase
    assert even[0] == pytest.approx(even[-1], abs=1e-9)
    # even and odd meet where the four-body coefficient vanishes
    i_pi = np.argmin(np.abs(grid - math.pi))
    assert even[i_pi] == pytest.approx(0.5, abs=1e-9)
    # maximum at theta_p = 0 hits the calibration target, and the
    # minimum at theta_p = 2*pi mirrors it
    assert even[0] == pytest.approx(0.641, abs=1e-9)
    i_2pi = np.argmin(np.abs(grid - 2 * math.pi))
    assert even[i_2pi] == pytest.approx(0.359, abs=0.003)
    # monotone decrease from the maximum to the minimum
    assert np.all(np.diff(even[: i_2pi + 1]) < 1e-12)


def _per_point_models(config, ints, theta_p_grid, beta):
    for tp in np.asarray(theta_p_grid, dtype=float):
        cfg = OscillationConfig(
            alpha=config.alpha,
            epsilon_d=config.epsilon_d,
            theta_d=config.theta_d,
            theta_p=np.array([tp, 0.0, 0.0, 0.0]),
        )
        yield model_from_coefficients(effective_coefficients(cfg, ints), beta)


def _per_point_parity_curve(config, ints, theta_p_grid, beta):
    """parity_curve as first written: one energy model and one Boltzmann
    distribution per grid point."""
    even = np.array([
        sum(p for s, p in boltzmann_probabilities(model, theta_d4=config.theta_d[3]).items()
            if math.prod(s) == 1)
        for model in _per_point_models(config, ints, theta_p_grid, beta)
    ])
    return even, 1.0 - even


def _random_parity_system(rng, scale):
    # every residual coupling and drive non-zero, theta_d4 off pi/2
    config = OscillationConfig(
        alpha=rng.uniform(1.0, 3.0, 4),
        epsilon_d=rng.uniform(-1.0, 1.0, 4) * 0.05 * scale,
        theta_d=rng.uniform(0.1, 1.4, 4) * rng.choice((-1.0, 1.0), 4),
        theta_p=np.zeros(4),
    )
    ints = InteractionSet(rng.uniform(0.5, 1.0) * scale * rng.choice((-1.0, 1.0)),
                          *(rng.uniform(-1.0, 1.0, 4) * 0.02 * scale))
    return config, ints


PARITY_GRIDS = {
    "0-8pi": np.linspace(0.0, 8 * math.pi, 81),
    "scattered-with-ends": np.concatenate(
        [[0.0], np.random.default_rng(9).uniform(0.0, 8 * math.pi, 30), [8 * math.pi]]),
    "single-point": np.array([2.1]),
}


@pytest.mark.parametrize("grid", PARITY_GRIDS.values(), ids=PARITY_GRIDS.keys())
def test_parity_curve_matches_per_point_reference(grid):
    rng = np.random.default_rng(31)
    for _ in range(40):
        config, ints = _random_parity_system(rng, MHZ)
        beta = beta_for_even_parity(config, ints)
        even, odd = parity_curve(config, ints, grid, beta)
        ref_even, ref_odd = _per_point_parity_curve(config, ints, grid, beta)
        assert even.shape == odd.shape == grid.shape
        assert np.abs(even - ref_even).max() <= 1e-15
        assert np.abs(odd - ref_odd).max() <= 1e-15
        assert np.abs(even + odd - 1.0).max() <= 1e-15


def _column_stack_parity_curve(config, ints, theta_p_grid, beta):
    """parity_curve as it was before it filled its table in place: the 15
    columns broadcast to the grid and stacked."""
    grid = np.asarray(theta_p_grid, dtype=float)
    coeffs = spinmodel._coefficients(config, (grid, 0.0, 0.0, 0.0), ints)
    columns = np.column_stack(np.broadcast_arrays(*spinmodel._model_columns(coeffs, beta)))
    probs = spinmodel._softmax(spinmodel._energies(columns, config.theta_d[3]))
    even = probs[:, SPIN_FEATURES[:, 0] == 1.0].sum(axis=1)
    return even, 1.0 - even


@pytest.mark.parametrize("grid", [np.float64(2.1), np.array([2.1]), PARITY_GRIDS["0-8pi"]],
                         ids=["0-d", "one-point", "81-points"])
def test_parity_curve_bit_identical_to_the_stacked_table(grid):
    # with every coupling, and with h4 alone, which leaves most columns 0
    rng = np.random.default_rng(33)
    for i in range(20):
        config, ints = _random_parity_system(rng, MHZ)
        if i % 2:
            ints = InteractionSet(h4=ints.h4)
        beta = beta_for_even_parity(config, ints)
        got = parity_curve(config, ints, grid, beta)
        want = _column_stack_parity_curve(config, ints, grid, beta)
        for x, y in zip(got, want):
            assert x.shape == y.shape == (np.size(grid),)
            assert x.tobytes() == y.tobytes()


def test_parity_curve_roundoff_follows_the_energy_scale():
    # with beta unrelated to the couplings, |beta E| reaches ~1e3: the one
    # (points, 15) x (15, 16) product and the reference's per-point products
    # round the energies differently in their last bits, which moves each
    # probability by about 1e-16 times the size of the energies
    rng = np.random.default_rng(32)
    grid = PARITY_GRIDS["0-8pi"]
    for _ in range(40):
        config, ints = _random_parity_system(rng, 1.0)
        beta = rng.uniform(0.1, 2.0) * 50.0
        even, _ = parity_curve(config, ints, grid, beta)
        ref_even, _ = _per_point_parity_curve(config, ints, grid, beta)
        # bounds |beta E| of every state at every grid point
        coefficient_sum = max(
            abs(m.eta) + sum(map(abs, m.mu.values())) + sum(map(abs, m.nu))
            for m in _per_point_models(config, ints, grid, beta))
        assert np.abs(even - ref_even).max() <= 1e-15 * max(1.0, coefficient_sum)


def test_beta_calibration_errors():
    ints = InteractionSet(h4=0.1 * MHZ)
    with pytest.raises(ValueError, match=r"\(0.5, 1\)"):
        beta_for_even_parity(_config(), ints, target_even=0.4)
    with pytest.raises(ValueError, match="vanishes"):
        beta_for_even_parity(_config(), InteractionSet(h4=0.0), target_even=0.641)


@pytest.mark.parametrize(
    "alpha, h4",
    [((1e200, 1e200, 1.0, 1.0), 0.1 * MHZ), (tuple(ALPHA), 1e-320 * MHZ)],
    ids=["coefficient-overflows", "beta-overflows"],
)
def test_beta_calibration_refuses_an_overflow(alpha, h4):
    config = OscillationConfig(alpha=np.array(alpha), epsilon_d=np.zeros(4),
                               theta_d=np.full(4, math.pi / 2), theta_p=np.zeros(4))
    with pytest.raises(ValueError, match="not finite and nonzero"):
        beta_for_even_parity(config, InteractionSet(h4=h4))


def test_parity_curve_refuses_an_overflow():
    with pytest.raises(ValueError, match="state energies are not finite"):
        parity_curve(_config(), InteractionSet(h4=0.1 * MHZ), PARITY_GRIDS["0-8pi"], 1e305)
    with pytest.raises(ValueError, match="energy coefficients must be finite"):
        model_from_coefficients(effective_coefficients(_config(), InteractionSet(h4=MHZ)), 1e305)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _synthetic_dataset(model, n_points=25, seed=None):
    theta = np.linspace(0.05, 2 * math.pi - 0.05, n_points)
    probs = np.array(
        [
            [boltzmann_probabilities(model, theta_d4=t)[s] for s in SPIN_STATES]
            for t in theta
        ]
    )
    return theta, probs


def test_fit_round_trip():
    rng = np.random.default_rng(11)
    model = _random_model(rng, scale=0.4)
    theta, probs = _synthetic_dataset(model)
    fit = fit_energy_model(theta, probs)
    assert fit.model.eta == pytest.approx(model.eta, abs=1e-6)
    for k, v in model.lam.items():
        assert fit.model.lam[k] == pytest.approx(v, abs=1e-6)
    for k, v in model.mu.items():
        assert fit.model.mu[k] == pytest.approx(v, abs=1e-6)
    for got, want in zip(fit.model.nu, model.nu):
        assert got == pytest.approx(want, abs=1e-6)
    assert fit.residual_norm < 1e-8


def test_fit_reference_curve_slope():
    rng = np.random.default_rng(13)
    model = _random_model(rng, scale=0.3)
    theta, probs = _synthetic_dataset(model)
    fit = fit_energy_model(theta, probs)
    # p_ref carries exp(+nu4 sin(theta)) for the all-down reference state
    # (s4 = -1 flips the sign of the field energy)
    assert fit.reference["B"] == pytest.approx(model.nu[3], abs=0.15)
    assert fit.reference["C"] == 0.0


def test_fit_zero_couplings():
    theta, probs = _synthetic_dataset(EffectiveEnergyModel())
    fit = fit_energy_model(theta, probs)
    assert abs(fit.model.eta) < 1e-10
    assert all(abs(v) < 1e-10 for v in fit.model.mu.values())


def test_fit_input_validation():
    theta = np.linspace(0, 2 * math.pi, 20)
    with pytest.raises(ValueError, match=r"\(n_points, 16\)"):
        fit_energy_model(theta, np.ones((20, 15)))
    with pytest.raises(ValueError, match="at least 16"):
        fit_energy_model(theta[:10], np.full((10, 16), 1 / 16))
    bad = np.full((20, 16), 1 / 16)
    bad[0, 0] = -0.01
    with pytest.raises(ValueError, match="negative"):
        fit_energy_model(theta, bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_fit_rejects_non_finite_input(value):
    theta, probs = _synthetic_dataset(EffectiveEnergyModel(eta=-0.3))
    bad_theta = theta.copy()
    bad_theta[3] = value
    with pytest.raises(ValueError, match="theta_d4 must be finite"):
        fit_energy_model(bad_theta, probs)
    bad_probs = probs.copy()
    bad_probs[3, 5] = value
    with pytest.raises(ValueError, match="probabilities must be finite"):
        fit_energy_model(theta, bad_probs)


def test_fit_ill_conditioned_grid_rejected():
    # constant theta gives no leverage on nu4 vs the other fields
    theta = np.zeros(20)
    probs = np.full((20, 16), 1 / 16)
    with pytest.raises(ValueError, match="ill-conditioned"):
        fit_energy_model(theta, probs)


def test_fit_floors_tiny_probabilities():
    model = EffectiveEnergyModel(eta=-20.0)
    theta, probs = _synthetic_dataset(model)
    with pytest.warns(UserWarning, match="floored"):
        fit = fit_energy_model(theta, probs)
    assert fit.model.eta < 0


def _per_point_fit(theta_d4, probs):
    """fit_energy_model's system as first written, one phase point at a time:
    the design matrix, the right-hand side, and the coefficients, residual
    and condition number (from the solve's own singular values) of the solve."""
    probs = np.maximum(probs, PROB_FLOOR)
    ref_col = SPIN_STATES.index((-1, -1, -1, -1))
    others = [col for col in range(16) if col != ref_col]
    blocks, rhs = [], []
    for i, theta in enumerate(theta_d4):
        features = SPIN_FEATURES.copy()
        features[:, -1] *= math.sin(theta)
        blocks.append(-(features[others] - features[ref_col]))
        rhs += [math.log(probs[i, col] / probs[i, ref_col]) for col in others]
    design = np.concatenate(blocks)
    rhs = np.array(rhs)
    coeffs, _, _, singular = np.linalg.lstsq(design, rhs, rcond=None)
    residual = float(np.linalg.norm(design @ coeffs - rhs))
    return design, rhs, coeffs, residual, singular[0] / singular[-1]


def _seeded_fit_tables():
    """Synthetic datasets of random models, random probability tables on
    random phase grids, and one table that is floored (PROB_FLOOR)."""
    tables = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        tables.append(_synthetic_dataset(_random_model(rng, scale=0.5), n_points=16 + 7 * seed))
        theta = np.sort(rng.uniform(-math.pi, 3 * math.pi, 16 + 5 * seed))
        probs = rng.random((len(theta), 16))
        tables.append((theta, probs / probs.sum(axis=1, keepdims=True)))
    tables.append(_synthetic_dataset(EffectiveEnergyModel(eta=-20.0)))
    return tables


def _two_solves_apart(matrix, rhs, rounding):
    """How far two backward-stable least-squares solutions of (matrix, rhs)
    may lie apart when each is exact for data perturbed by at most `rounding`
    relative: twice kappa e (2 |x| + (kappa + 1) |r| / s_max) / (1 - kappa e)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 20.1),
    with x, r, kappa and s_max of the exact solve."""
    x, _, _, singular = np.linalg.lstsq(matrix, rhs, rcond=None)
    kappa, residual = singular[0] / singular[-1], np.linalg.norm(matrix @ x - rhs)
    spread = 2 * np.linalg.norm(x) + (kappa + 1) * residual / singular[0]
    return 2 * kappa * rounding * spread / (1 - kappa * rounding)


def _check_against_per_point_fit(theta, probs):
    """fit_energy_model agrees with _per_point_fit, and its reference curve
    with np.polyfit, as far as two backward-stable solves may differ. Each
    is exact for data perturbed by at most one eps per term of its longest
    inner product, relative: the per-point system's Householder reflections
    run over its 15n rows, the 16-row system's sums over the n points."""
    design, rhs, coeffs, residual, cond = _per_point_fit(theta, probs)
    fit = fit_energy_model(theta, probs)
    rounding = len(rhs) * np.finfo(float).eps
    bound = _two_solves_apart(design, rhs, rounding)
    assert np.linalg.norm(spinmodel._vector(fit.model) - coeffs) <= bound
    # both residuals are |A x - y| of solutions within `bound`, each rounded
    s_max = cond * np.linalg.svd(design, compute_uv=False)[-1]
    assert abs(fit.residual_norm - residual) <= s_max * bound + rounding * np.linalg.norm(rhs)
    # each singular value moves by at most rounding * s_max, in either solve
    assert abs(fit.condition_number - cond) <= 4 * cond * cond * rounding
    floored = np.log(np.maximum(probs[:, -1], PROB_FLOOR))
    sines = np.column_stack([np.ones(len(theta)), np.sin(theta)])
    b, intercept = np.polyfit(np.sin(theta), floored, 1)
    bound = _two_solves_apart(sines, floored, rounding)
    ln_a = math.log(fit.reference["A"])  # exp then log: two more roundings
    bound += 2 * rounding * (1 + abs(ln_a))
    assert math.hypot(ln_a - intercept, fit.reference["B"] - b) <= bound
    return fit


def test_fit_matches_the_per_point_solve_within_its_error_bound():
    # the 16-row solve against the 15n-row one it replaced
    floored = 0
    for theta, probs in _seeded_fit_tables():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _check_against_per_point_fit(theta, probs)
        floored += len(caught)
    assert floored == 1


@st.composite
def _phase_grids(draw):
    """16-64 phases in any order, with repeats, from a pool whose sines spread
    by at least 0.1 (both ends of that spread are on the grid)."""
    pool = draw(st.lists(st.floats(-2 * math.pi, 4 * math.pi), min_size=2, max_size=64,
                         unique=True))
    sines = np.sin(pool)
    assume(np.ptp(sines) >= 0.1)
    ends = [pool[int(np.argmin(sines))], pool[int(np.argmax(sines))]]
    grid = draw(st.lists(st.sampled_from(pool), min_size=14, max_size=62)) + ends
    return np.array(draw(st.permutations(grid)))


@given(theta=_phase_grids(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 0.3),
       noise=st.sampled_from([0.0, 0.1]))
@settings(max_examples=60, deadline=None)
def test_fit_recovers_the_model_on_any_grid(theta, seed, scale, noise):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, scale=scale)
    probs = np.array([[boltzmann_probabilities(model, theta_d4=t)[s] for s in SPIN_STATES]
                      for t in theta])
    # noisy tables have no exact fit, so the residual and the solve's
    # sensitivity to it are exercised too
    probs *= np.exp(noise * rng.normal(size=probs.shape))
    fit = _check_against_per_point_fit(theta, probs)
    if noise == 0.0:
        # exact tables carry only the softmax's round-off, near 1e-15
        got, want = spinmodel._vector(fit.model), spinmodel._vector(model)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-9
        assert fit.residual_norm <= 1e-9


@pytest.mark.parametrize("theta", [np.full(20, 0.7), np.array([0.3, math.pi - 0.3] * 10)],
                         ids=["one-phase", "equal-sines"])
def test_fit_refuses_an_unidentifiable_reference_curve(theta):
    # every phase has the same sine (0.3 and pi - 0.3 in all but the last
    # ulp), so ln A and B cannot be told apart, though the energy
    # coefficients can (condition numbers 6.0 and 12.8); before, np.polyfit
    # warned and returned arbitrary ones
    with pytest.raises(ValueError, match="reference curve unidentifiable"):
        fit_energy_model(theta, np.full((20, 16), 1 / 16))


def test_fit_refuses_a_reference_amplitude_that_overflows():
    # sines 1e-7 apart pass the conditioning rule, but a p_ref that swings
    # from 0.9 to 1e-12 across them extrapolates to ln A = 2.3e8 at sin = 0;
    # before, math.exp raised OverflowError
    theta = np.array([0.7, 0.7 + 1e-7] * 10)
    probs = np.full((20, 16), 1 / 16)
    probs[::2, -1], probs[1::2, -1] = 0.9, 1e-12
    with pytest.raises(ValueError, match=r"reference amplitude A = exp\(2.3\de\+08\) overflows"):
        fit_energy_model(theta, probs)


def _reference_curve(ln_a):
    """A flat table whose p_ref follows ln A + 720 sin(theta) from 1e-12 to
    0.6, on 20 sines near 0.95 to 0.98."""
    theta = np.arcsin(np.linspace((-27.0 - ln_a) / 720.0, (-0.5 - ln_a) / 720.0, 20))
    probs = np.full((20, 16), 1 / 16)
    probs[:, -1] = np.exp(ln_a + 720.0 * np.sin(theta))
    return theta, probs


def test_fit_refuses_a_reference_amplitude_that_underflows():
    # the overflowing table with p_ref swung the other way extrapolates to
    # ln A = -2.3e8: before, A came out 0.0 (with B = 3.6e8) unrefused
    theta = np.array([0.7, 0.7 + 1e-7] * 10)
    probs = np.full((20, 16), 1 / 16)
    probs[::2, -1], probs[1::2, -1] = 1e-12, 0.9
    with pytest.raises(ValueError, match=r"reference amplitude A = exp\(-2.3\de\+08\) underflows"):
        fit_energy_model(theta, probs)
    # a smooth curve through ln A = -708.5 would give a subnormal A; at
    # -708.0 A is normal and kept
    with pytest.raises(ValueError, match=r"reference amplitude A = exp\(-708\) underflows"):
        fit_energy_model(*_reference_curve(-708.5))
    fit = fit_energy_model(*_reference_curve(-708.0))
    assert fit.reference["A"] == pytest.approx(math.exp(-708.0), rel=1e-9)
    assert fit.reference["B"] == pytest.approx(720.0, rel=1e-12)


# --------------------------------------------------------------------------
# interaction-strength estimation
# --------------------------------------------------------------------------

@pytest.mark.parametrize("eps4", [20 * KHZ, -20 * KHZ], ids=["positive", "negative"])
def test_estimate_h4_round_trip(eps4):
    # nu4 carries the drive's sign, so a negative drive still gives +|h4|
    h4 = 0.1 * MHZ
    cfg = OscillationConfig(
        alpha=ALPHA,
        epsilon_d=np.array([0.0, 0.0, 0.0, eps4]),
        theta_d=np.full(4, math.pi / 2),
        theta_p=np.zeros(4),
    )
    coeffs = effective_coefficients(cfg, InteractionSet(h4=h4))
    beta = 2.0 / MHZ
    model = model_from_coefficients(coeffs, beta)
    estimate = estimate_h4(model.eta, model.nu[3], eps4, ALPHA, theta_p=0.0)
    assert estimate == pytest.approx(h4, rel=1e-6)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                  (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf),
                                  (1.0, math.nan, 1.0)],
                         ids=["eta-nan", "nu4-inf", "eps4-inf", "eps4-minus-inf", "nu4-nan"])
def test_estimate_h4_refuses_non_finite_input(args):
    # before, eta = NaN gave NaN, eps4 = inf gave inf and nu4 = inf gave 0.0
    with pytest.raises(ValueError, match="must be finite"):
        estimate_h4(*args, ALPHA)


def test_estimate_h4_errors():
    with pytest.raises(ValueError, match="nonzero"):
        estimate_h4(1.0, 0.0, 1.0, ALPHA)
    with pytest.raises(ValueError, match="vanishes"):
        estimate_h4(1.0, 1.0, 1.0, np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="overflows"):
        estimate_h4(1.0, 1.0, 1.0, np.array([1e200, 1e200, 1.0, 1.0]))
    with pytest.raises(ValueError, match="overflows the floating-point range"):
        estimate_h4(1e300, 1e-300, 1.0, ALPHA)
    for alpha in (ALPHA[:3], np.append(ALPHA, 2.0)):
        with pytest.raises(ValueError, match="four entries"):
            estimate_h4(1.0, 1.0, 1.0, alpha)


def test_estimate_h4_zero_eta_gives_zero():
    assert estimate_h4(0.0, 1.0, 1.0, ALPHA) == 0.0


@pytest.mark.parametrize("theta_p", [0.0, 0.7, -2.9, math.pi - 0.01, 9.0])
def test_estimate_h4_matches_the_closed_form(theta_p):
    # |h4| = |eta/nu4| * 2*eps4*alpha4 / (2*prod(alpha)*|cos(theta_p/2)|), as
    # first written; the rule's unit four-body term replaces the denominator
    eta, nu4, eps4 = -0.31, 0.74, 20 * KHZ
    closed = abs(eta / nu4) * 2.0 * eps4 * ALPHA[3] / (
        2.0 * float(np.prod(ALPHA)) * abs(math.cos(theta_p / 2.0)))
    assert estimate_h4(eta, nu4, eps4, ALPHA, theta_p=theta_p) == pytest.approx(closed, rel=1e-15)
    # and it inverts the forward map at that aggregate pump phase
    h4 = 0.1 * MHZ
    cfg = OscillationConfig(alpha=ALPHA, epsilon_d=np.array([0.0, 0.0, 0.0, eps4]),
                            theta_d=np.full(4, math.pi / 2), theta_p=np.array([theta_p, 0, 0, 0]))
    model = model_from_coefficients(effective_coefficients(cfg, InteractionSet(h4=h4)), 2.0 / MHZ)
    assert estimate_h4(model.eta, model.nu[3], eps4, ALPHA, theta_p=theta_p) == pytest.approx(
        h4, rel=1e-12)


# --------------------------------------------------------------------------
# the coherent-state rule against the expressions it replaced
# --------------------------------------------------------------------------

def _hand_written_terms(alpha, tp, ints):
    """The five coupling terms as first written, one expression each."""
    a = alpha
    return {
        "h4": -2.0 * ints.h4 * a[0] * a[1] * a[2] * a[3]
        * np.cos((tp[0] + tp[1] - tp[2] - tp[3]) / 2.0),
        "g1": 2.0 * ints.g1 * a[0] * a[3] * a[1] ** 2
        * np.cos(tp[0] / 2.0 + tp[3] / 2.0 - tp[1]),
        "g2": 2.0 * ints.g2 * a[0] ** 2 * a[1] * a[2]
        * np.cos(tp[0] - tp[1] / 2.0 - tp[2] / 2.0),
        "g3": 2.0 * ints.g3 * a[0] ** 3 * a[2] ** 2 * a[3]
        * np.cos(1.5 * tp[0] - tp[2] - tp[3] / 2.0),
        "g4": 2.0 * ints.g4 * a[1] ** 3 * a[2] * a[3] ** 2
        * np.cos(1.5 * tp[1] - tp[2] / 2.0 - tp[3]),
    }


def _assert_rule_matches_hand_written(got, want, alpha, ints):
    """h4, g2, g3 and g4 bit for bit; g1 to 2e-15 of its amplitude, as its
    phase is now summed in mode order (theta_p1/2 - theta_p2 + theta_p4/2)."""
    for name in ("h4", "g2", "g3", "g4"):
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
    amplitude = abs(2.0 * ints.g1 * alpha[0] * alpha[1] ** 2 * alpha[3])
    assert np.max(np.abs(got["g1"] - want["g1"])) <= 2e-15 * amplitude


def _random_couplings(rng):
    return InteractionSet(*(rng.uniform(0.1, 1.0, 5) * rng.choice((-1.0, 1.0), 5) * MHZ))


def test_rule_reproduces_the_hand_written_terms_at_scalar_phases():
    rng = np.random.default_rng(41)
    for _ in range(500):
        alpha = rng.uniform(0.5, 3.0, 4)
        config = OscillationConfig(alpha=alpha, epsilon_d=np.zeros(4), theta_d=np.zeros(4),
                                   theta_p=rng.uniform(-math.pi, math.pi, 4))
        ints = _random_couplings(rng)
        got = effective_coefficients(config, ints)
        want = _hand_written_terms(alpha, config.theta_p, ints)
        _assert_rule_matches_hand_written(got, want, alpha, ints)


def test_rule_reproduces_the_hand_written_terms_and_placement_on_a_parity_grid():
    rng = np.random.default_rng(42)
    grid = PARITY_GRIDS["0-8pi"]
    for _ in range(40):
        config, _ = _random_parity_system(rng, MHZ)
        ints = _random_couplings(rng)
        beta = rng.uniform(0.1, 2.0) / MHZ
        got = spinmodel._coefficients(config, (grid, 0.0, 0.0, 0.0), ints)
        want = _hand_written_terms(config.alpha, (grid, 0.0, 0.0, 0.0), ints)
        _assert_rule_matches_hand_written(got, want, config.alpha, ints)
        # the placement as first written: h4 on eta, g1 + g3 on mu14, g2 + g4
        # on mu23, the drives on nu; every other column exactly 0
        columns = spinmodel._model_columns(got, beta)
        assert columns[0].tobytes() == (beta * want["h4"]).tobytes()
        assert columns[7].tobytes() == (beta * (got["g1"] + want["g3"])).tobytes()
        assert columns[8].tobytes() == (beta * (want["g2"] + want["g4"])).tobytes()
        assert columns[11:] == [beta * got["eps"][0], beta * got["eps"][1],
                                beta * got["eps"][2], beta * got["nu4_base"]]
        assert [columns[k] for k in (1, 2, 3, 4, 5, 6, 9, 10)] == [0.0] * 8
