"""Fleet model tests: TCL thermal behavior, EV batteries, noise sampling."""

import dataclasses

import numpy as np
import pytest

from loadtrack.core import RunningMean
from loadtrack.harness import ScenarioConfig, run_trial
from loadtrack.loads import (
    EvFleet,
    EvParams,
    InfeasibleLoadError,
    NoiseSpec,
    TclFleet,
    TclRanges,
    WeightedChargeObjective,
    ev_loss_and_gradient,
    ev_soc_step,
    sample_truncated_gaussian,
    tcl_apply_signal,
    tcl_fleet_init,
    tcl_steady_control,
    tcl_temp_step,
)


# --- TCL steady state ---------------------------------------------------------


def test_steady_control_hand_values():
    m_bar, c0, p = tcl_steady_control(2.0, 10.0, 2.5, 25.0, 30.0)
    assert m_bar == pytest.approx(0.25)
    assert p == pytest.approx(4.0)
    assert c0 == pytest.approx(1.0)


def test_steady_control_infeasible_at_boundary():
    with pytest.raises(InfeasibleLoadError):
        tcl_steady_control(2.0, 10.0, 2.5, 30.0, 30.0)  # theta_d == theta_a


def test_temp_step_decay_constant():
    # R=2, C=10, h=1/12 h gives b = exp(-1/240)
    theta = tcl_temp_step(25.0, 2.0, 10.0, 10.0, 30.0, 0.25, 1.0 / 12.0)
    b = np.exp(-1.0 / 240.0)
    assert b == pytest.approx(0.995842, abs=1e-6)
    expected = b * 25.0 + (1 - b) * (30.0 - 0.25 * 2.0 * 10.0)
    assert theta == pytest.approx(expected, abs=1e-12)


def test_temp_step_fixed_point_at_steady_duty():
    m_bar, _, _ = tcl_steady_control(2.0, 10.0, 2.5, 22.0, 30.0)
    theta = 22.0
    for _ in range(50):
        theta = tcl_temp_step(theta, 2.0, 10.0, 10.0, 30.0, m_bar, 1.0 / 12.0)
    assert theta == pytest.approx(22.0, abs=1e-9)


def test_temp_step_no_cooling_approaches_ambient():
    theta = 22.0
    for _ in range(5000):
        theta = tcl_temp_step(theta, 2.0, 10.0, 10.0, 30.0, 0.0, 1.0 / 12.0)
    assert theta == pytest.approx(30.0, abs=1e-6)


def test_temp_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tcl_temp_step(22.0, 2.0, 10.0, 10.0, 30.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        tcl_temp_step(22.0, 2.0, 10.0, 10.0, 30.0, 1.5, 0.1)


def test_apply_signal_hand_values():
    assert tcl_apply_signal(0.0, 0.25) == pytest.approx(0.25)
    assert tcl_apply_signal(1.0, 0.25) == pytest.approx(0.5)
    assert tcl_apply_signal(-1.0, 0.25) == pytest.approx(0.0)


def test_fleet_step_matches_the_thermal_model_formula_bitwise():
    rng = np.random.default_rng(3)
    fleet = tcl_fleet_init(50, rng)
    r, c, p, m_bar = fleet.resistance, fleet.capacitance, fleet.rated_power, fleet.m_bar
    theta = fleet.theta.copy()
    for _ in range(30):
        mu = rng.uniform(-1, 1, size=50)
        mu[:5] = (-1.0, 1.0, 0.0, -0.0, 1.0 + 1e-10)
        duty = np.clip(m_bar + mu * np.minimum(m_bar, 1.0 - m_bar), 0.0, 1.0)
        b = np.exp(-fleet.step_hours / (r * c))
        theta = b * theta + (1.0 - b) * (fleet.ambient - duty * r * p)
        fleet.step(mu)
        assert fleet.theta.tobytes() == theta.tobytes()
        assert tcl_temp_step(theta, r, c, p, fleet.ambient, duty, fleet.step_hours).tobytes() == (
            (b * theta + (1.0 - b) * (fleet.ambient - duty * r * p)).tobytes()
        )


def test_fleet_rejects_nonpositive_step_at_construction():
    with pytest.raises(ValueError, match="hours"):
        TclFleet(np.array([2.0]), np.array([10.0]), np.array([10.0]), np.array([2.5]),
                 np.array([22.0]), 30.0, 0.0)


def test_apply_signal_image_in_unit_interval():
    rng = np.random.default_rng(0)
    mu = rng.uniform(-1, 1, size=1000)
    m_bar = rng.uniform(0.05, 0.95, size=1000)
    duty = tcl_apply_signal(mu, m_bar)
    assert np.all(duty >= 0.0) and np.all(duty <= 1.0)


# --- truncated Gaussian ---------------------------------------------------------


def test_truncated_gaussian_support():
    rng = np.random.default_rng(1)
    draws = sample_truncated_gaussian(0.0, 0.5, -1.0, 1.0, rng, size=100_000)
    assert draws.min() >= -1.0 and draws.max() <= 1.0


def test_truncated_gaussian_symmetric_mean():
    rng = np.random.default_rng(2)
    draws = sample_truncated_gaussian(0.0, 0.5, -1.0, 1.0, rng, size=100_000)
    assert abs(draws.mean()) <= 0.01


def test_truncated_gaussian_sd_when_truncation_negligible():
    rng = np.random.default_rng(3)
    draws = sample_truncated_gaussian(0.0, 0.1, -1.5, 1.5, rng, size=100_000)
    assert draws.std() == pytest.approx(0.1, abs=0.005)


def test_truncated_gaussian_degenerate_sd():
    rng = np.random.default_rng(4)
    assert sample_truncated_gaussian(0.3, 0.0, -1.0, 1.0, rng) == 0.3
    with pytest.raises(ValueError):
        sample_truncated_gaussian(2.0, 0.0, -1.0, 1.0, rng)


def test_truncated_gaussian_rejects_empty_interval():
    with pytest.raises(ValueError):
        sample_truncated_gaussian(0.0, 1.0, 1.0, -1.0, np.random.default_rng(0))


def test_truncated_gaussian_draw_budget(monkeypatch):
    import loadtrack.loads as loads_module

    monkeypatch.setattr(loads_module, "MAX_REJECTIONS", 1000)
    with pytest.raises(loads_module.SamplingError):
        # Acceptance region 40 sigma out: every draw is rejected.
        sample_truncated_gaussian(0.0, 0.01, 0.4, 0.4001, np.random.default_rng(0))


def test_observe_response_noise_bounds():
    draws = NoiseSpec().sample(np.random.default_rng(5), size=(50, 200))
    assert draws.shape == (50, 200)
    assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
    # Each load's realized responses are c0 plus noise on [-1, 1].
    responses = run_trial(ScenarioConfig(n_loads=30, rounds=50, seed=5)).ledger.responses
    assert np.all(np.ptp(responses, axis=0) <= 2.0)


def test_observe_response_degenerate_noise():
    np.testing.assert_array_equal(
        NoiseSpec(sd=0.0).sample(np.random.default_rng(6), size=(3, 2)), 0.0
    )
    cfg = ScenarioConfig(n_loads=4, rounds=10, seed=6, noise=NoiseSpec(sd=0.0))
    responses = run_trial(cfg).ledger.responses
    np.testing.assert_array_equal(responses, np.broadcast_to(responses[0], responses.shape))


# --- TCL fleet -------------------------------------------------------------------


def test_fleet_init_defaults_feasible_and_in_range():
    fleet = tcl_fleet_init(200, np.random.default_rng(7))
    assert np.all(fleet.m_bar > 0.05) and np.all(fleet.m_bar < 0.95)
    assert np.all(fleet.desired_temp >= 20.0) and np.all(fleet.desired_temp <= 25.0)
    ranges = TclRanges()
    # Range endpoints themselves can never produce an infeasible duty at 30 C.
    worst_hi = (30.0 - ranges.setpoint_lo) / (ranges.power_lo * ranges.resistance_lo)
    worst_lo = (30.0 - ranges.setpoint_hi) / (ranges.power_hi * ranges.resistance_hi)
    assert 0.05 < worst_lo and worst_hi < 0.95


def test_fleet_init_deterministic():
    a = tcl_fleet_init(50, np.random.default_rng(8))
    b = tcl_fleet_init(50, np.random.default_rng(8))
    np.testing.assert_array_equal(a.resistance, b.resistance)
    np.testing.assert_array_equal(a.desired_temp, b.desired_temp)


def test_fleet_init_rejects_impossible_ranges():
    bad = TclRanges(power_lo=1000.0, power_hi=1001.0)  # m_bar ~ 0.003, always rejected
    with pytest.raises(InfeasibleLoadError):
        tcl_fleet_init(5, np.random.default_rng(9), bad)


def test_fleet_zero_signal_holds_temperature():
    fleet = tcl_fleet_init(30, np.random.default_rng(10))
    for _ in range(200):
        fleet.step(np.zeros(fleet.size))
    np.testing.assert_allclose(fleet.theta, fleet.desired_temp, atol=1e-9)


def test_fleet_param_dump_roundtrip(tmp_path):
    fleet = tcl_fleet_init(20, np.random.default_rng(11))
    path = tmp_path / "fleet.txt"
    fleet.save_params(path)
    loaded = TclFleet.load_params(path, ambient=fleet.ambient, step_hours=fleet.step_hours)
    for col in TclFleet.PARAM_COLUMNS:
        np.testing.assert_allclose(getattr(loaded, col), getattr(fleet, col), rtol=0, atol=0)


# --- EV responses and dynamics ------------------------------------------------


def test_ev_response_rates_and_support():
    cfg = ScenarioConfig(scenario="ev", n_loads=50, rounds=10, seed=12)
    responses = run_trial(cfg).ledger.responses
    assert np.all(np.abs(responses[:, :50] - 3.0) <= 1.5)
    assert np.all(np.abs(responses[:, 50:] - 1.5) <= 1.5)
    exact = dataclasses.replace(cfg, n_loads=5, noise=NoiseSpec(sd=0.0, lo=-1.5, hi=1.5))
    responses = run_trial(exact).ledger.responses
    np.testing.assert_array_equal(responses[:, :5], 3.0)
    np.testing.assert_array_equal(responses[:, 5:], 1.5)


def test_ev_soc_step_charging_hand_value():
    params = EvParams()
    soc, term, saturated = ev_soc_step(
        np.array([0.75]), params, np.array([3.0]), np.array([1.5]),
        np.array([1.0]), np.array([0.0]), 1.0 / 60.0,
    )
    assert soc[0] == pytest.approx(0.75425, abs=1e-9)
    assert term[0] == pytest.approx(0.85 * 3.0)
    assert saturated == 0


def test_ev_soc_step_discharging_hand_value():
    params = EvParams()
    soc, _, _ = ev_soc_step(
        np.array([0.75]), params, np.array([3.0]), np.array([1.5]),
        np.array([0.0]), np.array([-1.0]), 1.0 / 60.0,
    )
    assert soc[0] == pytest.approx(0.75 - (1.5 / 0.85) / 600.0, abs=1e-9)
    assert soc[0] == pytest.approx(0.747059, abs=1e-6)


def test_ev_soc_zero_signal_is_identity():
    params = EvParams()
    soc, term, saturated = ev_soc_step(
        np.array([0.4, 0.9]), params, np.array([3.0, 3.0]), np.array([1.5, 1.5]),
        np.zeros(2), np.zeros(2), 1.0 / 60.0,
    )
    np.testing.assert_array_equal(soc, [0.4, 0.9])
    np.testing.assert_array_equal(term, 0.0)
    assert saturated == 0


def test_ev_soc_clamps_and_counts_saturation():
    params = EvParams(capacity_kwh=0.01)
    soc, _, saturated = ev_soc_step(
        np.array([0.99]), params, np.array([3.0]), np.array([1.5]),
        np.array([1.0]), np.array([0.0]), 1.0,
    )
    assert soc[0] == 1.0
    assert saturated == 1


@pytest.mark.parametrize("rho", [0.0, 30.0])
def test_ev_objective_weighted_mean_matches_batch(rho):
    params = EvParams()
    objective = WeightedChargeObjective(4, rho, params)
    fleet = EvFleet(params, 4)
    rng = np.random.default_rng(13)
    noise = NoiseSpec(sd=0.1, lo=-1.5, hi=1.5)
    terms = []
    for _ in range(60):
        c_c = 3.0 + noise.sample(rng, size=4)
        c_d = 1.5 + noise.sample(rng, size=4)
        mu_c = rng.uniform(0, 1, size=4)
        mu_d = -rng.uniform(0, 1, size=4)
        terms.append(params.inj_eff * c_c * mu_c + c_d * mu_d / params.ext_eff)
        responses, signal = np.concatenate([c_c, c_d]), np.concatenate([mu_c, mu_d])
        objective.value_and_gradient(0.0, responses, signal)
        objective.advance(signal, responses)
        fleet.step(c_c, c_d, mu_c, mu_d)
    np.testing.assert_allclose(objective.weighted_mean.mean, np.mean(terms, axis=0), atol=1e-12)
    assert objective.weighted_mean.rounds == 60
    assert np.all(fleet.soc >= 0.0) and np.all(fleet.soc <= 1.0)


# --- EV loss and gradient ---------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, 30.0])
def test_ev_objective_reuses_its_weighted_signal(rho):
    params = EvParams()
    reused = WeightedChargeObjective(3, rho, params)
    fresh = WeightedChargeObjective(3, rho, params)
    rng = np.random.default_rng(21)
    for _ in range(20):
        responses = np.concatenate([3.0 + rng.uniform(-1, 1, 3), 1.5 + rng.uniform(-1, 1, 3)])
        signal = np.concatenate([rng.uniform(0, 1, 3), -rng.uniform(0, 1, 3)])
        value, grad = reused.value_and_gradient(1.0, responses, signal)
        reused.advance(signal, responses)
        # A copy of the signal is not the signal the value was computed for.
        fresh.value_and_gradient(1.0, responses, signal)
        fresh.advance(signal.copy(), responses)
        assert reused.weighted_mean.mean.tobytes() == fresh.weighted_mean.mean.tobytes()
    with pytest.raises(ValueError):
        reused.advance(signal)


def test_ev_loss_zero_case():
    params = EvParams()
    loss, g_c, g_d = ev_loss_and_gradient(
        0.0, np.array([3.0]), np.array([1.5]), np.array([0.0]), np.array([0.0]),
        0.0, RunningMean.zero(1), params,
    )
    assert loss == 0.0
    np.testing.assert_array_equal(g_c, 0.0)
    np.testing.assert_array_equal(g_d, 0.0)


def test_ev_loss_rejects_sign_violations():
    params = EvParams()
    with pytest.raises(ValueError):
        ev_loss_and_gradient(0.0, np.array([3.0]), np.array([1.5]),
                             np.array([-0.2]), np.array([0.0]), 0.0, RunningMean.zero(1), params)
    with pytest.raises(ValueError):
        ev_loss_and_gradient(0.0, np.array([3.0]), np.array([1.5]),
                             np.array([0.2]), np.array([0.5]), 0.0, RunningMean.zero(1), params)


def _ev_loss_only(s, c_c, c_d, mu_c, mu_d, rho, wm, params):
    loss, _, _ = ev_loss_and_gradient(s, c_c, c_d, mu_c, mu_d, rho, wm, params)
    return loss


def test_ev_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    params = EvParams()
    step = 1e-6
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c_c = 3.0 + rng.uniform(-1, 1, size=n)
        c_d = 1.5 + rng.uniform(-1, 1, size=n)
        mu_c = rng.uniform(0.05, 0.95, size=n)
        mu_d = -rng.uniform(0.05, 0.95, size=n)
        s = float(rng.normal() * 5)
        rho = float(rng.uniform(0, 50))
        t_prev = int(rng.integers(0, 5))
        wm = RunningMean(rng.uniform(-1, 1, size=n), t_prev)
        _, g_c, g_d = ev_loss_and_gradient(s, c_c, c_d, mu_c, mu_d, rho, wm, params)
        for i in range(n):
            up, dn = mu_c.copy(), mu_c.copy()
            up[i] += step
            dn[i] -= step
            fd = (_ev_loss_only(s, c_c, c_d, up, mu_d, rho, wm, params)
                  - _ev_loss_only(s, c_c, c_d, dn, mu_d, rho, wm, params)) / (2 * step)
            assert g_c[i] == pytest.approx(fd, rel=1e-4, abs=1e-4)
            up, dn = mu_d.copy(), mu_d.copy()
            up[i] += step
            dn[i] -= step
            fd = (_ev_loss_only(s, c_c, c_d, mu_c, up, rho, wm, params)
                  - _ev_loss_only(s, c_c, c_d, mu_c, dn, rho, wm, params)) / (2 * step)
            assert g_d[i] == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_ev_loss_midpoint_convexity():
    rng = np.random.default_rng(15)
    params = EvParams()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c_c = 3.0 + rng.uniform(-1, 1, size=n)
        c_d = 1.5 + rng.uniform(-1, 1, size=n)
        s = float(rng.normal() * 5)
        rho = float(rng.uniform(0, 100))
        wm = RunningMean(rng.uniform(-1, 1, size=n), int(rng.integers(0, 5)))
        xc, yc = rng.uniform(0, 1, size=(2, n))
        xd, yd = -rng.uniform(0, 1, size=(2, n))
        mid = _ev_loss_only(s, c_c, c_d, (xc + yc) / 2, (xd + yd) / 2, rho, wm, params)
        ends = (_ev_loss_only(s, c_c, c_d, xc, xd, rho, wm, params)
                + _ev_loss_only(s, c_c, c_d, yc, yd, rho, wm, params)) / 2
        assert mid <= ends + 1e-9
