"""Fleet model tests: TCL thermal behavior, EV batteries, noise sampling."""

import dataclasses

import numpy as np
import pytest

from loadtrack import loads
from loadtrack.harness import ScenarioConfig, run_trial
from loadtrack.loads import (
    EvFleet,
    EvParams,
    InfeasibleLoadError,
    NoiseSpec,
    SignalRangeError,
    TclFleet,
    TclRanges,
    WeightedChargeObjective,
    ev_decision_box,
    sample_truncated_gaussian,
    tcl_fleet_init,
    tcl_steady_control,
    weighted_signal,
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


def _one_tcl(desired_temp, step_hours=1.0 / 12.0):
    """One load with R=2, C=10, P_R=10, COP=2.5 at 30 C ambient: m_bar = (30 - desired) / 20."""
    return TclFleet(np.array([2.0]), np.array([10.0]), np.array([10.0]), np.array([2.5]),
                    np.array([desired_temp]), 30.0, step_hours)


def test_temp_step_decay_constant():
    # R=2, C=10, h=1/12 h gives b = exp(-1/240); m_bar = 0.4 and mu = -0.375 give duty 0.25.
    fleet = _one_tcl(22.0)
    fleet.theta = np.array([25.0])
    fleet.step(np.array([-0.375]))
    b = np.exp(-1.0 / 240.0)
    assert fleet.decay[0] == pytest.approx(b, abs=1e-15)
    assert b == pytest.approx(0.995842, abs=1e-6)
    expected = b * 25.0 + (1 - b) * (30.0 - 0.25 * 2.0 * 10.0)
    assert fleet.theta[0] == pytest.approx(expected, abs=1e-12)


def test_temp_step_fixed_point_at_steady_duty():
    fleet = _one_tcl(22.0)
    for _ in range(50):
        fleet.step(np.zeros(1))
    assert fleet.theta[0] == pytest.approx(22.0, abs=1e-9)


def test_temp_step_no_cooling_approaches_ambient():
    fleet = _one_tcl(22.0)  # m_bar = 0.4 = swing, so mu = -1 gives duty 0
    for _ in range(5000):
        fleet.step(-np.ones(1))
    assert fleet.theta[0] == pytest.approx(30.0, abs=1e-6)


def test_temp_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _one_tcl(22.0, step_hours=0.0)
    with pytest.raises(ValueError):
        _one_tcl(22.0).step(np.array([1.5]))


def test_apply_signal_hand_values():
    b = np.exp(-1.0 / 240.0)
    for mu, duty in [(0.0, 0.25), (1.0, 0.5), (-1.0, 0.0)]:
        fleet = _one_tcl(25.0)  # m_bar = 0.25, theta starts at 25
        fleet.step(np.array([mu]))
        assert fleet.theta[0] == pytest.approx(b * 25.0 + (1 - b) * (30.0 - duty * 2.0 * 10.0), abs=1e-12)


def _clip_active_fleet_and_signals(rows=30):
    """A 50-load fleet and ``rows`` signal rows on which the duty clip acts."""
    rng = np.random.default_rng(3)
    fleet = tcl_fleet_init(50, rng)
    # A signal just below -1 on a load with m_bar < 0.5 commands a duty below 0, so the clip acts.
    under = np.argmin(fleet.m_bar)
    assert fleet.m_bar[under] < 0.5
    signals = np.empty((rows, 50))
    for mu in signals:
        mu[:] = rng.uniform(-1, 1, size=50)
        mu[:5] = (-1.0, 1.0, 0.0, -0.0, 1.0 + 1e-10)
        mu[under] = -1.0 - 1e-10
    return fleet, signals


def test_fleet_step_matches_the_thermal_model_formula_bitwise():
    fleet, signals = _clip_active_fleet_and_signals()
    r, c, p, m_bar = fleet.resistance, fleet.capacitance, fleet.rated_power, fleet.m_bar
    theta = fleet.theta.copy()
    for mu in signals:
        duty = np.clip(m_bar + mu * np.minimum(m_bar, 1.0 - m_bar), 0.0, 1.0)
        b = np.exp(-fleet.step_hours / (r * c))
        theta = b * theta + (1.0 - b) * (fleet.ambient - duty * r * p)
        fleet.step(mu)
        assert fleet.theta.tobytes() == theta.tobytes()


def test_fleet_block_step_matches_row_by_row_steps_bitwise():
    fleet, signals = _clip_active_fleet_and_signals()
    by_row, _ = _clip_active_fleet_and_signals()
    rows = [by_row.step(mu)[0].copy() for mu in signals]
    block = fleet.step(signals)
    assert block.shape == signals.shape
    assert block.tobytes() == np.array(rows).tobytes()
    assert fleet.theta.tobytes() == by_row.theta.tobytes() == rows[-1].tobytes()


@pytest.mark.parametrize("k", [0, 1, 3])
def test_fleet_head_steps_its_loads_as_the_whole_fleet_does(k):
    fleet, signals = _clip_active_fleet_and_signals()
    head = fleet.head(k)
    whole = fleet.step(signals)
    assert head.step(signals[:, :k]).tobytes() == np.ascontiguousarray(whole[:, :k]).tobytes()
    assert head.theta.tobytes() == fleet.theta[:k].tobytes()


def test_fleet_block_step_names_the_first_bad_row():
    fleet = tcl_fleet_init(4, np.random.default_rng(1))
    theta = fleet.theta.copy()
    signals = np.zeros((6, 4))
    signals[2, 3] = -1.5
    signals[4, 0] = 1.5
    with pytest.raises(SignalRangeError, match=r"^adjustment signals must lie in \[-1, 1\]$") as info:
        fleet.step(signals)
    assert info.value.row == 2
    assert fleet.theta.tobytes() == theta.tobytes()  # a rejected block leaves the state alone


NAN = float("nan")


@pytest.mark.parametrize("signals,row", [
    pytest.param([[0.1, NAN, 2.0]], 0, id="nan-beside-out-of-range"),
    pytest.param([[NAN, 0.0, 0.0], [0.0, 3.0, 0.0]], 0, id="nan-before-out-of-range"),
    pytest.param([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, NAN, 0.0]], 2, id="nan-alone"),
    pytest.param([[0.0, 0.0, 0.0], [0.0, -3.0, 0.0], [NAN, 0.0, 0.0]], 1, id="out-of-range-before-nan"),
])
def test_fleet_block_step_rejects_nan_and_names_its_row(signals, row):
    fleet = tcl_fleet_init(3, np.random.default_rng(1))
    theta = fleet.theta.copy()
    with pytest.raises(SignalRangeError, match=r"^adjustment signals must lie in \[-1, 1\]$") as info:
        fleet.step(np.array(signals))
    assert info.value.row == row
    assert fleet.theta.tobytes() == theta.tobytes()


@pytest.mark.parametrize("index,message", [
    (0, r"^charging signals must lie in \[0, 1\]$"),
    (2, r"^charging signals must lie in \[0, 1\]$"),
    (3, r"^discharging signals must lie in \[-1, 0\]$"),
    (5, r"^discharging signals must lie in \[-1, 0\]$"),
])
def test_ev_objective_rejects_a_nan_signal(index, message):
    objective = WeightedChargeObjective(3, 0.0, EvParams())
    signal = np.array([0.5, 0.5, 0.5, -0.5, -0.5, -0.5])
    signal[index] = NAN
    with pytest.raises(ValueError, match=message):
        objective.value_and_gradient(1.0, np.concatenate([np.full(3, 3.0), np.full(3, 1.5)]), signal)


def test_fleet_rejects_nonpositive_step_at_construction():
    for step_hours in (0.0, -1.0, NAN):
        with pytest.raises(ValueError, match="hours"):
            TclFleet(np.array([2.0]), np.array([10.0]), np.array([10.0]), np.array([2.5]),
                     np.array([22.0]), 30.0, step_hours)
        with pytest.raises(ValueError, match="hours"):
            EvFleet(EvParams(), 2, step_hours)


@pytest.mark.parametrize("field", ["capacity_kwh", "charge_rate_kw", "discharge_rate_kw", "inj_eff", "ext_eff"])
def test_ev_params_reject_nan(field):
    with pytest.raises(ValueError, match="positive|efficiencies"):
        EvParams(**{field: NAN})


def test_steady_control_rejects_a_nan_duty():
    with pytest.raises(InfeasibleLoadError):
        tcl_steady_control(2.0, 10.0, 2.5, 25.0, NAN)


def test_apply_signal_image_in_unit_interval():
    # Every duty in [0, 1] puts the next temperature between full cooling and none.
    rng = np.random.default_rng(0)
    fleet = tcl_fleet_init(1000, rng)
    theta = fleet.theta
    fleet.step(rng.uniform(-1, 1, size=1000))
    full = fleet.decay * theta + fleet.decay_rest * (fleet.ambient - fleet.resistance * fleet.rated_power)
    none = fleet.decay * theta + fleet.decay_rest * fleet.ambient
    assert np.all(fleet.theta >= full) and np.all(fleet.theta <= none)


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


class _DrawLimit:
    """A generator whose ``standard_normal`` fails the test after ``limit`` cells.

    A sampler that stopped counting its rejections would otherwise loop
    forever instead of failing.
    """

    def __init__(self, rng, limit):
        self.rng, self.limit, self.cells = rng, limit, 0

    def standard_normal(self, size=None):
        self.cells += 1 if size is None else int(np.prod(size))
        if self.cells > self.limit:
            raise AssertionError(f"{self.cells} cells drawn without reaching the draw budget")
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("field", ["mean", "sd", "lo", "hi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_noise_rejects_non_finite_arguments_without_sampling(field, value):
    args = {"mean": 0.0, "sd": 0.5, "lo": -1.0, "hi": 1.0, field: value}
    no_draws = _DrawLimit(np.random.default_rng(0), 0)
    with pytest.raises(ValueError, match="finite"):
        sample_truncated_gaussian(args["mean"], args["sd"], args["lo"], args["hi"], no_draws)
    with pytest.raises(ValueError, match="finite"):
        sample_truncated_gaussian(args["mean"], args["sd"], args["lo"], args["hi"], no_draws, size=(3, 2))
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec(**args)
    assert no_draws.cells == 0


def test_truncated_gaussian_draw_budget(monkeypatch):
    import loadtrack.loads as loads_module

    monkeypatch.setattr(loads_module, "MAX_REJECTIONS", 1000)
    rng = _DrawLimit(np.random.default_rng(0), 10 * 1000)
    with pytest.raises(loads_module.SamplingError):
        # Acceptance region 40 sigma out: every draw is rejected.
        sample_truncated_gaussian(0.0, 0.01, 0.4, 0.4001, rng)


def _reference_truncated_gaussian(mean, sd, lo, hi, rng, size=None):
    """The earlier rejection loop (every pass over a pending index list), and its pass count."""
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    if sd == 0:
        out = np.full(n, float(mean))
        return (float(out[0]) if scalar else out.reshape(size)), 0
    out = np.empty(n)
    pending = np.arange(n)
    passes = 0
    while pending.size:
        passes += 1
        draws = mean + sd * rng.standard_normal(pending.size)
        ok = (draws >= lo) & (draws <= hi)
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
    return (float(out[0]) if scalar else out.reshape(size)), passes


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("size", [None, 1, 997, (60, 40)], ids=["scalar", "1", "997", "60x40"])
@pytest.mark.parametrize(
    "mean,sd,lo,hi",
    [(0.0, 0.5, -1.0, 1.0), (0.0, 0.1, -1.5, 1.5), (0.3, 0.0, -1.0, 1.0), (0.0, 1.0, 0.2, 0.3)],
    ids=["tcl", "ev", "sd0", "narrow"],
)
def test_truncated_gaussian_matches_the_reference_loop_bitwise(seed, size, mean, sd, lo, hi):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_truncated_gaussian(mean, sd, lo, hi, rng, size=size)
    want, passes = _reference_truncated_gaussian(mean, sd, lo, hi, ref_rng, size=size)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).view(np.int64).tobytes() == np.asarray(want).view(np.int64).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # same draws consumed
    if (lo, hi) == (0.2, 0.3) and size in (997, (60, 40)):
        assert passes > 3  # the narrow window redraws over several passes


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
        fleet.step(np.zeros(fleet.theta.shape[0]))
    np.testing.assert_allclose(fleet.theta, fleet.desired_temp, atol=1e-9)


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


def _ev_round(objective, fleet, responses, signal):
    """One round as ``run_trial`` plays it: score, advance, then step the fleet over the played row."""
    responses, signal = np.asarray(responses, dtype=float), np.asarray(signal, dtype=float)
    objective.value_and_gradient(0.0, responses, signal)
    objective.advance(signal)
    fleet.step(signal, responses)


def _ev_pair(n, params=EvParams(), step_hours=1.0 / 60.0):
    return WeightedChargeObjective(n, 0.0, params), EvFleet(params, n, step_hours)


def test_ev_soc_step_charging_hand_value():
    objective, fleet = _ev_pair(1)
    _ev_round(objective, fleet, [3.0, 1.5], [1.0, 0.0])
    assert fleet.soc[0] == pytest.approx(0.75425, abs=1e-9)
    assert objective.mean[0] == pytest.approx(0.85 * 3.0)  # one round: the mean is its weighted signal
    assert fleet.saturation_events == 0


def test_ev_soc_step_discharging_hand_value():
    objective, fleet = _ev_pair(1)
    _ev_round(objective, fleet, [3.0, 1.5], [0.0, -1.0])
    assert fleet.soc[0] == pytest.approx(0.75 - (1.5 / 0.85) / 600.0, abs=1e-9)
    assert fleet.soc[0] == pytest.approx(0.747059, abs=1e-6)


def test_ev_soc_zero_signal_is_identity():
    objective, fleet = _ev_pair(2)
    fleet.soc = np.array([0.4, 0.9])
    _ev_round(objective, fleet, [3.0, 3.0, 1.5, 1.5], np.zeros(4))
    np.testing.assert_array_equal(fleet.soc, [0.4, 0.9])
    np.testing.assert_array_equal(objective.mean, 0.0)
    assert fleet.saturation_events == 0


def test_ev_soc_clamps_and_counts_saturation():
    objective, fleet = _ev_pair(1, EvParams(capacity_kwh=0.01), step_hours=1.0)
    fleet.soc = np.array([0.99])
    _ev_round(objective, fleet, [3.0, 1.5], [1.0, 0.0])
    assert fleet.soc[0] == 1.0
    assert fleet.saturation_events == 1


def test_ev_block_step_matches_row_by_row_steps_bitwise():
    # Long steps on a small battery make vehicles saturate at both ends of [0, 1].
    params, n = EvParams(capacity_kwh=2.0), 6
    fleet, by_row = EvFleet(params, n, step_hours=0.5), EvFleet(params, n, step_hours=0.5)
    rng = np.random.default_rng(17)
    responses = np.hstack([3.0 + rng.uniform(-1, 1, (40, n)), 1.5 + rng.uniform(-1, 1, (40, n))])
    signals = np.hstack([rng.uniform(0, 1, (40, n)), -rng.uniform(0, 1, (40, n))])
    rows = [by_row.step(mu, c)[0].copy() for mu, c in zip(signals, responses)]
    block = fleet.step(signals, responses)
    assert block.shape == (40, n)
    assert block.tobytes() == np.array(rows).tobytes()
    assert fleet.soc.tobytes() == by_row.soc.tobytes()
    assert fleet.saturation_events == by_row.saturation_events > 0
    assert (block == 0.0).any() and (block == 1.0).any()
    # The states are those of each round's weighted signal, clamped row by row.
    soc, saturations = np.full(n, 0.75), 0
    for j, (mu, c) in enumerate(zip(signals, responses)):
        raw = soc + (0.5 / params.capacity_kwh) * weighted_signal(params, c[:n], c[n:], mu[:n], mu[n:])
        soc = np.clip(raw, 0.0, 1.0)
        saturations += int(np.count_nonzero(raw != soc))
        assert block[j].tobytes() == soc.tobytes()
    assert fleet.saturation_events == saturations


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
        objective.advance(signal)
        fleet.step(signal, responses)
    np.testing.assert_allclose(objective.mean, np.mean(terms, axis=0), atol=1e-12)
    assert objective.rounds == 60
    assert np.all(fleet.soc >= 0.0) and np.all(fleet.soc <= 1.0)


# --- EV loss and gradient ---------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, 30.0])
def test_ev_objective_reuses_its_weighted_signal(rho):
    params = EvParams()
    objective = WeightedChargeObjective(3, rho, params)
    with pytest.raises(ValueError):
        objective.advance(np.zeros(6))  # no round was scored yet
    rng = np.random.default_rng(21)
    mean = np.zeros(3)
    for k in range(20):
        responses = np.concatenate([3.0 + rng.uniform(-1, 1, 3), 1.5 + rng.uniform(-1, 1, 3)])
        signal = np.concatenate([rng.uniform(0, 1, 3), -rng.uniform(0, 1, 3)])
        objective.value_and_gradient(1.0, responses, signal)
        objective.advance(signal)
        weighted = weighted_signal(params, responses[:3], responses[3:], signal[:3], signal[3:])
        mean = (k * mean + weighted) / (k + 1)
        assert objective.mean.tobytes() == mean.tobytes()
        with pytest.raises(ValueError):
            objective.advance(signal)  # each scored round advances once


def _reference_ev_round(params, rho, mean, rounds, setpoint, responses, signal):
    """Loss, gradient and next weighted mean by the per-block formulas, one pass per operation."""
    n = responses.shape[0] // 2
    c_c, c_d, mu_c, mu_d = responses[:n], responses[n:], signal[:n], signal[n:]
    term = weighted_signal(params, c_c, c_d, mu_c, mu_d)
    err = float(setpoint) - float(c_c @ mu_c) - float(c_d @ mu_d)
    grad_c = -2.0 * c_c * err
    grad_d = -2.0 * c_d * err
    cand = (rounds * mean + term) / (rounds + 1)
    loss = err * err
    if rho != 0.0:
        loss = err * err + rho * float(cand @ cand)
        t = rounds + 1
        grad_c = grad_c + (2.0 * rho / t) * (params.inj_eff * c_c) * cand
        grad_d = grad_d + (2.0 * rho / t) * (c_d / params.ext_eff) * cand
    return loss, np.concatenate([grad_c, grad_d]), cand


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_objective_matches_the_per_block_formulas_bitwise(rho):
    params = EvParams(inj_eff=0.9, ext_eff=0.8)
    n = 7
    objective = WeightedChargeObjective(n, rho, params)
    mean, rounds = np.zeros(n), 0
    rng = np.random.default_rng(33)
    for _ in range(40):
        responses = np.concatenate([3.0 + rng.uniform(-1, 1, n), 1.5 + rng.uniform(-1, 1, n)])
        signal = np.concatenate([rng.uniform(0, 1, n), -rng.uniform(0, 1, n)])
        setpoint = rng.uniform(-40, 40)
        loss, grad = objective.value_and_gradient(setpoint, responses, signal)
        objective.advance(signal)
        want_loss, want_grad, mean = _reference_ev_round(params, rho, mean, rounds, setpoint, responses, signal)
        rounds += 1
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        assert objective.mean.tobytes() == mean.tobytes()
        assert objective.rounds == rounds


def _ev_loss_and_gradient(s, c_c, c_d, mu_c, mu_d, rho, wm, params):
    """The objective's loss and its two block gradients, with (weighted mean, rounds) ``wm`` so far."""
    objective = WeightedChargeObjective(len(c_c), rho, params)
    objective.mean, objective.rounds = wm
    loss, grad = objective.value_and_gradient(s, np.concatenate([c_c, c_d]), np.concatenate([mu_c, mu_d]))
    return loss, grad[: len(c_c)], grad[len(c_c) :]


def test_ev_loss_zero_case():
    params = EvParams()
    loss, g_c, g_d = _ev_loss_and_gradient(
        0.0, np.array([3.0]), np.array([1.5]), np.array([0.0]), np.array([0.0]),
        0.0, (np.zeros(1), 0), params,
    )
    assert loss == 0.0
    np.testing.assert_array_equal(g_c, 0.0)
    np.testing.assert_array_equal(g_d, 0.0)


def test_ev_loss_rejects_sign_violations():
    params = EvParams()
    with pytest.raises(ValueError):
        _ev_loss_and_gradient(0.0, np.array([3.0]), np.array([1.5]),
                              np.array([-0.2]), np.array([0.0]), 0.0, (np.zeros(1), 0), params)
    with pytest.raises(ValueError):
        _ev_loss_and_gradient(0.0, np.array([3.0]), np.array([1.5]),
                              np.array([0.2]), np.array([0.5]), 0.0, (np.zeros(1), 0), params)


EV_EDGES = [  # (stacked index, the signal at its block's edge widened by 1e-9, the way out)
    pytest.param(0, -1e-9, -np.inf, r"^charging signals must lie in \[0, 1\]$", id="charge-low"),
    pytest.param(1, 1 + 1e-9, np.inf, r"^charging signals must lie in \[0, 1\]$", id="charge-high"),
    pytest.param(2, 1e-9, np.inf, r"^discharging signals must lie in \[-1, 0\]$", id="discharge-high"),
    pytest.param(3, -1 - 1e-9, -np.inf, r"^discharging signals must lie in \[-1, 0\]$", id="discharge-low"),
]


@pytest.mark.parametrize("index,edge,outward,message", EV_EDGES)
def test_ev_stacked_check_keeps_each_blocks_edges(monkeypatch, index, edge, outward, message):
    # The objective checks the stacked signal once against the decision box widened by 1e-9;
    # a signal on an edge passes that check, one a float beyond it fails with its block's message.
    per_block = []
    original = loads._check_ev_signals
    monkeypatch.setattr(loads, "_check_ev_signals", lambda *blocks: per_block.append(1) or original(*blocks))
    responses = np.array([3.0, 3.0, 1.5, 1.5])
    signal = np.array([0.5, 0.5, -0.5, -0.5])
    signal[index] = edge
    WeightedChargeObjective(2, 5.0, EvParams()).value_and_gradient(1.0, responses, signal)
    assert per_block == []
    signal[index] = np.nextafter(edge, outward)
    with pytest.raises(ValueError, match=message):
        WeightedChargeObjective(2, 5.0, EvParams()).value_and_gradient(1.0, responses, signal)
    assert per_block == [1]


def test_ev_stacked_check_names_the_charging_block_first():
    objective = WeightedChargeObjective(2, 0.0, EvParams())
    with pytest.raises(ValueError, match=r"^charging signals must lie in \[0, 1\]$"):
        objective.value_and_gradient(1.0, np.ones(4), np.array([0.5, 1.5, 0.5, -0.5]))


def test_ev_decision_box_is_the_scenarios_box():
    box = ev_decision_box(3)
    assert box.lo.tolist() == [0.0, 0.0, 0.0, -1.0, -1.0, -1.0]
    assert box.hi.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    scenario_box = ScenarioConfig(scenario="ev", n_loads=3).decision_box()
    assert (scenario_box.lo.tobytes(), scenario_box.hi.tobytes()) == (box.lo.tobytes(), box.hi.tobytes())


def _ev_loss_only(s, c_c, c_d, mu_c, mu_d, rho, wm, params):
    loss, _, _ = _ev_loss_and_gradient(s, c_c, c_d, mu_c, mu_d, rho, wm, params)
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
        wm = (rng.uniform(-1, 1, size=n), t_prev)
        _, g_c, g_d = _ev_loss_and_gradient(s, c_c, c_d, mu_c, mu_d, rho, wm, params)
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
        wm = (rng.uniform(-1, 1, size=n), int(rng.integers(0, 5)))
        xc, yc = rng.uniform(0, 1, size=(2, n))
        xd, yd = -rng.uniform(0, 1, size=(2, n))
        mid = _ev_loss_only(s, c_c, c_d, (xc + yc) / 2, (xd + yd) / 2, rho, wm, params)
        ends = (_ev_loss_only(s, c_c, c_d, xc, xd, rho, wm, params)
                + _ev_loss_only(s, c_c, c_d, yc, yd, rho, wm, params)) / 2
        assert mid <= ends + 1e-9
