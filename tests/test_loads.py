"""Fleet model tests: TCL thermal behavior, EV batteries, noise sampling."""

import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from loadtrack.harness import ScenarioConfig, run_trial
from loadtrack.loads import (
    EvFleet,
    EvParams,
    InfeasibleLoadError,
    NoiseSpec,
    STEADY_DUTY_WINDOW,
    SignalRangeError,
    TclFleet,
    TclRanges,
    WeightedChargeObjective,
    ev_decision_box,
    sample_truncated_gaussian,
    steady_duty,
    tcl_fleet_init,
    weighted_signal,
)


# --- TCL steady state ---------------------------------------------------------


def _one_tcl(desired_temp, step_hours=1.0 / 12.0, ambient=30.0):
    """One load with R=2, C=10, P_R=10, COP=2.5 at 30 C ambient: m_bar = (30 - desired) / 20."""
    return TclFleet(np.array([2.0]), np.array([10.0]), np.array([10.0]), np.array([2.5]),
                    np.array([desired_temp]), ambient, step_hours)


def test_steady_control_hand_values():
    fleet = _one_tcl(25.0)
    assert fleet.m_bar[0] == pytest.approx(0.25)
    assert fleet.unit_power[0] == pytest.approx(4.0)
    assert fleet.response_base[0] == pytest.approx(1.0)


def test_steady_control_infeasible_at_boundary():
    with pytest.raises(InfeasibleLoadError):
        _one_tcl(30.0)  # theta_d == theta_a


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
def test_fleet_trajectories_step_the_tracked_loads_as_the_whole_fleet_does(k):
    fleet, signals = _clip_active_fleet_and_signals()
    # The responses do not enter the thermal model.
    tracked = fleet.trajectories(signals, None, k, np.empty(len(signals)))
    whole = fleet.step(signals)
    assert tracked.tobytes() == np.ascontiguousarray(whole[:, :k]).tobytes()


@pytest.mark.parametrize("name", ["draw_responses", "trajectories", "simultaneous", "objective"])
def test_both_fleets_give_a_trial_the_same_operation(name):
    # run_trial calls each of these on either fleet without asking which it holds.
    tcl, ev = (inspect.signature(getattr(cls, name)).parameters for cls in (TclFleet, EvFleet))
    assert list(tcl.items()) == list(ev.items())


def _fleet(kind, n):
    return tcl_fleet_init(n, np.random.default_rng(3)) if kind == "tcl" else EvFleet(EvParams(), n)


@pytest.mark.parametrize("kind", ["tcl", "ev"])
@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(mean=0.1, sd=1.0, lo=-0.3, hi=0.6)],
                         ids=["default", "redraws"])
def test_each_fleet_draws_its_base_plus_noise_bitwise(kind, noise):
    # The base is added into the sampled block in place; the bits are those of base + sample.
    n, rows = 7, 11
    fleet, rng = _fleet(kind, n), np.random.default_rng(4)
    got = fleet.draw_responses(noise, np.random.default_rng(4), rows)
    if kind == "tcl":
        want = fleet.response_base + noise.sample(rng, size=(rows, n))
    else:  # the charge half is drawn first
        charge = fleet.response_base[:n] + noise.sample(rng, size=(rows, n))
        want = np.hstack([charge, fleet.response_base[n:] + noise.sample(rng, size=(rows, n))])
    assert got.shape == want.shape == (rows, fleet.box.dim)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,n,bound", [("tcl", 1000, 1.35), ("ev", 500, 1.75)])
def test_the_response_draw_makes_one_block(kind, n, bound):
    # A second response-sized block for adding the base would read 2 blocks or more.
    fleet, noise = _fleet(kind, n), NoiseSpec()
    fleet.draw_responses(noise, np.random.default_rng(0), 600)  # one-off allocations happen outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        block = fleet.draw_responses(noise, np.random.default_rng(0), 600)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound * block.nbytes, f"peak {peak / block.nbytes:.2f} blocks"


def test_untracked_trajectories_check_every_row_and_step_nothing(monkeypatch):
    fleet, signals = _clip_active_fleet_and_signals()
    monkeypatch.setattr(TclFleet, "step", lambda self, block: pytest.fail("a load was stepped"))
    assert fleet.trajectories(signals, None, 0, np.empty(len(signals))).shape == (len(signals), 0)
    signals[2, -1] = 1.5
    with pytest.raises(SignalRangeError) as err:
        fleet.trajectories(signals, None, 0, np.empty(len(signals)))
    assert err.value.row == 2


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


CHARGE_RANGE = r"^adjustment signals must lie in \[0, 1\]$"
DISCHARGE_RANGE = r"^adjustment signals must lie in \[-1, 0\]$"


def _ev_step_rejects(fleet, signals, message, row):
    """Step ``fleet`` over a bad block: it must name ``row`` and the range, and leave the state alone."""
    soc = fleet.soc.copy()
    responses = np.hstack([np.full((len(signals), fleet.n_vehicles), 3.0),
                           np.full((len(signals), fleet.n_vehicles), 1.5)])
    with pytest.raises(SignalRangeError, match=message) as info:
        fleet.step(signals, responses, np.empty(len(signals)))
    assert info.value.row == row
    assert fleet.soc.tobytes() == soc.tobytes()
    assert fleet.saturation_events == 0


@pytest.mark.parametrize("index,message", [
    (0, CHARGE_RANGE),
    (2, CHARGE_RANGE),
    (3, DISCHARGE_RANGE),
    (5, DISCHARGE_RANGE),
])
def test_ev_fleet_rejects_a_nan_signal(index, message):
    signals = np.tile([0.5, 0.5, 0.5, -0.5, -0.5, -0.5], (4, 1))
    signals[2, index] = NAN
    _ev_step_rejects(EvFleet(EvParams(), 3), signals, message, row=2)


def test_ev_fleet_rejects_the_block_that_once_left_a_nan_charge():
    # Unchecked, this row gave a NaN state of charge and one counted saturation.
    _ev_step_rejects(EvFleet(EvParams(), 3), np.array([[5.0, NAN, 0.5, -7.0, -0.5, -0.5]]),
                     CHARGE_RANGE, row=0)


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


@pytest.mark.parametrize("given", [
    pytest.param({"resistance_lo": 2.5, "resistance_hi": 1.5}, id="resistance-reversed"),
    pytest.param({"setpoint_lo": 26.0}, id="setpoint-reversed"),
    pytest.param({"capacitance_lo": -2.0, "capacitance_hi": -1.0}, id="capacitance-negative"),
    pytest.param({"power_lo": 0.0}, id="power-zero"),
    pytest.param({"cop_lo": NAN}, id="cop-nan"),
    pytest.param({"setpoint_hi": NAN}, id="setpoint-nan"),
])
def test_tcl_ranges_reject_a_reversed_or_nonpositive_range(given):
    with pytest.raises(ValueError, match="^TCL "):
        TclRanges(**given)


def test_steady_control_rejects_a_nan_duty():
    with pytest.raises(InfeasibleLoadError):
        _one_tcl(25.0, ambient=NAN)


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


def test_a_large_healthy_block_draws_past_the_absolute_budget(monkeypatch):
    # A 1600 x 2000 block at 68% acceptance rejects about 1.5 million draws, more than
    # MAX_REJECTIONS; the same ratio at a thousandth of the size, with a thousandth of the budget.
    import loadtrack.loads as loads_module

    monkeypatch.setattr(loads_module, "MAX_REJECTIONS", 1000)
    block = sample_truncated_gaussian(0.0, 1.0, -1.0, 1.0, np.random.default_rng(0), size=(40, 80))
    expected, passes = _reference_truncated_gaussian(0.0, 1.0, -1.0, 1.0, np.random.default_rng(0), size=(40, 80))
    assert passes > 1
    assert block.tobytes() == expected.tobytes()


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


def _five_call_fleet_params(n_loads, rng, ranges, ambient):
    """Reference sampler: one uniform call per parameter and pass. Returns the (5, n) parameters and the passes."""
    params, pending, passes = np.empty((5, n_loads)), np.arange(n_loads), 0
    bounds = dataclasses.astuple(ranges)
    while pending.size:
        passes += 1
        r, c, p, q, d = (rng.uniform(lo, hi, size=pending.size) for lo, hi in zip(bounds[::2], bounds[1::2]))
        duty = (ambient - d) / (p * r)
        ok = (duty > STEADY_DUTY_WINDOW[0]) & (duty < STEADY_DUTY_WINDOW[1])
        for row, draw in zip(params, (r, c, p, q, d)):
            row[pending[ok]] = draw[ok]
        pending = pending[~ok]
    return params, passes


@pytest.mark.parametrize("n_loads", [1, 7, 1000])
def test_fleet_init_draws_the_five_call_stream_bitwise(n_loads):
    # Setpoints down to -20 C put most duties above the window, so every fleet takes several passes.
    ranges, seed = TclRanges(setpoint_lo=-20.0, setpoint_hi=29.0), 1
    expected, passes = _five_call_fleet_params(n_loads, np.random.default_rng(seed), ranges, 30.0)
    assert passes >= 3
    fleet = tcl_fleet_init(n_loads, np.random.default_rng(seed), ranges, 30.0)
    got = (fleet.resistance, fleet.capacitance, fleet.rated_power, fleet.cop, fleet.desired_temp)
    for want, have in zip(expected, got):
        assert have.tobytes() == want.tobytes()


def test_steady_duty_at_the_range_corners_spans_what_ambient_10_reports():
    tr = TclRanges()
    corners = [steady_duty(r, p, d, 10.0) for r, p, d in itertools.product(
        (tr.resistance_lo, tr.resistance_hi), (tr.power_lo, tr.power_hi), (tr.setpoint_lo, tr.setpoint_hi))]
    assert len(corners) == 8
    assert (min(corners), max(corners)) == (-1.0, -10.0 / 45.0)
    assert f"[{min(corners):.4g}, {max(corners):.4g}]" == "[-1, -0.2222]"


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


def test_ev_fleet_states_its_response_model():
    fleet = EvFleet(EvParams(charge_rate_kw=4.0, discharge_rate_kw=2.5), 3)
    np.testing.assert_array_equal(fleet.response_base, [4.0, 4.0, 4.0, 2.5, 2.5, 2.5])
    assert fleet.baseline_power() == 0.0


def _ev_round(fleet, responses, signal) -> float:
    """Step the fleet over one played row; return the norm of the weighted mean after it."""
    norm = np.empty(1)
    fleet.step(np.asarray(signal, dtype=float), np.asarray(responses, dtype=float), norm)
    return float(norm[0])


def test_ev_soc_step_charging_hand_value():
    fleet = EvFleet(EvParams(), 1)
    mean_norm = _ev_round(fleet, [3.0, 1.5], [1.0, 0.0])
    assert fleet.soc[0] == pytest.approx(0.75425, abs=1e-9)
    assert mean_norm == pytest.approx(0.85 * 3.0)  # one round: the mean is its weighted signal
    assert fleet.saturation_events == 0


def test_ev_soc_step_discharging_hand_value():
    fleet = EvFleet(EvParams(), 1)
    _ev_round(fleet, [3.0, 1.5], [0.0, -1.0])
    assert fleet.soc[0] == pytest.approx(0.75 - (1.5 / 0.85) / 600.0, abs=1e-9)
    assert fleet.soc[0] == pytest.approx(0.747059, abs=1e-6)


def test_ev_soc_zero_signal_is_identity():
    fleet = EvFleet(EvParams(), 2)
    fleet.soc = np.array([0.4, 0.9])
    assert _ev_round(fleet, [3.0, 3.0, 1.5, 1.5], np.zeros(4)) == 0.0
    np.testing.assert_array_equal(fleet.soc, [0.4, 0.9])
    assert fleet.saturation_events == 0


def test_ev_soc_clamps_and_counts_saturation():
    fleet = EvFleet(EvParams(capacity_kwh=0.01), 1, step_hours=1.0)
    fleet.soc = np.array([0.99])
    _ev_round(fleet, [3.0, 1.5], [1.0, 0.0])
    assert fleet.soc[0] == 1.0
    assert fleet.saturation_events == 1


def test_ev_block_step_matches_row_by_row_steps_bitwise():
    # Long steps on a small battery make vehicles saturate at both ends of [0, 1].
    params, n = EvParams(capacity_kwh=2.0), 6
    fleet, by_row = EvFleet(params, n, step_hours=0.5), EvFleet(params, n, step_hours=0.5)
    rng = np.random.default_rng(17)
    responses = np.hstack([3.0 + rng.uniform(-1, 1, (40, n)), 1.5 + rng.uniform(-1, 1, (40, n))])
    signals = np.hstack([rng.uniform(0, 1, (40, n)), -rng.uniform(0, 1, (40, n))])
    rows = [by_row.step(mu, c, np.empty(1))[0].copy() for mu, c in zip(signals, responses)]
    block = fleet.step(signals, responses, np.empty(40))
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


@pytest.mark.parametrize("rows", [0, 70])
@pytest.mark.parametrize("track", [0, 1, 6, 8])
def test_ev_step_keeps_the_first_track_columns_of_the_whole_fleet_step_bitwise(track, rows):
    # Every vehicle still steps, clamps and counts its saturations, across a slab edge too;
    # only the stored columns change, and a track past the fleet keeps every vehicle.
    params, n = EvParams(capacity_kwh=2.0), 6
    rng = np.random.default_rng(19)
    responses = np.hstack([3.0 + rng.uniform(-1, 1, (rows, n)), 1.5 + rng.uniform(-1, 1, (rows, n))])
    signals = np.hstack([rng.uniform(0, 1, (rows, n)), -rng.uniform(0, 1, (rows, n))])
    whole, kept = EvFleet(params, n, step_hours=0.5), EvFleet(params, n, step_hours=0.5)
    whole_norm, kept_norm = np.full(rows, np.nan), np.full(rows, np.nan)
    every = whole.step(signals, responses, whole_norm)
    socs = kept.step(signals, responses, kept_norm, track)
    assert every.shape == (rows, n) and socs.shape == (rows, min(track, n))
    assert socs.tobytes() == every[:, :track].tobytes()
    assert kept_norm.tobytes() == whole_norm.tobytes() and not np.isnan(kept_norm).any()
    assert kept.soc.tobytes() == whole.soc.tobytes()
    assert kept.saturation_events == whole.saturation_events
    assert (whole.saturation_events > 0) == (rows > 0)


@pytest.mark.parametrize("shape", [(6,), (4, 2)])
def test_ev_step_rejects_a_response_block_of_another_shape(shape):
    fleet = EvFleet(EvParams(), 3)
    signals = np.tile([0.5, 0.5, 0.5, -0.5, -0.5, -0.5], (4, 1))
    with pytest.raises(ValueError, match=r"response block has shape \(\d+, \d+\), played block has shape \(4, 6\)"):
        fleet.step(signals, np.ones(shape), np.empty(4))
    assert fleet.soc.tolist() == [0.75] * 3 and fleet.saturation_events == 0


def test_ev_objective_weighted_mean_matches_batch():
    params = EvParams()
    objective = WeightedChargeObjective(4, 30.0, params)
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
        objective.advance()
        fleet.step(signal, responses, np.empty(1))
    np.testing.assert_allclose(objective.mean, np.mean(terms, axis=0), atol=1e-12)
    assert objective.rounds == 60
    assert np.all(fleet.soc >= 0.0) and np.all(fleet.soc <= 1.0)


# --- EV loss and gradient ---------------------------------------------------------


def test_ev_objective_commits_its_weighted_signal():
    params = EvParams()
    objective = WeightedChargeObjective(3, 30.0, params)
    rng = np.random.default_rng(21)
    mean = np.zeros(3)
    for k in range(20):
        responses = np.concatenate([3.0 + rng.uniform(-1, 1, 3), 1.5 + rng.uniform(-1, 1, 3)])
        signal = np.concatenate([rng.uniform(0, 1, 3), -rng.uniform(0, 1, 3)])
        objective.value_and_gradient(1.0, responses, signal)
        objective.advance()
        weighted = weighted_signal(params, responses[:3], responses[3:], signal[:3], signal[3:])
        mean = (k * mean + weighted) / (k + 1)
        assert objective.mean.tobytes() == mean.tobytes()
        with pytest.raises(RuntimeError, match="none is pending"):
            objective.advance()  # each scored round advances once


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
        want_loss, want_grad, cand = _reference_ev_round(params, rho, mean, rounds, setpoint, responses, signal)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        if rho:  # a tracker advances only an objective whose loss reads the mean
            objective.advance()
            mean, rounds = cand, rounds + 1
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


def test_fleets_reject_a_block_of_the_wrong_width():
    # Each would broadcast: one TCL signal column to every load, two EV columns to four.
    tcl, ev = tcl_fleet_init(3, np.random.default_rng(1)), EvFleet(EvParams(), 2)
    with pytest.raises(ValueError, match="length 1, expected 3"):
        tcl.step(np.full((2, 1), 0.5))
    with pytest.raises(ValueError, match="length 2, expected 4"):
        ev.step(np.full((2, 2), 0.5), np.full((2, 4), 3.0), np.empty(2))
    assert ev.soc.tolist() == [0.75, 0.75]


def test_ev_fleet_rejects_sign_violations_that_the_objective_scores():
    # Like the TCL objective, the EV objective scores any signal; the fleet step rejects it.
    params = EvParams()
    for signal, message in (([-0.2, 0.0], CHARGE_RANGE), ([0.2, 0.5], DISCHARGE_RANGE)):
        loss, g_c, g_d = _ev_loss_and_gradient(0.0, np.array([3.0]), np.array([1.5]), np.array(signal[:1]),
                                               np.array(signal[1:]), 0.0, (np.zeros(1), 0), params)
        assert np.isfinite([loss, *g_c, *g_d]).all()
        _ev_step_rejects(EvFleet(params, 1), np.array([signal]), message, row=0)


EV_EDGES = [  # (stacked index, the signal at its block's edge widened by 1e-9, the way out)
    pytest.param(0, -1e-9, -np.inf, CHARGE_RANGE, id="charge-low"),
    pytest.param(1, 1 + 1e-9, np.inf, CHARGE_RANGE, id="charge-high"),
    pytest.param(2, 1e-9, np.inf, DISCHARGE_RANGE, id="discharge-high"),
    pytest.param(3, -1 - 1e-9, -np.inf, DISCHARGE_RANGE, id="discharge-low"),
]


@pytest.mark.parametrize("index,edge,outward,message", EV_EDGES)
def test_ev_fleet_check_keeps_each_blocks_edges(index, edge, outward, message):
    # The fleet checks the stacked block against its decision box widened by 1e-9; a signal on an
    # edge passes, one a float beyond it fails naming its block's range.
    responses = np.array([[3.0, 3.0, 1.5, 1.5]] * 2)
    signals = np.array([[0.5, 0.5, -0.5, -0.5]] * 2)
    signals[1, index] = edge
    EvFleet(EvParams(), 2).step(signals, responses, np.empty(2))
    signals[1, index] = np.nextafter(edge, outward)
    _ev_step_rejects(EvFleet(EvParams(), 2), signals, message, row=1)


def test_ev_fleet_check_names_the_first_bad_signal_of_the_first_bad_row():
    signals = np.array([
        [0.5, 0.5, -0.5, -0.5],
        [0.5, 1.5, 0.5, -0.5],   # charging and discharging both out: the charging one comes first
        [-1.0, 0.5, -0.5, -0.5],
    ])
    _ev_step_rejects(EvFleet(EvParams(), 2), signals, CHARGE_RANGE, row=1)
    signals[1, 1] = 0.5
    _ev_step_rejects(EvFleet(EvParams(), 2), signals, DISCHARGE_RANGE, row=1)


def test_ev_decision_box_is_the_fleets_box():
    box = ev_decision_box(3)
    assert box.lo.tolist() == [0.0, 0.0, 0.0, -1.0, -1.0, -1.0]
    assert box.hi.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    fleet_box = EvFleet(EvParams(), 3).box
    trial_box = run_trial(ScenarioConfig(scenario="ev", n_loads=3, rounds=4)).box
    for other in (fleet_box, trial_box):
        assert (other.lo.tobytes(), other.hi.tobytes()) == (box.lo.tobytes(), box.hi.tobytes())


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
