"""Closed-loop harness tests: channels, determinism, regret, metrics."""

import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from loadtrack import harness, loads
from loadtrack.algorithms import AggregateFeedback, FullFeedback, PartialFeedback, QuadraticTrackingObjective
from loadtrack.core import SLAB_ROWS, Box, ConfigError, UnsupportedBoxError, conservative_bounds
from loadtrack.harness import (
    ScenarioConfig,
    SetpointSpec,
    comparator_round_losses,
    compute_metrics,
    empirical_regret,
    feedback_channel,
    full_info_regret_bound,
    hindsight_optimum,
    improvement_pct,
    make_setpoint,
    per_round_reduction_pct,
    run_experiment,
    run_trial,
    simultaneity_pct,
)
from loadtrack.loads import (
    NoiseSpec,
    TclRanges,
    WeightedChargeObjective,
    running_mean_weights,
    weighted_signal,
)


# --- setpoints -----------------------------------------------------------------


def test_setpoint_tcl_values():
    spec = harness.SCENARIO_DEFAULTS["tcl"]["setpoint"]
    assert make_setpoint(spec, 0) == pytest.approx(155.0)
    series = make_setpoint(spec, np.arange(1, 2001))
    assert series.min() >= 140.0 and series.max() <= 170.0


def test_setpoint_ev_zero_crossing():
    spec = harness.SCENARIO_DEFAULTS["ev"]["setpoint"]
    assert make_setpoint(spec, 0) == pytest.approx(0.0)


# --- feedback channel -------------------------------------------------------------


def test_channel_full_reveals_vector():
    obs = feedback_channel("full", np.array([1.0, 2.0]), 3.0, np.array([0.1, 0.2]))
    assert isinstance(obs, FullFeedback)
    np.testing.assert_array_equal(obs.responses, [1.0, 2.0])
    assert obs.setpoint == 3.0


def test_channel_aggregate_reveals_one_scalar():
    obs = feedback_channel("aggregate", np.array([1.0, 2.0]), 3.0, np.array([0.5, 0.5]))
    assert isinstance(obs, AggregateFeedback)
    assert obs.total == pytest.approx(1.5)
    assert not any(isinstance(getattr(obs, f.name), np.ndarray) for f in dataclasses.fields(obs))


def test_channel_partial_reveals_exact_subset():
    responses = np.arange(12, dtype=float)
    obs = feedback_channel("partial", responses, 0.0, np.ones(12), observed=10)
    assert isinstance(obs, PartialFeedback)
    assert obs.observed.shape == (10,)
    np.testing.assert_array_equal(obs.observed, responses[-10:])


def test_channel_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown feedback channel kind 'adaptive'"):
        feedback_channel("adaptive", np.ones(3), 0.0, np.zeros(3))


@pytest.mark.parametrize("observed", [None, 0, 3])
def test_channel_partial_needs_a_valid_observed_count(observed):
    with pytest.raises(ConfigError, match="observed count"):
        feedback_channel("partial", np.ones(3), 0.0, np.zeros(3), observed=observed)


# --- configuration ------------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="hydro").resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(feedback="gossip").resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="ev", feedback="bandit").resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(feedback="partial", n_loads=10, observed=10).resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(feedback="partial", observed=10, rho=1.0).resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(trials=0).resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(rounds=3).resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1).resolved()
    with pytest.raises(ConfigError):
        ScenarioConfig(feedback="bernoulli", rounds=8, bernoulli_a=7.6).resolved()
    for scenario in ("tcl", "ev"):
        with pytest.raises(ConfigError, match="step_hours must be positive"):
            ScenarioConfig(scenario=scenario, step_hours=-1.0).resolved()


def test_config_admits_a_steady_duty_window_entered_by_one_float():
    # Degenerate ranges make every load's duty (ambient - 20) / (10 * 2) exactly: 0.05 at ambient 21 and
    # 0.95 at 39, the ends of the open window, which validate rejects; one float inside, the fleet is sampled.
    ranges = TclRanges(resistance_lo=2.0, resistance_hi=2.0, power_lo=10.0, power_hi=10.0,
                       setpoint_lo=20.0, setpoint_hi=20.0)
    for edge, toward in ((21.0, math.inf), (39.0, -math.inf)):
        with pytest.raises(ConfigError, match=r"outside \(0\.05, 0\.95\)"):
            ScenarioConfig(tcl_ranges=ranges, ambient=edge).resolved()
        inside = float(np.nextafter(edge, toward))
        trial = run_trial(ScenarioConfig(tcl_ranges=ranges, ambient=inside, n_loads=3, rounds=4))
        assert np.isfinite(trial.ledger.objective).all()


NAN = float("nan")


@pytest.mark.parametrize("overrides,error", [
    pytest.param(lambda: {"lam": NAN}, ConfigError, id="lam-nan"),
    pytest.param(lambda: {"rho": NAN}, ConfigError, id="rho-nan"),
    pytest.param(lambda: {"chi": NAN}, ConfigError, id="chi-nan"),
    pytest.param(lambda: {"step_hours": NAN}, ConfigError, id="step_hours-nan"),
    pytest.param(lambda: {"lam": float("inf")}, ConfigError, id="lam-inf"),
    pytest.param(lambda: {"setpoint": SetpointSpec(NAN, 0.1, 155.0)}, ConfigError, id="setpoint-nan"),
    pytest.param(lambda: {"feedback": "bernoulli", "bernoulli_a": NAN, "rounds": 600}, ConfigError,
                 id="bernoulli_a-nan"),
    pytest.param(lambda: {"ambient": NAN}, ConfigError, id="ambient-nan"),
    # NoiseSpec itself rejects a NaN, so such a config cannot be built at all.
    pytest.param(lambda: {"noise": NoiseSpec(sd=NAN)}, ValueError, id="noise-sd-nan"),
])
def test_config_rejects_non_finite_values(overrides, error):
    with pytest.raises(error, match="finite"):
        run_trial(ScenarioConfig(**{"n_loads": 4, "rounds": 10, **overrides()}))


def test_config_resolves_scenario_defaults():
    cfg = ScenarioConfig(scenario="ev", feedback="full").resolved()
    assert cfg.step_hours == pytest.approx(1.0 / 60.0)
    assert cfg.setpoint.offset == 0.0
    assert cfg.noise.sd == 0.1
    assert cfg.chi == 35.0
    tcl = ScenarioConfig(scenario="tcl", feedback="bandit").resolved()
    assert tcl.step_hours == pytest.approx(1.0 / 12.0)
    assert tcl.chi == 8000.0


@pytest.mark.parametrize("scenario,feedback,setpoint,noise,step_hours,chis", [
    ("tcl", "full", (15.0, 0.1, 155.0), (0.0, 0.5, -1.0, 1.0), 1.0 / 12.0, (60.0, 60.0, 60.0)),
    ("tcl", "bandit", (15.0, 0.1, 155.0), (0.0, 0.5, -1.0, 1.0), 1.0 / 12.0, (8000.0, 8000.0, 8000.0)),
    ("tcl", "partial", (15.0, 0.1, 155.0), (0.0, 0.5, -1.0, 1.0), 1.0 / 12.0, (1.0, 45.0, 8000.0)),
    ("tcl", "bernoulli", (15.0, 0.1, 155.0), (0.0, 0.5, -1.0, 1.0), 1.0 / 12.0, (1.0, 35.0, 8000.0)),
    ("ev", "full", (25.0, 0.1, 0.0), (0.0, 0.1, -1.5, 1.5), 1.0 / 60.0, (35.0, 35.0, 35.0)),
])
def test_every_valid_case_resolves_to_its_scenario_defaults(scenario, feedback, setpoint, noise, step_hours, chis):
    cfg = ScenarioConfig(scenario=scenario, feedback=feedback).resolved()
    assert dataclasses.astuple(cfg.setpoint) == setpoint
    assert dataclasses.astuple(cfg.noise) == noise
    assert cfg.step_hours == step_hours
    assert (cfg.chi, cfg.chi_full, cfg.chi_bandit) == chis


# --- trials ---------------------------------------------------------------------------


def small_cfg(**kw):
    base = dict(scenario="tcl", feedback="full", n_loads=6, rounds=40, trials=2, seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("feedback,extra", [
    ("full", {}),
    ("bandit", {}),
    ("partial", {"observed": 2}),
    ("bernoulli", {"bernoulli_a": 2.0}),
])
def test_run_trial_deterministic_per_regime(feedback, extra):
    cfg = small_cfg(feedback=feedback, **extra)
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    np.testing.assert_array_equal(a.ledger.tracking, b.ledger.tracking)
    np.testing.assert_array_equal(a.ledger.played, b.ledger.played)
    np.testing.assert_array_equal(a.trajectories, b.trajectories)
    c = run_trial(cfg, 1)
    assert not np.array_equal(a.ledger.tracking, c.ledger.tracking)


def test_baseline_identity():
    trial = run_trial(small_cfg(), 0)
    np.testing.assert_array_equal(
        trial.ledger.baseline_tracking, trial.ledger.setpoint_eff ** 2
    )


def test_warmup_rounds_excluded_from_window():
    cfg = small_cfg(feedback="bernoulli", bernoulli_a=2.0)
    trial = run_trial(cfg, 0)
    assert trial.ledger.rounds == cfg.rounds
    assert len(trial.infos) == cfg.rounds
    resolved = cfg.resolved()
    expected = make_setpoint(resolved.setpoint, 1) - trial.baseline_power
    assert trial.ledger.setpoint_eff[0] == pytest.approx(expected)


def test_zero_noise_single_load_converges():
    probe = run_trial(small_cfg(n_loads=1, rounds=10), 0)
    target = SetpointSpec(amplitude=0.3, frequency=0.1, offset=probe.baseline_power + 0.5)
    cfg = small_cfg(
        n_loads=1, rounds=200, trials=1, chi=10.0,
        noise=NoiseSpec(sd=0.0), setpoint=target,
    )
    trial = run_trial(cfg, 0)
    assert trial.ledger.tracking[-1] < 0.01 * trial.ledger.tracking[0]


def test_ledger_objective_recomputable_from_trajectories():
    cfg = small_cfg(feedback="bandit", rho=1.5, lam=0.3, rounds=60)
    trial = run_trial(cfg, 0)
    led = trial.ledger
    mean = np.zeros(led.played.shape[1])
    for j in range(led.rounds):
        mean = (j * mean + led.played[j]) / (j + 1)
        expected = (
            (led.setpoint_eff[j] - led.responses[j] @ led.played[j]) ** 2
            + led.rho_eff * float(mean @ mean)
            + led.lam * float(np.abs(led.played[j]).sum())
        )
        assert led.objective[j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("cfg", [
    pytest.param(small_cfg(feedback="full", rho=1.5, lam=0.3), id="tcl-full"),
    pytest.param(small_cfg(feedback="bandit", rho=1.5, lam=0.3), id="tcl-bandit"),
    pytest.param(small_cfg(feedback="partial", lam=0.3, observed=2), id="tcl-partial"),
    pytest.param(small_cfg(feedback="bernoulli", rho=1.5, lam=0.3, bernoulli_a=2.0,
                           bernoulli_mean_penalty=True), id="tcl-bernoulli-warmup-penalty"),
    # Two warm-up rows, two whole l1 slabs and a partial third.
    pytest.param(small_cfg(feedback="bernoulli", rho=1.5, lam=0.3, bernoulli_a=2.0, bernoulli_mean_penalty=True,
                           rounds=2 * SLAB_ROWS + 3), id="tcl-bernoulli-slabs"),
    pytest.param(ScenarioConfig(scenario="ev", feedback="full", n_loads=5, rounds=30, rho=20.0,
                                lam=3.0, seed=2), id="ev-full"),
])
def test_ledger_l1_and_objective_match_the_per_round_loop_bitwise(cfg):
    led = run_trial(cfg, 0).ledger
    assert led.rho_eff > 0 or cfg.feedback == "partial"
    aggregate, tracking = np.empty(led.rounds), np.empty(led.rounds)
    l1, objective = np.empty(led.rounds), np.empty(led.rounds)
    for j in range(led.rounds):
        aggregate[j] = float(led.responses[j] @ led.played[j])
        err = float(led.setpoint_eff[j]) - aggregate[j]
        tracking[j] = err * err
        l1[j] = float(np.abs(led.played[j]).sum())
        objective[j] = float(led.tracking[j]) + led.rho_eff * float(led.mean_norm[j]) ** 2 + led.lam * l1[j]
    assert led.aggregate.tobytes() == aggregate.tobytes()
    assert led.tracking.tobytes() == tracking.tobytes()
    assert led.l1.tobytes() == l1.tobytes()
    assert led.objective.tobytes() == objective.tobytes()


SLAB_EDGE_ROUNDS = [63, 64, 65, 129]  # one row short of a slab, a whole slab, one row more, two and one


@pytest.mark.parametrize("rounds", SLAB_EDGE_ROUNDS)
@pytest.mark.parametrize("extra", [
    pytest.param({"feedback": "full"}, id="full"),
    pytest.param({"feedback": "full", "rho": 1.5}, id="full-penalty"),
    pytest.param({"feedback": "bandit", "rho": 1.5}, id="bandit-penalty"),
    pytest.param({"feedback": "partial", "observed": 2}, id="partial"),
    *[pytest.param({"feedback": "bernoulli", "rho": 1.5, "bernoulli_a": 2.0, "bernoulli_warmup": warmup,
                    "bernoulli_mean_penalty": penalty}, id=f"bernoulli-warmup-{warmup}-penalty-{penalty}")
      for warmup in (True, False) for penalty in (True, False)],
])
def test_tcl_mean_norm_follows_the_per_row_recurrence_across_slab_edges(rounds, extra):
    # The column is filled after the loop, slab by slab; each cell keeps the bits of the per-row mean.
    ledger = run_trial(small_cfg(rounds=rounds, **extra), 0).ledger
    mean = np.zeros(ledger.played.shape[1])
    for j, played in enumerate(ledger.played):
        mean = (j * mean + played) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)


def test_regret_consistency_with_trajectories():
    cfg = small_cfg(feedback="full", rho=2.0, lam=0.2, rounds=80)
    trial = run_trial(cfg, 0)
    report = empirical_regret(trial.ledger, trial.box)
    comp = comparator_round_losses(
        trial.ledger.responses, trial.ledger.setpoint_eff,
        report.hindsight.signal, trial.ledger.rho_eff, trial.ledger.lam,
    )
    expected = float(trial.ledger.objective.sum() - comp.sum())
    assert report.total == pytest.approx(expected, rel=1e-8)
    assert report.series.shape == (trial.ledger.rounds,)
    # The solve keeps the comparator's round losses it summed, and the regret reuses them.
    assert report.hindsight.losses.tobytes() == comp.tobytes()
    assert report.hindsight.losses.sum() == report.hindsight.value


def test_trial_averaging_is_arithmetic_mean():
    res = run_experiment(small_cfg(trials=4))
    mean = res.mean_summary()
    manual = np.mean([s["improvement_pct"] for s in res.summaries])
    assert mean["improvement_pct"] == pytest.approx(manual, abs=1e-12)


def test_experiment_round_series_average_trials():
    cfg = small_cfg(trials=3)
    res = run_experiment(cfg)
    stack = np.stack([run_trial(cfg, k).ledger.tracking for k in range(3)])
    np.testing.assert_allclose(res.rounds["tracking"], stack.mean(axis=0), atol=1e-12)


def test_run_experiment_releases_each_trial_before_the_next(monkeypatch):
    original = harness.run_trial
    ledgers, alive_at_start = [], []

    def spy(cfg, trial_index):
        alive_at_start.append(sum(ref() is not None for ref in ledgers))
        trial = original(cfg, trial_index)
        ledgers.append(weakref.ref(trial.ledger))
        return trial

    monkeypatch.setattr(harness, "run_trial", spy)
    result = run_experiment(small_cfg(trials=3))
    assert alive_at_start == [0, 0, 0]
    assert sum(ref() is not None for ref in ledgers) == 0
    assert len(result.summaries) == 3


@pytest.mark.parametrize("cfg", [
    pytest.param(small_cfg(trials=3, track_loads=4), id="tcl-full"),
    pytest.param(small_cfg(feedback="bernoulli", bernoulli_a=2.0, trials=2), id="tcl-bernoulli-warmup"),
    pytest.param(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, trials=2), id="ev-full"),
])
def test_experiment_keeps_the_first_trials_trajectories(cfg):
    kept = run_experiment(cfg).trajectories
    first = run_trial(cfg, 0).trajectories
    assert kept.shape == first.shape == (cfg.rounds, min(cfg.track_loads, cfg.n_loads))
    assert kept.dtype == first.dtype
    assert kept.tobytes() == first.tobytes()


@pytest.mark.parametrize("feedback", ["full", "bandit"])
def test_run_experiment_holds_a_few_trial_blocks_at_most(feedback):
    # One block is a (rounds + 2, n) float64 array, the size of one trial's played signals.
    cfg = ScenarioConfig(feedback=feedback, n_loads=400, rounds=100, trials=3, seed=5)
    block = (cfg.rounds + 2) * cfg.n_loads * 8
    run_experiment(dataclasses.replace(cfg, trials=1))  # one-off allocations happen outside the count
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * block, f"peak {peak / block:.2f} blocks"
    assert held <= 0.5 * block, f"held {held / block:.2f} blocks after return"
    assert result.trajectories.shape == (cfg.rounds, cfg.track_loads)


@pytest.mark.parametrize("feedback", ["full", "bernoulli"])
def test_a_trial_peaks_at_its_ledger_blocks_and_little_more(feedback):
    # The response and played blocks are the ledger's; scoring the trial adds no third block.
    cfg = ScenarioConfig(feedback=feedback, n_loads=1000, rounds=600, track_loads=10, seed=5)
    run_trial(cfg, 0)  # one-off allocations happen outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ledger = run_trial(cfg, 0).ledger
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = ledger.played.base.nbytes
    assert ledger.responses.base.nbytes == block == (cfg.rounds + 2 * (feedback == "bernoulli")) * cfg.n_loads * 8
    assert peak - 2 * block < 0.5 * block, f"peak {(peak - 2 * block) / block:.2f} blocks above the ledger's two"


def test_an_ev_trial_peaks_less_than_a_block_above_its_ledger():
    # The states of charge, the weighted running mean and the simultaneity flags are made slab by slab,
    # and only the tracked vehicles' states of charge are stored.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=500, rounds=600, rho=20.0, seed=5)
    run_trial(cfg, 0)  # one-off allocations happen outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ledger = run_trial(cfg, 0).ledger
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = ledger.played.base.nbytes
    assert ledger.responses.nbytes == block == cfg.rounds * 2 * cfg.n_loads * 8
    assert peak - 2 * block < 0.5 * block, f"peak {(peak - 2 * block) / block:.2f} blocks above the ledger's two"


def test_ev_trial_tracks_soc_and_simultaneity():
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=50, trials=1, seed=2)
    trial = run_trial(cfg, 0)
    assert trial.trajectories.shape == (50, 4)
    assert np.all(trial.trajectories >= 0.0) and np.all(trial.trajectories <= 1.0)
    assert trial.ledger.simultaneous.dtype == bool
    assert trial.ledger.ev_params == cfg.ev_params


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_trial_is_the_same_with_regret_on_and_off(rho):
    # The regret reads the ledger after the trial; the trial itself does not depend on it.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=rho, seed=2)
    off = run_trial(cfg, 0)
    on = run_trial(dataclasses.replace(cfg, compute_regret=True), 0)
    for f in dataclasses.fields(off.ledger):
        a, b = getattr(off.ledger, f.name), getattr(on.ledger, f.name)
        assert type(a) is type(b)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name
    assert on.trajectories.tobytes() == off.trajectories.tobytes()
    assert on.saturation_events == off.saturation_events
    assert empirical_regret(off.ledger, off.box).total == empirical_regret(on.ledger, on.box).total


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_round_checks_and_weights_each_signal_once(monkeypatch, rho):
    # One weighting per round and no box check in the round loop; the fleet step checks the
    # played block once and weights it once.
    calls = {}

    def count(owner, name):
        def counting(*args, _original=getattr(owner, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    count(Box, "contains")
    count(loads, "signal_block")
    count(loads, "weighted_signal")
    run_trial(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=rho), 0)
    # At rho = 0 the objective weighs nothing, so only the fleet step's one slab is weighed.
    assert calls == {"signal_block": 1, "weighted_signal": 31 if rho else 1}


@pytest.mark.parametrize("scenario,feedback,rho,penalty,advances", [
    ("tcl", "full", 0.0, False, 0),
    ("tcl", "bandit", 0.0, False, 0),
    ("tcl", "partial", 0.0, False, 0),
    ("tcl", "bernoulli", 0.0, True, 0),
    ("tcl", "bernoulli", 5.0, False, 0),  # the Bernoulli tracker drops the penalty unless told to keep it
    ("ev", "full", 0.0, False, 0),
    ("tcl", "full", 5.0, False, 20),
    ("tcl", "bandit", 5.0, False, 20),
    ("tcl", "bernoulli", 5.0, True, 20),  # the two warm-up rounds are scored but never committed
    ("ev", "full", 5.0, False, 20),
])
def test_a_trial_advances_its_objective_once_per_round_only_under_a_mean_penalty(
        monkeypatch, scenario, feedback, rho, penalty, advances):
    calls = []

    def counting(self, _original=QuadraticTrackingObjective.advance):
        calls.append(type(self))
        return _original(self)

    monkeypatch.setattr(QuadraticTrackingObjective, "advance", counting)
    cfg = ScenarioConfig(scenario=scenario, feedback=feedback, n_loads=6, observed=2, rounds=20, rho=rho,
                         bernoulli_a=1.0, bernoulli_mean_penalty=penalty, bernoulli_warmup=True, seed=3)
    run_trial(cfg, 0)
    assert len(calls) == advances
    assert "advance" not in vars(WeightedChargeObjective)  # the EV objective commits through the base class


@pytest.mark.parametrize("rounds", [*SLAB_EDGE_ROUNDS, 80])
@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_fleet_steps_by_the_per_round_weighted_signals_bitwise(rho, rounds):
    # Long steps make vehicles saturate, so the clamp and its count are exercised, across slab edges too.
    # The running weighted mean and the simultaneity flags are scored in the same slabs.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=6, rounds=rounds, rho=rho,
                         step_hours=0.5, seed=4, track_loads=6)
    trial = run_trial(cfg, 0)
    ledger, ev, n = trial.ledger, cfg.ev_params, cfg.n_loads
    mean, soc = np.zeros(n), np.full(n, 0.75)
    saturations = 0
    for j, (resp, played) in enumerate(zip(ledger.responses, ledger.played)):
        term = weighted_signal(ev, resp[:n], resp[n:], played[:n], played[n:])
        mean = (j * mean + term) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)
        raw = soc + (cfg.step_hours / ev.capacity_kwh) * term
        soc = np.clip(raw, 0.0, 1.0)
        saturations += int(np.count_nonzero(raw != soc))
        assert trial.trajectories[j].tobytes() == soc.tobytes()
        both = np.minimum(np.abs(played[:n]), np.abs(played[n:])) > loads.SIMULTANEITY_TOL
        assert ledger.simultaneous[j] == both.any()
    assert trial.saturation_events == saturations > 0


def test_response_bound_covers_the_longer_lower_noise_tail():
    # Here the largest |response| is a load's base plus lo, not its base plus hi.
    cfg = ScenarioConfig(n_loads=20, rounds=100, seed=0, noise=NoiseSpec(sd=1.5, lo=-4.0, hi=0.5))
    trial = run_trial(cfg, 0)
    ledger = trial.ledger
    realized = conservative_bounds(trial.box, float(np.abs(ledger.setpoint_eff).max()),
                                   float(np.abs(ledger.responses).max()), ledger.rho_eff)
    assert trial.bounds.loss_bound >= realized.loss_bound
    assert trial.bounds.gradient_bound >= realized.gradient_bound


# --- hindsight oracle -------------------------------------------------------------


def test_hindsight_single_round_boundary():
    box = Box.symmetric(1)
    result = hindsight_optimum(np.array([[1.0]]), np.array([1.0]), 0.0, 0.0, box)
    assert result.signal[0] == pytest.approx(1.0, abs=1e-6)
    assert result.value == pytest.approx(0.0, abs=1e-9)


def test_hindsight_zero_setpoints_with_l1_gives_origin():
    rng = np.random.default_rng(0)
    box = Box.symmetric(2)
    result = hindsight_optimum(rng.normal(size=(6, 2)), np.zeros(6), 0.0, 0.5, box)
    np.testing.assert_allclose(result.signal, 0.0, atol=1e-9)


def _grid_hindsight_value(responses, setpoints, rho, lam, step=1e-3):
    # Same objective evaluated through its expanded quadratic form.
    T, dim = responses.shape
    A = responses.T @ responses + T * rho * np.eye(dim)
    b = responses.T @ setpoints
    const = float(setpoints @ setpoints)
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    if dim == 1:
        values = A[0, 0] * axis ** 2 - 2 * b[0] * axis + T * lam * np.abs(axis)
        return float(values.min()) + const
    qx = A[0, 0] * axis ** 2 - 2 * b[0] * axis + T * lam * np.abs(axis)
    qy = A[1, 1] * axis ** 2 - 2 * b[1] * axis + T * lam * np.abs(axis)
    cross = 2 * A[0, 1] * np.outer(axis, axis)
    return float((qx[:, None] + qy[None, :] + cross).min()) + const


def test_hindsight_matches_grid_on_small_instances():
    rng = np.random.default_rng(1)
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        T = int(rng.integers(3, 12))
        responses = rng.normal(size=(T, dim))
        setpoints = rng.normal(size=T) * 2
        rho = float(rng.uniform(0, 1))
        lam = float(rng.uniform(0, 1))
        box = Box.symmetric(dim)
        result = hindsight_optimum(responses, setpoints, rho, lam, box)
        grid_value = _grid_hindsight_value(responses, setpoints, rho, lam)
        assert abs(result.value - grid_value) <= 1e-4
        assert result.residual <= 1e-9


def test_hindsight_weighted_mean_value_consistent():
    rng = np.random.default_rng(2)
    T, dim = 8, 2
    responses = rng.normal(size=(T, dim)) + 2.0
    setpoints = rng.normal(size=T)
    weights = rng.uniform(0.5, 1.5, size=(T, dim))
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 0.0]))
    result = hindsight_optimum(responses, setpoints, 3.0, 0.1, box, mean_weights=lambda: weights)
    mu = result.signal
    manual = comparator_round_losses(responses, setpoints, mu, 3.0, 0.1, mean_weights=weights).sum()
    assert result.value == pytest.approx(float(manual), rel=1e-9)


def _count_weight_rows(monkeypatch) -> list:
    calls = []

    def counting(*args, _original=harness.running_mean_weights):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(harness, "running_mean_weights", counting)
    return calls


def _same_hindsight(a, b) -> bool:
    return (a.signal.tobytes(), a.value, a.residual, a.iterations, a.losses.tobytes()) == (
        b.signal.tobytes(), b.value, b.residual, b.iterations, b.losses.tobytes())


def test_an_ev_regret_at_the_origin_builds_no_weight_rows(monkeypatch):
    # The ev_regularized.cfg shape: the comparator is the origin, whose penalty needs no weights.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=100, rounds=600, rho=100.0, lam=46.0, seed=0)
    trial = run_trial(cfg, 0)
    ledger = trial.ledger
    empirical_regret(ledger, trial.box)  # one-off allocations happen outside the count
    calls = _count_weight_rows(monkeypatch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = empirical_regret(ledger, trial.box)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = ledger.played.nbytes
    assert peak <= 0.3 * block, f"peak {peak / block:.2f} blocks"
    assert calls == [] and report.hindsight.iterations == 1 and not report.hindsight.signal.any()
    weights = running_mean_weights(cfg.ev_params, ledger.responses)
    held = hindsight_optimum(ledger.responses, ledger.setpoint_eff, ledger.rho_eff, ledger.lam,
                             trial.box, lambda: weights)
    assert _same_hindsight(report.hindsight, held)


def test_an_ev_regret_off_the_origin_builds_its_weight_rows_once(monkeypatch):
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=5.0, lam=0.3, seed=1)
    trial = run_trial(cfg, 0)
    ledger = trial.ledger
    calls = _count_weight_rows(monkeypatch)
    report = empirical_regret(ledger, trial.box)
    assert len(calls) == 1 and report.hindsight.iterations > 1 and report.hindsight.signal.any()
    weights = running_mean_weights(cfg.ev_params, ledger.responses)
    held = hindsight_optimum(ledger.responses, ledger.setpoint_eff, ledger.rho_eff, ledger.lam,
                             trial.box, lambda: weights)
    assert _same_hindsight(report.hindsight, held)


def test_ev_comparator_scores_the_trackers_own_loss():
    # A fixed signal replayed through the EV objective: its weighted running mean pairs each
    # vehicle's charging and discharging weights, so the penalty has a cross term per vehicle.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=5.0, lam=0.3, seed=1)
    trial = run_trial(cfg, 0)
    ledger, n = trial.ledger, cfg.n_loads
    weights = running_mean_weights(cfg.ev_params, ledger.responses)

    def replay(mu):
        objective = WeightedChargeObjective(n, cfg.rho, cfg.ev_params)
        losses = []
        for setpoint, responses in zip(ledger.setpoint_eff, ledger.responses):
            losses.append(objective.value_and_gradient(setpoint, responses, mu)[0] + cfg.lam * np.abs(mu).sum())
            objective.advance()
        return np.array(losses)

    rng = np.random.default_rng(1)
    for mu in (np.r_[np.ones(n), -np.ones(n)], np.r_[rng.uniform(0, 1, n), -rng.uniform(0, 1, n)]):
        got = comparator_round_losses(ledger.responses, ledger.setpoint_eff, mu, cfg.rho, cfg.lam, weights)
        np.testing.assert_allclose(got, replay(mu), rtol=1e-12)
    opt = empirical_regret(ledger, trial.box).hindsight
    assert np.abs(opt.signal).sum() > 0  # not the origin, where every penalty is 0
    assert opt.value == pytest.approx(float(replay(opt.signal).sum()), rel=1e-12)


def _hindsight_case(rng, box_kind, origin, weighted):
    T, dim = int(rng.integers(2, 30)), int(rng.integers(2, 7))
    dim += dim % 2 if weighted else 0  # the weighted mean pairs charge and discharge coordinates
    responses = rng.normal(size=(T, dim)) + rng.uniform(-2, 2)
    setpoints = rng.normal(size=T) * rng.uniform(0.1, 5)
    weights = rng.uniform(0.5, 1.5, size=(T, dim)) if weighted else None
    rho = float(rng.choice([0.0, rng.uniform(0.1, 5)]))
    need = float(np.abs(2.0 * (responses.T @ setpoints)).max())
    edge = need / T
    while T * edge < need:  # the smallest lam with |2b| <= T * lam, the origin's KKT condition
        edge = float(np.nextafter(edge, np.inf))
    lam = edge * float(rng.choice([1.0, rng.uniform(1.0, 3.0)])) if origin else edge * rng.uniform(0.0, 0.9)
    half = dim // 2
    if box_kind == "symmetric":
        box = Box.symmetric(dim)
    elif box_kind == "split":  # the EV shape: nonnegative then nonpositive coordinates
        box = Box(np.r_[np.zeros(half), -np.ones(dim - half)], np.r_[np.ones(half), np.zeros(dim - half)])
    else:  # 0 outside the box
        box = Box(np.full(dim, 0.1), np.ones(dim))
    return responses, setpoints, rho, lam, box, weights


def _rule(weights):
    """``hindsight_optimum``'s ``mean_weights`` for a held block: None, or a function that returns it."""
    return None if weights is None else lambda: weights


def _augmented_least_squares(responses, setpoints, rho, weights):
    """[R; sqrt(rho) P] and [s; 0], whose squared residual is the objective without its l1 term.

    P stacks the running-mean maps m_t: sqrt(T) * I for the plain penalty, or
    [diag(w_t[:n]), diag(w_t[n:])] per round for the EV weighted mean.
    """
    T, dim = responses.shape
    if weights is None:
        P = math.sqrt(T) * np.eye(dim)
    else:
        n = dim // 2
        P = np.vstack([np.hstack([np.diag(w[:n]), np.diag(w[n:])]) for w in weights])
    return np.vstack([responses, math.sqrt(rho) * P]), np.r_[setpoints, np.zeros(P.shape[0])]


@pytest.mark.parametrize("box_kind", ["symmetric", "split"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "mean-weights"])
def test_hindsight_matches_scipy_bvls_without_the_l1_term(box_kind, weighted):
    lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear
    rng = np.random.default_rng([len(box_kind), weighted])
    for _ in range(40):
        responses, setpoints, rho, _, box, weights = _hindsight_case(rng, box_kind, False, weighted)
        augmented, target = _augmented_least_squares(responses, setpoints, rho, weights)
        ref = lsq_linear(augmented, target, bounds=(box.lo, box.hi), method="bvls", tol=1e-14)
        result = hindsight_optimum(responses, setpoints, rho, 0.0, box, _rule(weights))
        ref_value = float(np.sum((augmented @ ref.x - target) ** 2))
        assert result.value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        assert result.residual <= 1e-9


def _orthant_bvls_value(responses, setpoints, rho, lam, box, weights):
    """The optimum by scipy BVLS in each orthant, where the l1 term is linear.

    In the orthant of sign pattern sigma, T * lam * ||mu||_1 is c.mu with c = T * lam * sigma, and a
    full-column-rank M absorbs it: ||M mu - y||^2 + c.mu = ||M mu - (y - M g / 2)||^2 + const, M^T M g = c.
    Coordinates whose box meets the orthant only at 0 are held there.
    """
    lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear
    augmented, target = _augmented_least_squares(responses, setpoints, rho, weights)
    T, dim = responses.shape
    best = math.inf
    for sigma in itertools.product((-1.0, 1.0), repeat=dim):
        sigma = np.array(sigma)
        lo, hi = np.where(sigma > 0, 0.0, box.lo), np.where(sigma > 0, box.hi, 0.0)
        keep = lo < hi
        mu = np.zeros(dim)
        if keep.any():
            M = augmented[:, keep]
            g = np.linalg.solve(M.T @ M, T * lam * sigma[keep])
            mu[keep] = lsq_linear(M, target - 0.5 * M @ g, bounds=(lo[keep], hi[keep]),
                                  method="bvls", tol=1e-14).x
        best = min(best, float(comparator_round_losses(responses, setpoints, mu, rho, lam, weights).sum()))
    return best


@pytest.mark.parametrize("box_kind", ["symmetric", "split"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "mean-weights"])
@pytest.mark.parametrize("origin", [True, False], ids=["origin-optimal", "origin-not-optimal"])
def test_hindsight_matches_scipy_bvls_orthant_by_orthant_with_the_l1_term(box_kind, weighted, origin):
    rng = np.random.default_rng([len(box_kind), weighted, origin, 2])
    for _ in range(6):
        responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, box_kind, origin, weighted)
        rho = rho or float(rng.uniform(0.1, 5))  # the reference needs M of full column rank
        result = hindsight_optimum(responses, setpoints, rho, lam, box, _rule(weights))
        want = _orthant_bvls_value(responses, setpoints, rho, lam, box, weights)
        assert result.value == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert result.residual <= 1e-9


@pytest.mark.parametrize("box_kind", ["symmetric", "split"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "mean-weights"])
@pytest.mark.parametrize("origin", [True, False], ids=["origin-optimal", "origin-not-optimal"])
def test_hindsight_mirrors_a_negated_problem(box_kind, weighted, origin):
    # Negating the setpoints and the box negates every quantity of the solve exactly: the KKT
    # violations of the bounds below and above swap, and so does each step's sign.
    rng = np.random.default_rng([len(box_kind), weighted, origin, 3])
    for _ in range(8):
        responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, box_kind, origin, weighted)
        result = hindsight_optimum(responses, setpoints, rho, lam, box, _rule(weights))
        mirrored = hindsight_optimum(responses, -setpoints, rho, lam, Box(-box.hi, -box.lo), _rule(weights))
        assert np.array_equal(-mirrored.signal, result.signal)
        assert (mirrored.value, mirrored.residual, mirrored.iterations) == (
            result.value, result.residual, result.iterations)


def test_hindsight_reaches_the_optimum_on_a_tcl_trial():
    # The proximal descent this solve replaced stopped at 57328.63 here, 53 above the optimum.
    trial = run_trial(ScenarioConfig(scenario="tcl", feedback="full", seed=0), 0)
    opt = empirical_regret(trial.ledger, trial.box).hindsight
    assert opt.value == pytest.approx(57275.32, abs=0.005)
    assert opt.residual <= 1e-9


@pytest.mark.parametrize("box_kind", ["symmetric", "split"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "mean-weights"])
@pytest.mark.parametrize("max_iters", [10_000, 1])  # at the origin a cap of one check suffices
def test_hindsight_origin_optimal_takes_one_check_and_forms_no_gram(monkeypatch, box_kind, weighted, max_iters):
    grams = []

    def counting(*args, _original=harness._penalized_gram):
        grams.append(1)
        return _original(*args)

    monkeypatch.setattr(harness, "_penalized_gram", counting)
    rng = np.random.default_rng([len(box_kind), weighted, 1])
    for _ in range(8):
        responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, box_kind, True, weighted)
        result = hindsight_optimum(responses, setpoints, rho, lam, box, _rule(weights), max_iters)
        assert not result.signal.any() and result.iterations == 1 and result.residual <= 1e-9
        assert result.value == pytest.approx(float(setpoints @ setpoints), rel=1e-12)
    assert not grams
    # Away from the origin (a one-sided box can keep it optimal even so), each solve forms A once.
    moved = [hindsight_optimum(*case[:5], _rule(case[5])).iterations > 1
             for case in (_hindsight_case(rng, box_kind, False, weighted) for _ in range(8))]
    assert any(moved) and len(grams) == sum(moved)


def test_hindsight_names_the_violation_when_it_reaches_the_cap():
    rng = np.random.default_rng(5)
    responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, "symmetric", False, False)
    with pytest.raises(RuntimeError, match=r"KKT violation \d\.\d+e[+-]\d+ after 1 checks"):
        hindsight_optimum(responses, setpoints, rho, lam, box, _rule(weights), max_iters=1)


@pytest.mark.parametrize("rho,lam,max_iters", [
    (0.0, 0.1, 0), (0.0, 0.1, -1), (0.0, math.inf, 10), (0.0, math.nan, 10), (math.nan, 0.1, 10),
    (-1.0, 0.1, 10), (0.0, -0.1, 10),
])
def test_hindsight_rejects_a_bad_rho_lam_or_cap(rho, lam, max_iters):
    with pytest.raises(ValueError, match="need finite rho, lam >= 0 and max_iters >= 1"):
        hindsight_optimum(np.ones((4, 3)), np.ones(4), rho, lam, Box.symmetric(3), max_iters=max_iters)


def test_hindsight_rejects_a_box_without_the_origin():
    rng = np.random.default_rng(6)
    responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, "offset", False, False)
    with pytest.raises(UnsupportedBoxError, match="must contain 0"):
        hindsight_optimum(responses, setpoints, rho, lam, box, _rule(weights))


def test_hindsight_rejects_a_box_of_another_dimension():
    with pytest.raises(ValueError, match="box dimension"):
        hindsight_optimum(np.ones((4, 3)), np.zeros(4), 0.0, 1.0, Box.symmetric(1))


@pytest.mark.parametrize("dim,shape", [(4, (7, 4)), (4, (8, 2)), (3, (8, 3))], ids=["rows", "columns", "odd-dim"])
def test_hindsight_rejects_a_bad_weight_block_once_it_leaves_the_origin(dim, shape):
    rng = np.random.default_rng(8)
    responses, setpoints, box = rng.normal(size=(8, dim)) + 2.0, rng.normal(size=8) * 3.0, Box.symmetric(dim)
    calls = []

    def rule():
        calls.append(shape)
        return np.ones(shape)

    with pytest.raises(ValueError, match=r"mean_weights must be \(rounds, dim\) with an even dim"):
        hindsight_optimum(responses, setpoints, 1.0, 0.0, box, rule)
    assert len(calls) == 1
    # At an origin exit (|2b| < T * lam) the rule is never called, whatever it would return.
    lam = float(np.abs(2.0 * responses.T @ setpoints).max())
    result = hindsight_optimum(responses, setpoints, 1.0, lam, box, rule)
    assert result.iterations == 1 and not result.signal.any() and len(calls) == 1


def test_full_info_regret_bound_positive_and_dominates():
    cfg = small_cfg(rounds=60, trials=1)
    trial = run_trial(cfg, 0)
    report = empirical_regret(trial.ledger, trial.box)
    bound = full_info_regret_bound(cfg.resolved().chi, trial.ledger, trial.bounds.loss_bound)
    assert bound > 0
    assert report.total <= bound


# --- metrics ---------------------------------------------------------------------


def test_improvement_zero_for_identical_series():
    trial = run_trial(small_cfg(), 0)
    ledger = dataclasses.replace(trial.ledger, tracking=trial.ledger.baseline_tracking.copy())
    assert improvement_pct(ledger) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rho,lam", [(0.0, 0.0), (1.0, 1.0)])
def test_improvement_is_zero_when_the_no_signal_loss_is_zero(rho, lam):
    # A setpoint at zero throughout leaves nothing to reduce; the ratio would divide by 0.
    flat = SetpointSpec(amplitude=0.0, frequency=0.1, offset=0.0)
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=20, trials=2,
                         rho=rho, lam=lam, setpoint=flat)
    trial = run_trial(cfg, 0)
    assert float(trial.ledger.baseline_tracking.sum()) == 0.0
    assert improvement_pct(trial.ledger) == 0.0
    assert run_experiment(cfg).mean_summary()["improvement_pct"] == 0.0


def test_reduction_pct_for_identical_series_is_zero():
    series = np.linspace(1, 2, 10)
    assert per_round_reduction_pct(series, series) == pytest.approx(0.0, abs=1e-12)
    assert per_round_reduction_pct(np.zeros(5), np.zeros(5)) == 0.0


def test_reduction_pct_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        per_round_reduction_pct(np.ones(5), np.ones(6))


# --- regime limits -----------------------------------------------------------------
# Partial and Bernoulli feedback lie between full and bandit feedback, so each must
# reach the full-information run at its limit and move monotonically toward it.
# TCL n = 100, T = 600, seed 0, trials 0-2.

LIMIT_BASE = ScenarioConfig(n_loads=100, rounds=600, seed=0)
LIMIT_TRIALS = range(3)


def _mean_improvement(**overrides) -> float:
    cfg = dataclasses.replace(LIMIT_BASE, trials=len(LIMIT_TRIALS), **overrides)
    return run_experiment(cfg).mean_summary()["improvement_pct"]


@pytest.mark.parametrize("trial_index", LIMIT_TRIALS)
def test_bernoulli_with_no_aggregate_round_tracks_full_feedback(trial_index):
    # a = 0 plays no aggregate round; without the warm-up and at full's chi only the
    # schedule's horizon term sqrt(T - T_B + 1) against sqrt(T) tells it from full.
    full = run_trial(dataclasses.replace(LIMIT_BASE, feedback="full"), trial_index).ledger
    bern = run_trial(dataclasses.replace(LIMIT_BASE, feedback="bernoulli", bernoulli_a=0.0,
                                         bernoulli_warmup=False, chi_full=60.0), trial_index).ledger
    assert np.array_equal(bern.responses, full.responses)
    assert np.abs(bern.played - full.played).max() <= 1e-3
    assert improvement_pct(bern) == pytest.approx(improvement_pct(full), abs=0.05)


@pytest.mark.parametrize("trial_index", LIMIT_TRIALS)
def test_partial_feedback_observing_all_but_one_load_tracks_full_feedback(trial_index):
    full = run_trial(dataclasses.replace(LIMIT_BASE, feedback="full"), trial_index).ledger
    part = run_trial(dataclasses.replace(LIMIT_BASE, feedback="partial", observed=99, chi_full=60.0),
                     trial_index).ledger
    assert improvement_pct(part) == pytest.approx(improvement_pct(full), abs=0.5)


def test_partial_feedback_improves_with_every_observed_load_added():
    means = [_mean_improvement(feedback="partial", observed=k) for k in (1, 10, 50, 90, 99)]
    assert all(a < b for a, b in zip(means, means[1:])), means


def test_bernoulli_feedback_worsens_as_aggregate_rounds_grow():
    means = [_mean_improvement(feedback="bernoulli", bernoulli_a=a) for a in (0.0, 1.0, 7.6)]
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_run_trial_attaches_round_index_to_errors(monkeypatch):
    from loadtrack.algorithms import FullInformationTracker

    original = FullInformationTracker.update
    calls = {"n": 0}

    def failing_update(self, obs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ValueError("synthetic failure")
        return original(self, obs)

    monkeypatch.setattr(FullInformationTracker, "update", failing_update)
    with pytest.raises(ValueError, match="round 3: synthetic failure"):
        run_trial(small_cfg(), 0)


@pytest.mark.parametrize("feedback,bad_call", [
    ("full", 3),
    ("bandit", 3),
    ("partial", 3),
    ("bernoulli", 5),  # two warm-up rounds come first, so the fifth play is round 3
])
def test_run_trial_names_the_round_of_an_out_of_range_signal(monkeypatch, feedback, bad_call):
    # The fleet steps once after the loop; its range check still names the round the loop counts.
    # Explored rows (bandit, partial) get no other range check.
    from loadtrack import algorithms

    cls = {"full": algorithms.FullInformationTracker, "bandit": algorithms.BanditTracker,
           "partial": algorithms.PartialBanditTracker, "bernoulli": algorithms.BernoulliFeedbackTracker}[feedback]
    original = cls.begin_round
    calls = {"n": 0}

    def overreaching_begin_round(self):
        calls["n"] += 1
        played = original(self)
        if calls["n"] == bad_call:
            played[0] = 1.5
        return played

    monkeypatch.setattr(cls, "begin_round", overreaching_begin_round)
    with pytest.raises(ValueError, match=r"^round 3: adjustment signals must lie in \[-1, 1\]$"):
        run_trial(small_cfg(feedback=feedback, observed=2, bernoulli_a=2.0), 0)


@pytest.mark.parametrize("feedback", ["bandit", "partial", "bernoulli"])
def test_explored_rounds_make_no_range_check(monkeypatch, feedback):
    # The played block's check in the fleet step is the only range check on explored rows.
    calls = {"contains": 0, "signal_block": 0}

    def count(owner, name):
        def counting(*args, _original=getattr(owner, name), **kwargs):
            calls[name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    count(Box, "contains")
    count(loads, "signal_block")
    trial = run_trial(small_cfg(feedback=feedback, observed=2, bernoulli_a=2.0), 0)
    assert calls["contains"] == 0
    assert calls["signal_block"] >= 1
    assert trial.box.contains(trial.ledger.played, tol=loads.SIGNAL_TOL)


def test_run_trial_names_the_round_of_an_out_of_range_ev_signal(monkeypatch):
    # The EV objective scores any signal; the fleet step rejects it and names its round and range.
    from loadtrack.algorithms import FullInformationTracker

    original = FullInformationTracker.begin_round
    calls = {"n": 0}

    def overreaching_begin_round(self):
        calls["n"] += 1
        played = original(self)
        if calls["n"] == 3:
            played[1] = 1.5  # a charging signal
        return played

    monkeypatch.setattr(FullInformationTracker, "begin_round", overreaching_begin_round)
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=10, rho=20.0)
    with pytest.raises(ValueError, match=r"^round 3: adjustment signals must lie in \[0, 1\]$"):
        run_trial(cfg, 0)


@pytest.mark.parametrize("feedback", ["full", "bernoulli"])
def test_run_trial_checks_the_untracked_loads_too(monkeypatch, feedback):
    # Only the first track_loads loads are stepped, but a bad signal of any load names its round,
    # the earliest one, even when a tracked load goes bad later.
    from loadtrack.algorithms import BernoulliFeedbackTracker, FullInformationTracker

    cls = FullInformationTracker if feedback == "full" else BernoulliFeedbackTracker
    warmup = 2 if feedback == "bernoulli" else 0
    original = cls.begin_round
    calls = {"n": 0}

    def overreaching_begin_round(self):
        calls["n"] += 1
        played = original(self)
        if calls["n"] == 3 + warmup:
            played[-1] = -1.5  # an untracked load
        if calls["n"] == 7 + warmup:
            played[0] = 1.5
        return played

    monkeypatch.setattr(cls, "begin_round", overreaching_begin_round)
    cfg = small_cfg(feedback=feedback, bernoulli_a=2.0, track_loads=2)
    with pytest.raises(ValueError, match=r"^round 3: adjustment signals must lie in \[-1, 1\]$"):
        run_trial(cfg, 0)


def test_run_trial_names_the_round_of_a_nan_signal(monkeypatch):
    # A NaN fails the fleet's range check; every later row is NaN too, so the first one is named.
    from loadtrack.algorithms import FullInformationTracker

    original = FullInformationTracker.begin_round
    calls = {"n": 0}

    def nan_begin_round(self):
        calls["n"] += 1
        played = original(self)
        if calls["n"] == 3:
            played[0] = np.nan
        return played

    monkeypatch.setattr(FullInformationTracker, "begin_round", nan_begin_round)
    with pytest.raises(ValueError, match=r"^round 3: adjustment signals must lie in \[-1, 1\]$"):
        run_trial(small_cfg(), 0)


@pytest.mark.parametrize("cfg,rows", [
    pytest.param(small_cfg(feedback="bernoulli", bernoulli_a=2.0), 42, id="tcl-bernoulli-warmup"),
    pytest.param(small_cfg(feedback="bandit"), 40, id="tcl-bandit"),
    pytest.param(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30), 30, id="ev-full"),
])
def test_run_trial_steps_the_fleet_once_over_the_played_block(monkeypatch, cfg, rows):
    blocks = []
    for fleet_cls in (loads.TclFleet, loads.EvFleet):
        def recording(self, block, *responses, _original=vars(fleet_cls)["step"]):
            blocks.append(np.array(block))
            return _original(self, block, *responses)
        monkeypatch.setattr(fleet_cls, "step", recording)
    trial = run_trial(cfg, 0)
    if cfg.scenario == "tcl":
        # Only the tracked loads are stepped; their scored rows are the ledger's played signals.
        assert [b.shape for b in blocks] == [(rows, cfg.track_loads)] and cfg.track_loads < cfg.n_loads
        tracked = np.ascontiguousarray(trial.ledger.played[:, :cfg.track_loads])
        assert blocks[0][rows - cfg.rounds:].tobytes() == tracked.tobytes()
    else:  # every vehicle is stepped: the saturation count covers the whole fleet
        assert [b.shape for b in blocks] == [(rows, 2 * cfg.n_loads)]
        assert blocks[0].tobytes() == trial.ledger.played.tobytes()


@pytest.mark.parametrize("cfg,stepped", [
    pytest.param(small_cfg(trials=3), ["TclFleet"], id="tcl"),
    pytest.param(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, trials=3),
                 ["EvFleet"] * 3, id="ev"),
])
def test_run_experiment_steps_tracked_loads_only_in_the_kept_trial(monkeypatch, cfg, stepped):
    # Only trial 0's trajectories are kept, so later TCL trials step nothing; every EV trial steps
    # its whole fleet, since the saturation count covers every vehicle.
    calls = []
    for fleet_cls in (loads.TclFleet, loads.EvFleet):
        def recording(self, *blocks, _original=vars(fleet_cls)["step"], _name=fleet_cls.__name__):
            calls.append(_name)
            return _original(self, *blocks)
        monkeypatch.setattr(fleet_cls, "step", recording)
    result = run_experiment(cfg)
    assert calls == stepped
    assert result.config.track_loads == cfg.track_loads
    assert result.trajectories.shape == (cfg.rounds, min(cfg.track_loads, cfg.n_loads))


def test_run_experiment_names_the_round_of_a_bad_signal_in_a_later_trial(monkeypatch):
    # A trial that steps no load still checks its whole played block once.
    from loadtrack.algorithms import FullInformationTracker

    cfg = small_cfg(trials=2)
    original = FullInformationTracker.begin_round
    calls = {"n": 0}

    def overreaching_begin_round(self):
        calls["n"] += 1
        played = original(self)
        if calls["n"] == cfg.rounds + 3:  # round 3 of trial 1
            played[0] = 1.5
        return played

    monkeypatch.setattr(FullInformationTracker, "begin_round", overreaching_begin_round)
    with pytest.raises(ValueError, match=r"^round 3: adjustment signals must lie in \[-1, 1\]$"):
        run_experiment(cfg)
    assert calls["n"] == 2 * cfg.rounds


def test_compute_metrics_layout():
    res = run_experiment(small_cfg(trials=1, rho=1.0, lam=0.5))
    unreg = run_experiment(small_cfg(trials=1))
    m = compute_metrics(res, unreg)
    assert set(m) == {
        "scenario", "feedback", "rho", "lambda", "improvement_pct",
        "mean_improvement_pct", "sparsity_improvement_pct", "simultaneity_pct",
    }
    assert m["scenario"] == "tcl" and m["feedback"] == "full"


def test_ev_ledger_series_match_the_per_round_loop():
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=5, rounds=30, rho=20.0, seed=2)
    ledger = run_trial(cfg, 0).ledger
    ev, n = cfg.ev_params, cfg.n_loads
    mean_weights = running_mean_weights(ev, ledger.responses)
    weight_sum = np.zeros(2 * n)
    mean = np.zeros(n)
    for j, (resp, played) in enumerate(zip(ledger.responses, ledger.played)):
        weight_sum += np.concatenate([ev.inj_eff * resp[:n], resp[n:] / ev.ext_eff])
        assert mean_weights[j].tobytes() == (weight_sum / (j + 1)).tobytes()
        # A prefix of the responses gives the same rows, as the regret of its first j + 1 rounds reads them.
        assert running_mean_weights(ev, ledger.responses[:j + 1])[j].tobytes() == mean_weights[j].tobytes()
        term = weighted_signal(ev, resp[:n], resp[n:], played[:n], played[n:])
        mean = (j * mean + term) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)
        simultaneous = np.any(np.minimum(np.abs(played[:n]), np.abs(played[n:])) > 1e-2)
        assert ledger.simultaneous[j] == simultaneous


def test_simultaneity_zero_for_tcl():
    trial = run_trial(small_cfg(), 0)
    assert simultaneity_pct(trial.ledger) == 0.0


@pytest.mark.parametrize("feedback,extra", [
    ("full", {}),
    ("bandit", {}),
    ("partial", {"observed": 2}),
    ("bernoulli", {"bernoulli_a": 2.0}),
])
def test_every_played_signal_inside_decision_box(feedback, extra):
    cfg = small_cfg(feedback=feedback, rounds=60, trials=1, lam=0.2, **extra)
    trial = run_trial(cfg, 0)
    for row in trial.ledger.played:
        assert trial.box.contains(row, tol=1e-12)
