"""Closed-loop harness tests: channels, determinism, regret, metrics."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from loadtrack import harness, loads
from loadtrack.algorithms import AggregateFeedback, FullFeedback, PartialFeedback
from loadtrack.core import Box, ConfigError
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
from loadtrack.loads import NoiseSpec, weighted_signal


# --- setpoints -----------------------------------------------------------------


def test_setpoint_tcl_values():
    spec = SetpointSpec.for_scenario("tcl")
    assert make_setpoint(spec, 0) == pytest.approx(155.0)
    series = make_setpoint(spec, np.arange(1, 2001))
    assert series.min() >= 140.0 and series.max() <= 170.0


def test_setpoint_ev_zero_crossing():
    spec = SetpointSpec.for_scenario("ev")
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


def test_trial_averaging_is_arithmetic_mean():
    res = run_experiment(small_cfg(trials=4))
    mean = res.mean_summary()
    manual = np.mean([s.improvement_pct for s in res.summaries])
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


def test_ev_trial_tracks_soc_and_simultaneity():
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=50, trials=1, seed=2)
    trial = run_trial(cfg, 0)
    assert trial.trajectories.shape == (50, 4)
    assert np.all(trial.trajectories >= 0.0) and np.all(trial.trajectories <= 1.0)
    assert trial.ledger.simultaneous.dtype == bool
    assert trial.ledger.mean_weights.shape == (50, 8)


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_round_checks_and_weights_each_signal_once(monkeypatch, rho):
    calls = {}
    for name in ("_check_ev_signals", "weighted_signal"):
        def counting(*args, _name=name, _original=getattr(loads, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(loads, name, counting)
    run_trial(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=rho), 0)
    assert calls == {"_check_ev_signals": 30, "weighted_signal": 30}


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_fleet_reuses_the_objective_weighted_signal_bitwise(rho):
    # Long steps make vehicles saturate, so the clamp and its count are exercised.
    cfg = ScenarioConfig(scenario="ev", feedback="full", n_loads=6, rounds=80, rho=rho,
                         step_hours=0.5, seed=4, track_loads=6)
    trial = run_trial(cfg, 0)
    ev, n = cfg.ev_params, cfg.n_loads
    soc = np.full(n, 0.75)
    saturations = 0
    for j, (resp, played) in enumerate(zip(trial.ledger.responses, trial.ledger.played)):
        term = weighted_signal(ev, resp[:n], resp[n:], played[:n], played[n:])
        raw = soc + (cfg.step_hours / ev.capacity_kwh) * term
        soc = np.clip(raw, 0.0, 1.0)
        saturations += int(np.count_nonzero(raw != soc))
        assert trial.trajectories[j].tobytes() == soc.tobytes()
    assert trial.saturation_events == saturations > 0


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
        assert result.converged


def test_hindsight_weighted_mean_value_consistent():
    rng = np.random.default_rng(2)
    T, dim = 8, 2
    responses = rng.normal(size=(T, dim)) + 2.0
    setpoints = rng.normal(size=T)
    weights = rng.uniform(0.5, 1.5, size=(T, dim))
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 0.0]))
    result = hindsight_optimum(responses, setpoints, 3.0, 0.1, box, mean_weights=weights)
    mu = result.signal
    manual = comparator_round_losses(responses, setpoints, mu, 3.0, 0.1, mean_weights=weights).sum()
    assert result.value == pytest.approx(float(manual), rel=1e-9)


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


def test_reduction_pct_for_identical_series_is_zero():
    series = np.linspace(1, 2, 10)
    assert per_round_reduction_pct(series, series) == pytest.approx(0.0, abs=1e-12)
    assert per_round_reduction_pct(np.zeros(5), np.zeros(5)) == 0.0


def test_reduction_pct_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        per_round_reduction_pct(np.ones(5), np.ones(6))


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
    ("bernoulli", 5),  # two warm-up rounds come first, so the fifth play is round 3
])
def test_run_trial_names_the_round_of_an_out_of_range_signal(monkeypatch, feedback, bad_call):
    # The fleet steps once after the loop; its range check still names the round the loop counts.
    from loadtrack.algorithms import BernoulliFeedbackTracker, FullInformationTracker

    cls = FullInformationTracker if feedback == "full" else BernoulliFeedbackTracker
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
        run_trial(small_cfg(feedback=feedback, bernoulli_a=2.0), 0)


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
        def recording(self, block, _original=vars(fleet_cls)["step"]):
            blocks.append(np.array(block))
            return _original(self, block)
        monkeypatch.setattr(fleet_cls, "step", recording)
    trial = run_trial(cfg, 0)
    assert [b.shape for b in blocks] == [(rows, cfg.n_loads)]
    if cfg.scenario == "tcl":  # the scored rows of the block are the ledger's played signals
        assert blocks[0][rows - cfg.rounds:].tobytes() == trial.ledger.played.tobytes()


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
    weight_sum = np.zeros(2 * n)
    mean = np.zeros(n)
    for j, (resp, played) in enumerate(zip(ledger.responses, ledger.played)):
        weight_sum += np.concatenate([ev.inj_eff * resp[:n], resp[n:] / ev.ext_eff])
        assert ledger.mean_weights[j].tobytes() == (weight_sum / (j + 1)).tobytes()
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
