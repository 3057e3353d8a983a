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
from loadtrack.loads import (
    NoiseSpec,
    WeightedChargeObjective,
    running_mean_weights,
    weighted_signal,
)


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
    # One stacked box check and one weighting per round, and one weighting of the played block for
    # the fleet step; the per-block check runs only on failure.
    calls = {}

    def count(owner, name):
        def counting(*args, _original=getattr(owner, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    count(Box, "contains")
    count(loads, "_check_ev_signals")
    count(loads, "_weigh")
    run_trial(ScenarioConfig(scenario="ev", feedback="full", n_loads=4, rounds=30, rho=rho), 0)
    assert calls == {"contains": 30, "_weigh": 31}


@pytest.mark.parametrize("rho", [0.0, 20.0])
def test_ev_fleet_steps_by_the_per_round_weighted_signals_bitwise(rho):
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
            objective.advance(mu)
        return np.array(losses)

    rng = np.random.default_rng(1)
    for mu in (np.r_[np.ones(n), -np.ones(n)], np.r_[rng.uniform(0, 1, n), -rng.uniform(0, 1, n)]):
        got = comparator_round_losses(ledger.responses, ledger.setpoint_eff, mu, cfg.rho, cfg.lam, weights)
        np.testing.assert_allclose(got, replay(mu), rtol=1e-12)
    opt = empirical_regret(ledger, trial.box).hindsight
    assert np.abs(opt.signal).sum() > 0  # not the origin, where every penalty is 0
    assert opt.value == pytest.approx(float(replay(opt.signal).sum()), rel=1e-12)


def _pgd_reference(responses, setpoints, rho, lam, box, mean_weights=None, max_iters=10_000, tol=1e-6):
    """The proximal gradient descent of hindsight_optimum as it was before the origin exit.

    ``mean_weights`` pairs coordinate i with coordinate i + dim/2, as the EV weighted mean does.
    """
    R = np.asarray(responses, dtype=float)
    s = np.asarray(setpoints, dtype=float)
    T, dim = R.shape
    A = R.T @ R
    if rho:
        if mean_weights is None:
            A = A + rho * T * np.eye(dim)
        else:
            W = np.asarray(mean_weights, dtype=float)
            n = dim // 2
            gram = np.diag((W * W).sum(axis=0))
            gram[:n, n:] = gram[n:, :n] = np.diag((W[:, :n] * W[:, n:]).sum(axis=0))
            A = A + rho * gram
    b = R.T @ s
    const = float(s @ s)
    l1_weight = T * lam
    eig_max = float(np.linalg.eigvalsh(A)[-1]) if dim > 1 else float(A[0, 0])
    step = 1.0 / max(2.0 * eig_max, 1e-12)

    def value(mu):
        return float(mu @ A @ mu - 2.0 * b @ mu + const + l1_weight * np.abs(mu).sum())

    mu = np.zeros(dim)
    best_mu, best_val = mu.copy(), value(mu)
    prev_val = best_val
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = 2.0 * (A @ mu - b)
        y, threshold = mu - step * grad, step * l1_weight
        shrunk = y + 0.0 if threshold == 0.0 else np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)
        mu = np.minimum(np.maximum(shrunk, box.lo), box.hi)
        val = value(mu)
        if val < best_val:
            best_val, best_mu = val, mu.copy()
        if abs(prev_val - val) <= tol * max(1.0, abs(val)):
            converged = True
            break
        prev_val = val
    return best_mu, best_val, converged, iterations


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


def _same_result(result, want):
    mu, value, converged, iterations = want
    assert result.signal.tobytes() == mu.tobytes()
    assert np.float64(result.value).tobytes() == np.float64(value).tobytes()
    assert (result.converged, result.iterations) == (converged, iterations)


@pytest.mark.parametrize("box_kind", ["symmetric", "split", "offset"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "mean-weights"])
@pytest.mark.parametrize("origin", [True, False], ids=["origin-optimal", "origin-not-optimal"])
@pytest.mark.parametrize("max_iters,tol", [(10_000, 1e-6), (0, 1e-6), (-1, 1e-6), (40, -1.0)])
def test_hindsight_origin_exit_returns_what_the_descent_returns(
    monkeypatch, box_kind, weighted, origin, max_iters, tol
):
    eigensolves = []

    def counting_eigvalsh(a, *args, _original=np.linalg.eigvalsh, **kwargs):
        eigensolves.append(1)
        return _original(a, *args, **kwargs)

    rng = np.random.default_rng([len(box_kind), weighted, origin, max_iters + 1])
    for _ in range(8):
        responses, setpoints, rho, lam, box, weights = _hindsight_case(rng, box_kind, origin, weighted)
        want = _pgd_reference(responses, setpoints, rho, lam, box, weights, max_iters, tol)
        eigensolves.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        result = hindsight_optimum(responses, setpoints, rho, lam, box, weights, max_iters, tol)
        monkeypatch.undo()
        _same_result(result, want)
        exits = origin and box_kind != "offset" and max_iters >= 1 and tol >= 0
        assert eigensolves == ([] if exits else [1])
        if exits:  # the descent itself stops at the origin after one step
            assert not want[0].any() and want[2:] == (True, 1)


def test_hindsight_origin_exit_keeps_a_non_finite_objective_to_the_descent():
    # lam = inf makes the origin's value NaN (inf * 0), which the descent never calls converged.
    rng = np.random.default_rng(8)
    responses, setpoints = rng.normal(size=(6, 3)), rng.normal(size=6)
    box = Box.symmetric(3)
    with np.errstate(invalid="ignore"):
        result = hindsight_optimum(responses, setpoints, 0.0, math.inf, box, max_iters=25)
        _same_result(result, _pgd_reference(responses, setpoints, 0.0, math.inf, box, max_iters=25))
    assert (result.converged, result.iterations) == (False, 25)


def test_hindsight_rejects_a_box_of_another_dimension():
    with pytest.raises(ValueError, match="box dimension"):
        hindsight_optimum(np.ones((4, 3)), np.zeros(4), 0.0, 1.0, Box.symmetric(1))


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
