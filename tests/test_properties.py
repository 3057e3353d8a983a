"""Property tests over small random closed-loop runs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loadtrack.harness import ScenarioConfig, run_trial
from loadtrack.loads import EvFleet, ev_decision_box, weighted_signal


@st.composite
def tcl_configs(draw):
    feedback = draw(st.sampled_from(["full", "bandit", "partial", "bernoulli"]))
    n_loads = draw(st.integers(2, 6))
    return ScenarioConfig(
        scenario="tcl",
        feedback=feedback,
        n_loads=n_loads,
        observed=draw(st.integers(1, n_loads - 1)),
        rounds=draw(st.integers(4, 30)),
        rho=0.0 if feedback == "partial" else draw(st.sampled_from([0.0, 0.5, 3.0])),
        lam=draw(st.sampled_from([0.0, 0.2])),
        bernoulli_a=draw(st.floats(0.0, 1.5)),
        bernoulli_warmup=draw(st.booleans()),
        bernoulli_mean_penalty=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
        track_loads=2,
    )


@settings(max_examples=40, deadline=None)
@given(tcl_configs())
def test_played_signals_stay_in_the_box_and_mean_norm_follows_them(cfg):
    trial = run_trial(cfg)
    ledger = trial.ledger
    mean = np.zeros(trial.box.dim)
    for j, played in enumerate(ledger.played):
        assert trial.box.contains(played)
        mean = (j * mean + played) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)
    assert ledger.rounds == cfg.rounds and np.isfinite(ledger.objective).all()


@st.composite
def ev_configs(draw):
    n_loads = draw(st.integers(1, 6))
    return ScenarioConfig(
        scenario="ev",
        feedback="full",
        n_loads=n_loads,
        rounds=draw(st.integers(4, 30)),
        rho=draw(st.sampled_from([0.0, 100.0]) | st.floats(0.0, 200.0)),
        lam=draw(st.sampled_from([0.0, 46.0]) | st.floats(0.0, 60.0)),
        step_hours=draw(st.sampled_from([1.0 / 60.0, 1.0]) | st.floats(0.005, 1.0)),
        seed=draw(st.integers(0, 2**16)),
        track_loads=draw(st.integers(0, n_loads)),
    )


@settings(max_examples=40, deadline=None)
@given(ev_configs())
def test_ev_rows_stay_in_the_box_and_the_weighted_mean_and_charge_follow_them(cfg):
    trial = run_trial(cfg)
    ledger, n, ev = trial.ledger, cfg.n_loads, cfg.ev_params
    box = ev_decision_box(n)
    weighted = np.empty((cfg.rounds, n))
    mean = np.zeros(n)
    for j, (resp, played) in enumerate(zip(ledger.responses, ledger.played)):
        assert box.contains(played)
        weighted[j] = weighted_signal(ev, resp[:n], resp[n:], played[:n], played[n:])
        mean = (j * mean + weighted[j]) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)
    fleet = EvFleet(ev, n, cfg.step_hours)
    states = fleet.step(weighted)
    assert trial.trajectories.tobytes() == np.ascontiguousarray(states[:, : cfg.track_loads]).tobytes()
    assert trial.saturation_events == fleet.saturation_events
