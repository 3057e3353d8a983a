"""Property tests over small random closed-loop runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadtrack.core import SIGNAL_TOL, Box
from loadtrack.harness import ScenarioConfig, hindsight_optimum, run_trial
from loadtrack.loads import (
    EvParams,
    SignalRangeError,
    ev_decision_box,
    running_mean_weights,
    signal_block,
    weighted_signal,
)


def _in_box(box, x, tol):
    """Whether every coordinate of ``x`` lies in ``box`` widened by ``tol``."""
    return bool((x >= box.lo - tol).all() and (x <= box.hi + tol).all())


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
        assert _in_box(trial.box, played, 1e-12)
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
    mean, soc, saturations = np.zeros(n), np.full(n, 0.75), 0
    for j, (resp, played) in enumerate(zip(ledger.responses, ledger.played)):
        assert _in_box(box, played, 1e-12)
        weighted = weighted_signal(ev, resp[:n], resp[n:], played[:n], played[n:])
        mean = (j * mean + weighted) / (j + 1)
        assert ledger.mean_norm[j] == math.sqrt(mean @ mean)
        raw = soc + (cfg.step_hours / ev.capacity_kwh) * weighted
        soc = np.clip(raw, 0.0, 1.0)
        saturations += int(np.count_nonzero(raw != soc))
        assert trial.trajectories[j].tobytes() == soc[: cfg.track_loads].tobytes()
    assert trial.saturation_events == saturations


# Each bound of the decision boxes, its widened edge, the floats either side of that edge, and NaN.
_EDGES = [edge for bound in (-1.0, 0.0, 1.0) for widened in (bound - SIGNAL_TOL, bound + SIGNAL_TOL)
          for edge in (bound, widened, np.nextafter(widened, -np.inf), np.nextafter(widened, np.inf))]
_CELLS = st.sampled_from(_EDGES + [math.nan]) | st.floats(-1.5, 1.5)


@st.composite
def boxes_and_blocks(draw):
    n = draw(st.integers(1, 4))
    box = draw(st.sampled_from([Box.symmetric(n), Box.symmetric(2 * n), ev_decision_box(n)]))
    rows = draw(st.integers(1, 6))
    cells = draw(st.lists(_CELLS, min_size=rows * box.dim, max_size=rows * box.dim))
    return box, np.array(cells).reshape(rows, box.dim)


@settings(max_examples=300, deadline=None)
@given(boxes_and_blocks())
def test_signal_block_rejects_exactly_the_cells_outside_the_widened_box(case):
    box, block = case
    # One cell at a time, in Python floats: a NaN fails both comparisons.
    bad = [(i, j) for i, row in enumerate(block.tolist()) for j, x in enumerate(row)
           if not box.lo[j] - SIGNAL_TOL <= x <= box.hi[j] + SIGNAL_TOL]
    if not bad:
        assert signal_block(block, box).tobytes() == block.tobytes()
        return
    with pytest.raises(SignalRangeError) as info:
        signal_block(block, box)
    row, col = bad[0]
    assert info.value.row == row
    named = {(-1.0, 1.0): "[-1, 1]", (0.0, 1.0): "[0, 1]", (-1.0, 0.0): "[-1, 0]"}[box.lo[col], box.hi[col]]
    assert str(info.value) == f"adjustment signals must lie in {named}"


@st.composite
def box_qps(draw):
    """A hindsight problem: T from 1 to 14 rounds, 1 to 10 coordinates (so T < dim too), rho and lam >= 0."""
    T, weighted = draw(st.integers(1, 14)), draw(st.booleans())
    dim = 2 * draw(st.integers(1, 5)) if weighted else draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    responses = rng.normal(size=(T, dim)) * draw(st.sampled_from([0.3, 1.0, 3.0])) + draw(st.floats(-2.0, 2.0))
    setpoints = rng.normal(size=T) * draw(st.floats(0.1, 5.0))
    rho = draw(st.just(0.0) | st.floats(0.0, 5.0))
    # lam as a fraction of max |2 R^T s| / T, above which the origin is optimal on a symmetric box.
    lam = draw(st.just(0.0) | st.floats(-4.0, 0.5).map(lambda e: 10.0 ** e))
    lam *= float(np.abs(2.0 * responses.T @ setpoints).max()) / T
    ev = EvParams(inj_eff=draw(st.floats(0.5, 1.0)), ext_eff=draw(st.floats(0.5, 1.0))) if weighted else None
    half = dim // 2
    split = Box(np.r_[np.zeros(half), -np.ones(dim - half)], np.r_[np.ones(half), np.zeros(dim - half)])
    return responses, setpoints, rho, lam, draw(st.sampled_from([Box.symmetric(dim), split])), ev


@settings(max_examples=1000, deadline=None)
@given(box_qps())
def test_hindsight_solution_meets_the_kkt_conditions(case):
    responses, setpoints, rho, lam, box, ev = case
    mu = hindsight_optimum(responses, setpoints, rho, lam, box, ev).signal
    assert _in_box(box, mu, 0.0)
    # The objective's quadratic form, one round's running-mean map M_t at a time.
    T, dim = responses.shape
    A = responses.T @ responses
    weights = None if ev is None else running_mean_weights(ev, responses)
    for t in range(T):
        if weights is None:
            M = np.eye(dim)
        else:  # m_t(mu) = w_t[:n] * mu[:n] + w_t[n:] * mu[n:]
            M = np.hstack([np.diag(weights[t, : dim // 2]), np.diag(weights[t, dim // 2:])])
        A += rho * M.T @ M
    b, l1_weight = responses.T @ setpoints, T * lam
    grad = 2.0 * (A @ mu - b)
    violation = 0.0
    for i in range(dim):
        # -grad_i must lie in the subdifferential of l1_weight * |mu_i| plus the box's normal cone at mu_i.
        low = -math.inf if mu[i] == box.lo[i] else (l1_weight if mu[i] > 0 else -l1_weight)
        high = math.inf if mu[i] == box.hi[i] else (-l1_weight if mu[i] < 0 else l1_weight)
        violation = max(violation, low + grad[i], -grad[i] - high)
    assert violation <= 1e-9 * max(1.0, float(np.abs(2.0 * b).max()), l1_weight)
