"""Tracker tests: hand-checked updates, feasibility, plan equivalences."""

import dataclasses
import math

import numpy as np
import pytest

from loadtrack.algorithms import (
    AggregateFeedback,
    BanditTracker,
    BernoulliFeedbackTracker,
    FeedbackMismatchError,
    FullFeedback,
    FullInformationTracker,
    PartialBanditTracker,
    PartialFeedback,
    QuadraticTrackingObjective,
)
from loadtrack.core import (
    Box,
    ConfigError,
    EnvBounds,
    StepSchedule,
    conservative_bounds,
    step_schedule,
)
from loadtrack.harness import ScenarioConfig

BOUNDS = EnvBounds(gradient_bound=20.0, loss_bound=100.0, diameter=2.0)


def _in_box(box, x, tol):
    """Whether every coordinate of ``x`` lies in ``box`` widened by ``tol``."""
    return bool((x >= box.lo - tol).all() and (x <= box.hi + tol).all())


def full_tracker(dim=1, eta=0.25, rho=0.0, lam=0.0):
    return FullInformationTracker(
        StepSchedule("full", eta), Box.symmetric(dim), QuadraticTrackingObjective(dim, rho), lam
    )


# --- full information -------------------------------------------------------


def test_full_info_hand_iteration():
    tracker = full_tracker(eta=0.25)
    played = tracker.begin_round()
    np.testing.assert_array_equal(played, [0.0])
    tracker.update(FullFeedback(np.array([1.0]), 1.0))
    assert tracker.signal[0] == pytest.approx(0.5)
    tracker.begin_round()
    tracker.update(FullFeedback(np.array([1.0]), 1.0))
    assert tracker.signal[0] == pytest.approx(0.75)


def test_full_info_zero_responses_freeze_signal():
    tracker = full_tracker(dim=3, eta=0.1)
    for _ in range(10):
        tracker.begin_round()
        tracker.update(FullFeedback(np.zeros(3), 5.0))
    np.testing.assert_array_equal(tracker.signal, 0.0)


def test_full_info_rejects_wrong_feedback():
    tracker = full_tracker()
    tracker.begin_round()
    with pytest.raises(FeedbackMismatchError):
        tracker.update(AggregateFeedback(0.0, 0.0))


def test_full_info_round_protocol_guard():
    tracker = full_tracker()
    with pytest.raises(RuntimeError):
        tracker.update(FullFeedback(np.array([1.0]), 1.0))
    tracker.begin_round()
    with pytest.raises(RuntimeError):
        tracker.begin_round()


def test_full_info_converges_on_fixed_quadratic():
    # T = 2000 rounds against one fixed (s, c) pair with a conservative
    # schedule: late-run losses must undercut the early ones.
    rng = np.random.default_rng(0)
    for _ in range(5):
        dim = int(rng.integers(1, 5))
        c = rng.uniform(0.2, 1.0, size=dim)
        s = float(rng.uniform(0.5, 0.5 * c.sum() + 1.0))
        box = Box.symmetric(dim)
        bounds = conservative_bounds(box, abs(s), float(c.max()))
        from loadtrack.core import step_schedule

        tracker = FullInformationTracker(
            step_schedule("full", 2000, dim, bounds), box, QuadraticTrackingObjective(dim), 0.0
        )
        losses = []
        for _ in range(2000):
            tracker.begin_round()
            info = tracker.update(FullFeedback(c, s))
            losses.append(info["loss"])
        assert np.mean(losses[-100:]) < np.mean(losses[:100])


# --- bandit -------------------------------------------------------------------


def bandit_tracker(dim=4, eta=0.01, delta=0.2, rho=0.0, lam=0.0, seed=0):
    return BanditTracker(
        StepSchedule("bandit", eta, delta=delta),
        Box.symmetric(dim),
        QuadraticTrackingObjective(dim, rho),
        lam,
        np.random.default_rng(seed),
    )


def test_bandit_played_signal_always_feasible():
    tracker = bandit_tracker(dim=6, eta=0.5, delta=0.3, lam=0.1, seed=3)
    rng = np.random.default_rng(4)
    box = Box.symmetric(6)
    for _ in range(200):
        played = tracker.begin_round()
        assert _in_box(box, played, 1e-12)
        c = rng.normal(size=6)
        tracker.update(AggregateFeedback(float(c @ played), float(rng.normal())))


def test_bandit_zero_case_stays_at_origin():
    tracker = bandit_tracker(dim=3)
    for _ in range(50):
        played = tracker.begin_round()
        info = tracker.update(AggregateFeedback(0.0, 0.0))
        assert info["loss"] == 0.0
    np.testing.assert_array_equal(tracker.signal, 0.0)


def test_bandit_loss_reconstruction_includes_mean_penalty():
    tracker = bandit_tracker(dim=2, rho=2.0)
    played = tracker.begin_round()
    info = tracker.update(AggregateFeedback(1.0, 3.0))
    expected = (3.0 - 1.0) ** 2 + 2.0 * float(played @ played)
    assert info["loss"] == pytest.approx(expected, rel=1e-12)


def test_bandit_rejects_full_feedback():
    tracker = bandit_tracker()
    tracker.begin_round()
    with pytest.raises(FeedbackMismatchError):
        tracker.update(FullFeedback(np.zeros(4), 0.0))


# --- partial bandit -------------------------------------------------------------


def partial_tracker(dim=5, observed=2, eta=0.02, eta2=0.1, delta=0.2, lam=0.0, seed=0):
    return PartialBanditTracker(
        StepSchedule("partial", eta, eta2=eta2, delta=delta),
        Box.symmetric(dim),
        QuadraticTrackingObjective(dim, 0.0),
        lam,
        observed,
        np.random.default_rng(seed),
    )


def _drive_partial(tracker, rounds=40, seed=1):
    rng = np.random.default_rng(seed)
    infos = []
    for _ in range(rounds):
        played = tracker.begin_round()
        c = rng.normal(size=tracker.box.dim) + 2.0
        s = float(3.0 * rng.normal())
        obs = PartialFeedback(c[-tracker.observed:].copy(), float(c @ played), s)
        infos.append(tracker.update(obs))
    return infos


def test_partial_decomposition_identity_every_round():
    tracker = partial_tracker(dim=6, observed=2, lam=0.05)
    for info in _drive_partial(tracker, rounds=100):
        scale = max(abs(info["loss"]), 1e-12)
        assert abs(info["loss_observed_view"] - info["loss"]) <= 1e-9 * scale
        assert abs(info["loss_blind_view"] - info["loss"]) <= 1e-9 * scale


def test_partial_played_signal_always_feasible():
    tracker = partial_tracker(dim=5, observed=2, eta=0.5, eta2=0.5, lam=0.2, seed=5)
    box = Box.symmetric(5)
    rng = np.random.default_rng(6)
    for _ in range(150):
        played = tracker.begin_round()
        assert _in_box(box, played, 1e-12)
        c = rng.normal(size=5)
        tracker.update(PartialFeedback(c[-2:].copy(), float(c @ played), float(rng.normal())))


def test_partial_nearly_full_reduces_to_one_bandit_coordinate():
    tracker = partial_tracker(dim=4, observed=3)
    tracker.begin_round()
    assert tracker.blind == 1
    assert tracker._direction.shape == (1,)
    assert tracker.signal[: tracker.blind].shape == (1,)
    assert tracker.signal[tracker.blind :].shape == (3,)


def test_partial_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        partial_tracker(dim=4, observed=4)
    with pytest.raises(ConfigError):
        PartialBanditTracker(
            StepSchedule("partial", 0.1, eta2=0.1, delta=0.2),
            Box.symmetric(4),
            QuadraticTrackingObjective(4, rho=1.0),
            0.0,
            2,
            np.random.default_rng(0),
        )


def test_partial_rejects_wrong_observation_width():
    tracker = partial_tracker(dim=5, observed=2)
    tracker.begin_round()
    with pytest.raises(ValueError):
        tracker.update(PartialFeedback(np.zeros(3), 0.0, 0.0))


def _interval_grid_min(mu_t, grad, eta, lam, lo, hi, step=1e-3):
    grid = np.arange(lo, hi, step)
    grid = np.concatenate([grid, [hi], [0.0] if lo < 0.0 < hi else []])
    values = eta * grad * grid + 0.5 * (mu_t - grid) ** 2 + eta * lam * np.abs(grid)
    return float(values.min())


def test_partial_joint_update_solves_block_separable_objective():
    # The joint proximal objective separates over coordinates, so the
    # product-grid minimum is the sum of per-coordinate grid minima.
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta1, eta2 = rng.uniform(0.02, 0.3, size=2)
        lam = float(rng.uniform(0.0, 1.5))
        delta = 0.2
        tracker = PartialBanditTracker(
            StepSchedule("partial", float(eta1), eta2=float(eta2), delta=delta),
            Box.symmetric(4),
            QuadraticTrackingObjective(4, 0.0),
            lam,
            2,
            np.random.default_rng(8),
        )
        tracker.signal = np.concatenate([rng.uniform(-0.8, 0.8, size=2), rng.uniform(-1, 1, size=2)])
        base = tracker.signal
        played = tracker.begin_round()
        c = rng.normal(size=4) + 1.5
        obs = PartialFeedback(c[-2:].copy(), float(c @ played), float(rng.normal() * 2))
        tracker.update(obs)
        update = tracker.signal

        # Recompute the two gradients exactly as the tracker defines them.
        observed_effect = float(obs.observed @ base[2:])
        blind_effect = obs.total - observed_effect
        value = (obs.setpoint - obs.total) ** 2
        g_blind = (2 / delta) * value * tracker._direction
        g_obs = -2.0 * obs.observed * (obs.setpoint - blind_effect - observed_effect)

        etas = np.array([eta1, eta1, eta2, eta2])
        lams = np.array([lam, lam, lam, lam])
        grads = np.concatenate([g_blind, g_obs])
        los = np.array([delta - 1, delta - 1, -1.0, -1.0])
        his = np.array([1 - delta, 1 - delta, 1.0, 1.0])

        closed_value = float(
            np.sum(etas * grads * update + 0.5 * (base - update) ** 2 + etas * lams * np.abs(update))
        )
        grid_value = sum(
            _interval_grid_min(base[i], grads[i], etas[i], lams[i], los[i], his[i])
            for i in range(4)
        )
        assert closed_value <= grid_value + 1e-6
        assert abs(closed_value - grid_value) <= 1e-6


# --- bernoulli feedback -----------------------------------------------------------


def make_bernoulli(horizon=50, dim=3, seed=0, rho=0.0, lam=0.0, **kw):
    return BernoulliFeedbackTracker(
        horizon,
        Box.symmetric(dim),
        QuadraticTrackingObjective(dim, rho),
        lam,
        BOUNDS,
        np.random.default_rng(seed),
        **kw,
    )


def _drive(tracker, responses, setpoints):
    played_all = []
    for c, s in zip(responses, setpoints):
        kind = tracker.next_feedback()
        played = tracker.begin_round()
        if kind == "full":
            tracker.update(FullFeedback(c, s))
        else:
            tracker.update(AggregateFeedback(float(c @ played), s))
        played_all.append(played)
    return np.array(played_all)


def test_bernoulli_plans_and_trajectories_deterministic():
    rng = np.random.default_rng(9)
    T, dim = 40, 3
    responses = rng.normal(size=(T + 2, dim)) + 1.0
    setpoints = rng.normal(size=T + 2)
    runs = []
    for _ in range(2):
        tracker = make_bernoulli(T, dim, seed=123, a=2.0)
        runs.append((tracker.plan.copy(), _drive(tracker, responses, setpoints)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_bernoulli_all_full_plan_matches_full_tracker():
    T, dim = 30, 2
    tracker = make_bernoulli(T, dim, a=0.0, warmup=False, rho=0.0, lam=0.05)
    reference = FullInformationTracker(
        StepSchedule("full", tracker.schedule.eta),
        Box.symmetric(dim),
        QuadraticTrackingObjective(dim, 0.0),
        0.05,
    )
    rng = np.random.default_rng(10)
    responses = rng.normal(size=(T, dim)) + 1.0
    setpoints = 2.0 * rng.normal(size=T)
    played_b = _drive(tracker, responses, setpoints)
    played_f = []
    for c, s in zip(responses, setpoints):
        played_f.append(reference.begin_round())
        reference.update(FullFeedback(c, s))
    np.testing.assert_array_equal(played_b, np.array(played_f))


def test_bernoulli_all_bandit_plan_matches_bandit_tracker():
    T, dim = 30, 3
    # a = T^(1/3) gives p = 1 exactly, so every round is an aggregate round.
    tracker = make_bernoulli(T, dim, seed=77, a=T ** (1.0 / 3.0), warmup=False, rho=0.0, lam=0.1)
    assert tracker.plan.all()
    reference_rng = np.random.default_rng(77)
    reference_rng.random(T)  # the draw the tracker makes for its plan
    reference = BanditTracker(
        StepSchedule("bandit", tracker.schedule.eta2, delta=tracker.schedule.delta),
        Box.symmetric(dim),
        QuadraticTrackingObjective(dim, 0.0),
        0.1,
        reference_rng,
    )
    rng = np.random.default_rng(11)
    responses = rng.normal(size=(T, dim)) + 1.0
    setpoints = 2.0 * rng.normal(size=T)
    played_b = _drive(tracker, responses, setpoints)
    played_r = []
    for c, s in zip(responses, setpoints):
        played = reference.begin_round()
        reference.update(AggregateFeedback(float(c @ played), s))
        played_r.append(played)
    np.testing.assert_array_equal(played_b, np.array(played_r))


def test_bernoulli_degenerate_probability_all_full():
    tracker = make_bernoulli(20, 2, a=0.0, warmup=False)
    assert tracker.probability == 0.0
    assert tracker.bandit_rounds == 0
    assert not tracker.plan.any()


def test_bernoulli_empirical_fraction():
    tracker = make_bernoulli(10_000, 2, seed=13, a=15.0)
    p = 15.0 / 10_000 ** (1.0 / 3.0)
    assert abs(tracker.plan.mean() - p) <= 0.02


def test_bernoulli_rejects_probability_above_one():
    with pytest.raises(ConfigError):
        make_bernoulli(horizon=8, a=7.6)  # 7.6 / 2 = 3.8 > 1


BAD_A = pytest.mark.parametrize("a", [-0.1, 7.6, math.nan], ids=["negative", "p-above-one", "nan"])


BANDIT_PROBABILITY_CALLERS = {
    "validate": lambda a: ScenarioConfig(feedback="bernoulli", rounds=8, bernoulli_a=a).resolved(),
    "tracker": lambda a: make_bernoulli(horizon=8, a=a),
    "step_schedule": lambda a: step_schedule("bernoulli", 8, 3, BOUNDS, bernoulli_a=a, bandit_rounds=2),
}


@BAD_A
@pytest.mark.parametrize("caller", list(BANDIT_PROBABILITY_CALLERS))
def test_each_caller_rejects_a_bad_bandit_probability_with_one_message(caller, a):
    # At T = 8, T^(1/3) = 2, so a = 7.6 gives p = 3.8.
    message = r"bandit probability a/T\^\(1/3\) = \S+ must lie in \[0, 1\]"
    if caller == "validate" and math.isnan(a):
        message = "bernoulli_a must be finite"  # validate's finite-field check comes first
    with pytest.raises(ConfigError, match=message):
        BANDIT_PROBABILITY_CALLERS[caller](a)


@BAD_A
def test_bernoulli_rejects_its_probability_before_touching_its_generator(a):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError):
        BernoulliFeedbackTracker(8, Box.symmetric(3), QuadraticTrackingObjective(3), 0.0, BOUNDS, rng, a=a)
    assert rng.bit_generator.state == state


def test_bernoulli_plan_exhaustion():
    tracker = make_bernoulli(4, 2, a=0.5, warmup=False)
    rng = np.random.default_rng(14)
    for _ in range(4):
        played = tracker.begin_round()
        c = rng.normal(size=2)
        if tracker.next_feedback() == "full":
            tracker.update(FullFeedback(c, 0.0))
        else:
            tracker.update(AggregateFeedback(float(c @ played), 0.0))
    with pytest.raises(RuntimeError):
        tracker.begin_round()


def test_bernoulli_feedback_mismatch():
    tracker = make_bernoulli(10, 2, a=0.0, warmup=False)
    tracker.begin_round()
    with pytest.raises(FeedbackMismatchError):
        tracker.update(AggregateFeedback(0.0, 0.0))


def test_bernoulli_warmup_prepends_one_full_one_bandit():
    tracker = make_bernoulli(10, 2, a=0.5, warmup=True)
    assert tracker.warmup_rounds == 2
    assert tracker.total_steps == 12
    assert tracker.next_feedback() == "full"
    played = tracker.begin_round()
    tracker.update(FullFeedback(np.ones(2), 1.0))
    assert tracker.next_feedback() == "aggregate"


def test_bernoulli_warmup_stays_out_of_the_running_mean():
    # The mean penalty and the ledger both cover the scored rounds only.
    tracker = make_bernoulli(10, 2, a=0.5, warmup=True, rho=3.0)
    rng = np.random.default_rng(15)
    responses = rng.normal(size=(3, 2)) + 1.0
    _drive(tracker, responses[:2], [1.0, 1.0])
    assert tracker.objective.rounds == 0
    played = _drive(tracker, responses[2:], [1.0])
    assert tracker.objective.rounds == 1
    np.testing.assert_array_equal(tracker.objective.mean, played[0])


# --- observation structure ----------------------------------------------------


def test_aggregate_feedback_carries_scalars_only():
    fields = dataclasses.fields(AggregateFeedback)
    assert [f.name for f in fields] == ["total", "setpoint"]
    obs = AggregateFeedback(1.5, 2.5)
    assert isinstance(obs.total, float) and isinstance(obs.setpoint, float)


def test_partial_feedback_carries_exactly_observed_coordinates():
    obs = PartialFeedback(np.zeros(10), 1.0, 2.0)
    assert obs.observed.shape == (10,)
    assert {f.name for f in dataclasses.fields(PartialFeedback)} == {"observed", "total", "setpoint"}


# --- construction ---------------------------------------------------------------


def _build(kind, objective, lam):
    box = Box.symmetric(4)
    rng = np.random.default_rng(0)
    if kind == "full":
        return FullInformationTracker(StepSchedule("full", 0.1), box, objective, lam)
    if kind == "bandit":
        return BanditTracker(StepSchedule("bandit", 0.1, delta=0.2), box, objective, lam, rng)
    if kind == "partial":
        schedule = StepSchedule("partial", 0.1, eta2=0.1, delta=0.2)
        return PartialBanditTracker(schedule, box, objective, lam, 2, rng)
    return BernoulliFeedbackTracker(20, box, objective, lam, BOUNDS, rng, a=1.0)


@pytest.mark.parametrize("kind", ["full", "bandit", "partial", "bernoulli"])
def test_tracker_keeps_the_objective_it_is_handed(kind):
    objective = QuadraticTrackingObjective(4)
    tracker = _build(kind, objective, 0.5)
    assert tracker.objective is objective
    assert tracker.lam == 0.5


@pytest.mark.parametrize("kind,build", [
    ("full", lambda box, objective, rng: FullInformationTracker(
        StepSchedule("bandit", 0.1, delta=0.2), box, objective, 0.0)),
    ("bandit", lambda box, objective, rng: BanditTracker(
        StepSchedule("full", 0.1), box, objective, 0.0, rng)),
    ("partial", lambda box, objective, rng: PartialBanditTracker(
        StepSchedule("bernoulli", 0.1, eta2=0.1, delta=0.2), box, objective, 0.0, 2, rng)),
])
def test_tracker_rejects_a_schedule_of_another_kind(kind, build):
    with pytest.raises(ConfigError, match=f"expected a {kind} schedule"):
        build(Box.symmetric(4), QuadraticTrackingObjective(4), np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["full", "bandit", "partial", "bernoulli"])
def test_tracker_rejects_negative_lam(kind):
    for lam in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="lam"):
            _build(kind, QuadraticTrackingObjective(4), lam)
