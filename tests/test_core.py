"""Kernel tests: losses, gradients, prox vs. grid oracle, sampling, schedules."""

import math

import numpy as np
import pytest

from loadtrack.algorithms import QuadraticTrackingObjective, extend_running_mean, full_gradient
from loadtrack.core import (
    Box,
    ConfigError,
    EnvBounds,
    StepSchedule,
    UnsupportedBoxError,
    bandit_probability,
    conservative_bounds,
    gradient_estimate,
    project_shrunk_box,
    prox_step,
    _soft_threshold_in_place,
    row_norms,
    sample_unit_sphere,
    step_schedule,
)


# --- losses (QuadraticTrackingObjective) -----------------------------------------


def _score(s, c, mu, rho=0.0, mean_prev=None):
    """Loss and gradient at ``mu`` of an objective whose (mean, rounds) so far is ``mean_prev``."""
    objective = QuadraticTrackingObjective(len(mu), rho)
    if mean_prev is not None:
        objective.mean, objective.rounds = mean_prev
    return objective.value_and_gradient(s, np.asarray(c, dtype=float), np.asarray(mu, dtype=float))


def test_tracking_loss_zero_cases():
    assert _score(0.0, [1.0, 2.0], [0.0, 0.0])[0] == 0.0
    assert _score(2.0, [1.0, 1.0], [1.0, 1.0])[0] == 0.0


def test_tracking_loss_hand_value():
    assert _score(2.0, [1.0, 1.0], [0.5, 0.0])[0] == pytest.approx(2.25, abs=1e-12)


def test_tracking_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        _score(1.0, [1.0, 2.0], [1.0])


def test_smooth_loss_reduces_to_tracking_when_rho_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.normal(size=4)
        mu = rng.uniform(-1, 1, size=4)
        s = rng.normal()
        mean = (rng.uniform(-1, 1, size=4), 3)
        err = s - float(c @ mu)
        assert _score(s, c, mu, 0.0, mean)[0] == err * err
        objective = QuadraticTrackingObjective(4)
        objective.mean, objective.rounds = mean
        assert objective.value_from_total(s, float(c @ mu), mu) == err * err


def test_smooth_loss_first_round_penalty_only():
    value, _ = _score(0.0, [0.0], [1.0], rho=1.0)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_smooth_loss_second_round_recurrence():
    mean_prev = (np.array([1.0]), 1)
    value, _ = _score(0.0, [0.0], [0.0], 4.0, mean_prev)
    assert value == pytest.approx(1.0, abs=1e-12)  # 4 * (1/2)^2
    objective = QuadraticTrackingObjective(1, 4.0)
    objective.mean, objective.rounds = mean_prev
    assert objective.value_from_total(0.0, 0.0, [0.0]) == value


# --- gradients --------------------------------------------------------------


def _fd_gradient(s, c, mu, rho, mean_prev, step=1e-6):
    grad = np.empty_like(mu)
    for i in range(mu.size):
        up, dn = mu.copy(), mu.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (_score(s, c, up, rho, mean_prev)[0] - _score(s, c, dn, rho, mean_prev)[0]) / (2 * step)
    return grad


def test_full_gradient_hand_values():
    _, g = _score(2.0, [1.0, 1.0], [0.0, 0.0])
    np.testing.assert_allclose(g, [-4.0, -4.0], atol=1e-12)
    _, g = _score(0.0, [0.0], [1.0], rho=2.0)
    np.testing.assert_allclose(g, [4.0], atol=1e-12)
    # The same values straight from the tracking error and the candidate mean.
    np.testing.assert_allclose(full_gradient(np.array([1.0, 1.0]), 2.0, 0.0, None, 1), [-4.0, -4.0], atol=1e-12)
    np.testing.assert_allclose(full_gradient(np.array([0.0]), 0.0, 2.0, np.array([1.0]), 1), [4.0], atol=1e-12)


def test_full_gradient_zero_at_exact_tracking():
    _, g = _score(3.0, [1.0, 2.0], [1.0, 1.0])
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_full_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(1, 5)
        c = rng.normal(size=n)
        mu = rng.uniform(-1, 1, size=n)
        s = rng.normal() * 3
        t = int(rng.integers(1, 10))
        mean_prev = (rng.uniform(-1, 1, size=n), t - 1)
        rho = float(rng.uniform(0, 3))
        _, g = _score(s, c, mu, rho, mean_prev)
        fd = _fd_gradient(s, c, mu, rho, mean_prev)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-4)


def test_full_gradient_penalty_follows_the_objective_round():
    # The round t comes from the objective's own mean, so it cannot disagree
    # with it: after k advances the penalty gradient at mean 1 is 2*rho/(k+1).
    objective = QuadraticTrackingObjective(1, rho=2.0)
    for k in range(4):
        assert objective.rounds == k
        _, g = objective.value_and_gradient(0.0, np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(g, [4.0 / (k + 1)], atol=1e-12)
        objective.advance()
    assert objective.rounds == 4


# --- one-point estimator ----------------------------------------------------


def test_gradient_estimate_zero_loss():
    np.testing.assert_array_equal(gradient_estimate(0.0, [1.0, 0.0], 2, 0.3), [0.0, 0.0])


def test_gradient_estimate_direct_formula():
    np.testing.assert_allclose(gradient_estimate(3.0, [1.0, 0.0], 2, 0.5), [12.0, 0.0])


def test_gradient_estimate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gradient_estimate(1.0, [1.0], 1, 0.0)
    with pytest.raises(ValueError):
        gradient_estimate(1.0, [0.5, 0.5], 2, 0.1)


def test_gradient_estimate_mean_one_dim():
    # f(mu) = (2 - mu)^2 at mu = 0; the two sphere points are +-1, so the
    # expectation is the average over both, replicated to 1e5 draws.
    delta = 0.01
    values = []
    for v in (1.0, -1.0):
        loss = (2.0 - delta * v) ** 2
        values.append(gradient_estimate(loss, [v], 1, delta)[0])
    assert np.mean(values) == pytest.approx(-4.0, abs=0.1)


def test_gradient_estimate_unbiased_on_quadratic():
    # Antithetic pairs keep the Monte-Carlo error of the one-point
    # estimator below the stated 0.1 tolerance at 1e5 total draws.
    rng = np.random.default_rng(42)
    c = np.array([1.0, -2.0, 0.5])
    mu = np.array([0.3, 0.1, -0.2])
    delta = 0.01
    n = 3

    def f(x):
        return (2.0 - c @ x) ** 2

    grad_true = -2.0 * c * (2.0 - c @ mu)
    total = np.zeros(n)
    pairs = 50_000
    for _ in range(pairs):
        v = sample_unit_sphere(n, rng)
        total += gradient_estimate(f(mu + delta * v), v, n, delta)
        total += gradient_estimate(f(mu - delta * v), -v, n, delta)
    estimate = total / (2 * pairs)
    np.testing.assert_allclose(estimate, grad_true, atol=0.1)


# --- sphere sampling ----------------------------------------------------------


def test_sphere_dim_one_is_sign():
    rng = np.random.default_rng(1)
    draws = {float(sample_unit_sphere(1, rng)[0]) for _ in range(50)}
    assert draws == {1.0, -1.0}


def test_sphere_unit_norm():
    rng = np.random.default_rng(2)
    for dim in (1, 2, 5, 40):
        v = sample_unit_sphere(dim, rng)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_sphere_coordinate_symmetry():
    rng = np.random.default_rng(3)
    draws = np.array([sample_unit_sphere(3, rng) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.02)


def test_sphere_rejects_zero_dim():
    with pytest.raises(ValueError):
        sample_unit_sphere(0, np.random.default_rng(0))


# --- prox step ----------------------------------------------------------------


def _prox_objective(mu, mu_t, grad, eta, lam):
    return eta * grad * mu + 0.5 * (mu_t - mu) ** 2 + eta * lam * np.abs(mu)


def _grid_min_1d(mu_t, grad, eta, lam, lo=-1.0, hi=1.0, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    return float(_prox_objective(grid, mu_t, grad, eta, lam).min())


def test_prox_identity_when_inactive():
    box = Box.symmetric(3)
    mu = np.array([0.2, -0.5, 0.9])
    np.testing.assert_allclose(prox_step(mu, np.zeros(3), 0.1, 0.0, box), mu)


def test_prox_hand_instances_vs_grid():
    box = Box.symmetric(1)
    out = prox_step([0.5], [1.0], 0.1, 2.0, box)
    np.testing.assert_allclose(out, [0.2], atol=1e-12)
    assert _prox_objective(out[0], 0.5, 1.0, 0.1, 2.0) <= _grid_min_1d(0.5, 1.0, 0.1, 2.0, step=1e-5) + 1e-6

    out = prox_step([0.9], [-5.0], 0.5, 0.0, box)
    np.testing.assert_allclose(out, [1.0], atol=1e-12)
    assert _prox_objective(out[0], 0.9, -5.0, 0.5, 0.0) <= _grid_min_1d(0.9, -5.0, 0.5, 0.0, step=1e-5) + 1e-6


def test_prox_matches_grid_oracle_random_instances():
    # 1-D and 2-D random composite instances; the 2-D objective separates
    # per coordinate, so the joint grid minimum is the sum of the
    # per-coordinate grid minima.
    rng = np.random.default_rng(11)
    for k in range(100):
        dim = 1 if k < 50 else 2
        mu_t = rng.uniform(-1, 1, size=dim)
        grad = rng.uniform(-3, 3, size=dim)
        eta = float(rng.uniform(0.01, 0.5))
        lam = float(rng.uniform(0.0, 2.0))
        box = Box.symmetric(dim)
        out = prox_step(mu_t, grad, eta, lam, box)
        closed = float(np.sum(_prox_objective(out, mu_t, grad, eta, lam)))
        grid = sum(_grid_min_1d(mu_t[i], grad[i], eta, lam) for i in range(dim))
        assert closed <= grid + 1e-6
        assert abs(closed - grid) <= 1e-6


def test_prox_output_always_in_box():
    rng = np.random.default_rng(12)
    box = Box(np.array([-0.4, 0.0, -1.0]), np.array([0.0, 0.7, 1.0]))
    for _ in range(200):
        out = prox_step(
            rng.uniform(-1, 1, size=3) * np.array([0.4, 0.7, 1.0]),
            rng.uniform(-10, 10, size=3),
            float(rng.uniform(0.01, 1.0)),
            float(rng.uniform(0.0, 5.0)),
            box,
        )
        assert _in_box(box, out, 1e-12)


def test_soft_threshold_monotone_in_weight():
    rng = np.random.default_rng(13)
    y = rng.uniform(-2, 2, size=50)
    previous = np.abs(_soft_threshold_in_place(np.array(y, dtype=float), 0.0))
    for thr in (0.1, 0.5, 1.0, 2.5):
        current = np.abs(_soft_threshold_in_place(np.array(y, dtype=float), thr))
        assert np.all(current <= previous + 1e-15)
        previous = current


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _signed_zero_samples(rng, n):
    y = rng.standard_normal(n)
    y[rng.random(n) < 0.2] = 0.0
    y[rng.random(n) < 0.2] = -0.0
    return y


def test_soft_threshold_zero_weight_matches_general_formula_bitwise():
    rng = np.random.default_rng(16)
    for n in (1, 7, 100):
        y = _signed_zero_samples(rng, n)
        y[0] = rng.choice([np.inf, -np.inf, -0.0])
        got = _soft_threshold_in_place(np.array(y, dtype=float), 0.0)
        assert _same_bits(got, np.sign(y) * np.maximum(np.abs(y) - 0.0, 0.0))


def test_soft_threshold_exact_zero_at_kink():
    assert _soft_threshold_in_place(np.array([0.2]), 0.2)[0] == 0.0
    assert _soft_threshold_in_place(np.array([-0.2]), 0.2)[0] == 0.0


def test_prox_rejects_box_without_zero():
    with pytest.raises(UnsupportedBoxError):
        prox_step([0.5], [0.0], 0.1, 0.0, Box(np.array([0.1]), np.array([1.0])))
    with pytest.raises(UnsupportedBoxError):
        prox_step([-0.5], [0.0], 0.1, 0.0, Box(np.array([-1.0]), np.array([-0.1])))


# --- projections ---------------------------------------------------------------


def test_project_shrunk_box_examples():
    box = Box.symmetric(1)
    np.testing.assert_allclose(project_shrunk_box([0.0], 0.3, box), [0.0])
    np.testing.assert_allclose(project_shrunk_box([1.0], 0.25, box), [0.75])
    np.testing.assert_allclose(
        project_shrunk_box([-1.0, 0.5], 0.1, Box.symmetric(2)), [-0.9, 0.5]
    )


def test_project_shrunk_box_idempotent_and_nonexpansive():
    rng = np.random.default_rng(14)
    box = Box.symmetric(4)
    for _ in range(100):
        delta = float(rng.uniform(0.05, 0.9))
        x = rng.uniform(-2, 2, size=4)
        y = rng.uniform(-2, 2, size=4)
        px = project_shrunk_box(x, delta, box)
        py = project_shrunk_box(y, delta, box)
        np.testing.assert_allclose(project_shrunk_box(px, delta, box), px, atol=1e-15)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_project_shrunk_box_rejects_bad_delta():
    with pytest.raises(ValueError):
        project_shrunk_box([0.0], 1.0, Box.symmetric(1))


# --- running mean ---------------------------------------------------------------


NAN = float("nan")
_BOUNDS = EnvBounds(1.0, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: StepSchedule("full", NAN), id="schedule-eta"),
    pytest.param(lambda: StepSchedule("partial", 0.1, eta2=NAN, delta=0.5), id="schedule-eta2"),
    pytest.param(lambda: EnvBounds(NAN, 1.0, 1.0), id="bounds-gradient"),
    pytest.param(lambda: EnvBounds(1.0, NAN, 1.0), id="bounds-loss"),
    pytest.param(lambda: EnvBounds(1.0, 1.0, NAN), id="bounds-diameter"),
    pytest.param(lambda: prox_step(np.zeros(2), np.ones(2), NAN, 0.0, Box.symmetric(2)), id="prox-eta"),
    pytest.param(lambda: prox_step(np.zeros(2), np.ones(2), 0.1, NAN, Box.symmetric(2)), id="prox-lam"),
    pytest.param(lambda: gradient_estimate(1.0, np.array([1.0, 0.0]), 2, NAN), id="estimate-delta"),
    pytest.param(lambda: step_schedule("full", 10, 2, _BOUNDS, chi=NAN), id="step-schedule-chi"),
    pytest.param(lambda: step_schedule("bernoulli", 10, 2, _BOUNDS, bernoulli_a=NAN, bandit_rounds=1),
                 id="step-schedule-bernoulli-a"),
])
def test_validators_reject_nan(call):
    with pytest.raises(ValueError):
        call()


def test_objective_advance_commits_the_candidate_of_the_last_scored_round():
    objective = QuadraticTrackingObjective(3, 3.0)
    objective.mean, objective.rounds = np.array([0.3, -0.2, 0.1]), 2
    with pytest.raises(RuntimeError, match="none is pending"):
        objective.advance()  # no round was scored yet
    first, last = np.array([-0.5, 0.75, 0.0]), np.array([0.5, 0.25, -1.0])
    objective.value_and_gradient(1.0, np.ones(3), first)
    objective.value_from_total(1.0, 0.5, last)  # a later scoring replaces the candidate, as after a warm-up round
    want = (2 * np.array([0.3, -0.2, 0.1]) + last) / 3
    objective.advance()
    assert objective.mean.tobytes() == want.tobytes()
    assert objective.rounds == 3
    with pytest.raises(RuntimeError, match="none is pending"):
        objective.advance()  # each scored round is committed once
    assert objective.mean.tobytes() == want.tobytes() and objective.rounds == 3


def test_a_loss_without_the_penalty_keeps_no_candidate():
    objective = QuadraticTrackingObjective(2)
    objective.value_and_gradient(1.0, np.ones(2), np.array([0.3, -0.4]))
    objective.value_from_total(1.0, 0.5, np.array([0.3, -0.4]))
    with pytest.raises(RuntimeError, match="none is pending"):
        objective.advance()
    assert not objective.mean.any() and objective.rounds == 0


def _extend(rows, mean=None, t=0):
    """The mean after appending ``rows`` to ``mean`` (the mean of t rows), and the norm after each row."""
    rows = np.asarray(rows, dtype=float)
    norms = np.empty(len(rows))
    mean = np.zeros(rows.shape[1]) if mean is None else mean
    return extend_running_mean(mean, t, rows, norms), norms


def test_running_mean_first_round():
    mean, norms = _extend([[0.3, -0.4]])
    np.testing.assert_allclose(mean, [0.3, -0.4])
    np.testing.assert_allclose(norms, [0.5])


def test_running_mean_two_rounds():
    mean, norms = _extend([[1.0], [0.0]])
    np.testing.assert_allclose(mean, [0.5])
    np.testing.assert_allclose(norms, [1.0, 0.5])


def test_running_mean_constant_sequence():
    mean, norms = _extend(np.full((10, 3), 0.7))
    np.testing.assert_allclose(mean, 0.7, atol=1e-12)
    np.testing.assert_allclose(norms, 0.7 * math.sqrt(3), atol=1e-12)


def test_running_mean_matches_batch_average():
    rng = np.random.default_rng(15)
    signals = rng.uniform(-1, 1, size=(200, 5))
    mean, norms = _extend(signals)
    np.testing.assert_allclose(mean, signals.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(norms[-1], np.linalg.norm(signals.mean(axis=0)), atol=1e-12)


def test_running_mean_continues_from_a_later_round_bitwise():
    # A second slab continues from the mean of the first: the same bits as one row at a time.
    rng = np.random.default_rng(16)
    signals = rng.uniform(-1, 1, size=(70, 4))
    head, head_norms = _extend(signals[:64])
    mean, norms = _extend(signals[64:], head, 64)
    m, want = np.zeros(4), []
    for t, x in enumerate(signals):
        m = (t * m + x) / (t + 1)
        want.append(math.sqrt(m @ m))
    assert mean.tobytes() == m.tobytes()
    assert head_norms.tolist() + norms.tolist() == want


def test_objective_rejects_a_wrong_length_signal_and_keeps_state():
    m = QuadraticTrackingObjective(3, 2.0)
    m.value_and_gradient(1.0, np.ones(3), np.array([0.1, 0.2, 0.3]))
    m.advance()
    before = m.mean.copy()
    for bad in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError):
            m.value_from_total(1.0, 0.5, bad)
        np.testing.assert_array_equal(m.mean, before)
        assert m.rounds == 1
    with pytest.raises(RuntimeError, match="none is pending"):
        m.advance()  # a rejected signal leaves no candidate to commit


def test_objective_rejects_nan_rho():
    with pytest.raises(ValueError):
        QuadraticTrackingObjective(2, float("nan"))


# --- schedules -------------------------------------------------------------------


def _bounds(G=2.0, B=10.0, D=20.0):
    return EnvBounds(G, B, D)


def test_step_schedule_full_hand_value():
    sched = step_schedule("full", 10_000, 100, _bounds(G=2.0), chi=1.0)
    assert sched.eta == pytest.approx(0.1, abs=1e-12)


def test_step_schedule_bandit_delta():
    sched = step_schedule("bandit", 10_000, 100, _bounds())
    assert sched.delta == pytest.approx(0.1, abs=1e-12)
    assert sched.eta > 0


def test_step_schedule_partial_shapes():
    sched = step_schedule("partial", 600, 100, _bounds(), observed=10, chi_full=2.0, chi_bandit=3.0)
    assert sched.kind == "partial"
    assert sched.eta > 0 and sched.eta2 > 0
    assert sched.delta == pytest.approx(600 ** -0.25)
    with pytest.raises(ConfigError):
        step_schedule("partial", 600, 100, _bounds(), observed=100)


def test_step_schedule_bernoulli_clamps_degenerate_delta():
    sched = step_schedule("bernoulli", 600, 100, _bounds(), bernoulli_a=7.6, bandit_rounds=0)
    assert sched.delta == 0.5


def test_step_schedule_bernoulli_realized_counts():
    sched = step_schedule("bernoulli", 600, 100, _bounds(G=2.0, B=10.0, D=20.0),
                          chi_full=1.0, chi_bandit=1.0, bernoulli_a=7.6, bandit_rounds=540)
    assert sched.eta == pytest.approx(20.0 / (2.0 * np.sqrt(600 - 540 + 1)))
    assert sched.eta2 == pytest.approx(20.0 / (10.0 * 100 * 541 ** 0.75))
    assert sched.delta == pytest.approx(541 ** -0.25)


def test_step_schedule_bernoulli_rejects_large_probability():
    with pytest.raises(ConfigError):
        step_schedule("bernoulli", 100, 10, _bounds(), bernoulli_a=7.6, bandit_rounds=10)


@pytest.mark.parametrize("horizon", [8, 440, 600, 1000])
def test_bandit_probability_runs_from_zero_to_exactly_one(horizon):
    assert bandit_probability(0.0, horizon) == 0.0
    assert bandit_probability(horizon ** (1.0 / 3.0), horizon) == 1.0  # a = T^(1/3)


def test_step_schedule_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        step_schedule("adaptive", 100, 10, _bounds())


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule("full", -1.0)
    with pytest.raises(ValueError):
        StepSchedule("bandit", 0.1, delta=1.0)


@pytest.mark.parametrize("kind,given", [
    ("bandit", {}),
    ("partial", {"delta": 0.2}),
    ("partial", {"eta2": 0.1}),
    ("bernoulli", {"delta": 0.2}),
    ("bernoulli", {"eta2": 0.1}),
])
def test_schedule_rejects_a_missing_step_size(kind, given):
    missing = "delta" if "delta" not in given else "eta2"
    with pytest.raises(ConfigError, match=f"^a {kind} schedule needs {missing}$"):
        StepSchedule(kind, 0.1, **given)


def test_conservative_bounds_match_formulas():
    box = Box.symmetric(100)
    b = conservative_bounds(box, setpoint_max=20.0, response_max=5.5, rho=2.0)
    n = 100
    inner = 20.0 + 5.5 * np.sqrt(n) * np.sqrt(n)
    assert b.loss_bound == pytest.approx(inner ** 2 + 2.0 * n)
    assert b.gradient_bound == pytest.approx(2 * 5.5 * np.sqrt(n) * inner + 2 * 2.0 * np.sqrt(n))
    assert b.diameter == pytest.approx(20.0)


# --- box ------------------------------------------------------------------------


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Box(np.array([np.inf]), np.array([np.inf]))


def test_box_keeps_read_only_copies_of_its_bounds():
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
    box = Box(lo, hi)
    lo[0] = 5.0
    assert box.lo[0] == -1.0
    with pytest.raises(ValueError):
        box.hi[0] = 0.0
    assert box.contains_zero
    assert not Box(np.array([0.5]), np.array([1.0])).contains_zero
    assert not Box(np.array([-1.0]), np.array([-0.5])).contains_zero


def test_box_shrunk_is_cached_per_delta():
    box = Box.symmetric(3)
    inner = box.shrunk(0.25)
    assert box.shrunk(0.25) is inner
    assert box.shrunk(0.5) is not inner
    np.testing.assert_array_equal(inner.hi, 0.75)
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError):
            box.shrunk(bad)


def _in_box(box, x, tol):
    """Whether every coordinate of ``x`` lies in ``box`` widened by ``tol``."""
    return bool((x >= box.lo - tol).all() and (x <= box.hi + tol).all())


def test_in_box_keeps_each_tolerance_apart():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    just_out = np.array([1.0 + 1e-10, 2.0])
    assert _in_box(box, just_out, 1e-9)
    assert not _in_box(box, just_out, 0.0)
    assert not _in_box(box, just_out, 1e-12)
    assert _in_box(box, np.array([-1.0, 0.0]), 0.0)
    assert not _in_box(box, np.array([-1.0 - 1e-8, 0.0]), 1e-12)
    assert not _in_box(box, np.array([math.nan, 0.0]), 1e-9)


def test_box_clip_matches_np_clip_bitwise():
    rng = np.random.default_rng(17)
    for n in (1, 7, 100, 1000):
        lo = -np.abs(rng.standard_normal(n))
        hi = np.abs(rng.standard_normal(n))
        lo[rng.random(n) < 0.3] = 0.0
        hi[rng.random(n) < 0.3] = 0.0
        box = Box(lo, hi)
        x = 2.0 * _signed_zero_samples(rng, n)
        assert _same_bits(box.clip(x), np.clip(x, box.lo, box.hi))


def test_norms_match_numpy_linalg_bitwise():
    rng = np.random.default_rng(18)
    for n in (1, 2, 7, 100, 1000):
        v = rng.standard_normal(n) * 10.0
        assert row_norms(v[None, :])[0] == float(np.linalg.norm(v))
        if n > 1:
            g = np.random.default_rng(n).standard_normal(n)
            u = sample_unit_sphere(n, np.random.default_rng(n))
            assert _same_bits(u, g / float(np.linalg.norm(g)))


@pytest.mark.parametrize("n", [1, 2, 64, 65, 100, 1000])
def test_slab_norms_match_the_per_row_dot_product_bitwise(n):
    # The mean_norm column is scored by slab after the loop; each norm keeps the bits of the per-row one.
    rows = np.random.default_rng(n).standard_normal((130, n)) * 10.0
    want = [math.sqrt(r @ r) for r in rows]
    assert row_norms(rows).tolist() == want
    out = np.empty(64)
    assert row_norms(rows[64:128], out=out) is out
    assert out.tolist() == want[64:128]


def test_box_shrunk_scales_asymmetric_boxes():
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 0.0]))
    inner = box.shrunk(0.2)
    np.testing.assert_allclose(inner.lo, [0.0, -0.8])
    np.testing.assert_allclose(inner.hi, [0.8, 0.0])
