"""Round-by-round setpoint trackers for the four feedback regimes.

Every tracker runs the same two-phase protocol: ``begin_round`` returns
the dispatch vector actually sent to the loads, the environment answers
with a feedback observation, and ``update`` consumes that observation to
prepare the next round. A tracker only ever receives the observation
type its regime permits; anything else raises ``FeedbackMismatchError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Box,
    ConfigError,
    EnvBounds,
    StepSchedule,
    _same_length,
    _vector,
    gradient_estimate,
    project_shrunk_box,
    prox_step,
    sample_unit_sphere,
    step_schedule,
)

__all__ = [
    "AggregateFeedback",
    "BanditTracker",
    "BernoulliFeedbackTracker",
    "FeedbackMismatchError",
    "FullFeedback",
    "FullInformationTracker",
    "PartialBanditTracker",
    "PartialFeedback",
    "QuadraticTrackingObjective",
    "full_gradient",
]


class FeedbackMismatchError(TypeError):
    """The observation handed to a tracker does not match its regime."""


@dataclass(frozen=True)
class FullFeedback:
    """Every load's response plus the setpoint."""

    responses: np.ndarray
    setpoint: float


@dataclass(frozen=True)
class AggregateFeedback:
    """Only the aggregate effect of the played signal plus the setpoint."""

    total: float
    setpoint: float


@dataclass(frozen=True)
class PartialFeedback:
    """Responses of the monitored loads, the aggregate effect, and the setpoint.

    ``observed`` holds the response coordinates of the individually
    monitored loads, which by convention sit at the end of the signal
    vector.
    """

    observed: np.ndarray
    total: float
    setpoint: float


def full_gradient(responses: np.ndarray, err: float, rho: float, cand, t: int) -> np.ndarray:
    """Smooth-loss gradient -2c*err + (2 rho / t) * cand; ``cand`` is unused when rho = 0."""
    grad = -2.0 * responses * err
    if rho != 0.0:
        grad = grad + (2.0 * rho / t) * cand
    return grad


class QuadraticTrackingObjective:
    """Squared tracking error plus the running-mean penalty, and that running mean.

    The smooth loss is err^2 + rho*||mean incl. round t||^2. It is scored
    from every response (``value_and_gradient``) or from the aggregate
    alone (``value_from_total``); ``advance`` appends the played signal
    to ``mean``, the average of the ``rounds`` signals appended so far.
    When rho != 0 the candidate mean the loss was scored with is kept,
    keyed on its signal object, and ``advance`` of that same signal
    reuses it.
    """

    def __init__(self, dim: int, rho: float = 0.0):
        if not rho >= 0:
            raise ValueError("rho must be nonnegative")
        self.rho = float(rho)
        self.mean = np.zeros(dim)
        self.rounds = 0
        self._scored = (None, None)  # (signal, candidate mean) of the last scored round

    def mean_norm(self) -> float:
        return math.sqrt(self.mean @ self.mean)

    def _candidate(self, signal) -> np.ndarray:
        """The running mean after appending ``signal``: (t*mean + signal) / (t + 1)."""
        signal = _vector(signal, "signal")
        _same_length(self.mean, signal, "running mean")
        return (self.rounds * self.mean + signal) / (self.rounds + 1)

    def _loss(self, err: float, signal):
        """The smooth loss and the candidate mean after appending ``signal`` (None if rho = 0)."""
        if self.rho == 0.0:
            return err * err, None
        cand = self._candidate(signal)
        self._scored = (signal, cand)
        return err * err + self.rho * float(cand @ cand), cand

    def value_and_gradient(self, setpoint, responses, signal):
        responses = _vector(responses, "responses")
        signal = _vector(signal, "signal")
        _same_length(responses, signal, "tracking loss")
        err = float(setpoint) - float(responses @ signal)
        value, cand = self._loss(err, signal)
        return value, full_gradient(responses, err, self.rho, cand, self.rounds + 1)

    def value_from_total(self, setpoint: float, total: float, signal) -> float:
        """Reconstruct the smooth loss when only the aggregate is observed."""
        return self._loss(float(setpoint) - float(total), signal)[0]

    def advance(self, played) -> None:
        scored, cand = self._scored
        self.mean = cand if played is scored else self._candidate(played)
        self._scored = (None, None)
        self.rounds += 1


def _require(obs, expected, regime: str):
    if not isinstance(obs, expected):
        raise FeedbackMismatchError(
            f"{regime} round expects {expected.__name__}, got {type(obs).__name__}"
        )


class _Tracker:
    """What every tracker holds: its schedule, box, objective and lam.

    It also enforces the begin_round/update alternation and runs the
    one-point exploration (``_explore``, then ``_gradient_estimate``).
    """

    def __init__(self, schedule: StepSchedule, box: Box, objective, lam: float, rng=None):
        if not lam >= 0:
            raise ValueError("lam must be nonnegative")
        self.schedule = schedule
        self.box = box
        self.objective = objective
        self.lam = lam
        self.rng = rng
        self._played = None
        self._direction = None

    def _mark_played(self, played: np.ndarray) -> np.ndarray:
        if self._played is not None:
            raise RuntimeError("begin_round called twice without update")
        self._played = played
        return played.copy()

    def _take_played(self) -> np.ndarray:
        if self._played is None:
            raise RuntimeError("update called before begin_round")
        played = self._played
        self._played = None
        return played

    def _explore(self, base: np.ndarray, tail=None) -> np.ndarray:
        """Play base + delta*u, u uniform on the unit sphere of base's length, then ``tail``."""
        self._direction = sample_unit_sphere(base.shape[0], self.rng)
        played = base + self.schedule.delta * self._direction
        if tail is not None:
            played = np.concatenate([played, tail])
        if not self.box.contains(played, tol=1e-9):
            raise RuntimeError("perturbed dispatch left the decision box")
        return self._mark_played(played)

    def _gradient_estimate(self, value: float) -> np.ndarray:
        u = self._direction
        return gradient_estimate(value, u, u.shape[0], self.schedule.delta)


class FullInformationTracker(_Tracker):
    """Composite prox-gradient tracking with exact per-round gradients."""

    def __init__(self, schedule: StepSchedule, box: Box, objective, lam: float):
        if schedule.kind != "full":
            raise ConfigError(f"expected a full-information schedule, got {schedule.kind!r}")
        super().__init__(schedule, box, objective, lam)
        self.signal = np.zeros(box.dim)

    def next_feedback(self) -> str:
        return "full"

    def begin_round(self) -> np.ndarray:
        # update replaces self.signal and never mutates it, so _mark_played's copy is the only one.
        return self._mark_played(self.signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        _require(obs, FullFeedback, "full-information")
        value, grad = self.objective.value_and_gradient(obs.setpoint, obs.responses, played)
        self.signal = prox_step(played, grad, self.schedule.eta, self.lam, self.box)
        self.objective.advance(played)
        return {"loss": float(value)}


class BanditTracker(_Tracker):
    """Tracking from aggregate-only feedback via a one-point gradient estimate.

    The base signal lives in the shrunk box so the random perturbation
    played each round never leaves the decision set.
    """

    def __init__(self, schedule: StepSchedule, box: Box, objective, lam: float, rng: np.random.Generator):
        if schedule.kind != "bandit" or schedule.delta is None:
            raise ConfigError(f"expected a bandit schedule with delta, got {schedule.kind!r}")
        super().__init__(schedule, box, objective, lam, rng)
        self.inner_box = box.shrunk(schedule.delta)
        self.signal = np.zeros(box.dim)

    def next_feedback(self) -> str:
        return "aggregate"

    def begin_round(self) -> np.ndarray:
        return self._explore(self.signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        _require(obs, AggregateFeedback, "bandit")
        value = self.objective.value_from_total(obs.setpoint, obs.total, played)
        grad_est = self._gradient_estimate(value)
        self.signal = prox_step(self.signal, grad_est, self.schedule.eta, self.lam, self.inner_box)
        self.objective.advance(played)
        return {"loss": float(value)}


class PartialBanditTracker(_Tracker):
    """Tracking when the last ``observed`` loads report individually.

    The unobserved block follows the one-point-estimate update inside its
    shrunk box; the observed block follows the exact-gradient update. The
    joint proximal objective separates over the blocks, so the two
    closed-form steps together solve it exactly.
    """

    def __init__(
        self,
        schedule: StepSchedule,
        box: Box,
        objective,
        lam: float,
        observed: int,
        rng: np.random.Generator,
    ):
        if schedule.kind != "partial" or schedule.eta2 is None or schedule.delta is None:
            raise ConfigError(f"expected a partial schedule with eta2 and delta, got {schedule.kind!r}")
        if not 1 <= observed <= box.dim - 1:
            raise ConfigError(f"observed must lie in [1, {box.dim - 1}], got {observed}")
        if objective.rho != 0.0:
            raise ConfigError("the mean penalty is unsupported under partial feedback; set rho=0")
        super().__init__(schedule, box, objective, lam, rng)
        self.observed = observed
        self.blind = box.dim - observed
        self.blind_box = Box(box.lo[: self.blind], box.hi[: self.blind])
        self.blind_inner = self.blind_box.shrunk(schedule.delta)
        self.observed_box = Box(box.lo[self.blind :], box.hi[self.blind :])
        self.blind_signal = np.zeros(self.blind)
        self.observed_signal = np.zeros(observed)

    def next_feedback(self) -> str:
        return "partial"

    @property
    def signal(self) -> np.ndarray:
        return np.concatenate([self.blind_signal, self.observed_signal])

    def begin_round(self) -> np.ndarray:
        return self._explore(self.blind_signal, self.observed_signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        _require(obs, PartialFeedback, "partial-bandit")
        if obs.observed.shape[0] != self.observed:
            raise ValueError(
                f"observation carries {obs.observed.shape[0]} responses, expected {self.observed}"
            )
        observed_effect = float(obs.observed @ self.observed_signal)
        blind_effect = float(obs.total) - observed_effect
        s = float(obs.setpoint)
        value = (s - float(obs.total)) ** 2
        # The same loss reduced through either information channel; both
        # must agree with the direct value every round.
        observed_view = ((s - blind_effect) - observed_effect) ** 2
        blind_view = ((s - observed_effect) - blind_effect) ** 2
        grad_blind = self._gradient_estimate(value)
        grad_observed = -2.0 * obs.observed * (s - blind_effect - observed_effect)
        self.blind_signal = prox_step(
            self.blind_signal, grad_blind, self.schedule.eta, self.lam, self.blind_inner
        )
        self.observed_signal = prox_step(
            self.observed_signal, grad_observed, self.schedule.eta2, self.lam, self.observed_box
        )
        self.objective.advance(played)
        return {
            "loss": float(value),
            "loss_observed_view": float(observed_view),
            "loss_blind_view": float(blind_view),
        }


class BernoulliFeedbackTracker(_Tracker):
    """Tracking when each round delivers full or aggregate feedback at random.

    The feedback type of every round is drawn up front with probability
    p = a / T^(1/3) of an aggregate round, and the two step sizes are set
    from the realized number of such rounds. Aggregate rounds project the
    signal into the shrunk box before perturbing and update back onto the
    full box, so full and aggregate rounds can follow each other freely.
    Warm-up plays one full and one aggregate round before the scored
    horizon; they do not enter the objective's running mean.
    """

    def __init__(
        self,
        horizon: int,
        box: Box,
        objective,
        lam: float,
        bounds: EnvBounds,
        rng: np.random.Generator,
        *,
        a: float = 7.6,
        chi_full: float = 1.0,
        chi_bandit: float = 1.0,
        plan=None,
        warmup: bool = True,
    ):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        # step_schedule below rejects a < 0 and a probability above 1.
        self.probability = a / horizon ** (1.0 / 3.0)
        if plan is None:
            plan = rng.random(horizon) < self.probability
        plan = np.asarray(plan, dtype=bool)
        if plan.shape != (horizon,):
            raise ConfigError(f"plan must have length {horizon}")
        self.plan = plan
        self.bandit_rounds = int(plan.sum())
        schedule = step_schedule(
            "bernoulli",
            horizon,
            box.dim,
            bounds,
            chi_full=chi_full,
            chi_bandit=chi_bandit,
            bernoulli_a=a,
            bandit_rounds=self.bandit_rounds,
        )
        super().__init__(schedule, box, objective, lam, rng)
        self.warmup_rounds = 2 if warmup else 0
        self._steps = np.concatenate([np.array([False, True][: self.warmup_rounds], dtype=bool), plan])
        self._cursor = 0
        self.signal = np.zeros(box.dim)
        self._base = None

    @property
    def total_steps(self) -> int:
        return self._steps.shape[0]

    def _current_is_bandit(self) -> bool:
        if self._cursor >= self.total_steps:
            raise RuntimeError("feedback plan exhausted")
        return bool(self._steps[self._cursor])

    def next_feedback(self) -> str:
        return "aggregate" if self._current_is_bandit() else "full"

    def begin_round(self) -> np.ndarray:
        if self._current_is_bandit():
            self._base = project_shrunk_box(self.signal, self.schedule.delta, self.box)
            return self._explore(self._base)
        return self._mark_played(self.signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        bandit = self._current_is_bandit()
        if bandit:
            _require(obs, AggregateFeedback, "aggregate-feedback")
            value = self.objective.value_from_total(obs.setpoint, obs.total, played)
            grad_est = self._gradient_estimate(value)
            # Updated onto the full box; the next aggregate round re-projects.
            self.signal = prox_step(self._base, grad_est, self.schedule.eta2, self.lam, self.box)
        else:
            _require(obs, FullFeedback, "full-feedback")
            value, grad = self.objective.value_and_gradient(obs.setpoint, obs.responses, played)
            self.signal = prox_step(played, grad, self.schedule.eta, self.lam, self.box)
        if self._cursor >= self.warmup_rounds:
            self.objective.advance(played)  # the mean covers the scored rounds only
        self._cursor += 1
        return {"loss": float(value), "bandit_round": bandit}
