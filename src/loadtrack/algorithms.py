"""Round-by-round setpoint trackers for the four feedback regimes.

Every tracker runs the same two-phase protocol: ``begin_round`` returns
the dispatch vector actually sent to the loads, the environment answers
with a feedback observation, and ``update`` consumes that observation to
prepare the next round. A tracker only ever receives the observation
type its regime permits; anything else raises ``FeedbackMismatchError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Box,
    ConfigError,
    EnvBounds,
    StepSchedule,
    _same_length,
    _vector,
    bandit_probability,
    gradient_estimate,
    project_shrunk_box,
    prox_step,
    row_norms,
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
    "extend_running_mean",
    "full_gradient",
    "running_mean",
]


BERNOULLI_WARMUP = (False, True)  # the Bernoulli warm-up rounds, True for aggregate: one full, then one aggregate


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


def running_mean(mean: np.ndarray, t: int, x, out: np.ndarray | None = None) -> np.ndarray:
    """(t*mean + x) / (t + 1): ``mean``, the mean of t rows, with the row ``x`` appended."""
    out = np.multiply(mean, t, out=out)
    out += x
    out /= t + 1
    return out


def extend_running_mean(mean: np.ndarray, t: int, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Append ``rows`` one at a time to ``mean``, the mean of t rows; return the mean after the last.

    ``norms`` receives the norm of the mean after each row. The rows pass
    through ``running_mean`` in order, so each mean has the bits of the
    one an objective with rho != 0 commits after as many rounds. A trial
    fills its ``mean_norm`` column this way after the round loop, in
    slabs of at most ``core.SLAB_ROWS`` rows.
    """
    means = np.empty(rows.shape)
    for x, m in zip(rows, means):
        mean = running_mean(mean, t, x, out=m)
        t += 1
    row_norms(means, out=norms)
    return mean.copy()  # a copy, so the slab is freed now: one held until the next slab raised peak RSS


class QuadraticTrackingObjective:
    """Squared tracking error plus the running-mean penalty, and that running mean.

    The smooth loss is err^2 + rho*||mean incl. round t||^2. It is scored
    from every response (``value_and_gradient``) or from the aggregate
    alone (``value_from_total``). ``mean`` is the average of the
    ``rounds`` signals committed so far, and only a loss with rho != 0
    reads it: scoring such a loss keeps the candidate mean it was scored
    with (a later scoring replaces it), and ``advance`` commits that
    candidate. A loss with rho = 0 keeps none, so trackers advance only
    an objective with rho != 0.
    """

    def __init__(self, dim: int, rho: float = 0.0):
        if not rho >= 0:
            raise ValueError("rho must be nonnegative")
        self.rho = float(rho)
        self.mean = np.zeros(dim)
        self.rounds = 0
        self._candidate = None  # the mean with the last scored signal appended, until advance commits it

    def _loss(self, err: float, signal):
        """The smooth loss and the candidate mean after appending ``signal``, kept for ``advance`` (None if rho = 0)."""
        if self.rho == 0.0:
            return err * err, None
        signal = _vector(signal, "signal")
        _same_length(self.mean, signal, "running mean")
        self._candidate = cand = running_mean(self.mean, self.rounds, signal)
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

    def advance(self) -> None:
        """Commit the candidate mean of the last scored round; raises if no round is pending."""
        if self._candidate is None:
            raise RuntimeError("advance commits a round scored with rho != 0, and none is pending")
        self.mean, self._candidate = self._candidate, None
        self.rounds += 1


class _Tracker:
    """What every tracker holds: its schedule, box, objective, lam and ``signal``.

    ``signal`` is the iterate, starting at the origin. Rounds replace it
    and never write into it, because a full round plays it without a
    copy. Subclasses state their schedule ``kind`` and ``feedback`` channel.
    The base class enforces the begin_round/update alternation and holds
    the two shared update rules: ``_exact_step`` and the one-point step
    (``_explore``, then ``_one_point_step``).
    """

    def __init__(self, schedule: StepSchedule, box: Box, objective, lam: float,
                 rng: np.random.Generator | None = None):
        if schedule.kind != self.kind:
            raise ConfigError(f"expected a {self.kind} schedule, got {schedule.kind!r}")
        if not lam >= 0:
            raise ValueError("lam must be nonnegative")
        self.schedule = schedule
        self.box = box
        self.objective = objective
        self.lam = lam
        self.rng = rng
        self.signal = np.zeros(box.dim)
        self._played = None
        self._direction = None

    def next_feedback(self) -> str:
        return self.feedback

    def _require(self, obs, expected) -> None:
        if not isinstance(obs, expected):
            raise FeedbackMismatchError(
                f"{self.kind} round expects {expected.__name__}, got {type(obs).__name__}"
            )

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

    def _explore(self, k=None) -> np.ndarray:
        """Play ``signal`` with delta*u added to its first k coordinates (all of them if k is None).

        u is uniform on the unit sphere in k dimensions. The played row is
        range-checked with the rest of its block by ``loads.signal_block``.
        """
        played = self.signal.copy()
        self._direction = sample_unit_sphere(played.shape[0] if k is None else k, self.rng)
        played[:k] += self._direction * self.schedule.delta
        return self._mark_played(played)

    def _gradient_estimate(self, value: float) -> np.ndarray:
        u = self._direction
        return gradient_estimate(value, u, u.shape[0], self.schedule.delta)

    def _advance(self) -> None:
        """Commit the scored round to the objective's running mean, which only a loss with rho != 0 reads."""
        if self.objective.rho != 0.0:
            self.objective.advance()

    def _exact_step(self, obs, played: np.ndarray, eta: float, box: Box) -> float:
        """Prox step from ``played`` along the exact gradient onto ``box``; returns the loss."""
        self._require(obs, FullFeedback)
        value, grad = self.objective.value_and_gradient(obs.setpoint, obs.responses, played)
        self.signal = prox_step(played, grad, eta, self.lam, box)
        return value

    def _one_point_step(self, obs, played: np.ndarray, eta: float, box: Box) -> float:
        """Prox step from ``signal`` along the one-point estimate at ``played`` onto ``box``; returns the loss."""
        self._require(obs, AggregateFeedback)
        value = self.objective.value_from_total(obs.setpoint, obs.total, played)
        self.signal = prox_step(self.signal, self._gradient_estimate(value), eta, self.lam, box)
        return value


class FullInformationTracker(_Tracker):
    """Composite prox-gradient tracking with exact per-round gradients."""

    kind = feedback = "full"

    def begin_round(self) -> np.ndarray:
        # update replaces self.signal and never writes into it, so _mark_played's copy is the only one.
        return self._mark_played(self.signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        value = self._exact_step(obs, played, self.schedule.eta, self.box)
        self._advance()
        return {"loss": float(value)}


class BanditTracker(_Tracker):
    """Tracking from aggregate-only feedback via a one-point gradient estimate.

    The base signal lives in the shrunk box so the random perturbation
    played each round never leaves the decision set.
    """

    kind, feedback = "bandit", "aggregate"

    def begin_round(self) -> np.ndarray:
        return self._explore()

    def update(self, obs) -> dict:
        played = self._take_played()
        value = self._one_point_step(obs, played, self.schedule.eta, self.box.shrunk(self.schedule.delta))
        self._advance()
        return {"loss": float(value)}


class PartialBanditTracker(_Tracker):
    """Tracking when the last ``observed`` loads report individually.

    The unobserved block follows the one-point-estimate update inside its
    shrunk box; the observed block follows the exact-gradient update. The
    joint proximal objective separates over the blocks, so the two
    closed-form steps together solve it exactly.
    """

    kind = feedback = "partial"

    def __init__(
        self,
        schedule: StepSchedule,
        box: Box,
        objective,
        lam: float,
        observed: int,
        rng: np.random.Generator,
    ):
        super().__init__(schedule, box, objective, lam, rng)
        if not 1 <= observed <= box.dim - 1:
            raise ConfigError(f"observed must lie in [1, {box.dim - 1}], got {observed}")
        if objective.rho != 0.0:
            raise ConfigError("the mean penalty is unsupported under partial feedback; set rho=0")
        self.observed = observed
        self.blind = box.dim - observed
        self.blind_inner = Box(box.lo[: self.blind], box.hi[: self.blind]).shrunk(schedule.delta)
        self.observed_box = Box(box.lo[self.blind :], box.hi[self.blind :])

    def begin_round(self) -> np.ndarray:
        return self._explore(self.blind)

    def update(self, obs) -> dict:
        played = self._take_played()
        self._require(obs, PartialFeedback)
        if obs.observed.shape[0] != self.observed:
            raise ValueError(
                f"observation carries {obs.observed.shape[0]} responses, expected {self.observed}"
            )
        blind_signal, observed_signal = self.signal[: self.blind], self.signal[self.blind :]
        observed_effect = float(obs.observed @ observed_signal)
        blind_effect = float(obs.total) - observed_effect
        s = float(obs.setpoint)
        # Keep ** 2: float ** calls libm pow, which differed from err * err on 2,494 of 3,000,000 normal draws.
        value = (s - float(obs.total)) ** 2
        # The same loss reduced through either information channel; both
        # must agree with the direct value every round.
        observed_view = ((s - blind_effect) - observed_effect) ** 2
        blind_view = ((s - observed_effect) - blind_effect) ** 2
        grad_blind = self._gradient_estimate(value)
        grad_observed = -2.0 * obs.observed * (s - blind_effect - observed_effect)
        self.signal = np.concatenate([
            prox_step(blind_signal, grad_blind, self.schedule.eta, self.lam, self.blind_inner),
            prox_step(observed_signal, grad_observed, self.schedule.eta2, self.lam, self.observed_box),
        ])
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
    Warm-up plays the ``BERNOULLI_WARMUP`` rounds before the scored
    horizon; they do not enter the objective's running mean.
    """

    kind = "bernoulli"

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
        warmup: bool = True,
    ):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.probability = bandit_probability(a, horizon)  # checked before the plan is drawn
        self.plan = rng.random(horizon) < self.probability
        self.bandit_rounds = int(self.plan.sum())
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
        self.warmup_rounds = len(BERNOULLI_WARMUP) if warmup else 0
        self._steps = np.concatenate([np.array(BERNOULLI_WARMUP[: self.warmup_rounds], dtype=bool), self.plan])
        self._cursor = 0

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
            self.signal = project_shrunk_box(self.signal, self.schedule.delta, self.box)
            return self._explore()
        return self._mark_played(self.signal)

    def update(self, obs) -> dict:
        played = self._take_played()
        bandit = self._current_is_bandit()
        if bandit:
            # Updated onto the full box; the next aggregate round re-projects.
            value = self._one_point_step(obs, played, self.schedule.eta2, self.box)
        else:
            value = self._exact_step(obs, played, self.schedule.eta, self.box)
        if self._cursor >= self.warmup_rounds:
            self._advance()  # the mean covers the scored rounds only
        self._cursor += 1
        return {"loss": float(value), "bandit_round": bandit}
