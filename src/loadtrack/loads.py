"""Physical fleet models: TCL thermal dynamics and EV batteries.

Fleets turn adjustment signals into electrical responses and evolve
their internal state (temperature or state-of-charge). All per-load
quantities are stored as vectors over the fleet. The state is output
only, it never feeds back into the responses, so each fleet's ``step``
advances it through a whole block of rounds at once.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .algorithms import QuadraticTrackingObjective, extend_running_mean
from .core import SIGNAL_TOL, Box, _vector, slabs

__all__ = [
    "EvFleet",
    "EvParams",
    "InfeasibleLoadError",
    "NoiseSpec",
    "SamplingError",
    "SignalRangeError",
    "TclFleet",
    "TclRanges",
    "WeightedChargeObjective",
    "ev_decision_box",
    "running_mean_weights",
    "sample_truncated_gaussian",
    "signal_block",
    "steady_duty",
    "tcl_fleet_init",
    "weighted_signal",
]

MAX_REJECTIONS = 1_000_000
FLEET_INIT_MAX_REDRAWS = 1_000
STEADY_DUTY_WINDOW = (0.05, 0.95)  # the open interval every sampled TCL's steady duty lands in
EV_INITIAL_SOC = 0.75  # every vehicle's state of charge before the first round
SIMULTANEITY_TOL = 1e-2  # a vehicle charges and discharges at once when both its signals exceed this


class InfeasibleLoadError(ValueError):
    """Load parameters leave no room for control adjustments."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its draw budget."""


class SignalRangeError(ValueError):
    """An adjustment signal outside its range [lo, hi]; ``row`` is the first bad row of the block."""

    def __init__(self, row: int, lo: float, hi: float):
        super().__init__(f"adjustment signals must lie in [{lo:g}, {hi:g}]")
        self.row = int(row)


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated Gaussian noise: N(mean, sd) conditioned on [lo, hi]."""

    mean: float = 0.0
    sd: float = 0.5
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        _check_truncation(self.mean, self.sd, self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size=None):
        return sample_truncated_gaussian(self.mean, self.sd, self.lo, self.hi, rng, size=size)


def _check_truncation(mean, sd, lo, hi) -> None:
    """Reject arguments no draw can satisfy before any draw is made.

    A NaN passes a check written ``sd < 0`` but fails every acceptance
    test, so the sampler would burn its whole rejection budget first.
    """
    if not np.isfinite((mean, sd, lo, hi)).all():
        raise ValueError("noise mean, sd, lo and hi must be finite")
    if not lo < hi:
        raise ValueError("noise requires lo < hi")
    if not sd >= 0:
        raise ValueError("noise sd must be nonnegative")
    if sd == 0 and not lo <= mean <= hi:
        raise ValueError("degenerate sd=0 with mean outside [lo, hi]")


def sample_truncated_gaussian(mean, sd, lo, hi, rng: np.random.Generator, size=None):
    """Gaussian draw conditioned on [lo, hi], by rejection.

    The supports used here are at least two standard deviations wide, so
    acceptance stays high; a budget of one million rejected draws guards
    against degenerate configurations.
    """
    _check_truncation(mean, sd, lo, hi)
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    if sd == 0:
        out = np.full(n, float(mean))
        return float(out[0]) if scalar else out.reshape(size)
    # The first pass draws every cell in place, scaled and shifted in its own
    # buffer (the bits of mean + sd * z); later passes redraw, in order, only
    # the cells rejected so far.
    out = rng.standard_normal(n)
    out *= sd
    out += mean
    pending = np.flatnonzero(~((out >= lo) & (out <= hi)))
    rejected = pending.size
    while True:
        if rejected > MAX_REJECTIONS:
            raise SamplingError(f"more than {MAX_REJECTIONS} rejected draws for [{lo}, {hi}]")
        if not pending.size:
            return float(out[0]) if scalar else out.reshape(size)
        draws = mean + sd * rng.standard_normal(pending.size)
        ok = (draws >= lo) & (draws <= hi)
        out[pending[ok]] = draws[ok]
        pending = pending[~ok]
        rejected += pending.size


# --- Thermostatically controlled loads -----------------------------------


@dataclass(frozen=True)
class TclRanges:
    """Uniform sampling ranges for per-load thermal parameters."""

    resistance_lo: float = 1.5   # degC/kW
    resistance_hi: float = 2.5
    capacitance_lo: float = 8.0  # kWh/degC
    capacitance_hi: float = 12.0
    power_lo: float = 10.0       # kW
    power_hi: float = 18.0
    cop_lo: float = 2.0
    cop_hi: float = 3.0
    setpoint_lo: float = 20.0    # degC desired temperature
    setpoint_hi: float = 25.0

    def __post_init__(self):
        lo, hi = astuple(self)[::2], astuple(self)[1::2]  # resistance, capacitance, power, cop, setpoint
        if not all(a <= b for a, b in zip(lo, hi)):  # written so that a NaN fails it too
            raise ValueError("TCL ranges need lo <= hi")
        if not min(lo[:4]) > 0:
            raise ValueError("TCL resistance, capacitance, power and cop must be positive")


def signal_block(signals, box: Box) -> np.ndarray:
    """``signals`` as a (rounds, box.dim) float block, checked to lie in ``box`` widened by SIGNAL_TOL.

    Raises ``SignalRangeError`` naming the first row with a signal outside
    its range or a NaN, and that signal's range.
    """
    block = np.atleast_2d(np.asarray(signals, dtype=float))
    if block.shape[1] != box.dim:  # a narrower block would broadcast against the box
        raise ValueError(f"signal rows have length {block.shape[1]}, expected {box.dim}")
    lo, hi = box.lo - SIGNAL_TOL, box.hi + SIGNAL_TOL
    # Column extremes, so an admissible block makes no per-cell temporaries; a NaN fails them too.
    if len(block) and not ((block.max(axis=0) <= hi).all() and (block.min(axis=0) >= lo).all()):
        row, col = np.argwhere(~((block >= lo) & (block <= hi)))[0]  # row-major: the first bad row first
        raise SignalRangeError(row, box.lo[col], box.hi[col])
    return block


def steady_duty(resistance, rated_power, desired_temp, ambient):
    """m_bar = (theta_a - theta_d) / (P_R * R), the duty that holds a TCL at its desired temperature."""
    return (ambient - desired_temp) / (rated_power * resistance)


@dataclass
class TclFleet:
    """A fleet of thermostatically controlled loads and their temperatures.

    ``step`` is the fleet's thermal model. The per-load constants of every
    step (steady duty, swing, decay b and 1 - b) are computed once, when
    the fleet is built. ``box`` is the decision box, [-1, 1] per load.

    The response model: the steady duty m_bar is ``steady_duty`` and must
    lie strictly inside (0, 1), the swing is the distance from m_bar to the
    nearer of 0 and 1, a load's mean response per unit signal is
    ``response_base`` = (P_R / COP) * swing, and ``baseline_power`` is the
    consumption the setpoint is offset by.
    """

    resistance: np.ndarray
    capacitance: np.ndarray
    rated_power: np.ndarray
    cop: np.ndarray
    desired_temp: np.ndarray
    ambient: float
    step_hours: float
    theta: np.ndarray = field(init=False)
    m_bar: np.ndarray = field(init=False)
    response_base: np.ndarray = field(init=False)
    unit_power: np.ndarray = field(init=False)
    swing: np.ndarray = field(init=False)
    decay: np.ndarray = field(init=False)
    decay_rest: np.ndarray = field(init=False)
    box: Box = field(init=False)
    saturation_events = 0  # the duty is clipped to [0, 1] by design, so no step counts as a saturation

    def __post_init__(self):
        if not self.step_hours > 0:
            raise ValueError("hours must be positive")
        n = len(self.resistance)
        self.box = Box(np.full(n, -1.0), np.full(n, 1.0))  # not Box.symmetric: a tracked fleet may hold no load
        self.m_bar = steady_duty(self.resistance, self.rated_power, self.desired_temp, self.ambient)
        if not ((self.m_bar > 0.0) & (self.m_bar < 1.0)).all():  # written so that a NaN fails it too
            raise InfeasibleLoadError("steady duty must lie strictly inside (0, 1)")
        self.unit_power = self.rated_power / self.cop
        self.swing = np.minimum(self.m_bar, 1.0 - self.m_bar)
        self.response_base = self.unit_power * self.swing
        self.theta = self.desired_temp.astype(float).copy()
        self.decay = np.exp(-self.step_hours / (self.resistance * self.capacitance))
        self.decay_rest = 1.0 - self.decay

    def baseline_power(self) -> float:
        """Aggregate consumption when every load holds its steady duty."""
        return float(self.unit_power @ self.m_bar)

    def step(self, signals) -> np.ndarray:
        """Advance every load through a block of rounds of the first-order thermal model.

        ``signals`` is a (rounds, n) block of adjustment signals, or one
        row. The signal mu commands the duty m = clip(m_bar + mu * swing, 0, 1);
        the symmetric swing keeps m in [0, 1] and makes mu = 0 hold the
        steady state. Then theta' = b*theta + (1-b)*(theta_a - m*R*P_R)
        with b = exp(-h/(R*C)). The temperatures never feed back into the
        responses, so the forcing term is computed for the whole block at
        once and only the recurrence runs row by row. Returns the
        (rounds, n) temperatures after each row; ``theta`` holds the last.
        """
        block = signal_block(signals, self.box)
        # The per-row operations in the per-row order, so the bytes match a row-at-a-time step.
        forcing = block * self.swing
        forcing += self.m_bar
        np.maximum(forcing, 0.0, out=forcing)
        np.minimum(forcing, 1.0, out=forcing)
        forcing *= self.resistance
        forcing *= self.rated_power
        np.subtract(self.ambient, forcing, out=forcing)
        forcing *= self.decay_rest
        theta, carried = self.theta, np.empty_like(self.theta)
        for row in forcing:  # each row becomes its temperatures in place
            row += np.multiply(self.decay, theta, out=carried)
            theta = row
        self.theta = theta.copy()
        return forcing

    def draw_responses(self, noise: NoiseSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
        """A (rows, n) response block: each load's ``response_base`` plus one noise draw per cell.

        The base is added into the sampled block, so the draw makes one block.
        """
        responses = noise.sample(rng, size=(rows, self.box.dim))
        responses += self.response_base
        return responses

    def trajectories(self, played, responses, track: int, mean_norm: np.ndarray) -> np.ndarray:
        """Check every played row, then step just the first ``track`` loads, exactly as in the whole fleet.

        At ``track`` = 0 nothing is stepped: the check alone runs, and the
        result is the block's empty slice. The plain mean penalty averages
        the played rows themselves, so ``mean_norm`` receives the norm of
        the running mean of the block's last ``len(mean_norm)`` rows (those
        after a warm-up) after each of them.
        """
        block = signal_block(played, self.box)
        scored, mean = block[len(block) - len(mean_norm):], np.zeros(self.box.dim)
        for rows in slabs(len(scored)):
            mean = extend_running_mean(mean, rows.start, scored[rows], mean_norm[rows])
        block = block[:, :track]
        if not track:
            return block
        tracked = TclFleet(self.resistance[:track], self.capacitance[:track], self.rated_power[:track],
                           self.cop[:track], self.desired_temp[:track], self.ambient, self.step_hours)
        return tracked.step(block)

    def simultaneous(self, played) -> np.ndarray:
        """Per played row, whether some load charged and discharged at once: never, with one signal per load."""
        return np.zeros(len(played), dtype=bool)

    def objective(self, rho: float) -> QuadraticTrackingObjective:
        """The tracking objective with the plain mean penalty rho."""
        return QuadraticTrackingObjective(self.box.dim, rho)


def tcl_fleet_init(
    n_loads: int,
    rng: np.random.Generator,
    ranges: TclRanges = TclRanges(),
    ambient: float = 30.0,
    step_hours: float = 1.0 / 12.0,
) -> TclFleet:
    """Sample a fleet whose steady duties all land strictly inside ``STEADY_DUTY_WINDOW``.

    Each rejection pass draws one (5, k) table of the pending loads' parameters, rows in ``TclRanges`` order.
    """
    if n_loads < 1:
        raise ValueError("n_loads must be positive")
    bounds = np.reshape(astuple(ranges), (5, 2))
    params = np.empty((5, n_loads))
    pending = np.arange(n_loads)
    consecutive_rejects = 0
    while pending.size:
        k = pending.size
        draws = rng.uniform(bounds[:, :1], bounds[:, 1:], size=(5, k))
        r, _, p, _, d = draws
        m_bar = steady_duty(r, p, d, ambient)
        ok = (m_bar > STEADY_DUTY_WINDOW[0]) & (m_bar < STEADY_DUTY_WINDOW[1])
        params[:, pending[ok]] = draws[:, ok]
        if ok.any():
            consecutive_rejects = 0
        else:
            consecutive_rejects += k
            if consecutive_rejects > FLEET_INIT_MAX_REDRAWS:
                raise InfeasibleLoadError("parameter ranges cannot produce feasible steady duties")
        pending = pending[~ok]
    return TclFleet(*params, ambient, step_hours)


# --- Electric vehicles ----------------------------------------------------


@dataclass(frozen=True)
class EvParams:
    """Battery and charger constants shared by every vehicle in the fleet."""

    inj_eff: float = 0.85          # injection (charging) efficiency
    ext_eff: float = 0.85          # extraction (discharging) efficiency
    capacity_kwh: float = 10.0
    charge_rate_kw: float = 3.0
    discharge_rate_kw: float = 1.5

    def __post_init__(self):
        if not (0 < self.inj_eff <= 1 and 0 < self.ext_eff <= 1):
            raise ValueError("efficiencies must lie in (0, 1]")
        if not (self.capacity_kwh > 0 and self.charge_rate_kw > 0 and self.discharge_rate_kw > 0):
            raise ValueError("capacity and rates must be positive")


def ev_decision_box(n_vehicles: int) -> Box:
    """The stacked (charge, discharge) decision box: [0, 1] per charging signal, [-1, 0] per discharging."""
    zeros, ones = np.zeros(n_vehicles), np.ones(n_vehicles)
    return Box(np.concatenate([zeros, -ones]), np.concatenate([ones, zeros]))


def weighted_signal(params: EvParams, c_charge, c_discharge, charge_sig, discharge_sig) -> np.ndarray:
    """Battery-impact-weighted signal entering the state of charge: (inj_eff*c_c)*mu_c + (c_d*mu_d)/ext_eff."""
    term = params.inj_eff * np.asarray(c_charge, dtype=float) * charge_sig
    discharge = np.asarray(c_discharge, dtype=float) * discharge_sig
    discharge /= params.ext_eff
    term += discharge
    return term


def running_mean_weights(params: EvParams, responses) -> np.ndarray:
    """Row t: the means over rounds 1..t of the weights inj_eff*c_c, then c_d/ext_eff.

    A cumulative sum, so the rows of a prefix of ``responses`` are the first rows of the whole.
    """
    n = responses.shape[1] // 2
    weights = np.empty(responses.shape)
    np.multiply(params.inj_eff, responses[:, :n], out=weights[:, :n])
    np.divide(responses[:, n:], params.ext_eff, out=weights[:, n:])
    np.cumsum(weights, axis=0, out=weights)
    weights /= np.arange(1, len(weights) + 1)[:, None]
    return weights


@dataclass
class EvFleet:
    """A fleet of identical EV storage units: state of charge, saturation count and decision ``box``.

    The response model: ``response_base`` stacks each vehicle's charge rate,
    then its discharge rate, as the mean response per unit signal, and the
    setpoint is tracked from zero, so ``baseline_power`` is 0.
    """

    params: EvParams
    n_vehicles: int
    step_hours: float = 1.0 / 60.0

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be positive")
        if not self.step_hours > 0:
            raise ValueError("hours must be positive")
        self.box = ev_decision_box(self.n_vehicles)
        self.response_base = np.repeat([self.params.charge_rate_kw, self.params.discharge_rate_kw],
                                       self.n_vehicles)
        self.soc = np.full(self.n_vehicles, EV_INITIAL_SOC)
        self.saturation_events = 0

    def baseline_power(self) -> float:
        """Aggregate consumption the setpoint is offset by: none, since a vehicle idles at 0."""
        return 0.0

    def step(self, signals, responses, mean_norm: np.ndarray, track: int | None = None) -> np.ndarray:
        """Advance every vehicle through a block of rounds, clamp the SoC to [0, 1] and count saturations.

        ``signals`` and ``responses`` are the (rounds, 2n) stacked played
        and response blocks, or one row of each; the signals are checked
        against ``box`` first, and the two blocks must have the same shape.
        Returns the states of charge of the first ``track`` vehicles after
        each row (all of them by default, and a larger ``track`` keeps all,
        as a slice does); ``soc`` holds every vehicle's last. The rows are
        weighed and clamped in slabs of ``core.SLAB_ROWS``, so no (rounds, n)
        block is made for fewer columns, and ``mean_norm``, one cell per
        row, receives the norm of the running weighted mean after each row,
        from the same weighing.
        """
        signals, responses = signal_block(signals, self.box), np.atleast_2d(responses)
        if responses.shape != signals.shape:
            raise ValueError(
                f"response block has shape {responses.shape}, played block has shape {signals.shape}"
            )
        socs = np.empty((len(signals), len(self.soc[:track])))
        soc, mean, saturations = self.soc, np.zeros(self.n_vehicles), 0
        for rows in slabs(len(signals)):
            raw = weighted_signal(self.params, *np.hsplit(responses[rows], 2), *np.hsplit(signals[rows], 2))
            mean = extend_running_mean(mean, rows.start, raw, mean_norm[rows])
            raw *= self.step_hours / self.params.capacity_kwh
            clamped = np.empty_like(raw)
            for raw_row, soc_row in zip(raw, clamped):
                raw_row += soc
                # np.clip's bits at a third of its per-call cost.
                soc = np.minimum(np.maximum(raw_row, 0.0, out=soc_row), 1.0, out=soc_row)
            saturations += int(np.count_nonzero(raw != clamped))
            socs[rows] = clamped[:, :track]
        self.soc = soc.copy()
        self.saturation_events += saturations
        return socs

    def draw_responses(self, noise: NoiseSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
        """A (rows, 2n) response block: ``response_base`` plus noise, drawn for the charge half first."""
        n = self.n_vehicles
        responses = np.empty((rows, 2 * n))
        for half in (slice(None, n), slice(n, None)):
            responses[:, half] = noise.sample(rng, size=(rows, n))
            responses[:, half] += self.response_base[half]
        return responses

    def trajectories(self, played, responses, track: int, mean_norm: np.ndarray) -> np.ndarray:
        """The first ``track`` vehicles' states of charge; all of them step, so every saturation counts.

        ``mean_norm`` receives the norm of the running weighted mean after
        each row; an EV trial plays no warm-up, so it covers every row.
        """
        return self.step(played, responses, mean_norm, track)

    def simultaneous(self, played) -> np.ndarray:
        """Per played row, whether some vehicle charges and discharges beyond ``SIMULTANEITY_TOL`` at once.

        Reduced in slabs of ``core.SLAB_ROWS`` rows, so no block-sized temporary is made.
        """
        n, flags = self.n_vehicles, np.empty(len(played), dtype=bool)
        for rows in slabs(len(played)):
            slab = played[rows]
            np.any(np.minimum(np.abs(slab[:, :n]), np.abs(slab[:, n:])) > SIMULTANEITY_TOL, axis=1,
                   out=flags[rows])
        return flags

    def objective(self, rho: float) -> WeightedChargeObjective:
        """The tracking objective with the battery-impact-weighted mean penalty rho."""
        return WeightedChargeObjective(self.n_vehicles, rho, self.params)


class WeightedChargeObjective(QuadraticTrackingObjective):
    """Full-information EV objective: split-signal tracking with the weighted mean.

    Drop-in objective for ``FullInformationTracker`` over the stacked
    (charge, discharge) signal; response vectors stack the same way.
    Like the TCL objective it scores any signal; the fleet checks the
    played block. It states only its loss: with rho != 0,
    ``value_and_gradient`` weighs the signal once and scores the base
    class's candidate mean of that weighted signal, which the inherited
    ``advance`` commits. With rho = 0 it weighs nothing.
    """

    def __init__(self, n_vehicles: int, rho: float, params: EvParams):
        super().__init__(n_vehicles, rho)
        self.n_vehicles = n_vehicles
        self.params = params

    def _stacked(self, x, name: str) -> np.ndarray:
        x = _vector(x, name)
        if x.shape[0] != 2 * self.n_vehicles:
            raise ValueError(f"expected a stacked vector of length {2 * self.n_vehicles}")
        return x

    def value_and_gradient(self, setpoint, responses, signal):
        """Tracking loss with the weighted-mean penalty and its gradient.

        loss = (s - c_c.mu_c - c_d.mu_d)^2 + rho * ||weighted mean incl. round t||^2.
        The penalty gradients carry the battery-impact weights through the
        chain rule: inj_eff*c_c on the charge block, c_d/ext_eff on discharge.
        """
        n, params = self.n_vehicles, self.params
        responses = self._stacked(responses, "responses")
        signal = self._stacked(signal, "signal")
        c_charge, c_discharge = responses[:n], responses[n:]
        charge_sig, discharge_sig = signal[:n], signal[n:]
        err = float(setpoint) - float(c_charge @ charge_sig) - float(c_discharge @ discharge_sig)
        # Scaling by -2 is exact, so this has the bits of -2.0 * c * err.
        grad = (-2.0 * err) * responses
        if self.rho == 0.0:
            return err * err, grad
        loss, cand = self._loss(err, weighted_signal(params, c_charge, c_discharge, charge_sig, discharge_sig))
        weights = np.empty((2, n))
        np.multiply(params.inj_eff, c_charge, out=weights[0])
        np.divide(c_discharge, params.ext_eff, out=weights[1])
        weights *= 2.0 * self.rho / (self.rounds + 1)
        weights *= cand
        grad += weights.ravel()
        return loss, grad
