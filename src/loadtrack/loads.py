"""Physical fleet models: TCL thermal dynamics and EV batteries.

Fleets turn adjustment signals into electrical responses and evolve
their internal state (temperature or state-of-charge). All per-load
quantities are stored as vectors over the fleet. The state is output
only, it never feeds back into the responses, so each fleet's ``step``
advances it through a whole block of rounds at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import QuadraticTrackingObjective
from .core import Box, _vector

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
    "tcl_fleet_init",
    "tcl_steady_control",
    "weighted_signal",
]

MAX_REJECTIONS = 1_000_000
FLEET_INIT_MAX_REDRAWS = 1_000
SIGNAL_TOL = 1e-9  # how far a signal may stray past its range before it is rejected


class InfeasibleLoadError(ValueError):
    """Load parameters leave no room for control adjustments."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its draw budget."""


class SignalRangeError(ValueError):
    """An adjustment signal outside [-1, 1]; ``row`` is the first bad row of the block."""

    def __init__(self, row: int):
        super().__init__("adjustment signals must lie in [-1, 1]")
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
        if not lo <= mean <= hi:
            raise ValueError("degenerate sd=0 with mean outside [lo, hi]")
        out = np.full(n, float(mean))
        return float(out[0]) if scalar else out.reshape(size)
    # The first pass draws every cell in place; later passes redraw, in
    # order, only the cells rejected so far.
    out = mean + sd * rng.standard_normal(n)
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


def signal_block(signals) -> np.ndarray:
    """``signals`` as a (rounds, n) float block, checked to lie in [-1, 1].

    Raises ``SignalRangeError`` naming the first row with a signal outside
    the range or a NaN.
    """
    block = np.atleast_2d(np.asarray(signals, dtype=float))
    # Written so that a NaN fails the checks too.
    if block.size and not (block.max() <= 1 + SIGNAL_TOL and block.min() >= -1 - SIGNAL_TOL):
        raise SignalRangeError(np.flatnonzero(~(np.abs(block) <= 1 + SIGNAL_TOL).all(axis=1))[0])
    return block


def tcl_steady_control(resistance, rated_power, cop, desired_temp, ambient):
    """Steady-state duty, response coefficient and unit power of a TCL.

    m_bar = (theta_a - theta_d) / (P_R * R) holds the load at its desired
    temperature; c0 = (P_R / COP) * min(m_bar, 1 - m_bar) is the power
    swing available per unit adjustment signal.
    """
    resistance = np.asarray(resistance, dtype=float)
    rated_power = np.asarray(rated_power, dtype=float)
    cop = np.asarray(cop, dtype=float)
    desired_temp = np.asarray(desired_temp, dtype=float)
    m_bar = (ambient - desired_temp) / (rated_power * resistance)
    if not ((m_bar > 0.0) & (m_bar < 1.0)).all():  # written so that a NaN fails it too
        raise InfeasibleLoadError("steady duty must lie strictly inside (0, 1)")
    unit_power = rated_power / cop
    response_base = unit_power * np.minimum(m_bar, 1.0 - m_bar)
    return m_bar, response_base, unit_power


@dataclass
class TclFleet:
    """A fleet of thermostatically controlled loads and their temperatures.

    ``step`` is the fleet's thermal model. The per-load constants of every
    step (steady duty, swing, decay b and 1 - b) are computed once, when
    the fleet is built.
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

    def __post_init__(self):
        if not self.step_hours > 0:
            raise ValueError("hours must be positive")
        self.m_bar, self.response_base, self.unit_power = tcl_steady_control(
            self.resistance, self.rated_power, self.cop, self.desired_temp, self.ambient
        )
        self.theta = self.desired_temp.astype(float).copy()
        self.swing = np.minimum(self.m_bar, 1.0 - self.m_bar)
        self.decay = np.exp(-self.step_hours / (self.resistance * self.capacitance))
        self.decay_rest = 1.0 - self.decay

    def head(self, k: int) -> "TclFleet":
        """A fleet of this fleet's first ``k`` loads, at their desired temperatures.

        Every per-load quantity is elementwise, so its loads step exactly as
        they would in the whole fleet.
        """
        return TclFleet(self.resistance[:k], self.capacitance[:k], self.rated_power[:k], self.cop[:k],
                        self.desired_temp[:k], self.ambient, self.step_hours)

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
        block = signal_block(signals)
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


def tcl_fleet_init(
    n_loads: int,
    rng: np.random.Generator,
    ranges: TclRanges = TclRanges(),
    ambient: float = 30.0,
    step_hours: float = 1.0 / 12.0,
) -> TclFleet:
    """Sample a fleet whose steady duties all land strictly inside (0.05, 0.95)."""
    if n_loads < 1:
        raise ValueError("n_loads must be positive")

    def draw(lo, hi, k):
        return rng.uniform(lo, hi, size=k)

    resistance = np.empty(n_loads)
    capacitance = np.empty(n_loads)
    rated_power = np.empty(n_loads)
    cop = np.empty(n_loads)
    desired = np.empty(n_loads)
    pending = np.arange(n_loads)
    consecutive_rejects = 0
    while pending.size:
        k = pending.size
        r = draw(ranges.resistance_lo, ranges.resistance_hi, k)
        c = draw(ranges.capacitance_lo, ranges.capacitance_hi, k)
        p = draw(ranges.power_lo, ranges.power_hi, k)
        q = draw(ranges.cop_lo, ranges.cop_hi, k)
        d = draw(ranges.setpoint_lo, ranges.setpoint_hi, k)
        m_bar = (ambient - d) / (p * r)
        ok = (m_bar > 0.05) & (m_bar < 0.95)
        idx = pending[ok]
        resistance[idx] = r[ok]
        capacitance[idx] = c[ok]
        rated_power[idx] = p[ok]
        cop[idx] = q[ok]
        desired[idx] = d[ok]
        if ok.any():
            consecutive_rejects = 0
        else:
            consecutive_rejects += k
            if consecutive_rejects > FLEET_INIT_MAX_REDRAWS:
                raise InfeasibleLoadError("parameter ranges cannot produce feasible steady duties")
        pending = pending[~ok]
    return TclFleet(resistance, capacitance, rated_power, cop, desired, ambient, step_hours)


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


def _check_ev_signals(charge_sig, discharge_sig):
    """Raise the message of the first block with a signal outside its range or a NaN."""
    # The bounds of ev_decision_box widened by SIGNAL_TOL; written so that a NaN fails them too.
    if not ((charge_sig >= -SIGNAL_TOL).all() and (charge_sig <= 1 + SIGNAL_TOL).all()):
        raise ValueError("charging signals must lie in [0, 1]")
    if not ((discharge_sig <= SIGNAL_TOL).all() and (discharge_sig >= -1 - SIGNAL_TOL).all()):
        raise ValueError("discharging signals must lie in [-1, 0]")


def _weigh(charge_weight, c_discharge, charge_sig, discharge_sig, ext_eff: float) -> np.ndarray:
    """(inj_eff*c_c)*mu_c + (c_d*mu_d)/ext_eff, from the charging weight inj_eff*c_c."""
    term = charge_weight * charge_sig
    discharge = c_discharge * discharge_sig
    discharge /= ext_eff
    term += discharge
    return term


def weighted_signal(params: EvParams, c_charge, c_discharge, charge_sig, discharge_sig):
    """Battery-impact-weighted signal entering the state of charge."""
    return _weigh(
        params.inj_eff * np.asarray(c_charge, dtype=float),
        np.asarray(c_discharge, dtype=float),
        charge_sig,
        discharge_sig,
        params.ext_eff,
    )


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
    """A fleet of identical EV storage units: state of charge and saturation count."""

    params: EvParams
    n_vehicles: int
    step_hours: float = 1.0 / 60.0
    initial_soc: float = 0.75

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be positive")
        if not 0 <= self.initial_soc <= 1:
            raise ValueError("initial_soc must lie in [0, 1]")
        if not self.step_hours > 0:
            raise ValueError("hours must be positive")
        self.soc = np.full(self.n_vehicles, float(self.initial_soc))
        self.saturation_events = 0

    def step(self, signals, responses) -> np.ndarray:
        """Advance every vehicle through a block of rounds, clamp the SoC to [0, 1] and count saturations.

        ``signals`` and ``responses`` are the (rounds, 2n) stacked played
        and response blocks, or one row of each; ``WeightedChargeObjective``
        has checked the signals. Returns the (rounds, n) states of charge
        after each row; ``soc`` holds the last.
        """
        signals, responses = np.atleast_2d(signals, responses)
        raw = weighted_signal(self.params, *np.hsplit(responses, 2), *np.hsplit(signals, 2))
        raw *= self.step_hours / self.params.capacity_kwh
        socs = np.empty_like(raw)
        soc = self.soc
        for raw_row, soc_row in zip(raw, socs):
            raw_row += soc
            # np.clip's bits at a third of its per-call cost; they would differ only
            # on a -0.0 sum, which needs initial_soc = -0.0.
            soc = np.minimum(np.maximum(raw_row, 0.0, out=soc_row), 1.0, out=soc_row)
        self.soc = soc.copy()
        self.saturation_events += int(np.count_nonzero(raw != socs))
        return socs


class WeightedChargeObjective(QuadraticTrackingObjective):
    """Full-information EV objective: split-signal tracking with the weighted mean.

    Drop-in objective for ``FullInformationTracker`` over the stacked
    (charge, discharge) signal; response vectors stack the same way.
    ``value_and_gradient`` checks the stacked signal once, against ``box``
    (the EV decision box), and weights it once; ``advance`` folds that
    weighted signal into the running mean ``mean``.
    """

    def __init__(self, n_vehicles: int, rho: float, params: EvParams):
        super().__init__(n_vehicles, rho)
        self.n_vehicles = n_vehicles
        self.params = params
        self.box = ev_decision_box(n_vehicles)
        self._pending = None  # weighted signal of the round being scored

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
        if not self.box.contains(signal, tol=SIGNAL_TOL):
            _check_ev_signals(signal[:n], signal[n:])  # the same bounds per block: this raises
        c_charge, c_discharge = responses[:n], responses[n:]
        charge_sig, discharge_sig = signal[:n], signal[n:]
        charge_weight = params.inj_eff * c_charge
        self._pending = term = _weigh(charge_weight, c_discharge, charge_sig, discharge_sig, params.ext_eff)
        err = float(setpoint) - float(c_charge @ charge_sig) - float(c_discharge @ discharge_sig)
        # Scaling by -2 is exact, so this has the bits of -2.0 * c * err.
        grad = (-2.0 * err) * responses
        loss, cand = self._loss(err, term)
        if self.rho != 0.0:
            weights = np.empty((2, n))
            weights[0] = charge_weight
            np.divide(c_discharge, params.ext_eff, out=weights[1])
            weights *= 2.0 * self.rho / (self.rounds + 1)
            weights *= cand
            grad += weights.ravel()
        return loss, grad

    def advance(self, played) -> None:
        """Fold the round that ``value_and_gradient`` just scored into the weighted mean.

        ``played`` is that call's signal.
        """
        if self._pending is None:
            raise ValueError("the EV objective advances only a round that value_and_gradient scored")
        weighted, self._pending = self._pending, None
        super().advance(weighted)
