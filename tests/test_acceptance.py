"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The TCL fleet parameters are configuration defaults, so the
quantitative targets carry the wide tolerances stated with each check.
"""

import numpy as np
import pytest

from loadtrack.algorithms import BernoulliFeedbackTracker, QuadraticTrackingObjective
from loadtrack.cli import main as cli_main
from loadtrack.core import (
    Box,
    ConfigError,
    EnvBounds,
    gradient_estimate,
    prox_step,
    sample_unit_sphere,
)
from loadtrack.harness import (
    FEEDBACK_REGIMES,
    ScenarioConfig,
    compute_metrics,
    empirical_regret,
    full_info_regret_bound,
    hindsight_optimum,
    run_experiment,
    run_trial,
)

TRIALS = 100
SEED = 0

# Regularization weights reported for each feedback regime.
REGULARIZATION = {
    "full": (250.0, 7.5),
    "bandit": (1.5, 60.0),
    "partial": (0.0, 40.0),
    "bernoulli": (2.5, 65.0),
}


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def tcl_unregularized():
    return {
        fb: run_experiment(ScenarioConfig(scenario="tcl", feedback=fb, trials=TRIALS, seed=SEED))
        for fb in FEEDBACK_REGIMES
    }


def test_criterion_1_feedback_ordering(tcl_unregularized):
    means = {fb: res.mean_summary()["improvement_pct"] for fb, res in tcl_unregularized.items()}
    assert means["full"] >= 85.0
    assert 15.0 <= means["bandit"] <= 60.0
    assert means["full"] > means["bernoulli"] > means["partial"] > means["bandit"]
    assert all(v > 0.0 for v in means.values())
    report(
        "1 (feedback ordering)",
        "full %.2f > bernoulli %.2f > partial %.2f > bandit %.2f"
        % (means["full"], means["bernoulli"], means["partial"], means["bandit"]),
    )


def test_criterion_2_regularization_cost(tcl_unregularized):
    details = []
    for fb, (rho, lam) in REGULARIZATION.items():
        unreg = tcl_unregularized[fb]
        reg = run_experiment(
            ScenarioConfig(scenario="tcl", feedback=fb, trials=TRIALS, seed=SEED, rho=rho, lam=lam)
        )
        drop = unreg.mean_summary()["improvement_pct"] - reg.mean_summary()["improvement_pct"]
        metrics = compute_metrics(reg, unreg)
        assert drop <= 15.0, f"{fb}: improvement dropped {drop:.2f}pp"
        assert metrics["sparsity_improvement_pct"] > 0.0, fb
        if rho > 0.0:
            assert metrics["mean_improvement_pct"] > 0.0, fb
        details.append(f"{fb} drop {drop:.2f}pp")
    report("2 (regularization cost)", "; ".join(details))


def test_criterion_3_regret_bound_and_sublinearity():
    trials = 20
    details = []
    for fb in FEEDBACK_REGIMES:
        cfg = ScenarioConfig(scenario="tcl", feedback=fb, trials=trials, seed=SEED).resolved()
        rate_full, rate_quarter = [], []
        for k in range(trials):
            trial = run_trial(cfg, k)
            T = cfg.rounds
            total = empirical_regret(trial.ledger, trial.box)
            quarter = empirical_regret(trial.ledger, trial.box, upto=T // 4)
            rate_full.append(total.total / T)
            rate_quarter.append(quarter.total / (T // 4))
            if fb == "full":
                bound = full_info_regret_bound(cfg.chi, trial.ledger, trial.bounds.loss_bound)
                assert total.total <= bound, f"trial {k}: regret {total.total:.1f} > bound {bound:.1f}"
        assert np.mean(rate_full) < np.mean(rate_quarter), fb
        details.append(f"{fb} R/t {np.mean(rate_quarter):.1f}->{np.mean(rate_full):.1f}")
    report("3 (regret bound + sublinearity)", "; ".join(details))


def test_criterion_4_estimator_monte_carlo():
    rng = np.random.default_rng(2024)
    c = np.array([1.0, -0.5, 2.0])
    mu = np.array([0.1, -0.3, 0.2])
    delta = 0.01
    dim = 3

    def f(x):
        return (2.0 - c @ x) ** 2

    analytic = -2.0 * c * (2.0 - c @ mu)
    total = np.zeros(dim)
    pairs = 50_000  # antithetic pairs: 1e5 estimator draws in total
    for _ in range(pairs):
        v = sample_unit_sphere(dim, rng)
        total += gradient_estimate(f(mu + delta * v), v, dim, delta)
        total += gradient_estimate(f(mu - delta * v), -v, dim, delta)
    estimate = total / (2 * pairs)
    err = np.abs(estimate - analytic).max()
    assert err <= 0.1
    report("4 (gradient estimator)", f"max coordinate error {err:.4f} <= 0.1")


def _coordinate_grid_min(mu_t, grad, eta, lam, lo=-1.0, hi=1.0, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    values = eta * grad * grid + 0.5 * (mu_t - grid) ** 2 + eta * lam * np.abs(grid)
    return float(values.min())


def test_criterion_5_prox_matches_grid():
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(100):
        dim = 1 if k < 50 else 2
        mu_t = rng.uniform(-1, 1, size=dim)
        grad = rng.uniform(-3, 3, size=dim)
        eta = float(rng.uniform(0.01, 0.5))
        lam = float(rng.uniform(0.0, 2.0))
        out = prox_step(mu_t, grad, eta, lam, Box.symmetric(dim))
        closed = float(
            np.sum(eta * grad * out + 0.5 * (mu_t - out) ** 2 + eta * lam * np.abs(out))
        )
        # The objective separates per coordinate, so the dense joint-grid
        # minimum is the sum of dense per-coordinate grid minima.
        grid = sum(_coordinate_grid_min(mu_t[i], grad[i], eta, lam) for i in range(dim))
        worst = max(worst, abs(closed - grid))
        assert abs(closed - grid) <= 1e-6
    report("5 (prox vs grid oracle)", f"worst value gap {worst:.2e} <= 1e-6")


def test_criterion_6_partial_loss_decomposition():
    cfg = ScenarioConfig(scenario="tcl", feedback="partial", trials=20, seed=SEED)
    worst = 0.0
    for k in range(20):
        trial = run_trial(cfg, k)
        for info in trial.infos:
            scale = max(abs(info["loss"]), 1e-12)
            gap = max(
                abs(info["loss_observed_view"] - info["loss"]),
                abs(info["loss_blind_view"] - info["loss"]),
            ) / scale
            worst = max(worst, gap)
            assert gap <= 1e-9
    report("6 (loss decomposition identity)", f"worst relative gap {worst:.2e} <= 1e-9")


def test_criterion_7_bernoulli_schedule():
    a, T = 7.6, 600
    p = a / T ** (1.0 / 3.0)
    assert p == pytest.approx(0.90, abs=0.01)
    box = Box.symmetric(10)
    bounds = EnvBounds(10.0, 100.0, 2.0 * np.sqrt(10))
    fractions = []
    for k in range(100):
        tracker = BernoulliFeedbackTracker(
            T, box, QuadraticTrackingObjective(10), 0.0, bounds, np.random.default_rng(k), a=a
        )
        fractions.append(tracker.plan.mean())
    frac = float(np.mean(fractions))
    assert abs(frac - 0.90) <= 0.03
    with pytest.raises(ConfigError):
        BernoulliFeedbackTracker(
            8, box, QuadraticTrackingObjective(10), 0.0, bounds, np.random.default_rng(0), a=7.6
        )
    report("7 (bernoulli schedule)", f"p {p:.4f}, empirical bandit fraction {frac:.4f}")


def test_criterion_8_ev_regularization():
    trials = 5
    unreg = run_experiment(ScenarioConfig(scenario="ev", feedback="full", trials=trials, seed=SEED))
    reg = run_experiment(
        ScenarioConfig(scenario="ev", feedback="full", trials=trials, seed=SEED, rho=100.0, lam=46.0, chi=35.0)
    )
    metrics = compute_metrics(reg, unreg)
    assert metrics["improvement_pct"] >= 50.0
    assert metrics["sparsity_improvement_pct"] >= 60.0
    assert metrics["mean_improvement_pct"] >= 40.0
    assert metrics["simultaneity_pct"] < 5.0
    assert compute_metrics(unreg)["simultaneity_pct"] > 50.0
    report(
        "8 (EV regularization)",
        "decrease %.2f%%, sparsity %.2f%%, weighted-mean %.2f%%, simultaneity %.2f%% vs %.2f%%"
        % (
            metrics["improvement_pct"], metrics["sparsity_improvement_pct"],
            metrics["mean_improvement_pct"], metrics["simultaneity_pct"],
            compute_metrics(unreg)["simultaneity_pct"],
        ),
    )


def _grid_hindsight_value(responses, setpoints, rho, lam, step=1e-3):
    # Exhaustive grid search of sum_t (s_t - r_t.mu)^2 + T*rho*|mu|^2
    # + T*lam*||mu||_1, evaluated through the expanded quadratic form
    # mu'Au - 2b'mu + sum s^2 (identical values, no (grid x T) blowup).
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


def test_criterion_9_hindsight_vs_grid():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        T = int(rng.integers(3, 12))
        responses = rng.normal(size=(T, dim))
        setpoints = 2.0 * rng.normal(size=T)
        rho = float(rng.uniform(0, 1))
        lam = float(rng.uniform(0, 1))
        result = hindsight_optimum(responses, setpoints, rho, lam, Box.symmetric(dim))
        gap = abs(result.value - _grid_hindsight_value(responses, setpoints, rho, lam))
        worst = max(worst, gap)
        assert gap <= 1e-4
    report("9 (hindsight oracle)", f"worst value gap {worst:.2e} <= 1e-4")


GRID_CFG = """\
[run]
scenario = tcl
feedback = full,bandit,partial,bernoulli
trials = 2
rounds = 600
seed = 123

[algorithm]
observed = 10
"""

EV_CFG = """\
[run]
scenario = ev
feedback = full
trials = 2
rounds = 600
seed = 123

[algorithm]
rho = 100
lambda = 46
"""


def test_criterion_10_grid_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        combined = {}
        for label, cfg_text in (("tcl", GRID_CFG), ("ev", EV_CFG)):
            cfg_path = tmp_path / f"{label}_{run}.cfg"
            cfg_path.write_text(cfg_text)
            out = tmp_path / f"{label}_{run}"
            assert cli_main(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            for csv in sorted(out.glob("*.csv")):
                combined[f"{label}/{csv.name}"] = csv.read_bytes()
        outputs.append(combined)
    assert outputs[0].keys() == outputs[1].keys()
    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    assert not mismatched, f"non-identical outputs: {mismatched}"
    report("10 (grid determinism)", f"{len(outputs[0])} CSV files byte-identical across reruns")
