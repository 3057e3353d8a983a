"""The layer boundaries an external span tracer wraps stay where it looks.

Such a tracer finds each function as ``vars(owner)[attr]`` and replaces it
there, so every name below must be defined on that owner itself (a class
method on the class, not inherited; a module function in that module's
namespace) and must be what the code calls at run time, or its spans and
counts silently read zero.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from loadtrack import algorithms, cli, harness, loads
from loadtrack.cli import EXIT_OK, main
from loadtrack.harness import ScenarioConfig, run_experiment

WRAPPED = (
    (cli, ("resolve_settings", "run_experiment", "emit_outputs", "write_csv")),
    (harness, ("run_trial", "empirical_regret", "hindsight_optimum", "feedback_channel",
               "tcl_fleet_init")),
    (algorithms, ("prox_step", "sample_unit_sphere", "gradient_estimate", "full_gradient",
                  "project_shrunk_box")),
    (algorithms.FullInformationTracker, ("begin_round", "update")),
    (algorithms.BanditTracker, ("begin_round", "update")),
    (algorithms.PartialBanditTracker, ("begin_round", "update")),
    (algorithms.BernoulliFeedbackTracker, ("begin_round", "update")),
    (loads.TclFleet, ("step",)),
    (loads.EvFleet, ("step",)),
    (loads.NoiseSpec, ("sample",)),
    (loads.WeightedChargeObjective, ("value_and_gradient",)),
)

TCL_CFG = """\
[run]
scenario = tcl
feedback = full,bandit,partial,bernoulli
trials = 2
rounds = 20
seed = 3
compute_regret = true

[fleet]
n_loads = 6

[algorithm]
observed = 2
bernoulli_a = 1.5
lambda = 0.2
"""

EV_CFG = """\
[run]
scenario = ev
feedback = full
trials = 1
rounds = 20
seed = 3

[fleet]
n_loads = 4

[algorithm]
rho = 10
"""


def _label(owner, attr):
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


@pytest.mark.parametrize(
    "owner,attr",
    [pytest.param(owner, attr, id=_label(owner, attr)) for owner, attrs in WRAPPED for attr in attrs],
)
def test_wrapped_name_is_a_direct_attribute(owner, attr):
    assert attr in vars(owner), f"{_label(owner, attr)} is not defined on its owner"
    assert callable(vars(owner)[attr])


def test_every_wrapped_name_is_called_through_its_owner(tmp_path, monkeypatch):
    calls = {}
    bernoulli_full_rounds = []

    def counting(label, original):
        def wrapper(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            result = original(*args, **kwargs)
            if label == "BernoulliFeedbackTracker.update" and not result["bandit_round"]:
                bernoulli_full_rounds.append(result)
            return result
        return wrapper

    for owner, attrs in WRAPPED:
        for attr in attrs:
            label = _label(owner, attr)
            monkeypatch.setattr(owner, attr, counting(label, vars(owner)[attr]))
    for name, text in (("tcl", TCL_CFG), ("ev", EV_CFG)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path / name), "--quiet"]) == EXIT_OK
    missing = [_label(o, a) for o, attrs in WRAPPED for a in attrs if _label(o, a) not in calls]
    assert missing == []
    # Rounds per tracker, twins included: TCL 2 trials x 20 rounds (Bernoulli
    # plays 2 warm-up rounds more), EV 1 trial x 20 rounds, each case twice.
    updates = {"FullInformationTracker": 2 * (40 + 20), "BanditTracker": 2 * 40,
               "PartialBanditTracker": 2 * 40, "BernoulliFeedbackTracker": 2 * 44}
    for cls, rounds in updates.items():
        assert calls[f"{cls}.begin_round"] == calls[f"{cls}.update"] == rounds
    # One prox step per round, two (one per block) under partial feedback.
    assert calls["algorithms.prox_step"] == sum(updates.values()) + updates["PartialBanditTracker"]
    # One exact gradient per full-information TCL round: the full tracker's
    # TCL rounds and the Bernoulli full rounds (warm-up included). The EV
    # objective computes its weighted gradient itself.
    assert len(bernoulli_full_rounds) > 0
    assert calls["algorithms.full_gradient"] == 2 * 40 + len(bernoulli_full_rounds)
    # One sphere draw and one gradient estimate per bandit, partial and
    # Bernoulli aggregate round (warm-up included), and one shrunk-box
    # projection per Bernoulli aggregate round.
    bernoulli_aggregate = updates["BernoulliFeedbackTracker"] - len(bernoulli_full_rounds)
    assert bernoulli_aggregate > 0
    explored = updates["BanditTracker"] + updates["PartialBanditTracker"] + bernoulli_aggregate
    assert calls["algorithms.sample_unit_sphere"] == calls["algorithms.gradient_estimate"] == explored
    assert calls["algorithms.project_shrunk_box"] == bernoulli_aggregate
    # One EV objective call per EV round, twin included, so a mean per call is a mean per round.
    assert calls["WeightedChargeObjective.value_and_gradient"] == 2 * 20
    # One regret, and one hindsight solve, per trial with regret on: the TCL cases' 4 x 2 trials
    # and the EV case's one trial; the twins skip it.
    assert calls["harness.empirical_regret"] == calls["harness.hindsight_optimum"] == 4 * 2 + 1


def test_write_csv_rows_count_the_data_lines_it_writes(tmp_path, monkeypatch):
    # A tracer counts emitted rows as len(rows) of each write_csv call.
    written = []
    original = vars(cli)["write_csv"]

    def recording(path, header, rows):
        original(path, header, rows)
        written.append((path, len(rows)))

    monkeypatch.setattr(cli, "write_csv", recording)
    for name, text in (("tcl", TCL_CFG), ("ev", EV_CFG)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path / name), "--quiet"]) == EXIT_OK
    assert [p.name for p, _ in written] == ["rounds.csv", "summary.csv", "trajectories.csv"] * 2
    for path, rows in written:
        assert rows == len(path.read_text().splitlines()) - 1 > 0, path


@pytest.mark.parametrize("draw_ahead_cells", [0, None], ids=["draw-ahead", "serial"])
def test_run_experiment_runs_one_trial_span_per_trial(monkeypatch, draw_ahead_cells):
    # 32 cells per fill: above a threshold of 0, below the default one.
    if draw_ahead_cells is not None:
        monkeypatch.setattr(harness, "DRAW_AHEAD_CELLS", draw_ahead_cells)
    calls = []
    original = harness.run_trial

    def counting(config, trial_index=0, ahead=None):
        calls.append(trial_index)
        return original(config, trial_index, ahead)

    monkeypatch.setattr(harness, "run_trial", counting)
    result = run_experiment(ScenarioConfig(n_loads=4, rounds=8, trials=3, seed=1))
    assert calls == [0, 1, 2]
    assert len(result.summaries) == 3


def test_every_wrapped_name_runs_on_the_callers_thread_when_trials_draw_ahead(tmp_path, monkeypatch):
    # The tracer keeps one span stack, so a wrapped name called on the draw-ahead worker would
    # corrupt it. The worker runs only the first-pass response fills.
    monkeypatch.setattr(harness, "DRAW_AHEAD_CELLS", 0)
    caller = threading.get_ident()
    threads = {}
    worker_calls = []

    def recording(label, original):
        def wrapper(*args, **kwargs):
            threads.setdefault(label, set()).add(threading.get_ident())
            return original(*args, **kwargs)
        return wrapper

    for owner, attrs in WRAPPED:
        for attr in attrs:
            label = _label(owner, attr)
            monkeypatch.setattr(owner, attr, recording(label, vars(owner)[attr]))

    submit = ThreadPoolExecutor.submit

    def recording_submit(self, fn, *args, **kwargs):
        def run():
            worker_calls.append((threading.get_ident(), fn.__name__, args, kwargs))
            return fn(*args, **kwargs)
        return submit(self, run)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    for name, text in (("tcl", TCL_CFG), ("ev", EV_CFG.replace("trials = 1", "trials = 3"))):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path / name), "--quiet"]) == EXIT_OK
    assert len(threads) == sum(len(attrs) for _, attrs in WRAPPED)
    assert {label: ids for label, ids in threads.items() if ids != {caller}} == {}
    # One fill per trial after the first, twins included: TCL 4 cases x 2 x 1, EV 2 x 2.
    assert len(worker_calls) == 4 * 2 + 2 * 2
    assert all(ident != caller for ident, _, _, _ in worker_calls)
    assert {(fn, kwargs == {}) for _, fn, _, kwargs in worker_calls} == {("standard_normal", True)}
    # A fill is one block of rows x n_loads cells: 20 rounds, plus 2 warm-up rows under Bernoulli.
    assert sorted({args for _, _, args, _ in worker_calls}) == [(20 * 4,), (20 * 6,), (22 * 6,)]
