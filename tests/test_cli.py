"""CLI tests: config parsing, error paths, output files, determinism."""

from pathlib import Path

import pytest

from loadtrack import harness
from loadtrack.cli import EXIT_CONFIG, EXIT_OK, main, write_csv

DATA_DIR = Path(__file__).parent / "data"

TINY_CFG = """\
[run]
scenario = tcl
feedback = full,bandit
trials = 2
rounds = 20
seed = 9
compute_regret = true
track_loads = 2

[fleet]
n_loads = 3

[algorithm]
lambda = 0.5
"""


def write_cfg(tmp_path, text=TINY_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_outputs(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def test_missing_config_names_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_CONFIG
    assert "missing.cfg" in capsys.readouterr().err


def test_unknown_key_lists_alternatives(tmp_path, capsys):
    path = write_cfg(tmp_path, "[run]\nscenario = tcl\nfeedback = full\nvelocity = 3\n")
    code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "velocity" in err and "rounds" in err


def test_unknown_section_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, "[run]\nscenario = tcl\nfeedback = full\n\n[weather]\nrain = yes\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "weather" in capsys.readouterr().err


def test_invalid_combination_cites_constraint(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "[run]\nscenario = tcl\nfeedback = partial\nrounds = 20\n\n"
        "[fleet]\nn_loads = 3\n\n[algorithm]\nobserved = 5\n",
    )
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "observed" in capsys.readouterr().err


def test_scenario_required(capsys):
    assert main(["--feedback", "full"]) == EXIT_CONFIG
    assert "scenario" in capsys.readouterr().err


def test_same_seed_runs_are_byte_identical(tmp_path):
    path = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == EXIT_OK
    assert main(["--config", str(path), "--out", str(out_b), "--quiet"]) == EXIT_OK
    a, b = read_outputs(out_a), read_outputs(out_b)
    assert set(a) == {"rounds.csv", "summary.csv", "trajectories.csv"}
    assert a == b


def test_seed_flag_changes_results(tmp_path):
    path = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == EXIT_OK
    assert main(["--config", str(path), "--out", str(out_b), "--quiet", "--seed", "10"]) == EXIT_OK
    assert read_outputs(out_a)["rounds.csv"] != read_outputs(out_b)["rounds.csv"]


def test_golden_tiny_run(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    for name in ("rounds.csv", "summary.csv", "trajectories.csv"):
        golden = (DATA_DIR / f"golden_{name}").read_bytes()
        assert (out / name).read_bytes() == golden, f"{name} drifted from the golden file"


# Recorded before the closed-loop round was optimized; the bytes are the contract.
GOLDEN_RUNS = {
    "regimes": """\
[run]
scenario = tcl
feedback = full,bandit,partial,bernoulli
trials = 2
rounds = 60
seed = 11
compute_regret = true
track_loads = 3

[fleet]
n_loads = 20

[algorithm]
observed = 5
bernoulli_a = 2.0
""",
    "ev": """\
[run]
scenario = ev
feedback = full
trials = 2
rounds = 60
seed = 5
compute_regret = true
track_loads = 2

[fleet]
n_loads = 8

[algorithm]
rho = 100
lambda = 46
""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_regimes_and_ev_runs(tmp_path, name):
    path = write_cfg(tmp_path, GOLDEN_RUNS[name])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    for csv in ("rounds.csv", "summary.csv", "trajectories.csv"):
        golden = (DATA_DIR / f"golden_{name}_{csv}").read_bytes()
        assert (out / csv).read_bytes() == golden, f"{name} {csv} drifted from the golden file"


def test_unregularized_twin_skips_hindsight(tmp_path, monkeypatch):
    # The twin only supplies the mean-norm and l1 baselines; its regret is never written.
    calls = []
    original = harness.hindsight_optimum

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "hindsight_optimum", counting)
    path = write_cfg(tmp_path)  # two regularized cases, two trials each, regret on
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert len(calls) == 2 * 2


def test_manifest_reproduces_run(tmp_path):
    path = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == EXIT_OK
    manifest = out_a / "manifest.txt"
    assert manifest.exists()
    out_b = tmp_path / "b"
    assert main(["--config", str(manifest), "--out", str(out_b), "--quiet"]) == EXIT_OK
    assert read_outputs(out_a) == read_outputs(out_b)


def test_empty_feedback_list_writes_headers_only(tmp_path):
    path = write_cfg(tmp_path, "[run]\nscenario = tcl\nfeedback =\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert len(rounds) == 1 and rounds[0].startswith("scenario,feedback,t,")
    assert len((out / "summary.csv").read_text().splitlines()) == 1


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    path = write_cfg(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("LOADTRACK_OUT", str(env_out))
    assert main(["--config", str(path), "--quiet"]) == EXIT_OK
    assert (env_out / "rounds.csv").exists()


def test_flags_override_file_values(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet",
                 "--rounds", "12", "--feedback", "full"]) == EXIT_OK
    lines = (out / "rounds.csv").read_text().splitlines()
    assert len(lines) == 1 + 12  # single case, shortened horizon


def test_summary_has_one_row_per_case(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("tcl,full,") and lines[2].startswith("tcl,bandit,")


def test_writer_rejects_non_finite_cells(tmp_path):
    header = ("scenario", "feedback", "t", "value")
    rows = [("tcl", "full", 1, 1.0), ("tcl", "full", 2, float("nan"))]
    with pytest.raises(RuntimeError, match="value.*t=2"):
        write_csv(tmp_path / "bad.csv", header, rows)
    with pytest.raises(RuntimeError, match="non-finite.*'x'"):
        write_csv(tmp_path / "bad2.csv", ("x",), [(float("inf"),)])


def test_cli_entry_point_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    path = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["--config", str(path), "--out", str(blocker / "sub"), "--quiet"])
    assert code == 3
    assert capsys.readouterr().err.startswith("loadtrack: error")


FOUR_CASE_CFG = """\
[run]
scenario = tcl
feedback = full,bernoulli,partial,bandit
trials = 1
rounds = 30
seed = 4

[fleet]
n_loads = 6

[algorithm]
observed = 2
bernoulli_a = 2.0
"""


def test_summary_table_covers_all_four_regimes(tmp_path, capsys):
    path = write_cfg(tmp_path, FOUR_CASE_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    for fb in ("full", "bernoulli", "partial", "bandit"):
        assert fb in printed
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 5
    assert [ln.split(",")[1] for ln in lines[1:]] == ["full", "bernoulli", "partial", "bandit"]
