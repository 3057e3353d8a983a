"""CLI tests: config parsing, error paths, output files, determinism."""

import configparser
import dataclasses
import hashlib
import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loadtrack import cli, harness, loads
from loadtrack.cli import ENV_OUT, EXIT_CONFIG, EXIT_OK, Block, Rows, main, write_csv
from loadtrack.harness import ScenarioConfig, SetpointSpec
from loadtrack.loads import EvParams, NoiseSpec, TclRanges

DATA_DIR = Path(__file__).parent / "data"
CONFIGS_DIR = Path(__file__).parent.parent / "configs"
BENCH_DIR = Path(__file__).parent.parent / "perfbench"

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


def test_config_directory_is_rejected_by_name(tmp_path, capsys):
    folder = tmp_path / "folder.cfg"
    folder.mkdir()
    out = tmp_path / "out"
    assert main(["--config", str(folder), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "folder.cfg" in err
    assert not out.exists()


def test_non_utf8_config_is_rejected_by_name(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"[run]\nscenario = tcl\nfeedback = full\n# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot read config file" in err and "latin.cfg" in err
    assert not out.exists()


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
    # TCL with an active mean penalty, on the full and the Bernoulli path.
    "penalty": """\
[run]
scenario = tcl
feedback = full,bernoulli
trials = 2
rounds = 60
seed = 13
compute_regret = true
track_loads = 3

[fleet]
n_loads = 20

[algorithm]
rho = 250
lambda = 0.5
bernoulli_a = 2.0
bernoulli_mean_penalty = true
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


def test_only_each_cases_kept_trial_steps_tracked_loads(tmp_path, monkeypatch):
    # Neither a later trial's nor the twin's trajectories are written, so neither steps a TCL load.
    blocks = []
    original = vars(loads.TclFleet)["step"]

    def recording(self, block):
        blocks.append(np.shape(block))
        return original(self, block)

    monkeypatch.setattr(loads.TclFleet, "step", recording)
    path = write_cfg(tmp_path)  # two cases at lambda = 0.5, so each has a twin; two trials each
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
    assert blocks == [(20, 2), (20, 2)]


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


TWINLESS_CFG = """\
[run]
scenario = tcl
feedback = bernoulli,full
trials = 3
rounds = 600
seed = 4

[algorithm]
rho = 2.5
"""


def test_no_twin_runs_for_a_case_with_nothing_to_regularize(tmp_path, monkeypatch):
    # Bernoulli feedback without its mean penalty optimizes rho = 0, so at lambda = 0 a twin would
    # repeat the case; the full case's rho is in effect and it keeps its twin.
    calls = []
    original = cli.run_experiment

    def counting(config):
        calls.append(config.feedback)
        return original(config)

    monkeypatch.setattr(cli, "run_experiment", counting)
    path = write_cfg(tmp_path, TWINLESS_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert calls == ["bernoulli", "full", "full"]
    bernoulli = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert bernoulli[:3] == ["tcl", "bernoulli", "2.5"] and bernoulli[6:8] == ["0", "0"]


SPEC_SECTIONS_CFG = """\
[run]
scenario = tcl
feedback = full,bernoulli
trials = 1
rounds = 30
seed = 2

[algorithm]
bernoulli_a = 2.0
chi_bandit = 5000

[fleet]
n_loads = 5
step_hours = 0.05
resistance_lo = 1.6

[setpoint]
amplitude = 4

[noise]
sd = 0.25
hi = 1.5
"""

MANIFEST_RUNS = {"tiny": TINY_CFG, "spec_sections": SPEC_SECTIONS_CFG, **GOLDEN_RUNS}


def _settings_lines(manifest: Path) -> list:
    """The manifest lines a rerun must repeat: no comments, no output directory."""
    return [ln for ln in manifest.read_text().splitlines()
            if not ln.startswith(("#", "out = "))]


@pytest.mark.parametrize("name", sorted(MANIFEST_RUNS))
def test_manifest_reproduces_run(tmp_path, name):
    path = write_cfg(tmp_path, MANIFEST_RUNS[name])
    out_a = tmp_path / "a"
    assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == EXIT_OK
    manifest = out_a / "manifest.txt"
    assert manifest.exists()
    out_b = tmp_path / "b"
    assert main(["--config", str(manifest), "--out", str(out_b), "--quiet"]) == EXIT_OK
    assert read_outputs(out_a) == read_outputs(out_b)
    assert _settings_lines(manifest) == _settings_lines(out_b / "manifest.txt")


def test_a_percent_sign_in_a_config_value_is_read_as_written(tmp_path):
    out = tmp_path / "x%y"
    path = write_cfg(tmp_path, TINY_CFG.replace("[fleet]", f"out = {out}\n\n[fleet]"))
    assert main(["--config", str(path), "--quiet"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.txt", "rounds.csv", "summary.csv", "trajectories.csv"]


def test_the_manifest_of_an_output_path_with_a_percent_sign_reruns(tmp_path):
    path = write_cfg(tmp_path)
    for name in ("r_50%", "run#2"):  # a '#' starts a comment only after whitespace
        out_a = tmp_path / name
        assert main(["--config", str(path), "--out", str(out_a), "--quiet"]) == EXIT_OK
        manifest = out_a / "manifest.txt"
        assert f"\nout = {out_a}\n" in manifest.read_text()
        out_b = tmp_path / f"{name}-rerun"
        assert main(["--config", str(manifest), "--out", str(out_b), "--quiet"]) == EXIT_OK
        assert read_outputs(out_a) == read_outputs(out_b)


@pytest.mark.parametrize("name,via", [
    ("run #2", "--out"), ("run ;2", "--out"), ("run\n#2", "--out"), ("run ", ENV_OUT), (" run", ENV_OUT),
])
def test_an_output_path_the_manifest_cannot_carry_is_rejected_before_output(tmp_path, monkeypatch, capsys,
                                                                             name, via):
    # read_config strips values and cuts a comment after whitespace, so the manifest would rerun elsewhere.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUT, raising=False)
    path = write_cfg(tmp_path)
    argv = ["--config", str(path), "--quiet"]
    if via == ENV_OUT:
        monkeypatch.setenv(ENV_OUT, name)
    else:
        argv += [via, name]
    assert main(argv) == EXIT_CONFIG
    assert f"output path {name!r} would not read back" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def _manifest_comments(manifest: Path) -> dict:
    return dict(ln[2:].split(": ", 1) for ln in manifest.read_text().splitlines()
                if ln.startswith("# ") and ": " in ln)


def test_final_manifest_reports_peak_memory_and_emission_time(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    comments = _manifest_comments(out / "manifest.txt")
    assert float(comments["peak_rss_mb"]) > 0.0
    assert float(comments["emit_seconds"]) >= 0.0
    settings = cli.resolve_settings(cli.parse_args(["--config", str(path), "--out", str(out)]))
    pending = tmp_path / "pending.txt"
    pending.write_text(cli._manifest_text(settings, None, []))
    assert _settings_lines(out / "manifest.txt") == _settings_lines(pending)


def _run_cli_in_a_child(path, out, **env_vars):
    """Run the CLI on ``path`` in a child process; ``env_vars`` are set in the child's environment only."""
    package_root = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "loadtrack.cli", "--config", str(path), "--out", str(out), "--quiet"]
    subprocess.run(argv, env=env, check=True, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the Linux high-water mark")
def test_manifest_peak_memory_is_the_runs_own_not_its_launchers(tmp_path):
    # On Linux a process started by exec keeps its launcher's ru_maxrss, so a run launched from a
    # process holding this buffer would report at least the buffer's size.
    ballast = np.ones(128 * 2**20 // 8)  # 128 MiB, every page touched
    path = write_cfg(tmp_path)
    out = tmp_path / "out"
    _run_cli_in_a_child(path, out)
    peak = float(_manifest_comments(out / "manifest.txt")["peak_rss_mb"])
    assert 0.0 < peak < ballast.nbytes / 2**20


@pytest.mark.parametrize("name", ["ev", "regimes"])
def test_golden_runs_are_byte_identical_at_one_and_two_blas_threads(tmp_path, name):
    # The outputs must not depend on how the BLAS splits its work, so that batching trials keeps the bytes.
    path = write_cfg(tmp_path, GOLDEN_RUNS[name])
    outputs = []
    for threads in ("1", "2"):
        _run_cli_in_a_child(path, tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
        outputs.append(read_outputs(tmp_path / threads))
    golden = {csv: (DATA_DIR / f"golden_{name}_{csv}").read_bytes()
              for csv in ("rounds.csv", "summary.csv", "trajectories.csv")}
    assert outputs[0] == outputs[1] == golden


def _manifest_for(path) -> str:
    return cli._manifest_text(cli.resolve_settings(cli.parse_args(["--config", str(path)])), None, [])


@pytest.mark.parametrize("scenario,setpoint,noise", [
    ("tcl", "amplitude = 4.0\nfrequency = 0.1\noffset = 155.0", "mean = 0.0\nsd = 0.25\nlo = -1.0\nhi = 1.0"),
    ("ev", "amplitude = 4.0\nfrequency = 0.1\noffset = 0.0", "mean = 0.0\nsd = 0.25\nlo = -1.5\nhi = 1.5"),
], ids=["tcl", "ev"])
def test_partly_given_spec_sections_keep_scenario_defaults(tmp_path, scenario, setpoint, noise):
    path = write_cfg(tmp_path, f"[run]\nscenario = {scenario}\nfeedback = full\n\n"
                               "[setpoint]\namplitude = 4\n\n[noise]\nsd = 0.25\n")
    text = _manifest_for(path)
    assert f"[setpoint]\n{setpoint}\n\n[noise]\n{noise}\n\n[manifest]" in text


def test_manifest_omits_spec_sections_not_given(tmp_path):
    text = _manifest_for(write_cfg(tmp_path))
    assert "[setpoint]" not in text and "[noise]" not in text
    assert "chi = \n" in text and "compute_regret = true\n" in text


def test_key_table_covers_every_config_field():
    top = {f.name for f in dataclasses.fields(ScenarioConfig)}
    attrs = [attr for _, _, _, attr in cli.KEYS if attr is not None]
    assert len(attrs) == len(set(attrs))
    assert {attr.split(".")[0] for attr in attrs} == top
    for owner, spec in (("tcl_ranges", TclRanges), ("ev_params", EvParams),
                        ("setpoint", SetpointSpec), ("noise", NoiseSpec)):
        names = [attr.split(".")[1] for attr in attrs if attr.startswith(owner + ".")]
        assert names == [f.name for f in dataclasses.fields(spec)]
    assert [key for section, key, _, _ in cli.KEYS if section == "run"] == [
        "scenario", "feedback", "trials", "rounds", "seed", "compute_regret", "track_loads", "out",
    ]


def test_readme_config_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    pairs = [(section, key) for section in parser.sections() for key in parser[section]]
    assert pairs == [(section, key) for section, key, _, _ in cli.KEYS]
    assert len(pairs) == 43 and parser["fleet"]["step_hours"] == ""


@pytest.mark.parametrize("section,key,value", [
    ("algorithm", "chi", "nan"),
    ("algorithm", "rho", "inf"),
    ("fleet", "ambient", "-inf"),
    ("noise", "sd", "nan"),
])
def test_non_finite_config_value_is_rejected_before_output(tmp_path, capsys, section, key, value):
    path = write_cfg(tmp_path, f"[run]\nscenario = tcl\nfeedback = full\n\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert f"bad value for {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--rho", "--lambda"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_is_rejected(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "tcl", "--feedback", "full", "--out", str(out), flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,needle", [
    pytest.param("[run]\nscenario = tcl\nfeedback = full,partial\n\n[algorithm]\nrho = 1\n", "rho",
                 id="partial-rho"),
    pytest.param("[run]\nscenario = tcl\nfeedback = full,adaptive\n", "adaptive", id="unknown-regime"),
    pytest.param("[run]\nscenario = ev\nfeedback = full,bandit\n", "full feedback only", id="ev-bandit"),
    pytest.param("[run]\nscenario = tcl\nfeedback = full\n\n[noise]\nlo = 2\n", "lo < hi",
                 id="noise-bounds"),
    pytest.param("[run]\nscenario = tcl\nfeedback = full\n\n[noise]\nmean = 5\nsd = 0\n", "degenerate sd=0",
                 id="noise-sd0-outside"),
    pytest.param("[run]\nscenario = ev\nfeedback = full\n\n[fleet]\ninj_eff = 1.5\n", "efficiencies",
                 id="ev-efficiency"),
])
def test_every_case_is_validated_before_output(tmp_path, capsys, text, needle):
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,flags", [
    pytest.param("[run]\nscenario = tcl\nfeedback =\n", [], id="blank-key"),
    pytest.param("[run]\nscenario = tcl\nfeedback = ,\n", [], id="comma-only"),
    pytest.param("[run]\nscenario = tcl\nfeedback = full\n", ["--feedback", ""], id="empty-flag"),
])
def test_empty_case_list_is_rejected_before_output(tmp_path, capsys, text, flags):
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet", *flags]) == EXIT_CONFIG
    assert "feedback lists no regime" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["tcl", "ev"])
@pytest.mark.parametrize("fleet,needle", [
    pytest.param("step_hours = -1", "step_hours must be positive", id="step-hours-negative"),
    pytest.param("resistance_lo = 2.5\nresistance_hi = 1.5", "lo <= hi", id="resistance-reversed"),
    pytest.param("capacitance_lo = -2\ncapacitance_hi = -1", "must be positive", id="capacitance-negative"),
])
def test_bad_fleet_config_is_rejected_before_output(tmp_path, capsys, scenario, fleet, needle):
    path = write_cfg(tmp_path, f"[run]\nscenario = {scenario}\nfeedback = full\nrounds = 20\n\n[fleet]\n{fleet}\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_an_infeasible_steady_duty_is_rejected_before_output(tmp_path, capsys):
    # With the default ranges every duty (10 - d) / (P R) is negative.
    path = write_cfg(tmp_path, "[run]\nscenario = tcl\nfeedback = full,bandit\n\n[fleet]\nambient = 10\n")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "span [-1, -0.2222] at ambient = 10, outside (0.05, 0.95)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    pytest.param("[DEFAULT]\nseed = 3\n\n[run]\nscenario = tcl\nfeedback = full\n\n[algorithm]\nlambda = 0.5\n",
                 id="beside-algorithm"),
    pytest.param("[DEFAULT]\nseed = 3\n\n[run]\nscenario = tcl\nfeedback = full\n", id="without-algorithm"),
])
def test_a_default_section_is_rejected_before_output(tmp_path, capsys, text):
    # configparser copies [DEFAULT]'s keys into every section, where they were never written.
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[DEFAULT]" in err and "valid sections: algorithm, fleet, noise, run, setpoint" in err
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("feedback", ["full,full", "full, bandit ,bandit"])
def test_a_regime_listed_twice_is_rejected_before_output(tmp_path, capsys, feedback):
    out = tmp_path / "out"
    code = main(["--scenario", "tcl", "--feedback", feedback, "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    twice = feedback.split(",")[-1].strip()
    assert f"feedback lists {twice!r} more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["tcl", "ev"])
def test_no_tracked_load_writes_a_header_only_trajectories_file(tmp_path, scenario):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, f"[run]\nscenario = {scenario}\nfeedback = full\nrounds = 20\ntrack_loads = 0\n")
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "trajectories.csv").read_text() == ",".join(cli.TRAJECTORIES_HEADER) + "\n"


@pytest.mark.parametrize("algorithm", [
    pytest.param("", id="plain"),
    pytest.param("\n[algorithm]\nrho = 1\nlambda = 1\n", id="rho-lambda"),
])
def test_a_zero_setpoint_reads_zero_improvement(tmp_path, algorithm):
    # Playing nothing loses nothing against a setpoint at zero, so there is nothing to improve on.
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "[run]\nscenario = ev\nfeedback = full\ntrials = 2\nrounds = 20\n"
                               f"{algorithm}\n[setpoint]\namplitude = 0\n")
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    summary = (out / "summary.csv").read_text().splitlines()
    header, rows = summary[0].split(","), [row.split(",") for row in summary[1:]]
    assert rows and all(row[header.index("improvement_pct")] == "0" for row in rows)
    assert "pending" not in (out / "manifest.txt").read_text()


def test_noise_below_zero_throughout_runs(tmp_path):
    # Every response is negative, so only a bound on |response| stays positive.
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "[run]\nscenario = tcl\nfeedback = full\nrounds = 20\n\n[fleet]\nn_loads = 5\n\n"
                               "[noise]\nmean = -6\nsd = 0.5\nlo = -7\nhi = -5\n")
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert "pending" not in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS_DIR.glob("*.cfg")))
def test_shipped_configs_run(tmp_path, config):
    # 440 rounds is the shortest horizon tcl_comparison.cfg's Bernoulli case accepts: a/T^(1/3) <= 1 at a = 7.6.
    out = tmp_path / "out"
    argv = ["--config", str(CONFIGS_DIR / config), "--trials", "1", "--rounds", "440", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    assert (out / "manifest.txt").exists()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    path = write_cfg(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("LOADTRACK_OUT", str(env_out))
    assert main(["--config", str(path), "--quiet"]) == EXIT_OK
    assert (env_out / "rounds.csv").exists()


def test_a_blank_out_key_writes_under_the_default_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOADTRACK_OUT", raising=False)
    path = write_cfg(tmp_path, TINY_CFG.replace("[fleet]", "out =\n\n[fleet]"))
    assert main(["--config", str(path), "--quiet"]) == EXIT_OK
    results = tmp_path / "results"
    assert sorted(p.name for p in results.iterdir()) == [
        "manifest.txt", "rounds.csv", "summary.csv", "trajectories.csv"]
    assert "\nout = results\n" in (results / "manifest.txt").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results", "run.cfg"]


def test_manifests_match_the_benchmark_reference(tmp_path):
    """Every benchmark workload config resolves to the manifest settings its reference digest records.

    The configs are made and the digests taken as ``perfbench/run.py`` and
    ``perfbench/check.py`` make and take them, so a dropped or reordered key
    fails here before any benchmark run.
    """
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert reference
    for workload, seeds in reference.items():
        template = string.Template((BENCH_DIR / "workloads" / f"{workload}.cfg").read_text())
        for seed, recorded in seeds.items():
            path = tmp_path / f"{workload}-{seed}.cfg"
            path.write_text(template.substitute(seed=int(seed)))
            settings = cli.resolve_settings(cli.parse_args(["--config", str(path), "--out", "out", "--quiet"]))
            digest = hashlib.sha256()
            for line in cli._manifest_text(settings, None, []).encode().splitlines(keepends=True):
                if not line.startswith(b"#"):
                    digest.update(line)
            assert digest.hexdigest() == recorded["manifest"], (workload, seed)


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
    rows = Rows([Block(("tcl", "full"), (np.array([1, 2]), np.array([1.0, np.nan])))])
    with pytest.raises(RuntimeError, match="value.*t=2"):
        write_csv(tmp_path / "bad.csv", header, rows)
    with pytest.raises(RuntimeError, match="non-finite.*'x'"):
        write_csv(tmp_path / "bad2.csv", ("x",), Rows([Block((), (np.array([np.inf]),))]))


def _row_writer(name, header, rows) -> str:
    """The earlier row-by-row writer: the file text, or the error it raised first."""
    t_index = header.index("t") if "t" in header else None
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        for col, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                where = f"t={row[t_index]}" if t_index is not None else f"row {i}"
                return f"{name}: non-finite value in column '{col}' at {where}"
        lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _blocks_as_rows(blocks) -> list:
    return [(*b.prefix, *(c[j] for c in b.columns)) for b in blocks for j in range(len(b))]


def _write_blocks(tmp_path, header, blocks) -> str:
    """Write ``blocks`` as x.csv: the file text, or the error it raised."""
    try:
        write_csv(tmp_path / "x.csv", header, Rows(blocks))
    except RuntimeError as exc:
        return str(exc)
    return (tmp_path / "x.csv").read_text()


SPECIAL = [0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012.5, 0.1, 1 / 3, -2.5e-7]


def test_block_writer_matches_the_row_writer_bytes(tmp_path):
    header = ("scenario", "feedback", "load", "t", "value", "other")
    values = np.concatenate([SPECIAL, np.random.default_rng(3).normal(0, 1e3, 40)])
    t = np.arange(1, values.size + 1)
    blocks = [Block(("tcl", "50%", load), (t, values * (load - 1), -values)) for load in range(3)]
    by_blocks = _write_blocks(tmp_path, header, blocks)
    assert by_blocks == _row_writer("x.csv", header, _blocks_as_rows(blocks))
    assert "\ntcl,50%,0,1,-0,-0\n" in by_blocks
    assert len(Rows(blocks)) == 3 * values.size == len(by_blocks.splitlines()) - 1


@pytest.mark.parametrize(
    "bad_cells,expected",
    [
        ([(1, 4, 1, "nan")], "column 'value' at t=5"),
        ([(0, 9, 2, "inf"), (2, 1, 1, "nan")], "column 'other' at t=10"),
        ([(1, 6, 2, "nan"), (1, 6, 1, "-inf")], "column 'value' at t=7"),
        ([(1, 6, 2, "nan"), (1, 2, 2, "nan")], "column 'other' at t=3"),
    ],
    ids=["one", "earlier-block-first", "leftmost-in-row", "earliest-row"],
)
def test_block_writer_names_the_cell_the_row_writer_named(tmp_path, bad_cells, expected):
    header = ("scenario", "feedback", "load", "t", "value", "other")
    t = np.arange(1, 13)
    blocks = [Block(("tcl", "full", load), (t, np.full(12, 0.5), np.ones(12))) for load in range(3)]
    for block, row, column, value in bad_cells:  # column 1 is 'value', 2 is 'other'
        blocks[block].columns[column][row] = float(value)
    by_blocks = _write_blocks(tmp_path, header, blocks)
    assert by_blocks == _row_writer("x.csv", header, _blocks_as_rows(blocks))
    assert by_blocks == f"x.csv: non-finite value in {expected}"


def test_block_writer_names_the_row_without_a_t_column(tmp_path):
    blocks = [Block((), (np.ones(4),)), Block((), (np.array([1.0, 2.0, np.inf]),))]
    by_blocks = _write_blocks(tmp_path, ("x",), blocks)
    assert by_blocks == _row_writer("x.csv", ("x",), _blocks_as_rows(blocks))
    assert by_blocks == "x.csv: non-finite value in column 'x' at row 6"


@pytest.mark.parametrize("bad_case", [None, 1], ids=["finite", "non-finite"])
def test_block_writer_matches_the_row_writer_on_summary_rows(tmp_path, bad_case):
    # Summary-shaped: one length-1 block per case, an integer column between float columns.
    header = ("scenario", "feedback", "rho", "trials", "improvement_pct", "simultaneity_pct")
    cases = [("full", 0.0, 100, 42.5), ("bandit", 2.5, 7, -1 / 3), ("50%", 1e-300, 1, 123456789012.5)]
    blocks = [Block(("tcl", fb), (np.array([rho]), np.array([trials]), np.array([pct]), np.array([-pct])))
              for fb, rho, trials, pct in cases]
    if bad_case is not None:
        blocks[bad_case].columns[2][0] = np.nan
    by_blocks = _write_blocks(tmp_path, header, blocks)
    assert by_blocks == _row_writer("x.csv", header, _blocks_as_rows(blocks))
    if bad_case is None:
        assert by_blocks.splitlines()[1:3] == [
            "tcl,full,0,100,42.5,-42.5", "tcl,bandit,2.5,7,-0.3333333333,0.3333333333"]
    else:
        assert by_blocks == "x.csv: non-finite value in column 'improvement_pct' at row 1"


@pytest.mark.parametrize(
    "prefix,column,needle",
    [
        (("tcl",), [1.0, 2.0], "column 1 is not"),
        (("tcl",), np.array(["1", "2"]), "column 1 is not"),
        (("tcl", 2.5), np.ones(2), "prefix cell 1 is a float"),
    ],
    ids=["list-column", "string-array-column", "float-prefix"],
)
def test_a_block_takes_only_numeric_array_columns_and_label_prefixes(prefix, column, needle):
    with pytest.raises(TypeError, match=needle):
        Block(prefix, (np.arange(2), column))


NAN_CFG = """\
[run]
scenario = tcl
feedback = full,bandit
trials = 2
rounds = 20
seed = 9
track_loads = 3

[fleet]
n_loads = 4
"""


@pytest.mark.parametrize(
    "feedback,target,index,expected",
    [
        ("full", "aggregate", 5, "rounds.csv: non-finite value in column 'aggregate' at t=6"),
        ("bandit", "l1", 0, "rounds.csv: non-finite value in column 'l1_norm' at t=1"),
        ("bandit", "trajectory", (7, 2), "trajectories.csv: non-finite value in column 'value' at t=8"),
        ("full", "trajectory", (19, 0), "trajectories.csv: non-finite value in column 'value' at t=20"),
        ("bandit", "summary", 1, "summary.csv: non-finite value in column 'improvement_pct' at row 1"),
    ],
)
def test_emission_names_the_non_finite_series_and_round(tmp_path, monkeypatch, capsys,
                                                       feedback, target, index, expected):
    original = cli.run_experiment

    def poisoned(config):
        result = original(config)
        if config.feedback == feedback:
            if target == "trajectory":
                result.trajectories[index] = np.nan
            elif target == "summary":  # one trial's improvement makes the case mean non-finite
                result.summaries[index]["improvement_pct"] = np.nan
            else:
                result.rounds[target][index] = np.nan
        return result

    monkeypatch.setattr(cli, "run_experiment", poisoned)
    path = write_cfg(tmp_path, NAN_CFG)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == f"loadtrack: error: {expected}\n"


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
