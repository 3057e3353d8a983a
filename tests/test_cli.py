"""CLI tests: config parsing, error paths, output files, determinism."""

import configparser
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from loadtrack import cli, harness
from loadtrack.cli import EXIT_CONFIG, EXIT_OK, Block, Rows, main, write_csv
from loadtrack.harness import ScenarioConfig, SetpointSpec
from loadtrack.loads import EvParams, NoiseSpec, TclRanges

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


def _write_both_ways(tmp_path, header, blocks):
    """Write ``blocks`` as Rows and as row tuples; return (block result, row result)."""
    results = []
    for name, rows in (("blocks.csv", Rows(blocks)), ("rows.csv", _blocks_as_rows(blocks))):
        try:
            write_csv(tmp_path / name, header, rows)
            results.append((tmp_path / name).read_text())
        except RuntimeError as exc:
            results.append(str(exc).replace(name, "x.csv"))
    return results


SPECIAL = [0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012.5, 0.1, 1 / 3, -2.5e-7]


def test_block_writer_matches_the_row_writer_bytes(tmp_path):
    header = ("scenario", "feedback", "load", "t", "value", "other")
    values = np.concatenate([SPECIAL, np.random.default_rng(3).normal(0, 1e3, 40)])
    t = np.arange(1, values.size + 1)
    blocks = [Block(("tcl", "50%", load), (t, values * (load - 1), -values)) for load in range(3)]
    by_blocks, by_rows = _write_both_ways(tmp_path, header, blocks)
    assert by_blocks == by_rows == _row_writer("x.csv", header, _blocks_as_rows(blocks))
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
    by_blocks, by_rows = _write_both_ways(tmp_path, header, blocks)
    assert by_blocks == by_rows == _row_writer("x.csv", header, _blocks_as_rows(blocks))
    assert by_blocks == f"x.csv: non-finite value in {expected}"


def test_block_writer_names_the_row_without_a_t_column(tmp_path):
    blocks = [Block((), (np.ones(4),)), Block((), (np.array([1.0, 2.0, np.inf]),))]
    by_blocks, by_rows = _write_both_ways(tmp_path, ("x",), blocks)
    assert by_blocks == by_rows == "x.csv: non-finite value in column 'x' at row 6"


def test_writer_rejects_a_column_mixing_floats_with_other_values(tmp_path):
    with pytest.raises(TypeError, match="'x'"):
        write_csv(tmp_path / "mixed.csv", ("x",), [(1,), (2.5,)])


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
