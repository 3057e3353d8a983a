"""Batch runner: parse a config file plus flags, run cases, write CSVs.

Config files are flat INI key-value text with one section per concern
(run, algorithm, fleet, setpoint, noise). Flags override file values and
the LOADTRACK_OUT environment variable overrides the output directory
from the file. Exit codes: 0 success, 2 configuration error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .core import ConfigError
from .harness import (
    SCENARIOS,
    ScenarioConfig,
    SetpointSpec,
    compute_metrics,
    run_experiment,
)
from .loads import EvParams, NoiseSpec, TclRanges

try:
    import resource
except ImportError:  # Windows has none; the manifest then leaves out the peak
    resource = None

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

ENV_OUT = "LOADTRACK_OUT"

ROUNDS_HEADER = (
    "scenario", "feedback", "t", "setpoint", "aggregate",
    "loss", "cum_loss", "regret", "mean_norm", "l1_norm",
)
SUMMARY_HEADER = (
    "scenario", "feedback", "rho", "lambda", "trials", "improvement_pct",
    "mean_improvement_pct", "sparsity_improvement_pct", "simultaneity_pct",
)
TRAJECTORIES_HEADER = ("scenario", "feedback", "load", "t", "value")
# ExperimentResult.rounds series behind the ROUNDS_HEADER columns after t.
ROUND_SERIES = ("setpoint_eff", "aggregate", "tracking", "cum_tracking", "regret", "mean_norm", "l1")

def finite_float(raw) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def boolean(raw: str) -> bool:
    return {"true": True, "false": False, "1": True, "0": False,
            "yes": True, "no": False}[raw.lower()]


def _spec_keys(section: str, spec, owner: str) -> tuple:
    return tuple((section, f.name, finite_float, f"{owner}.{f.name}") for f in fields(spec))


# Every config key, in manifest order: (section, key, caster, ScenarioConfig
# attribute). A dotted attribute names a field of a nested spec; feedback is
# a list of cases and out is held by RunSettings, not by ScenarioConfig.
KEYS = (
    ("run", "scenario", str, "scenario"),
    ("run", "feedback", str, "feedback"),
    ("run", "trials", int, "trials"),
    ("run", "rounds", int, "rounds"),
    ("run", "seed", int, "seed"),
    ("run", "compute_regret", boolean, "compute_regret"),
    ("run", "track_loads", int, "track_loads"),
    ("run", "out", str, None),
    ("algorithm", "rho", finite_float, "rho"),
    ("algorithm", "lambda", finite_float, "lam"),
    ("algorithm", "chi", finite_float, "chi"),
    ("algorithm", "chi_full", finite_float, "chi_full"),
    ("algorithm", "chi_bandit", finite_float, "chi_bandit"),
    ("algorithm", "bernoulli_a", finite_float, "bernoulli_a"),
    ("algorithm", "bernoulli_warmup", boolean, "bernoulli_warmup"),
    ("algorithm", "bernoulli_mean_penalty", boolean, "bernoulli_mean_penalty"),
    ("algorithm", "observed", int, "observed"),
    ("algorithm", "hindsight_iters", int, "hindsight_iters"),
    ("fleet", "n_loads", int, "n_loads"),
    ("fleet", "ambient", finite_float, "ambient"),
    ("fleet", "step_hours", finite_float, "step_hours"),
    *_spec_keys("fleet", TclRanges, "tcl_ranges"),
    *_spec_keys("fleet", EvParams, "ev_params"),
    *_spec_keys("setpoint", SetpointSpec, "setpoint"),
    *_spec_keys("noise", NoiseSpec, "noise"),
)

# section -> key -> (caster, attribute); a [manifest] section is read and ignored.
SECTIONS = {
    section: {key: (cast, attr) for sec, key, cast, attr in KEYS if sec == section}
    for section in dict.fromkeys(row[0] for row in KEYS)
}
# Sections named after an optional ScenarioConfig spec, written only when it is set.
OPTIONAL_SECTIONS = ("setpoint", "noise")


def _config_parser() -> configparser.ConfigParser:
    # No interpolation: a % in a value, such as an output path, is read as written.
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)


def _reads_back(section: str, key: str, value: str) -> bool:
    """Whether ``key = value`` under ``[section]`` reads back as ``value``, as ``read_config`` reads a file.

    Values are stripped, an inline comment starts at whitespace then ``#``
    or ``;``, and a file's lines end at any universal newline.
    """
    parser = _config_parser()
    try:
        parser.read_file(io.StringIO(f"[{section}]\n{key} = {value}\n", newline=None))
        return parser.get(section, key).strip() == value
    except configparser.Error:
        return False


def read_config(path: str) -> dict:
    """Parse and type-check a config file into {(section, key): value}."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = _config_parser()
    try:
        # Opened here: ConfigParser.read skips a file it cannot open without a word.
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError(
            f"a [DEFAULT] section is not supported in {path}; valid sections: " + ", ".join(sorted(SECTIONS))
        )
    values = {}
    for section in parser.sections():
        if section == "manifest":
            continue
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown section [{section}] in {path}; valid sections: "
                + ", ".join(sorted(SECTIONS))
            )
        for key, raw in parser.items(section):
            if key not in SECTIONS[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]; valid keys: "
                    + ", ".join(sorted(SECTIONS[section]))
                )
            cast = SECTIONS[section][key][0]
            raw = raw.strip()
            if raw == "" and cast is not str:
                continue  # blank numeric/bool keys mean "use the default"
            try:
                values[(section, key)] = cast(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r} (expected {cast.__name__})"
                ) from exc
    return values


def parse_args(argv=None) -> argparse.Namespace:
    # Each flag's dest is the ScenarioConfig attribute it overrides (out aside).
    parser = argparse.ArgumentParser(
        prog="loadtrack",
        description="Run demand-response setpoint-tracking experiments and write CSV results.",
    )
    parser.add_argument("--config", help="path to an INI config file")
    parser.add_argument("--seed", type=int, help="random seed (nonnegative integer)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--trials", type=int, help="number of trials per case")
    parser.add_argument("--scenario", choices=SCENARIOS, help="fleet scenario")
    parser.add_argument("--feedback", help="comma-separated feedback regimes")
    parser.add_argument("--rounds", type=int, help="horizon length T")
    parser.add_argument("--rho", type=finite_float, help="mean-penalty weight")
    parser.add_argument("--lambda", dest="lam", type=finite_float, help="sparsity-penalty weight")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary printout")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser.parse_args(argv)


@dataclass
class RunSettings:
    """Fully resolved invocation: base config, case list and output options."""

    base: ScenarioConfig
    feedbacks: list
    out_dir: Path
    quiet: bool


def resolve_settings(args: argparse.Namespace) -> RunSettings:
    """Merge flags over the config file and validate every case it lists."""
    values = read_config(args.config) if args.config else {}
    for section, key, _, attr in KEYS:
        flag = getattr(args, attr, None) if attr else None
        if flag is not None:
            values[(section, key)] = flag

    scenario = values.get(("run", "scenario"))
    if scenario is None:
        raise ConfigError("scenario is required (config [run] scenario or --scenario)")
    defaults = ScenarioConfig(scenario=scenario).resolved()  # rejects an unknown scenario

    feedback_raw = values.get(("run", "feedback"))
    if feedback_raw is None:
        raise ConfigError("feedback is required (config [run] feedback or --feedback)")
    feedbacks = [f.strip() for f in feedback_raw.split(",") if f.strip()]
    if not feedbacks:
        raise ConfigError(f"feedback lists no regime: {feedback_raw!r}")
    for fb in feedbacks:
        if feedbacks.count(fb) > 1:
            raise ConfigError(f"feedback lists {fb!r} more than once: {feedback_raw!r}")

    attrs = {"compute_regret": True}  # the CLI's own default; the library's is False
    specs = {}
    for (section, key), value in values.items():
        attr = SECTIONS[section][key][1]
        owner, _, name = (attr or "").rpartition(".")
        if owner:
            specs.setdefault(owner, {})[name] = value
        elif attr:
            attrs[attr] = value
    attrs["feedback"] = feedbacks[0]
    try:
        for owner, given in specs.items():  # a partly given spec keeps the other defaults
            attrs[owner] = replace(getattr(defaults, owner), **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    base = ScenarioConfig(**attrs)
    for fb in feedbacks:
        replace(base, feedback=fb).resolved()  # validates before anything is written

    out = Path(args.out or os.environ.get(ENV_OUT) or values.get(("run", "out")) or "results")  # blank means unset
    if not _reads_back("run", "out", str(out)):  # the manifest could not rerun this run
        raise ConfigError(
            f"output path {str(out)!r} would not read back from manifest.txt as written: "
            "it has surrounding whitespace, a line break, or a '#' or ';' after whitespace"
        )
    return RunSettings(base, feedbacks, out, args.quiet)


@dataclass(frozen=True)
class Block:
    """Consecutive CSV rows that share their leading cells.

    ``prefix`` holds those cells once, each a str or int; ``columns`` holds
    one 1-D integer or float numpy array per remaining cell, all of the
    block's length.
    """

    prefix: tuple
    columns: tuple

    def __post_init__(self):
        for i, cell in enumerate(self.prefix):
            if not isinstance(cell, (str, int)):
                raise TypeError(f"prefix cell {i} is a {type(cell).__name__}, not a str or int")
        for i, column in enumerate(self.columns):
            if not (isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "iuf"):
                raise TypeError(f"column {i} is not a 1-D integer or float numpy array")
        if not self.columns or len({len(c) for c in self.columns}) != 1:
            raise ValueError("a block needs one or more columns of equal length")

    def __len__(self) -> int:
        return len(self.columns[0])


class Rows:
    """The data rows of one CSV as a sequence of blocks; ``len`` counts rows."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def __len__(self) -> int:
        return sum(map(len, self.blocks))


def _block_text(name: str, header, block: Block, first_row: int) -> str:
    """The CSV text of one block: labels by str, integer columns as %s, finite floats as %.10g."""
    width = len(block.prefix) + len(block.columns)
    if width != len(header):
        raise RuntimeError(f"{name}: row {first_row} has {width} cells, expected {len(header)}")
    lead = [str(cell).replace("%", "%%") for cell in block.prefix]
    specs, columns, bad = [], [], []
    for i, values in enumerate(block.columns, start=len(block.prefix)):
        is_float = values.dtype.kind == "f"
        specs.append("%.10g" if is_float else "%s")
        columns.append(values.tolist())
        if is_float and not (finite := np.isfinite(values)).all():
            bad.append((int(finite.argmin()), i))
    if bad:  # the first bad cell in file order: earliest row, then leftmost column
        row, i = min(bad)
        if "t" in header:
            row_cells = block.prefix + tuple(values[row] for values in columns)
            where = f"t={row_cells[header.index('t')]}"
        else:
            where = f"row {first_row + row}"
        raise RuntimeError(f"{name}: non-finite value in column '{header[i]}' at {where}")
    n, k = len(block), len(columns)
    cells = [None] * (n * k)
    for i, values in enumerate(columns):
        cells[i::k] = values
    return ((",".join(lead + specs) + "\n") * n) % tuple(cells)


def write_csv(path: Path, header, rows: Rows) -> None:
    """Write one CSV with LF endings, rejecting any non-finite float cell.

    ``len(rows)`` is the number of data rows. A non-finite cell raises a
    RuntimeError naming the first one in file order.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        first_row = 0
        for block in rows.blocks:
            fh.write(_block_text(path.name, header, block, first_row))
            first_row += len(block)


def _peak_rss_mb() -> float | None:
    """The process's own peak resident memory in MiB, or None where neither source exists.

    Linux's ``VmHWM`` belongs to this address space. ``ru_maxrss`` is read
    only where that is missing: on Linux it keeps the high-water mark of
    the process that exec'd this one.
    """
    try:
        with open("/proc/self/status", "rb") as status:  # bytes: the process name need not decode
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _manifest_text(settings: RunSettings, duration: float | None, outputs: list, stats=()) -> str:
    """The manifest; ``stats`` holds (name, text) pairs written as comments after the duration."""
    cfg = settings.base
    dur = "pending" if duration is None else f"{duration:.3f}"
    lines = [
        "# loadtrack run manifest (readable as a config file)",
        f"# version: {__version__}",
        f"# duration_seconds: {dur}",
        *(f"# {name}: {text}" for name, text in stats),
        "# outputs: " + " ".join(outputs),
        "",
    ]
    held = {"feedback": ",".join(settings.feedbacks), "out": settings.out_dir}
    for section, keys in SECTIONS.items():
        if section in OPTIONAL_SECTIONS and getattr(cfg, section) is None:
            continue
        lines.append(f"[{section}]")
        for key, (_, attr) in keys.items():
            value = held[key] if key in held else attrgetter(attr)(cfg)
            if value is None:
                value = ""  # unset: resolved per case
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key} = {value}")
        lines.append("")
    lines += ["[manifest]", f"tool_version = {__version__}", ""]
    return "\n".join(lines)


def emit_outputs(case_results: list, settings: RunSettings) -> list:
    """Write rounds.csv, summary.csv and trajectories.csv; return each case's metrics.

    Every file is written column by column: one block per case of
    ``rounds.csv`` and ``summary.csv``, and one per case and tracked load of
    ``trajectories.csv``.
    """
    rounds, summary, trajectories, case_metrics = [], [], [], []
    for result, twin in case_results:
        cfg = result.config
        lead = (cfg.scenario, cfg.feedback)
        t = np.arange(1, cfg.rounds + 1)
        rounds.append(Block(lead, (t, *(result.rounds[name] for name in ROUND_SERIES))))
        metrics = compute_metrics(result, twin)
        case_metrics.append(metrics)
        floats = np.array([cfg.rho, cfg.lam, *(metrics[name] for name in SUMMARY_HEADER[5:])], dtype=float)[:, None]
        summary.append(Block(lead, (*floats[:2], np.array([cfg.trials]), *floats[2:])))
        traj = result.trajectories
        t = np.arange(1, traj.shape[0] + 1)
        trajectories += [Block((*lead, load), (t, traj[:, load])) for load in range(traj.shape[1])]

    out = settings.out_dir
    write_csv(out / "rounds.csv", ROUNDS_HEADER, Rows(rounds))
    write_csv(out / "summary.csv", SUMMARY_HEADER, Rows(summary))
    write_csv(out / "trajectories.csv", TRAJECTORIES_HEADER, Rows(trajectories))
    return case_metrics


def _print_summary(case_metrics: list) -> None:
    print(f"{'scenario':<9} {'feedback':<10} {'improvement%':>13} {'mean%':>8} "
          f"{'sparsity%':>10} {'simultaneity%':>14}")
    for m in case_metrics:
        print(f"{m['scenario']:<9} {m['feedback']:<10} {m['improvement_pct']:>13.2f} "
              f"{m['mean_improvement_pct']:>8.2f} {m['sparsity_improvement_pct']:>10.2f} "
              f"{m['simultaneity_pct']:>14.2f}")


def execute(settings: RunSettings) -> int:
    start = time.monotonic()
    settings.out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = settings.out_dir / "manifest.txt"
    output_names = ["rounds.csv", "summary.csv", "trajectories.csv"]
    manifest_path.write_text(_manifest_text(settings, None, output_names))

    case_results = []
    for fb in settings.feedbacks:
        cfg = replace(settings.base, feedback=fb)
        result = run_experiment(cfg)
        twin = None
        if cfg.effective_rho() > 0 or cfg.lam > 0:
            # Only the twin's mean-norm and l1 series are read; its regret and trajectories never are.
            twin = run_experiment(replace(cfg, rho=0.0, lam=0.0, compute_regret=False, track_loads=0))
        case_results.append((result, twin))

    emit_start = time.monotonic()
    case_metrics = emit_outputs(case_results, settings)
    emit_seconds = time.monotonic() - emit_start
    duration = time.monotonic() - start
    stats = [("emit_seconds", f"{emit_seconds:.3f}")]
    if (peak := _peak_rss_mb()) is not None:
        stats.insert(0, ("peak_rss_mb", f"{peak:.1f}"))
    manifest_path.write_text(_manifest_text(settings, duration, output_names, stats))
    if not settings.quiet:
        _print_summary(case_metrics)
    return EXIT_OK


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return execute(resolve_settings(args))
    except ConfigError as exc:
        print(f"loadtrack: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"loadtrack: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
