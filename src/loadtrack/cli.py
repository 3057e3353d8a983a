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
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import ConfigError
from .harness import (
    FEEDBACK_REGIMES,
    SCENARIOS,
    ScenarioConfig,
    SetpointSpec,
    compute_metrics,
    run_experiment,
)
from .loads import EvParams, NoiseSpec, TclRanges

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

# section -> key -> type tag; the manifest section is informational only.
SCHEMA = {
    "run": {
        "scenario": "str",
        "feedback": "str",
        "trials": "int",
        "rounds": "int",
        "seed": "int",
        "compute_regret": "bool",
        "track_loads": "int",
        "out": "str",
    },
    "algorithm": {
        "rho": "float",
        "lambda": "float",
        "chi": "float",
        "chi_full": "float",
        "chi_bandit": "float",
        "bernoulli_a": "float",
        "bernoulli_warmup": "bool",
        "bernoulli_mean_penalty": "bool",
        "observed": "int",
        "hindsight_iters": "int",
    },
    "fleet": {
        "n_loads": "int",
        "ambient": "float",
        "step_hours": "float",
        "resistance_lo": "float",
        "resistance_hi": "float",
        "capacitance_lo": "float",
        "capacitance_hi": "float",
        "power_lo": "float",
        "power_hi": "float",
        "cop_lo": "float",
        "cop_hi": "float",
        "setpoint_lo": "float",
        "setpoint_hi": "float",
        "inj_eff": "float",
        "ext_eff": "float",
        "capacity_kwh": "float",
        "charge_rate_kw": "float",
        "discharge_rate_kw": "float",
    },
    "setpoint": {"amplitude": "float", "frequency": "float", "offset": "float"},
    "noise": {"mean": "float", "sd": "float", "lo": "float", "hi": "float"},
    "manifest": {},
}

_CASTERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda raw: {"true": True, "false": False, "1": True, "0": False,
                         "yes": True, "no": False}[raw.lower()],
}


def read_config(path: str) -> dict:
    """Parse and type-check a config file into {(section, key): value}."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}] in {path}; valid sections: "
                + ", ".join(sorted(s for s in SCHEMA if SCHEMA[s]))
            )
        if section == "manifest":
            continue
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]; valid keys: "
                    + ", ".join(sorted(SCHEMA[section]))
                )
            raw = raw.strip()
            if raw == "" and SCHEMA[section][key] != "str":
                continue  # blank numeric/bool keys mean "use the default"
            try:
                values[(section, key)] = _CASTERS[SCHEMA[section][key]](raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r} "
                    f"(expected {SCHEMA[section][key]})"
                ) from exc
    return values


def parse_args(argv=None) -> argparse.Namespace:
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
    parser.add_argument("--rho", type=float, help="mean-penalty weight")
    parser.add_argument("--lambda", dest="lam", type=float, help="sparsity-penalty weight")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary printout")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser.parse_args(argv)


class RunSettings:
    """Fully resolved invocation: base config, case list and output options."""

    def __init__(self, base: ScenarioConfig, feedbacks: list, out_dir: Path, quiet: bool):
        self.base = base
        self.feedbacks = feedbacks
        self.out_dir = out_dir
        self.quiet = quiet


def resolve_settings(args: argparse.Namespace) -> RunSettings:
    values = read_config(args.config) if args.config else {}

    def got(section, key, default=None):
        return values.get((section, key), default)

    scenario = args.scenario or got("run", "scenario")
    if scenario is None:
        raise ConfigError("scenario is required (config [run] scenario or --scenario)")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    feedback_raw = args.feedback if args.feedback is not None else got("run", "feedback")
    if feedback_raw is None:
        raise ConfigError("feedback is required (config [run] feedback or --feedback)")
    feedbacks = [f.strip() for f in feedback_raw.split(",") if f.strip()]
    for fb in feedbacks:
        if fb not in FEEDBACK_REGIMES:
            raise ConfigError(f"feedback must be among {FEEDBACK_REGIMES}, got {fb!r}")

    ranges = TclRanges(
        **{
            name: got("fleet", name, getattr(TclRanges(), name))
            for name in (
                "resistance_lo", "resistance_hi", "capacitance_lo", "capacitance_hi",
                "power_lo", "power_hi", "cop_lo", "cop_hi", "setpoint_lo", "setpoint_hi",
            )
        }
    )
    ev_params = EvParams(
        **{
            name: got("fleet", name, getattr(EvParams(), name))
            for name in ("inj_eff", "ext_eff", "capacity_kwh", "charge_rate_kw", "discharge_rate_kw")
        }
    )
    setpoint = None
    if any(("setpoint", k) in values for k in SCHEMA["setpoint"]):
        default = SetpointSpec.for_scenario(scenario)
        setpoint = SetpointSpec(
            amplitude=got("setpoint", "amplitude", default.amplitude),
            frequency=got("setpoint", "frequency", default.frequency),
            offset=got("setpoint", "offset", default.offset),
        )
    noise = None
    if any(("noise", k) in values for k in SCHEMA["noise"]):
        base_noise = NoiseSpec() if scenario == "tcl" else NoiseSpec(sd=0.1, lo=-1.5, hi=1.5)
        noise = NoiseSpec(
            mean=got("noise", "mean", base_noise.mean),
            sd=got("noise", "sd", base_noise.sd),
            lo=got("noise", "lo", base_noise.lo),
            hi=got("noise", "hi", base_noise.hi),
        )

    base = ScenarioConfig(
        scenario=scenario,
        feedback=feedbacks[0] if feedbacks else "full",
        n_loads=got("fleet", "n_loads", 100),
        observed=got("algorithm", "observed", 10),
        rounds=args.rounds if args.rounds is not None else got("run", "rounds", 600),
        trials=args.trials if args.trials is not None else got("run", "trials", 1),
        rho=args.rho if args.rho is not None else got("algorithm", "rho", 0.0),
        lam=args.lam if args.lam is not None else got("algorithm", "lambda", 0.0),
        chi=got("algorithm", "chi"),
        chi_full=got("algorithm", "chi_full"),
        chi_bandit=got("algorithm", "chi_bandit"),
        bernoulli_a=got("algorithm", "bernoulli_a", 7.6),
        bernoulli_warmup=got("algorithm", "bernoulli_warmup", True),
        bernoulli_mean_penalty=got("algorithm", "bernoulli_mean_penalty", False),
        seed=args.seed if args.seed is not None else got("run", "seed", 0),
        setpoint=setpoint,
        noise=noise,
        tcl_ranges=ranges,
        ev_params=ev_params,
        ambient=got("fleet", "ambient", 30.0),
        step_hours=got("fleet", "step_hours"),
        compute_regret=got("run", "compute_regret", True),
        hindsight_iters=got("algorithm", "hindsight_iters", 10_000),
        track_loads=got("run", "track_loads", 5),
    )

    out = args.out or os.environ.get(ENV_OUT) or got("run", "out", "results")
    return RunSettings(base, feedbacks, Path(out), args.quiet)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """Write one CSV with LF endings, rejecting any non-finite numeric cell."""
    t_index = header.index("t") if "t" in header else None
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise RuntimeError(f"{path.name}: row {i} has {len(row)} cells, expected {len(header)}")
            for name, value in zip(header, row):
                if isinstance(value, float) and not math.isfinite(value):
                    where = f"t={row[t_index]}" if t_index is not None else f"row {i}"
                    raise RuntimeError(f"{path.name}: non-finite value in column '{name}' at {where}")
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _manifest_text(settings: RunSettings, duration: float | None, outputs: list) -> str:
    cfg = settings.base
    dur = "pending" if duration is None else f"{duration:.3f}"
    lines = [
        "# loadtrack run manifest (readable as a config file)",
        f"# version: {__version__}",
        f"# duration_seconds: {dur}",
        "# outputs: " + " ".join(outputs),
        "",
        "[run]",
        f"scenario = {cfg.scenario}",
        "feedback = " + ",".join(settings.feedbacks),
        f"trials = {cfg.trials}",
        f"rounds = {cfg.rounds}",
        f"seed = {cfg.seed}",
        f"compute_regret = {str(cfg.compute_regret).lower()}",
        f"track_loads = {cfg.track_loads}",
        f"out = {settings.out_dir}",
        "",
        "[algorithm]",
        f"rho = {cfg.rho!r}",
        f"lambda = {cfg.lam!r}",
        f"chi = {'' if cfg.chi is None else repr(cfg.chi)}",
        f"chi_full = {'' if cfg.chi_full is None else repr(cfg.chi_full)}",
        f"chi_bandit = {'' if cfg.chi_bandit is None else repr(cfg.chi_bandit)}",
        f"bernoulli_a = {cfg.bernoulli_a!r}",
        f"bernoulli_warmup = {str(cfg.bernoulli_warmup).lower()}",
        f"bernoulli_mean_penalty = {str(cfg.bernoulli_mean_penalty).lower()}",
        f"observed = {cfg.observed}",
        f"hindsight_iters = {cfg.hindsight_iters}",
        "",
        "[fleet]",
        f"n_loads = {cfg.n_loads}",
        f"ambient = {cfg.ambient!r}",
        f"step_hours = {'' if cfg.step_hours is None else repr(cfg.step_hours)}",
    ]
    for name in ("resistance_lo", "resistance_hi", "capacitance_lo", "capacitance_hi",
                 "power_lo", "power_hi", "cop_lo", "cop_hi", "setpoint_lo", "setpoint_hi"):
        lines.append(f"{name} = {getattr(cfg.tcl_ranges, name)!r}")
    for name in ("inj_eff", "ext_eff", "capacity_kwh", "charge_rate_kw", "discharge_rate_kw"):
        lines.append(f"{name} = {getattr(cfg.ev_params, name)!r}")
    lines.append("")
    if cfg.setpoint is not None:
        lines += [
            "[setpoint]",
            f"amplitude = {cfg.setpoint.amplitude!r}",
            f"frequency = {cfg.setpoint.frequency!r}",
            f"offset = {cfg.setpoint.offset!r}",
            "",
        ]
    if cfg.noise is not None:
        lines += [
            "[noise]",
            f"mean = {cfg.noise.mean!r}",
            f"sd = {cfg.noise.sd!r}",
            f"lo = {cfg.noise.lo!r}",
            f"hi = {cfg.noise.hi!r}",
            "",
        ]
    lines += ["[manifest]", f"tool_version = {__version__}", ""]
    return "\n".join(lines)


def emit_outputs(case_results: list, settings: RunSettings) -> list:
    """Write rounds.csv, summary.csv and trajectories.csv; return their paths."""
    out = settings.out_dir
    rounds_rows = []
    summary_rows = []
    traj_rows = []
    for result, twin in case_results:
        cfg = result.config
        fb = cfg.feedback
        series = result.rounds
        for j in range(cfg.rounds):
            rounds_rows.append((
                cfg.scenario, fb, j + 1,
                float(series["setpoint_eff"][j]),
                float(series["aggregate"][j]),
                float(series["tracking"][j]),
                float(series["cum_tracking"][j]),
                float(series["regret"][j]),
                float(series["mean_norm"][j]),
                float(series["l1"][j]),
            ))
        metrics = compute_metrics(result, twin)
        summary_rows.append((
            cfg.scenario, fb, float(cfg.rho), float(cfg.lam), cfg.trials,
            float(metrics["improvement_pct"]),
            float(metrics["mean_improvement_pct"]),
            float(metrics["sparsity_improvement_pct"]),
            float(metrics["simultaneity_pct"]),
        ))
        traj = result.first_trial.trajectories
        for load in range(traj.shape[1]):
            for j in range(traj.shape[0]):
                traj_rows.append((cfg.scenario, fb, load, j + 1, float(traj[j, load])))

    paths = []
    for name, header, rows in (
        ("rounds.csv", ROUNDS_HEADER, rounds_rows),
        ("summary.csv", SUMMARY_HEADER, summary_rows),
        ("trajectories.csv", TRAJECTORIES_HEADER, traj_rows),
    ):
        path = out / name
        write_csv(path, header, rows)
        paths.append(path)
    return paths


def _print_summary(case_results: list) -> None:
    print(f"{'scenario':<9} {'feedback':<10} {'improvement%':>13} {'mean%':>8} "
          f"{'sparsity%':>10} {'simultaneity%':>14}")
    for result, twin in case_results:
        m = compute_metrics(result, twin)
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
        if fb == "partial" and cfg.rho != 0.0:
            raise ConfigError("partial feedback drops the mean penalty; set rho = 0")
        result = run_experiment(cfg)
        twin = None
        if cfg.rho > 0 or cfg.lam > 0:
            # Only the twin's mean-norm and l1 series are read; its regret never is.
            twin = run_experiment(replace(cfg, rho=0.0, lam=0.0, compute_regret=False))
        case_results.append((result, twin))

    emit_outputs(case_results, settings)
    duration = time.monotonic() - start
    manifest_path.write_text(_manifest_text(settings, duration, output_names))
    if not settings.quiet:
        _print_summary(case_results)
    return EXIT_OK


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        settings = resolve_settings(args)
    except ConfigError as exc:
        print(f"loadtrack: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return execute(settings)
    except ConfigError as exc:
        print(f"loadtrack: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"loadtrack: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
