#!/usr/bin/env python3
"""loadtrack benchmark: end-to-end and per-layer metrics of CLI batch runs.

Usage, from the root of a loadtrack checkout:

    python3 perfbench/run.py --workload tcl-regimes --seed 0 --seconds 40 --trace 0

Each workload is a config under ``perfbench/workloads``. Workload seed n
stands for the config seeds 3n, 3n+1 and 3n+2, which the CLI runs take in
turn, so a run's medians cover three inputs and every input seen twice is
checked for identical bytes. Every CLI run is a fresh single process over
``src/`` and runs to completion (a batch system: no arrival rate).
``--trace 0`` measures the end-to-end metrics from untraced runs; ``--trace
1`` pairs untraced and traced runs of config seed 3n and reports the
per-layer metrics and the tracing overhead. Outputs are also checked
against the seed-commit digests in ``reference.json`` where the config
seed has one. The last stdout line is the JSON result; the full result
with provenance and sample counts goes to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import statistics
import string
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("tcl-regimes", "ev-regularized", "tcl-wide")

INPUTS = 3                # config seeds per workload seed, run in turn
MIN_RUNS = INPUTS + 1     # the first input runs twice, for the identity check
SETUP_STARTS = 2          # cold starts before each untraced CLI run
MIN_TRIALS = 100          # trial_ms_p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="override trials per case (smoke test; skips the reference digests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


@dataclass
class Spawned:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list, cwd: Path) -> tuple[float, Spawned]:
    """Run one fresh child to completion; return its start time and outcome.

    ``os.wait4`` gives this child's own peak RSS; a timer kills it after
    CHILD_TIMEOUT_S, and the wait still reaps it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, Spawned(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                          out_path.read_text(), err_path.read_text())


def config_seeds(seed: int) -> list:
    return [INPUTS * seed + i for i in range(INPUTS)]


def write_config(workload: str, config_seed: int, work: Path) -> Path:
    template = string.Template((BENCH / "workloads" / f"{workload}.cfg").read_text())
    path = work / f"seed{config_seed}.cfg"
    path.write_text(template.substitute(seed=config_seed))
    return path


def case_trials(cfg_path: Path, trials_override: int | None) -> tuple[dict, int]:
    """Trials each case runs (twins included) and the horizon, read from the config."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(cfg_path)
    trials = trials_override or cfg.getint("run", "trials")
    regularized = (cfg.getfloat("algorithm", "rho", fallback=0.0) > 0
                   or cfg.getfloat("algorithm", "lambda", fallback=0.0) > 0)
    feedbacks = [fb.strip() for fb in cfg.get("run", "feedback").split(",") if fb.strip()]
    return {fb: trials * (2 if regularized else 1) for fb in feedbacks}, cfg.getint("run", "rounds")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "loadtrack").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def summary(values: list) -> dict:
    """Median of per-run values, with the values and their quartile spread."""
    out = {"value": statistics.median(values), "samples": len(values), "values": values}
    if len(values) > 1 and out["value"]:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["note"] = f"spread {(q3 - q1) / out['value']:.3f}"
    return out


class Runs:
    """The CLI runs of one benchmark invocation and their output checks."""

    def __init__(self, work: Path, configs: dict, plan: dict, reference: dict, trials: int | None):
        self.work, self.configs, self.plan, self.reference = work, configs, plan, reference
        self.trials = trials
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def cli_args(self, config_seed: int) -> list:
        args = ["--config", str(self.configs[config_seed]), "--out", "out", "--quiet"]
        return args + ["--trials", str(self.trials)] if self.trials else args

    def run(self, mode: str, config_seed: int) -> tuple[Spawned, dict | None]:
        """One CLI run in a fresh directory; returns the process and its stats."""
        self.count += 1
        rundir = self.work / f"run{self.count}"
        shutil.rmtree(self.work / f"run{self.count - 1}" / "out", ignore_errors=True)
        rundir.mkdir()
        extra = ["stats.json", "spans.npz"] if mode == "trace" else ["stats.json"]
        _, proc = spawn([mode, *extra, *self.cli_args(config_seed)], rundir)
        self.attempted += sum(self.plan.values())
        where = f"run {self.count} ({mode}, config seed {config_seed})"
        stats = None
        try:
            stats = json.loads((rundir / "stats.json").read_text())
        except (OSError, ValueError):
            pass
        if proc.code != 0 or stats is None:
            self.failed += sum(self.plan.values())
            self.problems.append(f"{where}: exit {proc.code}: {proc.stderr.strip()[-400:]}")
            return proc, None
        if not stats.get("restored", False):
            self.problems.append(f"{where}: a wrapped function was not restored")
        try:
            got = check.digests(rundir / "out")
        except (OSError, ValueError) as exc:
            self.failed += sum(self.plan.values())
            self.problems.append(f"{where}: unreadable outputs: {exc}")
            return proc, stats
        bad = check.failed_cases(got, self.reference.get(str(config_seed)),
                                 self.first.get(config_seed), list(self.plan))
        for fb, reason in bad.items():
            self.failed += self.plan[fb]
            self.problems.append(f"{where} case {fb}: {reason}")
        self.first.setdefault(config_seed, got)
        return proc, stats


def cold_start_s(work: Path, cfg_path: Path) -> float:
    """Seconds from spawning a fresh process to resolved settings."""
    start, proc = spawn(["setup", "--config", str(cfg_path), "--out", "out", "--quiet"], work)
    if proc.code != 0:
        raise RuntimeError(f"setup start failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip()) - start


def keep_going(elapsed: float, longest: float, runs: int, trials: int, seconds: float) -> bool:
    """Budgeted loop: fit whole runs in the window, with the floors above.

    The MIN_TRIALS floor may stretch the window by half, no more.
    """
    if runs < MIN_RUNS:
        return True
    if elapsed + longest <= seconds:
        return True
    return trials < MIN_TRIALS and elapsed + longest <= 1.5 * seconds


def untraced(runs: Runs, seeds: list, rounds: int, seconds: float) -> dict:
    walls, rss, rates, trials_ms, setup = [], [], [], [], []
    begin = time.perf_counter()
    longest = 0.0
    while keep_going(time.perf_counter() - begin, longest, len(walls), len(trials_ms), seconds):
        config_seed = seeds[len(walls) % len(seeds)]
        setup += [cold_start_s(runs.work, runs.configs[config_seed]) for _ in range(SETUP_STARTS)]
        proc, stats = runs.run("run", config_seed)
        longest = max(longest, proc.wall_s)
        if stats is None:
            break
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        rates.append(sum(runs.plan.values()) * rounds / proc.wall_s)
        trials_ms += stats["trials_ms"]
    if not walls:
        return {}
    p90 = statistics.quantiles(trials_ms, n=10)[-1] if len(trials_ms) > 1 else trials_ms[0]
    beyond = sum(t > p90 for t in trials_ms)
    return {
        "wall_s": summary(walls),
        "trial_rounds_per_s": summary(rates),
        # The upper median: on ev-regularized half the trials are twins whose
        # hindsight solve runs to the iteration cap, so the distribution has a
        # gap at the 50th percentile and the interpolated median sits in it.
        "trial_ms_p50": {"value": statistics.median_high(trials_ms), "samples": len(trials_ms)},
        "trial_ms_p90": {"value": p90, "samples": len(trials_ms), "beyond": beyond,
                         "note": f"{beyond} beyond p90" + ("; fewer than 10" if beyond < 10 else "")},
        "setup_s": summary(setup),
        "peak_rss_mb": summary(rss),
    }


def traced(runs: Runs, config_seed: int, seconds: float) -> dict:
    """Untraced/traced pairs of one input; per-layer values are medians over traced runs."""
    layers: dict = {}
    overheads = []
    begin = time.perf_counter()
    longest = 0.0
    while not overheads or time.perf_counter() - begin + longest <= seconds:
        plain, plain_stats = runs.run("run", config_seed)
        proc, stats = runs.run("trace", config_seed)
        longest = max(longest, plain.wall_s + proc.wall_s)
        if plain_stats is None or stats is None:
            break
        overheads.append(proc.wall_s - plain.wall_s)
        for name, (value, samples) in stats["layers"].items():
            layers.setdefault(name, ([], samples))[0].append(value)
    if not overheads:
        return {}
    out = {name: {**summary(values), "samples": samples} for name, (values, samples) in layers.items()}
    out["trace.overhead_s"] = summary(overheads)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loadtrack" / "cli.py").is_file():
        print(f"perfbench: no loadtrack sources under {SRC}; run from the root of a "
              "loadtrack checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mapping = json.loads((BENCH / "layers.json").read_text())

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = config_seeds(args.seed)
    configs = {s: write_config(args.workload, s, work) for s in seeds}
    plan, rounds = case_trials(configs[seeds[0]], args.trials)

    _, env = spawn(["env"], work)
    if env.code != 0:
        print(f"perfbench: cannot import loadtrack: {env.stderr.strip()[-400:]}", file=sys.stderr)
        return 2
    provenance = json.loads(env.stdout)
    provenance.update(commit=git_commit(), source_sha256=source_digest(), workload=args.workload,
                      seed=args.seed, config_seeds=seeds, seconds=args.seconds, trace=args.trace)
    blas_threads = provenance["blas"]["threads"]
    if blas_threads is not None and blas_threads > provenance["nproc"]:
        print(f"perfbench: BLAS uses {blas_threads} threads on {provenance['nproc']} cores",
              file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance, sort_keys=True))

    reference = {}
    if args.trials is None:
        reference = json.loads((BENCH / "reference.json").read_text()).get(args.workload, {})
    runs = Runs(work, configs, plan, reference, args.trials)
    if args.trace:
        measured = traced(runs, seeds[0], args.seconds)
    else:
        measured = untraced(runs, seeds, rounds, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        runs.problems.append("metrics not measured: " + ", ".join(missing))
    checked = sorted(s for s in runs.first if str(s) in reference)
    print(f"workload {args.workload} seed {args.seed}: {runs.count} CLI runs, "
          f"{runs.attempted} trials attempted, {runs.failed} failed "
          f"(failed_frac {runs.failed / max(runs.attempted, 1):.4f}); identity checked across "
          f"repeated inputs; reference digests checked for config seeds {checked or 'none'}")
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            continue
        entry = measured[m["name"]] = {**measured[m["name"]], "unit": m["unit"]}
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
        line = f"  {m['name']:<34} {entry['value']:>14.6g} {m['unit']:<6} n={entry['samples']}"
        if "note" in entry:
            line += f" ({entry['note']})"
        if m["name"] in mapping:
            line += f"  -> {mapping[m['name']]}"
        print(line)
    for problem in runs.problems:
        print("  problem: " + problem)
    result = {
        "correct": not runs.problems and runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "provenance": provenance, "detail": measured, "problems": runs.problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
