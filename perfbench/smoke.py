#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at one trial per case (about a minute).

    python3 perfbench/smoke.py

Checks that one command prints every metric named in BENCHMARK.json with
its unit and sample count on every workload in both modes, that the output
check rejects a CSV with one byte changed and a lowered last regret cell
(and accepts a raised one), and that every function the tracer wrapped is
the original again after a traced run.
"""

import json
import shutil
import subprocess
import sys

import check
import child
import run
import tracing

SMOKE = run.WORK / "smoke"


def test_every_metric_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--trials", "1"],
                capture_output=True, text=True, timeout=170, check=True,
            )
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
            assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"]
            for m in wanted:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
                printed = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
                assert len(printed) == 1 and printed[0][2] == m["unit"], (m, printed)
                assert printed[0][3].startswith("n="), printed
            print(f"ok  {workload} --trace {trace}: {len(wanted)} metrics")


def tiny_ev_outputs():
    """One-trial ev-regularized outputs (regret on) and the run's directory."""
    work = SMOKE / "check"
    work.mkdir(parents=True)
    cfg_path = run.write_config("ev-regularized", 3, work)
    _, proc = run.spawn(["run", "stats.json", "--config", str(cfg_path), "--out", "out",
                         "--quiet", "--trials", "1"], work)
    assert proc.code == 0, proc.stderr
    return work / "out"


def mutated(out, name, edit, tag):
    """A copy of the outputs with ``edit`` applied to the bytes of one file."""
    copy = out.parent / tag
    shutil.copytree(out, copy)
    path = copy / name
    path.write_bytes(edit(path.read_bytes()))
    return copy


def set_last_regret(data: bytes, delta: float) -> bytes:
    lines = data.splitlines(keepends=True)
    col = lines[0].rstrip(b"\n").split(b",").index(b"regret")
    cells = lines[-1].rstrip(b"\n").split(b",")
    cells[col] = repr(float(cells[col]) + delta).encode()
    lines[-1] = b",".join(cells) + b"\n"
    return b"".join(lines)


def test_check_rejects_changes() -> None:
    out = tiny_ev_outputs()
    ref = check.digests(out)
    assert check.failed_cases(ref, ref, ref, ["full"]) == {}

    def flip_byte(data: bytes) -> bytes:
        i = data.rindex(b"1")
        return data[:i] + b"2" + data[i + 1:]

    one_byte = check.digests(mutated(out, "trajectories.csv", flip_byte, "one_byte"))
    assert "full" in check.failed_cases(one_byte, ref, None, ["full"])
    lowered = check.digests(mutated(out, "rounds.csv", lambda d: set_last_regret(d, -1.0), "lowered"))
    assert "fell below" in check.failed_cases(lowered, ref, None, ["full"])["full"]
    raised = check.digests(mutated(out, "rounds.csv", lambda d: set_last_regret(d, +1.0), "raised"))
    assert check.failed_cases(raised, ref, None, ["full"]) == {}
    assert "first run" in check.failed_cases(raised, None, ref, ["full"])["full"]
    print("ok  check rejects a changed byte and a lowered last regret cell")


def test_originals_restored() -> None:
    sys.path.insert(0, str(run.SRC))
    from loadtrack import algorithms, cli, harness, loads

    owners = [cli, harness, algorithms, loads, loads.TclFleet, loads.EvFleet, loads.NoiseSpec,
              loads.WeightedChargeObjective] + [getattr(algorithms, c) for c in tracing.TRACKERS]
    before = [dict(vars(owner)) for owner in owners]
    work = SMOKE / "restore"
    work.mkdir(parents=True)
    cfg_path = run.write_config("tcl-regimes", 3, work)
    code = child.run_cli("trace", str(work / "stats.json"), str(work / "spans.npz"),
                         ["--config", str(cfg_path), "--out", str(work / "out"), "--quiet", "--trials", "1"])
    assert code == 0
    stats = json.loads((work / "stats.json").read_text())
    assert stats["restored"] and stats["layers"]["algorithms.rounds"][0] > 0, stats
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        changed = [k for k in set(snapshot) | set(after) if snapshot.get(k) is not after.get(k)]
        assert not changed, (owner, changed)
    print("ok  every wrapped function is the original after a traced run")


def main() -> int:
    shutil.rmtree(SMOKE, ignore_errors=True)
    test_check_rejects_changes()
    test_originals_restored()
    test_every_metric_printed()
    return 0


if __name__ == "__main__":
    sys.exit(main())
