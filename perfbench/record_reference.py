#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks runs against.

Run once, from the root of a checkout of the commit whose outputs are the
reference, and commit the rewritten ``perfbench/reference.json``:

    python3 perfbench/record_reference.py

For every workload it records, at the config seeds of the default workload
seed and of one held-out workload seed, each case's digest of the CSV bytes
outside the ``regret`` column, its last ``regret`` cell and the digest of
the manifest's non-comment lines.
"""

import json
import sys

import check
import run

WORKLOAD_SEEDS = (0, 7)   # the default seed and a held-out seed


def main() -> int:
    recorded = {}
    for workload in run.WORKLOADS:
        for seed in (s for ws in WORKLOAD_SEEDS for s in run.config_seeds(ws)):
            work = run.WORK / "reference" / workload / str(seed)
            work.mkdir(parents=True, exist_ok=True)
            cfg_path = run.write_config(workload, seed, work)
            _, proc = run.spawn(["run", "stats.json", "--config", str(cfg_path),
                                 "--out", "out", "--quiet"], work)
            if proc.code != 0:
                print(f"{workload} seed {seed}: exit {proc.code}\n{proc.stderr}", file=sys.stderr)
                return 1
            got = check.digests(work / "out")
            for case in got["cases"].values():
                del case["full"]
            recorded.setdefault(workload, {})[str(seed)] = got
            print(f"{workload} seed {seed}: {sorted(got['cases'])} in {proc.wall_s:.1f} s")
    (run.BENCH / "reference.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
