"""Output check for one CLI run: per-case digests and the one-sided regret rule.

A case is one feedback regime of the run. Its digest covers every byte of
the CSV lines that belong to it (rows whose ``feedback`` cell names it,
plus each file's header) with the ``regret`` cell of ``rounds.csv`` cut
out. The ``regret`` column is checked on its own: a case's last regret
cell may rise against the reference, because a better hindsight
comparator is allowed, but it may not fall. ``full`` digests keep the
regret cells and are what two runs of the same seed must share.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

CSV_FILES = ("rounds.csv", "summary.csv", "trajectories.csv")


def _split(line: bytes) -> list[bytes]:
    return line.rstrip(b"\n").split(b",")


def digests(out_dir: Path) -> dict:
    """{"manifest": hex, "cases": {feedback: {"digest", "full", "last_regret"}}}.

    The cases are the rows of ``summary.csv``. Raises ``OSError`` when a
    file is missing and ``ValueError`` when a row names no case.
    """
    out_dir = Path(out_dir)
    summary = (out_dir / "summary.csv").read_bytes().splitlines(keepends=True)
    cases = {_split(line)[1].decode(): {"last_regret": None} for line in summary[1:]}
    hashes = {fb: (hashlib.sha256(), hashlib.sha256()) for fb in cases}
    for name in CSV_FILES:
        lines = (out_dir / name).read_bytes().splitlines(keepends=True)
        header = _split(lines[0])
        fb_col = header.index(b"feedback")
        regret_col = header.index(b"regret") if b"regret" in header else None
        for pair in hashes.values():
            for h in pair:
                h.update(name.encode() + b"\0" + lines[0])
        for line in lines[1:]:
            cells = _split(line)
            fb = cells[fb_col].decode()
            if fb not in hashes:
                raise ValueError(f"{name}: row names unknown case {fb!r}")
            digest, full = hashes[fb]
            full.update(line)
            if regret_col is None:
                digest.update(line)
                continue
            cases[fb]["last_regret"] = float(cells[regret_col])
            digest.update(b",".join(cells[:regret_col] + cells[regret_col + 1:]) + b"\n")
    for fb, (digest, full) in hashes.items():
        cases[fb]["digest"] = digest.hexdigest()
        cases[fb]["full"] = full.hexdigest()
    manifest = hashlib.sha256()
    for line in (out_dir / "manifest.txt").read_bytes().splitlines(keepends=True):
        if not line.startswith(b"#"):
            manifest.update(line)
    return {"manifest": manifest.hexdigest(), "cases": cases}


def failed_cases(got: dict, reference: dict | None, first: dict | None, expected: list) -> dict:
    """Map each failed case to the reason, given this run's digests.

    ``reference`` is the recorded seed-commit digest set for this seed, or
    None; ``first`` is the first run of the same seed in this benchmark
    run, or None. ``expected`` lists the cases the run must produce.
    """
    failed = {}
    for fb in expected:
        mine = got["cases"].get(fb)
        if mine is None:
            failed[fb] = "case missing from the outputs"
            continue
        if reference is not None:
            ref = reference["cases"][fb]
            if got["manifest"] != reference["manifest"]:
                failed[fb] = "manifest differs from the reference"
            elif mine["digest"] != ref["digest"]:
                failed[fb] = "CSV bytes outside the regret column differ from the reference"
            elif ref["last_regret"] is not None and mine["last_regret"] < ref["last_regret"]:
                failed[fb] = f"last regret {mine['last_regret']!r} fell below {ref['last_regret']!r}"
        if fb not in failed and first is not None:
            if got["manifest"] != first["manifest"] or mine["full"] != first["cases"][fb]["full"]:
                failed[fb] = "outputs differ from the first run of the same seed"
    return failed
