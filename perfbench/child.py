"""One fresh benchmark process; ``run.py`` starts it with PYTHONPATH=src.

Modes:
  env                             print the machine and library provenance as JSON
  setup ARGS...                   import loadtrack.cli, resolve the settings, print
                                  the perf_counter reading at which that finished
  run STATS ARGS...               run the CLI with per-trial clocks, write STATS
  trace STATS SPANS ARGS...       run the CLI with every layer traced, write STATS
                                  and the raw spans to SPANS (.npz)

ARGS are passed to ``loadtrack.cli`` unchanged. The process exits with the
CLI's own exit code.
"""

import json
import sys
import time


def blas_info() -> dict:
    """The BLAS library numpy loaded and its thread count, read from the library."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library into this process

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"library": path.rsplit("/", 1)[-1], "config": config().decode(),
                    "threads": int(threads())}
    return {"library": libs[0].rsplit("/", 1)[-1] if libs else None, "config": None, "threads": None}


def provenance() -> dict:
    import os
    import platform

    import numpy

    import loadtrack.cli

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "loadtrack": loadtrack.cli.__version__,
        "platform": platform.platform(),
    }


def run_cli(mode: str, stats_path: str, spans_path: str | None, argv: list) -> int:
    import tracing

    from loadtrack import algorithms, cli, harness, loads

    tracer = tracing.Tracer()
    if mode == "trace":
        tracing.install_layers(tracer, cli, harness, algorithms, loads)
    else:
        tracing.install_trial_clock(tracer, harness)
    stats = {"exit": None}
    try:
        start = time.perf_counter()
        stats["exit"] = cli.main(argv)
        stats["cli_s"] = time.perf_counter() - start
    finally:
        stats["restored"] = tracer.restore()
        stats["trials_ms"] = tracing.trial_latencies_ms(tracer)
        if mode == "trace":
            stats["layers"] = tracing.layer_metrics(tracer)
            tracer.save(spans_path)
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return stats["exit"]


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "env":
        print(json.dumps(provenance()))
        return 0
    if mode == "setup":
        from loadtrack import cli

        cli.resolve_settings(cli.parse_args(argv[1:]))
        print(repr(time.perf_counter()))
        return 0
    if mode == "run":
        return run_cli(mode, argv[1], None, argv[2:])
    if mode == "trace":
        return run_cli(mode, argv[1], argv[2], argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
