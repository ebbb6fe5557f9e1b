"""Scenario benchmark for the streaming runtime.

Runs one workload (a registered scenario at fixed sizes) through
``Scenario.sessions()`` and ``StreamEngine.run()`` in this process, on
one thread, for ``--seconds``, and checks every output against a
cache-off sequential reference run.  Run from the repository root::

    python3 perfbench/run.py --workload transcode --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
run that wraps each layer's public callables and prints the per-layer
metrics (spans are written to ``perfbench/out/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (segments) and ``metrics``.
"""

from __future__ import annotations

import os

# Pin native thread pools before NumPy loads: one process, one thread.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

#: End-to-end metrics printed in the table but left out of the result
#: line: the deadline miss rate is 0 on two workloads and the virtual
#: makespan is a deterministic simulation output, so neither can carry a
#: bound relative to its median; the error rate is carried by
#: ``failed``/``attempted``.
PRINTED_ONLY = ("deadline_miss_rate", "virtual_makespan_s", "error_rate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny sizes are for the smoke test only",
    )
    return parser.parse_args(argv)


def import_repro(root: Path) -> None:
    """Import ``repro`` from ``<root>/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {src}; run from the root of a "
            f"checkout that holds src/repro"
        )
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: repro imported from {repro.__file__}")


def environment(args) -> str:
    import numpy

    return (
        f"workload={args.workload} seed={args.seed} scale={args.scale} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()}"
    )


def print_table(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro(Path.cwd())
    import harness
    import layers

    if args.workload not in harness.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    trace = layers.LayerTrace() if args.trace else None
    m = harness.measure(
        args.workload, args.seed, args.seconds, args.scale, trace
    )
    env = environment(args)
    computed = [len(r.computed_step_s) for r in m.reps]
    print(
        f"perfbench: {env} reps={len(m.reps)} "
        f"computed_segments_per_rep={computed}"
    )
    e2e = harness.end_to_end(m)
    print("end-to-end (untraced):")
    print_table(e2e)
    correct = m.failed == 0
    print(
        f"verdict: {'PASS' if correct else 'FAIL'}: "
        f"{m.attempted - m.failed}/{m.attempted} segments match the "
        f"cache-off sequential reference and decode "
        f"(error_rate {m.failed / m.attempted:g})"
    )
    if trace is None:
        metrics = {k: v for k, v in e2e.items() if k not in PRINTED_ONLY}
    else:
        untraced_s = [r.run_s for r in m.reps if r.report is not None]
        metrics, table = trace.metrics(untraced_s)
        print("per-layer (traced):")
        print_table(metrics)
        print("self time by callable (share of traced run wall, calls/run):")
        for name, calls, share in table:
            print(f"  {name:<40}  {share:8.4f}  {calls:10.1f}")
        out = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        trace.recorder.write_chrome_trace(out, {"env": env})
        print(f"spans: {len(trace.recorder.spans)} written to {out}")
        disagreements = trace.cross_check()
        if disagreements:
            for line in disagreements:
                print(f"error: {line}", file=sys.stderr)
            print(
                "error: the layer wrappers disagree with the engine's own "
                "counters; a wrapped name was probably rebound",
                file=sys.stderr,
            )
            return 3
        print("cross-check: wrapper counts match the engine report")
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
