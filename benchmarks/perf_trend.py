"""Perf-trend gate: compare ``BENCH_*.json`` artifacts against baselines.

The benchmark suite writes one JSON artifact per pipeline
(``BENCH_block_pipeline.json``, ``BENCH_audio_pipeline.json``,
``BENCH_net_delivery.json``, ``BENCH_motion_search.json``, ...), each
recording per-path speedups of the
batched kernels over their scalar ``_reference`` oracles.  CI has always
*uploaded* those artifacts; this checker makes them a gate: every
measured speedup is compared against the committed baseline under
``benchmarks/baselines/`` and the run fails (exit 1) when any path
regresses by more than the tolerance.

Speedups are ratios of two timings taken on the same machine in the
same process, so they transfer across hosts far better than raw
milliseconds — that is what makes a committed baseline meaningful.  The
default tolerance is still generous (35% relative) because CI runners
are noisy neighbours.

Usage::

    python benchmarks/perf_trend.py                  # gate against baselines
    python benchmarks/perf_trend.py --update         # refresh baselines
    python benchmarks/perf_trend.py --summary out.md # + markdown summary

``--summary`` appends a GitHub-flavored table (CI points it at
``$GITHUB_STEP_SUMMARY`` so the trend shows on every PR).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

#: Default relative drop in speedup that fails the gate.
DEFAULT_TOLERANCE = 0.35

#: The artifacts the gate covers (baseline files carry the same names).
ARTIFACTS = (
    "BENCH_block_pipeline.json",
    "BENCH_audio_pipeline.json",
    "BENCH_net_delivery.json",
    "BENCH_obs_overhead.json",
    "BENCH_motion_search.json",
)

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


@dataclass(frozen=True)
class PathTrend:
    """One benchmarked path's speedup, now vs the committed baseline."""

    artifact: str
    path: str
    baseline_speedup: float
    current_speedup: float
    tolerance: float

    @property
    def ratio(self) -> float:
        if self.baseline_speedup == 0:
            return float("inf")
        return self.current_speedup / self.baseline_speedup

    @property
    def regressed(self) -> bool:
        return self.current_speedup < self.baseline_speedup * (
            1.0 - self.tolerance
        )

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSED"
        if self.ratio >= 1.0 + self.tolerance:
            return "improved"
        return "ok"


def load_bench(path: Path) -> dict:
    """Load one BENCH artifact; raises with a clear message when malformed."""
    with open(path) as fh:
        payload = json.load(fh)
    if "paths" not in payload or not isinstance(payload["paths"], dict):
        raise ValueError(f"{path}: no 'paths' table in artifact")
    return payload


def compare_artifact(
    name: str, current: dict, baseline: dict, tolerance: float
) -> list[PathTrend]:
    """Per-path trends for one artifact (baseline paths drive coverage).

    A path present in the baseline but missing from the current run is a
    gate failure too — silently dropping a benchmark must not pass.
    """
    trends = []
    for path_name, base_entry in baseline["paths"].items():
        cur_entry = current["paths"].get(path_name)
        cur_speedup = float(cur_entry["speedup"]) if cur_entry else 0.0
        trends.append(
            PathTrend(
                artifact=name,
                path=path_name,
                baseline_speedup=float(base_entry["speedup"]),
                current_speedup=cur_speedup,
                tolerance=tolerance,
            )
        )
    return trends


def collect_trends(
    bench_dir: Path, baseline_dir: Path, tolerance: float
) -> tuple[list[PathTrend], list[str]]:
    """(trends, problems) over every known artifact.

    ``problems`` collects structural failures — missing files — that
    must fail the gate independently of any speedup numbers.
    """
    trends: list[PathTrend] = []
    problems: list[str] = []
    for artifact in ARTIFACTS:
        baseline_path = baseline_dir / artifact
        current_path = bench_dir / artifact
        if not baseline_path.exists():
            problems.append(
                f"no committed baseline {baseline_path} "
                f"(run with --update to seed it)"
            )
            continue
        if not current_path.exists():
            problems.append(
                f"missing current artifact {current_path} "
                f"(did the benchmark job run?)"
            )
            continue
        trends.extend(
            compare_artifact(
                artifact.removeprefix("BENCH_").removesuffix(".json"),
                load_bench(current_path),
                load_bench(baseline_path),
                tolerance,
            )
        )
    return trends, problems


def render_rows(trends: list[PathTrend]) -> list[list[str]]:
    rows = []
    for t in trends:
        delta = (t.ratio - 1.0) * 100.0
        rows.append([
            t.artifact,
            t.path,
            f"{t.baseline_speedup:.2f}x",
            f"{t.current_speedup:.2f}x",
            f"{delta:+.0f}%",
            t.status,
        ])
    return rows


def render_text(trends: list[PathTrend], problems: list[str]) -> str:
    lines = ["perf trend vs committed baselines:"]
    for row in render_rows(trends):
        lines.append(
            "  {:<16} {:<24} {:>8} -> {:>8}  {:>6}  {}".format(*row)
        )
    for problem in problems:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def render_markdown(trends: list[PathTrend], problems: list[str]) -> str:
    lines = [
        "### Perf trend vs committed baselines",
        "",
        "| artifact | path | baseline | current | delta | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in render_rows(trends):
        status = row[5]
        if status == "REGRESSED":
            status = f"**{status}**"
        lines.append(
            f"| {row[0]} | {row[1]} | {row[2]} | {row[3]} | {row[4]} "
            f"| {status} |"
        )
    for problem in problems:
        lines.append(f"\n> :warning: {problem}")
    lines.append("")
    return "\n".join(lines)


def update_baselines(bench_dir: Path, baseline_dir: Path) -> list[str]:
    """Copy current artifacts over the committed baselines."""
    baseline_dir.mkdir(parents=True, exist_ok=True)
    refreshed = []
    for artifact in ARTIFACTS:
        current_path = bench_dir / artifact
        if not current_path.exists():
            continue
        load_bench(current_path)  # validate before committing
        shutil.copyfile(current_path, baseline_dir / artifact)
        refreshed.append(artifact)
    return refreshed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json speedups against committed baselines."
    )
    parser.add_argument(
        "--bench-dir", type=Path, default=Path("."),
        help="directory holding the current BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=BASELINE_DIR,
        help="directory holding the committed baseline artifacts",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative speedup drop before failing "
             f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="refresh the baselines from the current artifacts and exit",
    )
    parser.add_argument(
        "--summary", type=Path, default=None,
        help="append a markdown summary to this file "
             "(point at $GITHUB_STEP_SUMMARY in CI)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    if args.update:
        refreshed = update_baselines(args.bench_dir, args.baseline_dir)
        if not refreshed:
            print(
                f"no BENCH_*.json artifacts found in {args.bench_dir}; "
                "run the benchmark suite first", file=sys.stderr,
            )
            return 1
        for artifact in refreshed:
            print(f"baseline refreshed: {args.baseline_dir / artifact}")
        return 0

    trends, problems = collect_trends(
        args.bench_dir, args.baseline_dir, args.tolerance
    )
    print(render_text(trends, problems))
    if args.summary is not None:
        with open(args.summary, "a") as fh:
            fh.write(render_markdown(trends, problems) + "\n")

    regressions = [t for t in trends if t.regressed]
    for t in regressions:
        print(
            f"FAIL: {t.artifact}/{t.path} speedup {t.current_speedup:.2f}x "
            f"fell more than {t.tolerance:.0%} below the baseline "
            f"{t.baseline_speedup:.2f}x", file=sys.stderr,
        )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if regressions or problems:
        return 1
    print(
        f"perf trend ok: {len(trends)} paths within "
        f"{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
