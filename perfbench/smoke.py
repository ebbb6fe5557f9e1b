"""Smoke test of the benchmark itself: every workload once, at tiny sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload in ``BENCHMARK.json`` it runs ``run.py`` untraced and
traced and checks that the result line names every listed metric with
its unit, that the table above it prints all ten end-to-end metrics with
their units, that no segment failed (``error_rate`` 0), that every share
lies in [0, 1], and that the self-time shares that partition a traced
run sum to at most 1.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_listed(workload: str, result: dict, listed: list[dict]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    if got != want:
        raise AssertionError(f"{workload}: metrics {got} != listed {want}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from harness import END_TO_END
    from layers import PARTITION

    for workload in (w["name"] for w in spec["workloads"]):
        lines, result = run(workload, 0)
        check_listed(workload, result, spec["end_to_end"])
        table = {
            line.split()[0]: line.split()[1:] for line in lines
            if line.startswith("  ") and len(line.split()) == 3
        }
        for name, unit in END_TO_END:
            if table.get(name, [None, None])[1] != unit:
                raise AssertionError(f"{workload}: {name} not printed in {unit}")
        error_rate = float(table["error_rate"][0])
        if not result["correct"] or result["failed"] or error_rate != 0.0:
            raise AssertionError(f"{workload}: failed segments: {result}")

        lines, result = run(workload, 1)
        check_listed(workload, result, spec["per_layer"])
        metrics = result["metrics"]
        shares = {
            k: v["value"] for k, v in metrics.items() if v["unit"] == "share"
        }
        outside = {k: v for k, v in shares.items() if not 0.0 <= v <= 1.0}
        if outside:
            raise AssertionError(f"{workload}: shares outside [0, 1]: {outside}")
        total = sum(metrics[k]["value"] for k in PARTITION)
        if total > 1.0 + 1e-9:
            raise AssertionError(f"{workload}: layer shares sum to {total}")
        print(f"smoke: {workload} ok (layer shares sum to {total:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
