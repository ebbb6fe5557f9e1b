"""The perf-trend gate fails loudly when a BENCH speedup regresses.

These tests drive ``benchmarks/perf_trend.py`` through its importable
``main(argv)`` exactly as CI does, against synthetic artifact/baseline
directories, and pin the acceptance criterion: an artificially
regressed speedup makes the gate exit nonzero.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF_TREND = REPO_ROOT / "benchmarks" / "perf_trend.py"
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

spec = importlib.util.spec_from_file_location("perf_trend", PERF_TREND)
perf_trend = importlib.util.module_from_spec(spec)
sys.modules["perf_trend"] = perf_trend  # dataclasses resolve annotations here
spec.loader.exec_module(perf_trend)


def _write_artifacts(directory: Path, scale: float = 1.0) -> None:
    """Write a full set of plausible BENCH artifacts, speedups scaled."""
    directory.mkdir(parents=True, exist_ok=True)
    shapes = {
        "BENCH_block_pipeline.json": {
            "intra encode": 10.0, "decode": 1.3, "jpeg encode": 8.5,
        },
        "BENCH_audio_pipeline.json": {
            "whole-stream encode": 9.0, "decode": 1.6,
        },
        "BENCH_net_delivery.json": {
            "packetize + serialize": 80.0,
            "XOR parity groups": 9.0,
            "RFC 1071 checksum": 300.0,
        },
        "BENCH_obs_overhead.json": {
            "engine_tracing_off": 1.2,
        },
        "BENCH_motion_search.json": {
            "full": 15.0, "diamond": 5.5, "three_step": 7.4,
        },
    }
    for name, paths in shapes.items():
        payload = {
            "benchmark": name.removeprefix("BENCH_").removesuffix(".json"),
            "paths": {
                path: {
                    "reference_ms": 100.0 * speedup * scale,
                    "batched_ms": 100.0,
                    "speedup": speedup * scale,
                }
                for path, speedup in paths.items()
            },
        }
        (directory / name).write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    bench = tmp_path / "bench"
    baseline = tmp_path / "baselines"
    _write_artifacts(bench)
    _write_artifacts(baseline)
    return bench, baseline


def _run(bench: Path, baseline: Path, *extra: str) -> int:
    return perf_trend.main(
        ["--bench-dir", str(bench), "--baseline-dir", str(baseline), *extra]
    )


def test_passes_when_current_matches_baseline(dirs, capsys):
    bench, baseline = dirs
    assert _run(bench, baseline) == 0
    assert "perf trend ok" in capsys.readouterr().out


def test_small_noise_within_tolerance_passes(dirs):
    bench, baseline = dirs
    _write_artifacts(bench, scale=0.8)  # -20% < 35% tolerance
    assert _run(bench, baseline) == 0


def test_artificial_regression_exits_nonzero(dirs, capsys):
    """The acceptance criterion: a regressed speedup fails the gate."""
    bench, baseline = dirs
    name = "BENCH_block_pipeline.json"
    payload = json.loads((bench / name).read_text())
    regressed = copy.deepcopy(payload)
    # Drop one path's speedup to half its baseline: far past tolerance.
    regressed["paths"]["intra encode"]["speedup"] = 5.0
    regressed["paths"]["intra encode"]["batched_ms"] = 200.0
    (bench / name).write_text(json.dumps(regressed))

    assert _run(bench, baseline) != 0
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "intra encode" in captured.err


def test_uniform_regression_past_tolerance_fails(dirs):
    bench, baseline = dirs
    _write_artifacts(bench, scale=0.5)  # -50% > 35% tolerance
    assert _run(bench, baseline) != 0


def test_missing_current_artifact_fails(dirs, capsys):
    bench, baseline = dirs
    (bench / "BENCH_net_delivery.json").unlink()
    assert _run(bench, baseline) != 0
    assert "missing current artifact" in capsys.readouterr().err


def test_missing_baseline_fails_and_points_at_update(dirs, capsys):
    bench, baseline = dirs
    (baseline / "BENCH_audio_pipeline.json").unlink()
    assert _run(bench, baseline) != 0
    assert "--update" in capsys.readouterr().err


def test_dropped_benchmark_path_fails(dirs):
    """Silently deleting a benchmarked path must not pass the gate."""
    bench, baseline = dirs
    name = "BENCH_net_delivery.json"
    payload = json.loads((bench / name).read_text())
    del payload["paths"]["RFC 1071 checksum"]
    (bench / name).write_text(json.dumps(payload))
    assert _run(bench, baseline) != 0


def test_update_refreshes_baselines(dirs):
    bench, baseline = dirs
    _write_artifacts(bench, scale=0.5)
    assert _run(bench, baseline) != 0  # regressed vs old baseline
    assert _run(bench, baseline, "--update") == 0
    assert _run(bench, baseline) == 0  # new baseline accepted
    refreshed = json.loads(
        (baseline / "BENCH_block_pipeline.json").read_text()
    )
    assert refreshed["paths"]["intra encode"]["speedup"] == pytest.approx(5.0)


def test_summary_markdown_is_written(dirs, tmp_path):
    bench, baseline = dirs
    summary = tmp_path / "summary.md"
    assert _run(bench, baseline, "--summary", str(summary)) == 0
    text = summary.read_text()
    assert "### Perf trend vs committed baselines" in text
    assert "| block_pipeline | intra encode |" in text


def test_tolerance_must_be_a_fraction(dirs):
    bench, baseline = dirs
    with pytest.raises(SystemExit):
        _run(bench, baseline, "--tolerance", "1.5")


def test_committed_baselines_are_valid_artifacts():
    """The baselines shipped in-repo load and cover every known artifact."""
    for artifact in perf_trend.ARTIFACTS:
        payload = perf_trend.load_bench(BASELINE_DIR / artifact)
        assert payload["paths"], f"{artifact}: empty paths table"
        for entry in payload["paths"].values():
            assert entry["speedup"] > 0
