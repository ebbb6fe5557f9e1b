"""The linter linted: every rule with triggering + clean fixtures.

Each rule gets at least one fixture that MUST produce its finding and
one that MUST NOT — so a rule that silently stops firing (or starts
flagging idiomatic code) fails here, not in a surprised CI run three
PRs later.  On top of the per-rule fixtures:

* CLI exit codes — clean tree 0, any finding 1, ``--json``;
* the self-check: ``python -m repro.lint --check`` on the *committed*
  tree exits 0, i.e. the shipped code has no findings.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_CHECKERS, run_lint
from repro.lint.cli import build_parser, main
from repro.lint.findings import Finding
from repro.lint.rules.determinism import DeterminismChecker
from repro.lint.rules.exceptions import ExceptionHygieneChecker
from repro.lint.rules.rng import RngDisciplineChecker

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------- harness


def lint_tree(tmp_path: Path, files: dict[str, str], checkers=None):
    """Materialize ``files`` under a scratch root and lint it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return run_lint(tmp_path, checkers=checkers)


def rules_of(findings):
    return {f.rule for f in findings}


# -------------------------------------------------------------- rule: rng


class TestRngDiscipline:
    CHECKERS = [RngDisciplineChecker()]

    def test_global_state_call_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "np.random.seed(0)\n"
                    "x = np.random.rand(4)\n"
                )
            },
            self.CHECKERS,
        )
        assert len(findings) == 2
        assert all(f.rule == "rng-discipline" for f in findings)

    def test_legacy_import_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "from numpy.random import shuffle\n"
                )
            },
            self.CHECKERS,
        )
        assert any("global-state" in f.message for f in findings)

    def test_literal_seed_outside_helper_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "def make():\n"
                    "    return np.random.default_rng(42)\n"
                )
            },
            self.CHECKERS,
        )
        assert any("hardcodes a seed" in f.message for f in findings)

    def test_blessed_helper_module_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/rng.py": (
                    "import numpy as np\n"
                    "def coerce_rng(rng=None, default_seed=0):\n"
                    "    if isinstance(rng, np.random.Generator):\n"
                    "        return rng\n"
                    "    return np.random.default_rng(0)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_generator_methods_not_flagged(self, tmp_path):
        # rng.random(n) / rng.choice(...) on an explicit Generator are
        # exactly what the rule wants to see.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "def sample(rng, n):\n"
                    "    return rng.random(n), rng.choice([1, 2], n)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    @pytest.mark.parametrize(
        "call", ["randint(0, 9)", "normal()", "shuffle(xs)", "choice(xs)",
                 "permutation(xs)"],
    )
    def test_each_global_state_call_flagged(self, tmp_path, call):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "def draw(xs):\n"
                    f"    return np.random.{call}\n"
                )
            },
            self.CHECKERS,
        )
        name = call.split("(")[0]
        assert [f.line for f in findings] == [3]
        assert f"np.random.{name}()" in findings[0].message

    def test_plumbed_default_rng_not_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/video/gen.py": (
                    "import numpy as np\n"
                    "def make(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------ rule: determinism


class TestDeterminism:
    CHECKERS = [DeterminismChecker()]

    def test_wall_clock_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/sched.py": (
                    "import time\n"
                    "def pick():\n"
                    "    return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_from_import_alias_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/sched.py": (
                    "from time import perf_counter as pc\n"
                    "def pick():\n"
                    "    return pc()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_wall_clock_boundary_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/obs/clock.py": (
                    "import time\n"
                    "class WallClock:\n"
                    "    def now(self):\n"
                    "        return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_engine_run_no_longer_exempt(self, tmp_path):
        # The exemption moved to the injectable clock boundary: the
        # engine's run loop takes a Clock now, so a raw read there is a
        # regression the rule must catch.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/runtime/engine.py": (
                    "import time\n"
                    "class StreamEngine:\n"
                    "    def run(self):\n"
                    "        return time.perf_counter()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_wall_clock_elsewhere_in_clock_module_still_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/obs/clock.py": (
                    "import time\n"
                    "class ManualClock:\n"
                    "    def now(self):\n"
                    "        return time.time()\n"
                )
            },
            self.CHECKERS,
        )
        assert any("wall clock" in f.message for f in findings)

    def test_set_iteration_in_serialization_path_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/pack.py": (
                    "def emit(ids):\n"
                    "    for i in set(ids):\n"
                    "        yield i\n"
                )
            },
            self.CHECKERS,
        )
        assert any("set order" in f.message for f in findings)

    def test_sorted_set_iteration_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/net/pack.py": (
                    "def emit(ids):\n"
                    "    for i in sorted(set(ids)):\n"
                    "        yield i\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_set_iteration_outside_serialization_paths_clean(self, tmp_path):
        # mapping/ is not a serialization subpackage: set iteration there
        # feeds symmetric cost sums, not emitted bytes.
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/mapping/cost.py": (
                    "def total(xs):\n"
                    "    acc = 0\n"
                    "    for x in {1, 2, 3}:\n"
                    "        acc += x\n"
                    "    return acc\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------- rule: exceptions


class TestExceptionHygiene:
    CHECKERS = [ExceptionHygieneChecker()]

    def test_silent_broad_except_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert any("swallows all errors" in f.message for f in findings)

    def test_bare_except_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert any("bare except" in f.message for f in findings)

    def test_reraise_and_chaining_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "class IoError(Exception):\n"
                    "    pass\n"
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception as exc:\n"
                    "        raise IoError(str(exc)) from exc\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_logging_handler_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "import logging\n"
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except Exception:\n"
                    "        logging.warning('load failed: %s', p)\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []

    def test_narrow_silent_handler_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/support/io.py": (
                    "def load(p):\n"
                    "    try:\n"
                    "        return open(p).read()\n"
                    "    except FileNotFoundError:\n"
                    "        return None\n"
                )
            },
            self.CHECKERS,
        )
        assert findings == []


# ------------------------------------------------------ framework pieces


class TestFramework:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        findings = lint_tree(
            tmp_path, {"src/repro/video/bad.py": "def broken(:\n"}
        )
        assert [f.rule for f in findings] == ["parse-error"]

    def test_findings_sort_and_render(self):
        a = Finding(file="a.py", line=3, rule="r", message="m")
        b = Finding(file="a.py", line=1, rule="r", message="m")
        assert sorted([a, b])[0] is b
        assert a.render() == "a.py:3: [r] m"

    def test_every_rule_has_id_and_description(self):
        ids = [cls.rule_id for cls in ALL_CHECKERS]
        assert len(ids) == len(set(ids)) == 4
        assert all(cls.description for cls in ALL_CHECKERS)


# --------------------------------------------------------------- the CLI


CLEAN_TREE = {
    "pyproject.toml": "[project]\nname = 'fixture'\n",
    "src/repro/video/dct.py": (
        "def quantize(block, q):\n"
        "    return block\n"
        "def quantize_reference(block, q):\n"
        "    return block\n"
    ),
}

#: One triggering module per kept rule: (rule id, relpath, source).
FINDING_PER_RULE = [
    ("rng-discipline", "src/repro/video/bad.py",
     "import numpy as np\nnp.random.seed(0)\n"),
    ("determinism", "src/repro/runtime/sched.py",
     "import time\ndef pick():\n    return time.perf_counter()\n"),
    ("exception-hygiene", "src/repro/support/io.py",
     "def load(p):\n    try:\n        return open(p).read()\n"
     "    except:\n        return None\n"),
    ("width-parity", "src/repro/video/fmt.py",
     "def write_header(w):\n    w.write_bits(1, 8)\n"
     "    w.write_bits(2, 8)\ndef read_header(r):\n"
     "    return r.read_bits(8)\n"),
]


class TestCli:
    def materialize(self, tmp_path, files):
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        assert main(["--root", str(tmp_path), "--check"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_new_finding_exits_nonzero(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out and "lint FAILED" in out

    def test_json_report(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "rng-discipline"

    def test_clean_json_report_keys(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        assert main(["--root", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"root", "findings", "clean"}
        assert payload["clean"] is True and payload["findings"] == []

    @pytest.mark.parametrize("rule, relpath, source", FINDING_PER_RULE)
    def test_any_finding_of_every_rule_fails_check(
        self, tmp_path, capsys, rule, relpath, source
    ):
        # No suppression mechanism: whichever rule fires, --check fails.
        self.materialize(tmp_path, {**CLEAN_TREE, relpath: source})
        assert main(["--root", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert f"[{rule}]" in out and "lint FAILED" in out

    @pytest.mark.parametrize(
        "flags", [["--baseline", "lint_baseline.json"], ["--write-baseline"],
                  ["--no-baseline"]],
    )
    def test_suppression_options_are_gone(self, tmp_path, capsys, flags):
        self.materialize(tmp_path, CLEAN_TREE)
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(tmp_path), "--check", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cache_options_are_gone(self, tmp_path, capsys):
        # No option string mentions a cache, so neither the old
        # directory option nor any abbreviation of one parses.
        options = build_parser()._option_string_actions
        assert [o for o in options if "cache" in o] == []
        self.materialize(tmp_path, CLEAN_TREE)
        with pytest.raises(SystemExit) as exc:
            main(["--root", str(tmp_path), "--check", "--no-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lint_writes_nothing_under_the_root(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        before = sorted(tmp_path.rglob("*"))
        assert main(["--root", str(tmp_path), "--check"]) == 1
        assert main(["--root", str(tmp_path), "--json"]) == 1
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before

    def test_package_has_no_baseline_module(self):
        assert importlib.util.find_spec("repro.lint.baseline") is None

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert sorted(listed) == [
            "determinism", "exception-hygiene", "rng-discipline",
            "width-parity",
        ]

    def test_github_format_annotations(self, tmp_path, capsys):
        self.materialize(tmp_path, CLEAN_TREE)
        (tmp_path / "src/repro/video/bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert main(
            ["--root", str(tmp_path), "--check", "--format=github"]
        ) == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/video/bad.py,line=2," in out
        assert "title=rng-discipline::" in out


# ------------------------------------------------------------ self-check


class TestCommittedTree:
    """The shipped code passes its own linter with zero findings."""

    def _invoke(self, *flags):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.lint",
             "--root", str(REPO_ROOT), *flags],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_module_invocation_is_clean(self):
        result = self._invoke("--check")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint clean" in result.stdout

    def test_json_report_is_clean(self):
        result = self._invoke("--json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["clean"] is True and payload["findings"] == []
