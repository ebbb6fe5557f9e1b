"""``python -m repro.lint`` — run the invariant checkers.

Modes:

* default / ``--check``: lint ``src/repro`` and report every finding;
  exit 1 if there is any, 0 otherwise.  (``--check`` is an explicit
  alias so CI invocations read as what they are.)  There is no
  suppression mechanism: a finding is fixed, not recorded.
* ``--json``: machine-readable report on stdout (same exit codes).
* ``--format=github``: one ``::error file=...,line=...`` workflow
  annotation per finding, so findings land on the PR diff in CI.

Linting reads the tree and writes nothing: every run analyzes every
module from scratch.

The project root is auto-detected by walking up from the current
directory to the first ``pyproject.toml``; override with ``--root``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .core import run_lint
from .findings import Finding
from .rules import ALL_CHECKERS


def find_root(start: Path | None = None) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else the start dir)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for this repository's "
        "correctness conventions (docs/static_analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro under the root)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root (default: auto-detect via pyproject.toml)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="explicit check mode (the default behaviour; reads well in CI)",
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="finding output style: plain text, or GitHub workflow "
        "::error annotations (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def _github_annotation(finding: Finding) -> str:
    """One GitHub Actions workflow-command error annotation.

    Newlines and the command's reserved characters must be URL-encoded
    or the runner truncates the message at the first one.
    """
    def escape(text: str, extra: str = "") -> str:
        for char, code in (
            ("%", "%25"), ("\r", "%0D"), ("\n", "%0A"),
            *((c, f"%{ord(c):02X}") for c in extra),
        ):
            text = text.replace(char, code)
        return text

    return (
        f"::error file={escape(finding.file, ',:')},line={finding.line},"
        f"title={escape(finding.rule, ',:')}::{escape(finding.message)}"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_CHECKERS:
            print(f"{cls.rule_id:20s} {cls.description}")
        return 0

    root = (args.root or find_root()).resolve()

    findings = run_lint(root, paths=args.paths or None)
    clean = not findings

    if args.json:
        print(
            json.dumps(
                {
                    "root": str(root),
                    "findings": [f.to_dict() for f in findings],
                    "clean": clean,
                },
                indent=2,
            )
        )
        return 0 if clean else 1

    render = _github_annotation if args.format == "github" else Finding.render
    for finding in findings:
        print(render(finding))
    if clean:
        print("lint clean: 0 findings")
        return 0
    print(
        f"lint FAILED: {len(findings)} finding"
        f"{'' if len(findings) == 1 else 's'}"
    )
    return 1


__all__ = ["build_parser", "find_root", "main"]
