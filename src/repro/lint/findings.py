"""The unit of lint output: one finding at one file/line.

Findings are plain value objects so every layer above them — checkers,
the CLI, the tests — can compare, sort, and serialize them without
ceremony.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    file: str  # repo-relative POSIX path
    line: int  # 1-indexed
    rule: str  # rule id, e.g. "rng-discipline"
    message: str
    #: Interprocedural findings carry the witness call chain — dotted
    #: function ids from the flagged entry point down to the site that
    #: produces the effect.  Empty for intraprocedural findings.  The
    #: chain also appears (shortened) in ``message``; this field keeps
    #: it machine-readable for the JSON report.
    chain: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        out = {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }
        if self.chain:
            out["chain"] = list(self.chain)
        return out


__all__ = ["Finding"]
