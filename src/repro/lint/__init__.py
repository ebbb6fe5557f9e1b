"""repro.lint: AST-based invariant checker for this repository.

Four runtime conventions — explicit-RNG plumbing, bit-exact virtual-time
serialization, no silently-swallowed errors, and encoder/decoder field
width parity — enforced at lint time instead of by reviewer memory.
Stdlib only (``ast``); never imports the code under analysis.

Run it: ``python -m repro.lint --check``.  Catalogue and workflow:
``docs/static_analysis.md``.
"""

from .core import (
    Checker,
    ModuleContext,
    Project,
    ScopedVisitor,
    build_project,
    run_checkers,
    run_lint,
)
from .findings import Finding
from .rules import ALL_CHECKERS, default_checkers

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "ModuleContext",
    "Project",
    "ScopedVisitor",
    "build_project",
    "default_checkers",
    "run_checkers",
    "run_lint",
]
