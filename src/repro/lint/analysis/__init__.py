"""Interprocedural dataflow layer under :mod:`repro.lint`.

PR 8's rules were intraprocedural: each checker saw one module's AST at
a time, so a serialization-path function that *calls* a helper that
reads the wall clock passed clean.  This subpackage adds the
whole-program half — still stdlib-only, still never importing the
analyzed code:

* :mod:`~repro.lint.analysis.facts` — one cheap AST walk per module
  producing a :class:`~repro.lint.analysis.facts.ModuleFacts`
  record: definitions, imports, constants, call sites, direct effects,
  bit-I/O field sequences;
* :mod:`~repro.lint.analysis.callgraph` — resolves the recorded call
  sites into a project-wide call graph (module aliases, ``self.``
  methods via a lightweight class-hierarchy pass, annotation-typed
  parameters, tracked constructor locals);
* :mod:`~repro.lint.analysis.summaries` — per-function *effect
  summaries* (wall clock, global RNG, bare-set iteration, swallowed
  broad excepts) propagated
  bottom-up to a fixpoint over recursion cycles, each transitive effect
  carrying its shortest witness call chain;
* :mod:`~repro.lint.analysis.bitwidth` — the width-parity model: every
  literal-width ``write_bits``/``write_many`` field an encoder emits,
  cross-checkable against the matching decoder's reads.

Rules consume the result through :attr:`repro.lint.core.Project.analysis`.
"""

from __future__ import annotations

from .bitwidth import BitWidthModel, FieldSeq
from .callgraph import CallGraph
from .facts import FunctionFacts, ModuleFacts, extract_facts
from .project import ProjectAnalysis
from .summaries import EffectSummaries

__all__ = [
    "BitWidthModel",
    "CallGraph",
    "EffectSummaries",
    "FieldSeq",
    "FunctionFacts",
    "ModuleFacts",
    "ProjectAnalysis",
    "extract_facts",
]
