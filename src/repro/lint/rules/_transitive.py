"""Shared plumbing for the transitive halves of the rules.

A transitive rule flags an *entry point* — a function the rule's domain
cares about (serialization path, runtime boundary) —
when an effect is reachable anywhere in its call chain but not in its
own body (the intraprocedural half already owns direct sites).  Noise
control is central: only **root** entry points are flagged (if a
flagged caller already covers a callee, the callee stays silent), and
the finding carries the shortest witness chain so the reader can walk
straight to the offending site.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..analysis.summaries import EffectWitness, root_entry_points
from ..core import Project
from ..findings import Finding

SERIALIZATION_PREFIXES = (
    "repro.video.", "repro.audio.", "repro.image.", "repro.net.",
)
RUNTIME_PREFIXES = ("repro.runtime.",)


def short(func_id: str) -> str:
    """Drop the shared ``repro.`` prefix for human-readable chains."""
    return func_id[6:] if func_id.startswith("repro.") else func_id


def render_chain(entry_id: str, witness: EffectWitness) -> str:
    """``entry -> helper -> site (src/x.py:42: detail)``."""
    hops = " -> ".join(short(c) for c in (entry_id,) + witness.chain)
    return f"{hops} ({witness.relpath}:{witness.lineno}: {witness.detail})"


def entry_filter_for(
    project: Project, prefixes: tuple[str, ...]
) -> Callable[[str], bool]:
    """Entry points = real functions under the given module prefixes."""
    graph = project.analysis.graph

    def accept(func_id: str) -> bool:
        return (
            func_id.startswith(prefixes)
            and not func_id.endswith(".<module>")
            and func_id in graph.functions
        )

    return accept


def transitive_findings(
    project: Project,
    rule_id: str,
    kind: str,
    entry_filter: Callable[[str], bool],
    describe: Callable[[str, str, EffectWitness], str],
) -> Iterator[Finding]:
    """Findings for every root entry point that reaches ``kind``.

    ``describe(entry_short, chain_text, witness)`` renders the message.
    """
    analysis = project.analysis
    if analysis is None:
        return
    for func_id, witness in root_entry_points(
        analysis.summaries, kind, entry_filter
    ):
        relpath, lineno = analysis.function_line(func_id)
        yield Finding(
            file=relpath,
            line=lineno,
            rule=rule_id,
            message=describe(
                short(func_id), render_chain(func_id, witness), witness
            ),
            chain=(func_id,) + witness.chain,
        )


__all__ = [
    "RUNTIME_PREFIXES",
    "SERIALIZATION_PREFIXES",
    "entry_filter_for",
    "render_chain",
    "short",
    "transitive_findings",
]
