"""Analysis framework: parsed modules, scope-tracking visitor, runner.

The linter is deliberately *static*: it parses source with :mod:`ast`
and never imports the code under analysis, so it runs in milliseconds,
needs no third-party packages, and cannot be fooled by import-time side
effects.  Three pieces:

* :class:`ModuleContext` — one parsed source file (path, source, tree);
* :class:`Project` — the whole analysis input: every module context
  plus the interprocedural analysis built over them;
* :class:`Checker` / :class:`ScopedVisitor` — the per-rule base
  classes.  A checker yields :class:`~repro.lint.findings.Finding`
  objects for one module at a time; the scoped visitor maintains the
  enclosing class/function stack so rules can reason about qualnames
  ("is this the blessed ``WallClock.now``?").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding

#: Where the analyzed sources live, relative to the project root.
SRC_PREFIX = "src/repro"


@dataclass
class ModuleContext:
    """One parsed python source file."""

    path: Path  # absolute
    relpath: str  # POSIX, relative to the project root
    source: str
    tree: ast.Module

    @property
    def module_name(self) -> str:
        """Dotted import path (``src/repro/a/b.py`` -> ``repro.a.b``)."""
        parts = Path(self.relpath).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @property
    def stem(self) -> str:
        return Path(self.relpath).stem

    @property
    def subpackage(self) -> str:
        """First package under ``repro`` (``repro.video.dct`` -> ``video``)."""
        parts = self.module_name.split(".")
        return parts[1] if len(parts) > 1 else ""


@dataclass
class Project:
    """Everything a checker may consult beyond the module at hand."""

    root: Path
    modules: list[ModuleContext] = field(default_factory=list)
    #: The interprocedural view (call graph, effect summaries, bit-width
    #: model), built by :func:`build_project` over the same parsed
    #: modules.  ``None`` only if construction was explicitly skipped.
    analysis: "ProjectAnalysis | None" = None


class Checker:
    """Base class for one lint rule."""

    rule_id: str = ""
    description: str = ""

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            file=ctx.relpath,
            line=getattr(node, "lineno", 1),
            rule=self.rule_id,
            message=message,
        )


class ProjectChecker(Checker):
    """Base class for a whole-program rule.

    The runner is per-module (``check(ctx, project)``), but an
    interprocedural rule computes its findings from the project-wide
    analysis in one shot.  This base computes once per project and then
    serves each module its slice, so whole-program rules drop into the
    same runner unchanged.
    """

    def project_check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        token = id(project)
        if getattr(self, "_project_token", None) != token:
            self._project_token = token
            self._project_findings = sorted(self.project_check(project))
        for found in self._project_findings:
            if found.file == ctx.relpath:
                yield found


class ScopedVisitor(ast.NodeVisitor):
    """A visitor that tracks the enclosing class/function scopes.

    Subclasses get ``self.class_stack`` and ``self.func_stack`` (names,
    outermost first) and may override ``visit_*`` as usual; the scope
    bookkeeping wraps the class/function visits.
    """

    def __init__(self) -> None:
        self.class_stack: list[str] = []
        self.func_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    @property
    def qualname(self) -> str:
        """``Class.method`` / ``function`` / ``""`` at module level."""
        return ".".join(self.class_stack + self.func_stack)


# ---------------------------------------------------------------- loading


def discover_files(root: Path, paths: Iterable[str] | None = None) -> list[Path]:
    """Python files to analyze: ``src/repro`` by default, else ``paths``.

    ``paths`` entries may be files or directories, absolute or relative
    to ``root``.
    """
    if not paths:
        base = root / SRC_PREFIX
        return sorted(base.rglob("*.py")) if base.is_dir() else []
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = root / p
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def parse_module(path: Path, root: Path) -> ModuleContext | Finding:
    """Parse one file; a syntax error becomes a finding, not a crash."""
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            file=relpath,
            line=exc.lineno or 1,
            rule="parse-error",
            message=f"could not parse: {exc.msg}",
        )
    return ModuleContext(path=path, relpath=relpath, source=source, tree=tree)


def build_project(
    root: Path,
    paths: Iterable[str] | None = None,
    cache: "FactsCache | None" = None,
) -> tuple[Project, list[Finding]]:
    """Parse the tree once; returns the project + any parse-error findings.

    The interprocedural analysis is built over whatever was parsed (a
    partial ``paths`` selection gives a partial call graph — calls into
    unparsed modules simply don't resolve).  ``cache`` is an optional
    :class:`~repro.lint.analysis.cache.FactsCache`: unchanged files skip
    fact extraction; findings are identical either way.
    """
    from .analysis.project import build_analysis

    project = Project(root=root)
    parse_failures: list[Finding] = []
    for path in discover_files(root, paths):
        parsed = parse_module(path, root)
        if isinstance(parsed, Finding):
            parse_failures.append(parsed)
        else:
            project.modules.append(parsed)
    project.analysis = build_analysis(project.modules, cache)
    return project, parse_failures


def run_checkers(
    project: Project, checkers: Iterable[Checker]
) -> list[Finding]:
    findings: list[Finding] = []
    for checker in checkers:
        for ctx in project.modules:
            findings.extend(checker.check(ctx, project))
    return sorted(findings)


def run_lint(
    root: Path,
    paths: Iterable[str] | None = None,
    checkers: Iterable[Checker] | None = None,
    cache: "FactsCache | None" = None,
) -> list[Finding]:
    """Full pipeline: discover, parse, run every (or the given) rule."""
    from .rules import default_checkers

    project, findings = build_project(root, paths, cache=cache)
    findings.extend(
        run_checkers(
            project,
            default_checkers() if checkers is None else checkers,
        )
    )
    return sorted(findings)


__all__ = [
    "Checker",
    "ModuleContext",
    "Project",
    "ProjectChecker",
    "ScopedVisitor",
    "build_project",
    "discover_files",
    "parse_module",
    "run_checkers",
    "run_lint",
]
