"""Project-wide call graph resolved from per-module facts.

Resolution is deliberately *sound-ish*, not complete: a call site that
cannot be pinned to a project function is dropped (false negatives are
acceptable; a lint layer that guesses produces noise).  What it does
resolve:

* bare names — local definitions, then imports (a resolved class name
  becomes a call to its ``__init__`` plus an edge target for tracked
  locals);
* ``self.m`` / ``cls.m`` — looked up on the enclosing class, then its
  bases depth-first (a lightweight class-hierarchy pass; external bases
  end the search);
* ``ClassName.m`` and ``alias.f`` — via local definitions and imports;
* ``x.m`` where ``x`` is a tracked local (``x = Foo(...)`` or
  ``x = factory(...)`` with an annotated return), or an
  annotation-typed parameter (``writer: BitWriter``).

Node ids are absolute dotted qualnames:
``repro.video.encoder.VideoEncoder._write_header``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .facts import FunctionFacts, ModuleFacts


@dataclass
class CallGraph:
    """Edges between project function ids, plus the lookup tables."""

    #: Module dotted name -> ModuleFacts.
    modules: dict[str, ModuleFacts] = field(default_factory=dict)
    #: Function id -> FunctionFacts.
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    #: Function id -> sorted tuple of (callee id, call lineno).
    edges: dict[str, tuple[tuple[str, int], ...]] = field(default_factory=dict)

    def callees(self, func_id: str) -> tuple[tuple[str, int], ...]:
        return self.edges.get(func_id, ())

    def module_of(self, func_id: str) -> ModuleFacts | None:
        name = func_id
        while "." in name:
            name = name.rsplit(".", 1)[0]
            if name in self.modules:
                return self.modules[name]
        return None

    def relpath_of(self, func_id: str) -> str:
        mod = self.module_of(func_id)
        return mod.relpath if mod else ""


def _resolve_import(target: str, modules: dict[str, ModuleFacts]) -> str | None:
    """An import target -> project module/function/class id, or None."""
    if target in modules:
        return target
    if "." in target:
        head, tail = target.rsplit(".", 1)
        if head in modules:
            return f"{head}.{tail}"
    return None


class _Resolver:
    def __init__(self, modules: dict[str, ModuleFacts]) -> None:
        self.modules = modules
        # Absolute class name -> class record (bases resolved lazily).
        self.classes: dict[str, dict] = {}
        for mod in modules.values():
            for cname, rec in mod.classes.items():
                self.classes[f"{mod.module}.{cname}"] = {
                    "module": mod.module,
                    "bases": rec["bases"],
                    "methods": set(rec["methods"]),
                }

    def resolve_class_name(self, name: str, mod: ModuleFacts) -> str | None:
        """A (possibly dotted) class reference in ``mod`` -> absolute id."""
        if name in mod.classes:
            return f"{mod.module}.{name}"
        head = name.split(".")[0]
        if head in mod.imports:
            absolute = mod.imports[head] + name[len(head):]
            if absolute in self.classes:
                return absolute
            # "module as alias" import: alias.Class
            resolved = _resolve_import(absolute, self.modules)
            if resolved in self.classes:
                return resolved
        if name in self.classes:
            return name
        return None

    def lookup_method(self, class_id: str, method: str,
                      _seen: frozenset = frozenset()) -> str | None:
        """MRO-lite: the class, then bases depth-first."""
        if class_id in _seen or class_id not in self.classes:
            return None
        rec = self.classes[class_id]
        if method in rec["methods"]:
            return f"{class_id}.{method}"
        mod = self.modules[rec["module"]]
        for base in rec["bases"]:
            base_id = self.resolve_class_name(base, mod)
            if base_id:
                found = self.lookup_method(
                    base_id, method, _seen | {class_id}
                )
                if found:
                    return found
        return None

    def resolve_type_name(self, text: str, mod: ModuleFacts) -> str | None:
        """An annotation / constructor expression -> absolute class id."""
        if not text:
            return None
        return self.resolve_class_name(text, mod)

    def local_type(self, fn: FunctionFacts, name: str,
                   mod: ModuleFacts) -> str | None:
        """The class id a local/parameter is known to hold, if any."""
        tracked = fn.local_types.get(name)
        if tracked:
            if tracked.startswith("<class:"):
                return f"{mod.module}.{tracked[len('<class:'):-1]}"
            # Constructor call: Foo(...) / alias.Foo(...)
            cls = self.resolve_type_name(tracked, mod)
            if cls:
                return cls
            # Factory call: resolve the function, use its return annotation.
            target = self.resolve_callable(tracked.split("."), fn, mod,
                                           _track_locals=False)
            if target:
                callee = self._function_facts(target)
                if callee is not None and callee.return_annotation:
                    callee_mod = self._module_for(target)
                    if callee_mod is not None:
                        return self.resolve_type_name(
                            callee.return_annotation, callee_mod
                        )
        annot = fn.annotations.get(name)
        if annot:
            return self.resolve_type_name(annot, mod)
        return None

    def _function_facts(self, func_id: str) -> FunctionFacts | None:
        mod = self._module_for(func_id)
        if mod is None:
            return None
        qual = func_id[len(mod.module) + 1:]
        return mod.functions.get(qual)

    def _module_for(self, func_id: str) -> ModuleFacts | None:
        name = func_id
        while "." in name:
            name = name.rsplit(".", 1)[0]
            if name in self.modules:
                return self.modules[name]
        return None

    def resolve_callable(
        self, parts: list[str], fn: FunctionFacts, mod: ModuleFacts,
        _track_locals: bool = True,
    ) -> str | None:
        """A call expression's dotted parts -> project function id."""
        head = parts[0]

        if len(parts) == 1:
            # Bare name: local def, local class (-> __init__), import.
            if head in mod.functions:
                return f"{mod.module}.{head}"
            cls = self.resolve_class_name(head, mod)
            if cls:
                return self.lookup_method(cls, "__init__") or None
            if head in mod.imports:
                target = _resolve_import(mod.imports[head], self.modules)
                if target:
                    target_mod = self._module_for(target)
                    if target_mod is not None:
                        qual = target[len(target_mod.module) + 1:]
                        if qual in target_mod.functions:
                            return target
                        tcls = self.resolve_class_name(qual, target_mod)
                        if tcls:
                            return self.lookup_method(tcls, "__init__")
            return None

        # self.m / cls.m / local.m / ClassName.m / alias.f / alias.Class.m
        if _track_locals:
            holder = self.local_type(fn, head, mod)
            if holder:
                if len(parts) == 2:
                    return self.lookup_method(holder, parts[1])
                return None

        dotted = ".".join(parts[:-1])
        cls = self.resolve_class_name(dotted, mod)
        if cls:
            return self.lookup_method(cls, parts[-1])

        if head in mod.imports:
            absolute = mod.imports[head] + "." + ".".join(parts[1:])
            target_mod_name = absolute.rsplit(".", 1)[0]
            if target_mod_name in self.modules:
                target_mod = self.modules[target_mod_name]
                leaf = parts[-1]
                if leaf in target_mod.functions:
                    return absolute
                tcls = self.resolve_class_name(leaf, target_mod)
                if tcls:
                    return self.lookup_method(tcls, "__init__")
        return None


def build_call_graph(modules: dict[str, ModuleFacts]) -> CallGraph:
    """Resolve every recorded call site across the project."""
    resolver = _Resolver(modules)
    graph = CallGraph(modules=dict(modules))
    for mod in modules.values():
        for qual, fn in mod.functions.items():
            func_id = f"{mod.module}.{qual}"
            graph.functions[func_id] = fn
            resolved: list[tuple[str, int]] = []
            for call in fn.calls:
                target = resolver.resolve_callable(
                    list(call["expr"]), fn, mod
                )
                if target and in_graph_check(target, modules):
                    resolved.append((target, call["lineno"]))
            # Deterministic edge order regardless of dict/walk order.
            graph.edges[func_id] = tuple(
                sorted(set(resolved), key=lambda e: (e[1], e[0]))
            )
    return graph


def in_graph_check(func_id: str, modules: dict[str, ModuleFacts]) -> bool:
    name = func_id
    while "." in name:
        name = name.rsplit(".", 1)[0]
        if name in modules:
            qual = func_id[len(name) + 1:]
            return qual in modules[name].functions
    return False


__all__ = ["CallGraph", "build_call_graph"]
