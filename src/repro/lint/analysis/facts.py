"""Per-module fact extraction: everything the interprocedural layer needs.

One AST walk per module produces a :class:`ModuleFacts` record that is

* **self-contained** — later passes (call graph, summaries, width
  parity) consume only these records, never the AST again, and
* **JSON-serializable** — the on-disk cache
  (:mod:`repro.lint.analysis.cache`) stores the record keyed by the
  file's content hash, so a warm run skips this walk for unchanged
  modules and still reproduces cold-run output bit-for-bit.

Facts are *descriptive*, not judgmental: this module records that a
function calls ``time.time()`` or swallows a broad except; deciding
whether that is a violation (and from which entry points it matters) is
the rules' job.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# Effect kinds recorded per function (see ``FunctionFacts.effects``).
WALL_CLOCK = "wall_clock"
GLOBAL_RNG = "global_rng"
SET_ITERATION = "set_iteration"
SWALLOW_BROAD = "swallow_broad"

#: ``time`` module members that read the wall clock (mirrors the
#: intraprocedural determinism rule).
_WALL_CLOCK_NAMES = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
)

#: numpy.random functions that touch the hidden global RandomState
#: (mirrors the rng-discipline rule's table).
_LEGACY_RNG = frozenset(
    {
        "seed", "get_state", "set_state", "rand", "randn", "randint",
        "random_integers", "random", "random_sample", "ranf", "sample",
        "choice", "bytes", "shuffle", "permutation", "normal", "uniform",
        "standard_normal", "poisson", "binomial", "exponential", "beta",
        "gamma",
    }
)

_BROAD_EXCEPTS = frozenset({"Exception", "BaseException"})
_LOGGERS = frozenset({"logging", "logger", "log", "warnings"})

# Bit-I/O method tables (repro.video.bitstream.BitWriter / BitReader).
_WRITE_OPS = {
    "write_bit": "bit", "write_bits": "bits", "write_signed": "signed",
    "write_unary": "unary", "write_ue": "ue", "write_se": "se",
    "write_many": "many",
}
_READ_OPS = {
    "read_bit": "bit", "read_bits": "bits", "read_signed": "signed",
    "read_unary": "unary", "read_ue": "ue", "read_se": "se",
    "read_many": "many",
}
#: Methods on a bit-I/O receiver that reposition or bulk-consume the
#: stream: anything after one of these is no longer a statically ordered
#: field sequence.
_CURSOR_OPS = frozenset(
    {"seek", "skip", "align", "read_se_many", "read_se_many_reference",
     "bit_window", "decode", "encode", "decode_symbol", "encode_symbol",
     "write_table", "read_table"}
)
_HARMLESS_OPS = frozenset(
    {"getvalue", "bits_remaining", "bit_position", "size_bits"}
)


@dataclass
class FunctionFacts:
    """Everything recorded about one function (or the module body)."""

    qualname: str  # "func", "Class.method", or "<module>"
    lineno: int = 1
    params: list[str] = field(default_factory=list)
    #: Parameter name -> simple annotation string ("BitWriter",
    #: "np.ndarray"); only Name/Attribute annotations are kept.
    annotations: dict[str, str] = field(default_factory=dict)
    return_annotation: str = ""
    is_staticmethod: bool = False
    #: Call sites: {"expr": ["self", "m"] dotted parts, "lineno": int}.
    calls: list[dict] = field(default_factory=list)
    #: Direct effects: {"kind": ..., "lineno": ..., "detail": ...}.
    effects: list[dict] = field(default_factory=list)
    #: Local name -> constructor/factory expression parts joined with
    #: ".", for resolving method calls on tracked locals.
    local_types: dict[str, str] = field(default_factory=dict)
    #: Local name -> value class ("clamp" | "const:<n>" | "other") from
    #: simple assignments, for the width-narrowing check.
    assigns: dict[str, str] = field(default_factory=dict)
    #: Unparsed sub-expressions that appear in a comparison anywhere in
    #: the function — the statically visible range checks.
    guards: list[str] = field(default_factory=list)
    #: Ordered bit-I/O events (see bitwidth.py for the consumer).
    bitio: list[dict] = field(default_factory=list)
    #: Return value shape: element classifications when every return
    #: statement yields one tuple literal, else empty.
    return_tuple: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": self.params,
            "annotations": self.annotations,
            "return_annotation": self.return_annotation,
            "is_staticmethod": self.is_staticmethod,
            "calls": self.calls,
            "effects": self.effects,
            "local_types": self.local_types,
            "assigns": self.assigns,
            "guards": self.guards,
            "bitio": self.bitio,
            "return_tuple": self.return_tuple,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FunctionFacts":
        return cls(**raw)


@dataclass
class ModuleFacts:
    """The serializable analysis record for one module."""

    module: str  # dotted ("repro.video.encoder")
    relpath: str
    #: Import alias -> absolute dotted target ("np" -> "numpy",
    #: "BitReader" -> "repro.video.bitstream.BitReader").
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level integer (or int-tuple) constants, for width lookup.
    constants: dict[str, object] = field(default_factory=dict)
    #: Class name -> {"bases": [...], "methods": [...], "lineno": int}.
    classes: dict[str, dict] = field(default_factory=dict)
    #: Qualname -> facts ("<module>" holds module-level code).
    functions: dict[str, FunctionFacts] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "relpath": self.relpath,
            "imports": self.imports,
            "constants": self.constants,
            "classes": self.classes,
            "functions": {
                name: fn.to_dict() for name, fn in self.functions.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleFacts":
        out = cls(
            module=raw["module"],
            relpath=raw["relpath"],
            imports=dict(raw["imports"]),
            constants={
                k: tuple(v) if isinstance(v, list) else v
                for k, v in raw["constants"].items()
            },
            classes=dict(raw["classes"]),
        )
        out.functions = {
            name: FunctionFacts.from_dict(fn)
            for name, fn in raw["functions"].items()
        }
        return out


# ------------------------------------------------------------ helpers


def _dotted_parts(node: ast.AST) -> tuple[str, ...] | None:
    """("self", "m") for ``self.m``; None for anything not a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_str(node: ast.AST | None) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # Quoted forward reference: keep only simple dotted names.
        text = node.value.strip()
        return text if text.replace(".", "").isidentifier() else ""
    parts = _dotted_parts(node)
    return ".".join(parts) if parts else ""


def _const_value(node: ast.AST) -> object | None:
    """Module-constant extraction: int, or tuple/list of ints."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        items = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, int)
                    and not isinstance(elt.value, bool)):
                return None
            items.append(elt.value)
        return tuple(items)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_value(node.operand)
        return -inner if isinstance(inner, int) else None
    return None


def _is_clamp_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id in {"min", "max"}:
        return True
    return isinstance(node.func, ast.Attribute) and node.func.attr == "clip"


def classify_value(node: ast.AST) -> dict:
    """Classification of a value expression for the narrowing check.

    Returns ``{"class": ..., ...}`` with class one of ``const`` (value
    known), ``name`` (plain name/attribute/len() chain — checkable
    against the function's guards), ``masked`` (``x & 0xFFFF`` /
    ``x % n`` — silently narrowed *before* the writer's range check),
    ``clamped`` (``min``/``max``/``.clip`` — explicit bounding), or
    ``expr`` (anything else; not checked).
    """
    # int(x) / bool(x) wrappers don't change the range story.
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "int" and len(node.args) == 1 \
            and not node.keywords:
        return classify_value(node.args[0])
    value = _const_value(node)
    if isinstance(value, int):
        return {"class": "const", "value": value}
    if isinstance(node, ast.IfExp):
        a = classify_value(node.body)
        b = classify_value(node.orelse)
        if a["class"] == b["class"] == "const":
            return {"class": "const", "value": max(a["value"], b["value"])}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.Mod)
    ):
        if _const_value(node.right) is not None \
                or _const_value(node.left) is not None \
                or _dotted_parts(node.right) is not None:
            return {"class": "masked", "repr": ast.unparse(node)}
    if _is_clamp_call(node):
        return {"class": "clamped"}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "len" and len(node.args) == 1:
        return {"class": "name", "repr": ast.unparse(node)}
    if _dotted_parts(node) is not None:
        return {"class": "name", "repr": ast.unparse(node)}
    return {"class": "expr", "repr": ast.unparse(node)}


def _classify_width(node: ast.AST) -> object:
    """Literal int, symbolic dotted name, or None (dynamic)."""
    value = _const_value(node)
    if isinstance(value, int):
        return value
    parts = _dotted_parts(node)
    if parts:
        return ".".join(parts)
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _handler_is_swallowing(handler: ast.ExceptHandler) -> str | None:
    """The broad name a silently-swallowing handler catches, else None."""
    if handler.type is None:
        names = [""]
    else:
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = [
            t.id for t in types
            if isinstance(t, ast.Name) and t.id in _BROAD_EXCEPTS
        ]
    if not names:
        return None
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id in _LOGGERS:
                return None
    return "bare except" if names == [""] else f"except {', '.join(names)}"


# ------------------------------------------------------- the extractor


class _FunctionWalker(ast.NodeVisitor):
    """Collects one function's facts; nested defs get their own walker."""

    def __init__(self, facts: "FunctionFacts", time_aliases: set[str]) -> None:
        self.facts = facts
        self.time_aliases = time_aliases
        self._loop_depth = 0
        self._branch_depth = 0
        self._bitio_receivers: set[str] = set()
        self._returns: list[list[dict] | None] = []

    # Nested function/class definitions are walked separately by the
    # module extractor; don't descend into them here.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # ---------------------------------------------------------- effects

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.facts.effects.append(
                {"kind": SET_ITERATION, "lineno": node.lineno,
                 "detail": "iterates a bare set"}
            )
        self._enter_loop(node)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node)

    def _enter_loop(self, node) -> None:
        if self._subtree_touches_stream(node):
            self._emit_barrier(node.lineno, "loop")
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        # The test evaluates unconditionally and in order — its stream
        # reads (header magic checks) are real sequence fields.  Only
        # the conditionally-executed bodies are a barrier.
        self.visit(node.test)
        branches = node.body + node.orelse
        if any(self._subtree_touches_stream(s) for s in branches):
            self._emit_barrier(node.lineno, "branch")
            self._branch_depth += 1
            for stmt in branches:
                self.visit(stmt)
            self._branch_depth -= 1
        else:
            for stmt in branches:
                self.visit(stmt)

    def _visit_guarded(self, node) -> None:
        if self._subtree_touches_stream(node):
            self._emit_barrier(node.lineno, "block")
            self._branch_depth += 1
            self.generic_visit(node)
            self._branch_depth -= 1
        else:
            self.generic_visit(node)

    visit_Try = _visit_guarded
    visit_With = _visit_guarded
    if hasattr(ast, "TryStar"):  # pragma: no branch
        visit_TryStar = _visit_guarded

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = _handler_is_swallowing(node)
        if caught is not None:
            self.facts.effects.append(
                {"kind": SWALLOW_BROAD, "lineno": node.lineno,
                 "detail": caught}
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for side in (node.left, *node.comparators):
            text = ast.unparse(side)
            if text not in self.facts.guards:
                self.facts.guards.append(text)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign_targets(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign_targets([node.target], node.value)
        self.generic_visit(node)

    def _record_assign_targets(self, targets, value) -> None:
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            # Track constructor/factory locals for method resolution.
            if isinstance(value, ast.Call):
                parts = _dotted_parts(value.func)
                if parts:
                    self.facts.local_types.setdefault(
                        target.id, ".".join(parts)
                    )
            # Track value class for the width-narrowing check.
            cls = classify_value(value)
            tag = (
                "clamp" if cls["class"] == "clamped"
                else f"const:{cls['value']}" if cls["class"] == "const"
                else "other"
            )
            prev = self.facts.assigns.get(target.id)
            self.facts.assigns[target.id] = (
                tag if prev in (None, tag) else "other"
            )

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Tuple):
            self._returns.append(
                [classify_value(elt) for elt in node.value.elts]
            )
        else:
            self._returns.append(None)
        self.generic_visit(node)

    # ------------------------------------------------------------ calls

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        parts = _dotted_parts(func)
        if parts:
            self.facts.calls.append(
                {"expr": list(parts), "lineno": node.lineno}
            )
            self._check_effect_call(parts, node)
            if not self._check_bitio_call(parts, node):
                self._check_receiver_escape(node)
        else:
            self._check_receiver_escape(node)
        self.generic_visit(node)

    def _check_effect_call(self, parts: tuple[str, ...], node: ast.Call) -> None:
        if len(parts) == 2 and parts[0] == "time" \
                and parts[1] in _WALL_CLOCK_NAMES:
            self.facts.effects.append(
                {"kind": WALL_CLOCK, "lineno": node.lineno,
                 "detail": f"time.{parts[1]}()"}
            )
        elif len(parts) == 1 and parts[0] in self.time_aliases:
            self.facts.effects.append(
                {"kind": WALL_CLOCK, "lineno": node.lineno,
                 "detail": f"{parts[0]}()"}
            )
        elif len(parts) >= 2 and parts[-2] == "random" \
                and parts[-1] in _LEGACY_RNG:
            self.facts.effects.append(
                {"kind": GLOBAL_RNG, "lineno": node.lineno,
                 "detail": f"np.random.{parts[-1]}()"}
            )

    # ----------------------------------------------------------- bit I/O

    def _check_bitio_call(self, parts: tuple[str, ...], node: ast.Call) -> bool:
        """Record a bit-I/O event; True if the call was one."""
        if len(parts) != 2:
            return False
        receiver, method = parts
        if method in _WRITE_OPS:
            self._bitio_receivers.add(receiver)
            self._emit_field("w", _WRITE_OPS[method], node)
            return True
        if method in _READ_OPS:
            self._bitio_receivers.add(receiver)
            self._emit_field("r", _READ_OPS[method], node)
            return True
        if receiver in self._bitio_receivers:
            if method in _HARMLESS_OPS:
                return True
            if method in _CURSOR_OPS:
                self._emit_barrier(node.lineno, "cursor")
                return True
        return False

    def _check_receiver_escape(self, node: ast.Call) -> None:
        """A tracked stream handed to an arbitrary call is a barrier."""
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id in self._bitio_receivers:
                self._emit_barrier(node.lineno, "call")
                return

    def _subtree_touches_stream(self, node) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                parts = _dotted_parts(sub.func)
                if parts and len(parts) == 2 and (
                    parts[1] in _WRITE_OPS or parts[1] in _READ_OPS
                    or (parts[0] in self._bitio_receivers
                        and parts[1] not in _HARMLESS_OPS)
                ):
                    return True
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if isinstance(arg, ast.Name) \
                            and arg.id in self._bitio_receivers:
                        return True
        return False

    def _emit_barrier(self, lineno: int, why: str) -> None:
        bitio = self.facts.bitio
        if bitio and bitio[-1]["op"] == "barrier":
            return
        bitio.append({"op": "barrier", "why": why, "lineno": lineno})

    def _emit_field(self, direction: str, op: str, node: ast.Call) -> None:
        if self._loop_depth or self._branch_depth:
            # Inside a loop/conditional the field order is not static;
            # the barrier emitted on entry already ended the sequence.
            return
        event: dict = {"op": op, "dir": direction, "lineno": node.lineno}
        args = node.args
        if op == "bits" or op == "signed":
            if direction == "w":
                event["value"] = classify_value(args[0]) if args else {
                    "class": "expr", "repr": "?"}
                event["width"] = (
                    _classify_width(args[1]) if len(args) > 1 else None
                )
            else:
                event["width"] = _classify_width(args[0]) if args else None
        elif op == "many":
            if direction == "w":
                event["values"] = self._many_values(args[0]) if args else None
                event["widths"] = (
                    self._many_widths(args[1]) if len(args) > 1 else None
                )
            else:
                event["widths"] = self._many_widths(args[0]) if args else None
        elif op in {"ue", "se", "unary", "bit"} and direction == "w":
            event["value"] = classify_value(args[0]) if args else {
                "class": "expr", "repr": "?"}
        self.facts.bitio.append(event)

    @staticmethod
    def _many_widths(node: ast.AST) -> object:
        value = _const_value(node)
        if isinstance(value, tuple):
            return list(value)
        parts = _dotted_parts(node)
        if parts:
            return ".".join(parts)
        # np.asarray(WIDTHS, ...) and friends: look through one call.
        if isinstance(node, ast.Call) and node.args:
            return _FunctionWalker._many_widths(node.args[0])
        return None

    @staticmethod
    def _many_values(node: ast.AST) -> dict | None:
        if isinstance(node, (ast.Tuple, ast.List)):
            return {"kind": "literal",
                    "items": [classify_value(e) for e in node.elts]}
        if isinstance(node, ast.Call):
            parts = _dotted_parts(node.func)
            if parts:
                return {"kind": "call", "func": ".".join(parts)}
        parts = _dotted_parts(node)
        if parts:
            return {"kind": "name", "repr": ".".join(parts)}
        return None


def _walk_imports(tree: ast.Module, module: str) -> tuple[dict[str, str], set[str]]:
    """(alias -> absolute dotted target, names bound from ``time``)."""
    imports: dict[str, str] = {}
    time_aliases: set[str] = set()
    package_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
                if node.module == "time" and not node.level \
                        and alias.name in _WALL_CLOCK_NAMES:
                    time_aliases.add(bound)
    return imports, time_aliases


def extract_facts(module: str, relpath: str, tree: ast.Module) -> ModuleFacts:
    """The one walk: AST in, serializable :class:`ModuleFacts` out."""
    facts = ModuleFacts(module=module, relpath=relpath)
    facts.imports, time_aliases = _walk_imports(tree, module)

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            value = _const_value(stmt.value)
            if value is not None:
                facts.constants[stmt.targets[0].id] = value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            value = _const_value(stmt.value)
            if value is not None:
                facts.constants[stmt.target.id] = value

    def walk_function(node, qualname: str, in_class: str | None) -> None:
        fn = FunctionFacts(qualname=qualname, lineno=node.lineno)
        args = node.args
        fn.params = [p.arg for p in args.posonlyargs + args.args]
        if args.vararg:
            fn.params.append("*" + args.vararg.arg)
        fn.params.extend(p.arg for p in args.kwonlyargs)
        if args.kwarg:
            fn.params.append("**" + args.kwarg.arg)
        for p in args.posonlyargs + args.args + args.kwonlyargs:
            text = _annotation_str(p.annotation)
            if text:
                fn.annotations[p.arg] = text
        fn.return_annotation = _annotation_str(node.returns)
        fn.is_staticmethod = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        walker = _FunctionWalker(fn, time_aliases)
        if in_class and not fn.is_staticmethod and fn.params:
            # `self`/`cls` resolves within the enclosing class.
            fn.local_types.setdefault(fn.params[0], f"<class:{in_class}>")
        for stmt_ in node.body:
            walker.visit(stmt_)
        if walker._returns and all(
            r is not None for r in walker._returns
        ) and len({len(r) for r in walker._returns}) == 1:
            fn.return_tuple = walker._returns[0]
        facts.functions[qualname] = fn
        # Nested defs get their own (qualified) records.
        for stmt_ in node.body:
            if isinstance(stmt_, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk_function(stmt_, f"{qualname}.{stmt_.name}", in_class)

    module_fn = FunctionFacts(qualname="<module>", lineno=1)
    module_walker = _FunctionWalker(module_fn, time_aliases)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            bases = []
            for base in stmt.bases:
                parts = _dotted_parts(base)
                if parts:
                    bases.append(".".join(parts))
            methods = [
                s.name for s in stmt.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            facts.classes[stmt.name] = {
                "bases": bases, "methods": methods, "lineno": stmt.lineno,
            }
            for s in stmt.body:
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk_function(s, f"{stmt.name}.{s.name}", stmt.name)
        else:
            module_walker.visit(stmt)
    if module_fn.calls or module_fn.effects or module_fn.bitio:
        facts.functions["<module>"] = module_fn
    return facts


__all__ = [
    "FunctionFacts",
    "ModuleFacts",
    "classify_value",
    "extract_facts",
    "GLOBAL_RNG",
    "SET_ITERATION",
    "SWALLOW_BROAD",
    "WALL_CLOCK",
]
