"""Rule ``width-parity``: encoder writes must match decoder reads.

The PR 4 audio bug class, caught at lint time: an encoder field whose
width disagrees with the decoder's read corrupts every stream longer
than the narrower field, and a value masked or passed unvalidated into
a narrow field truncates *silently* (masking defeats ``write_bits``'
own range check).  Two halves:

**Field parity.**  Writer/reader pairs — the module's ``write_X`` /
``read_X`` and ``pack_X`` / ``unpack_X`` functions, plus the explicit
:data:`PAIRS` table for encoder/decoder classes — are compared
field-by-field over their straight-line prefix (the statically ordered
bit-I/O sequence before the first loop/branch/escape; see
:mod:`repro.lint.analysis.bitwidth`).  A width or operation mismatch is
flagged at the writer's field.  ``exact`` pairs (both sequences
complete) must also agree on field *count*.

**Unvalidated narrowing.**  For paired writers only — the format
boundary functions — every literal-width field's value must be visibly
safe: a constant that fits, a clamped expression (``min``/``max``/
``clip``), a variable that appears in a comparison in the writer (or in
the tuple-provider function for ``write_many`` sites), or a module
constant that fits.  A masked value (``x & 0xFFFF``) is always flagged;
an unguarded plain variable is flagged because ``write_bits`` would
raise its generic error instead of the format layer's specific one.

Pairs whose functions vanish (rename, move) are flagged as config
drift so the table cannot silently rot.
"""

from __future__ import annotations

from typing import Iterator

from ..analysis.bitwidth import Field, FieldSeq
from ..core import Project, ProjectChecker
from ..findings import Finding
from ._transitive import short

#: (writer id, reader id, mode).  ``exact`` requires both sequences
#: complete and equal length; ``prefix`` compares the overlap only
#: (header readers often stop early or keep parsing frame data).
PAIRS: tuple[tuple[str, str, str], ...] = (
    ("repro.audio.rpeltp.RpeLtpEncoder.encode",
     "repro.audio.rpeltp.RpeLtpDecoder.decode", "prefix"),
    ("repro.image.jpeg.JpegLikeCodec.encode",
     "repro.image.jpeg.JpegLikeCodec.decode", "prefix"),
    ("repro.image.wavelet.WaveletCodec.encode",
     "repro.image.wavelet.WaveletCodec.decode", "prefix"),
    ("repro.net.packetizer.packet_to_wire",
     "repro.net.packetizer.parse_packet", "exact"),
)

#: Auto-pairing name prefixes within one module: ``<w>X`` ↔ ``<r>X``.
AUTO_PREFIXES = (("write_", "read_"), ("pack_", "unpack_"))


def _field_desc(field: Field, index: int) -> str:
    label = field.label or f"field {index}"
    width = "" if field.width is None else f" ({field.width} bits)"
    return f"{label}{width}"


class WidthParityChecker(ProjectChecker):
    rule_id = "width-parity"
    description = (
        "encoder write_bits/write_many field widths must match the "
        "paired decoder's reads, and paired writers must validate "
        "(not mask) every value they narrow into a field"
    )

    def project_check(self, project: Project) -> Iterator[Finding]:
        analysis = project.analysis
        if analysis is None:
            return
        bitwidth = analysis.bitwidth
        graph = analysis.graph

        pairs: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str]] = set()

        # Auto-pairs: write_X/read_X and pack_X/unpack_X per module.
        for mod in sorted(analysis.facts.values(), key=lambda m: m.module):
            for qual in sorted(mod.functions):
                for wprefix, rprefix in AUTO_PREFIXES:
                    leaf = qual.rsplit(".", 1)[-1]
                    if not leaf.startswith(wprefix):
                        continue
                    twin = qual[: len(qual) - len(leaf)] + rprefix + \
                        leaf[len(wprefix):]
                    if twin in mod.functions:
                        pair = (f"{mod.module}.{qual}",
                                f"{mod.module}.{twin}")
                        if pair not in seen:
                            seen.add(pair)
                            pairs.append((*pair, "exact"))

        for writer_id, reader_id, mode in PAIRS:
            if (writer_id, reader_id) not in seen:
                seen.add((writer_id, reader_id))
                pairs.append((writer_id, reader_id, mode))

        for writer_id, reader_id, mode in pairs:
            yield from self._check_pair(
                project, writer_id, reader_id, mode
            )

        # Narrowing: paired writers only (the format boundary).
        for writer_id in sorted({w for w, _, _ in pairs}):
            seq = bitwidth.sequence(writer_id)
            if seq is not None and writer_id in graph.functions:
                yield from self._check_narrowing(project, writer_id, seq)

    # ------------------------------------------------------- field parity

    def _check_pair(
        self, project: Project, writer_id: str, reader_id: str, mode: str
    ) -> Iterator[Finding]:
        analysis = project.analysis
        bitwidth = analysis.bitwidth
        graph = analysis.graph

        writer_known = writer_id in graph.functions
        reader_known = reader_id in graph.functions
        if not writer_known and not reader_known:
            # Neither module is in the analyzed set (partial run or
            # fixture tree): the pair does not apply.
            return
        if not (writer_known and reader_known):
            present = writer_id if writer_known else reader_id
            missing = reader_id if writer_known else writer_id
            relpath, lineno = analysis.function_line(present)
            yield Finding(
                file=relpath,
                line=lineno,
                rule=self.rule_id,
                message=(
                    f"width-parity pair is stale: {short(present)} exists "
                    f"but its twin {short(missing)} does not — update the "
                    "pairing (rules/widthparity.py PAIRS) or restore the "
                    "function"
                ),
            )
            return

        wseq = bitwidth.sequence(writer_id)
        rseq = bitwidth.sequence(reader_id)
        if wseq is None or rseq is None or not wseq.fields \
                or not rseq.fields:
            return

        wrel, _ = analysis.function_line(writer_id)
        rrel, _ = analysis.function_line(reader_id)
        for index, (wf, rf) in enumerate(zip(wseq.fields, rseq.fields)):
            if wf.op != rf.op or wf.width != rf.width:
                yield Finding(
                    file=wrel,
                    line=wf.lineno,
                    rule=self.rule_id,
                    message=(
                        f"{short(writer_id)} writes "
                        f"{_field_desc(wf, index)} as {wf.op} but "
                        f"{short(reader_id)} reads {rf.op}"
                        + ("" if rf.width is None
                           else f" ({rf.width} bits)")
                        + f" at {rrel}:{rf.lineno}; the formats have "
                        "diverged"
                    ),
                )
                return  # later fields are offset; one finding per pair
        if mode == "exact" and wseq.complete and rseq.complete \
                and len(wseq.fields) != len(rseq.fields):
            longer, shorter = (
                (writer_id, reader_id)
                if len(wseq.fields) > len(rseq.fields)
                else (reader_id, writer_id)
            )
            relpath, lineno = analysis.function_line(longer)
            yield Finding(
                file=relpath,
                line=lineno,
                rule=self.rule_id,
                message=(
                    f"{short(writer_id)} writes {len(wseq.fields)} fields "
                    f"but {short(reader_id)} reads {len(rseq.fields)}: "
                    f"{short(shorter)} misses the trailing field(s)"
                ),
            )

    # ---------------------------------------------------------- narrowing

    def _check_narrowing(
        self, project: Project, writer_id: str, seq: FieldSeq
    ) -> Iterator[Finding]:
        analysis = project.analysis
        graph = analysis.graph
        fn = graph.functions[writer_id]
        mod = graph.module_of(writer_id)
        relpath = mod.relpath

        for index, field in enumerate(seq.fields):
            value = field.value
            if value is None or field.width is None:
                continue
            cls = value.get("class")
            if cls == "masked":
                yield Finding(
                    file=relpath,
                    line=field.lineno,
                    rule=self.rule_id,
                    message=(
                        f"{short(writer_id)} masks the value for "
                        f"{_field_desc(field, index)} "
                        f"({value.get('repr', '')}): masking silently "
                        "truncates out-of-range input and defeats "
                        "write_bits' own range check — validate with a "
                        "clear error instead"
                    ),
                )
                continue
            if cls == "const":
                if field.width < 64 and not (
                    0 <= value["value"] < (1 << field.width)
                ):
                    yield Finding(
                        file=relpath,
                        line=field.lineno,
                        rule=self.rule_id,
                        message=(
                            f"{short(writer_id)} writes constant "
                            f"{value['value']} into "
                            f"{_field_desc(field, index)}: it does not "
                            "fit and write_bits will raise at runtime"
                        ),
                    )
                continue
            if cls != "name":
                continue  # clamped / complex expressions are exempt
            repr_ = value.get("repr", "")
            if self._name_is_safe(analysis, fn, mod, field, value):
                continue
            provider = value.get("provider")
            where = (
                f" (value from {provider}())" if provider else ""
            )
            yield Finding(
                file=relpath,
                line=field.lineno,
                rule=self.rule_id,
                message=(
                    f"{short(writer_id)} writes {repr_!r} into "
                    f"{_field_desc(field, index)} with no visible range "
                    f"check{where}: out-of-range input dies in "
                    "write_bits' generic error (or corrupts the batch "
                    "write) instead of a clear format-layer message — "
                    "validate it against the field width first"
                ),
            )

    def _name_is_safe(self, analysis, fn, mod, field: Field, value: dict) -> bool:
        repr_ = value.get("repr", "")
        provider = value.get("provider")
        guards = list(fn.guards)
        assigns = dict(fn.assigns)
        if provider:
            # write_many(values_fn(...), WIDTHS): the range checks live
            # in the provider function, so consult its guards.
            pfn = analysis.graph.functions.get(f"{mod.module}.{provider}")
            if pfn is not None:
                guards = list(pfn.guards)
                assigns = dict(pfn.assigns)
        if repr_ in guards:
            return True
        tag = assigns.get(repr_)
        if tag == "clamp":
            return True
        if tag and tag.startswith("const:"):
            const = int(tag[len("const:"):])
            return field.width >= 64 or 0 <= const < (1 << field.width)
        constant = analysis.bitwidth.resolve_constant(repr_, mod)
        if isinstance(constant, int):
            return field.width >= 64 or 0 <= constant < (1 << field.width)
        return False


__all__ = ["PAIRS", "WidthParityChecker"]
