"""The interprocedural analysis layer, tested on fixture packages.

Covers the PR 9 acceptance points for ``repro.lint.analysis``:

* call-graph resolution — bare names, ``self.`` methods through the
  class-hierarchy pass, module aliases, annotation-typed parameters,
  constructor-tracked locals — against a golden edge set;
* effect summaries with witness chains, including the fixpoint over a
  recursion cycle (must terminate, must keep the shortest chain);
* transitive rule findings: the entry point is flagged with the full
  call chain, intermediate callers stay quiet (root noise control);
* the width-parity rule: mismatched writer/reader fields and masked /
  unvalidated narrowing fire, a well-formed pair stays clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.analysis import facts as F
from repro.lint.analysis.summaries import root_entry_points
from repro.lint.core import build_project, run_lint
from repro.lint.rules.widthparity import WidthParityChecker


def materialize(tmp_path: Path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


def analyze(tmp_path: Path, files: dict[str, str]):
    materialize(tmp_path, files)
    project, _ = build_project(tmp_path, None)
    return project


# ------------------------------------------------------------- call graph


CALLGRAPH_TREE = {
    "src/repro/video/helpers.py": (
        "import time\n"
        "def tick():\n"
        "    return time.time()\n"
        "def leaf():\n"
        "    return 1\n"
    ),
    "src/repro/video/enc.py": (
        "from . import helpers\n"
        "from .helpers import leaf\n"
        "class Writer:\n"
        "    def put(self):\n"
        "        return leaf()\n"
        "class Encoder:\n"
        "    def __init__(self):\n"
        "        self.w = Writer()\n"
        "    def run(self, out: Writer):\n"
        "        helpers.tick()\n"
        "        self.helper()\n"
        "        out.put()\n"
        "        self.w.put()\n"
        "    def helper(self):\n"
        "        return leaf()\n"
    ),
}

GOLDEN_EDGES = {
    "repro.video.enc.Writer.put": {"repro.video.helpers.leaf"},
    "repro.video.enc.Encoder.helper": {"repro.video.helpers.leaf"},
    "repro.video.enc.Encoder.run": {
        "repro.video.helpers.tick",  # module alias
        "repro.video.enc.Encoder.helper",  # self.method
        "repro.video.enc.Writer.put",  # annotated param + tracked local
    },
}


class TestCallGraph:
    def test_golden_edges(self, tmp_path):
        project = analyze(tmp_path, CALLGRAPH_TREE)
        graph = project.analysis.graph
        for caller, expected in GOLDEN_EDGES.items():
            got = {callee for callee, _ in graph.callees(caller)}
            assert got == expected, caller

    def test_inherited_method_lookup(self, tmp_path):
        project = analyze(tmp_path, {
            "src/repro/video/hier.py": (
                "class Base:\n"
                "    def stage(self):\n"
                "        return 0\n"
                "class Derived(Base):\n"
                "    def run(self):\n"
                "        return self.stage()\n"
            ),
        })
        graph = project.analysis.graph
        got = {c for c, _ in graph.callees("repro.video.hier.Derived.run")}
        assert got == {"repro.video.hier.Base.stage"}


# -------------------------------------------------------- effect summaries


class TestEffectSummaries:
    def test_witness_chain_is_shortest(self, tmp_path):
        project = analyze(tmp_path, {
            "src/repro/video/chain.py": (
                "import time\n"
                "def sink():\n"
                "    return time.time()\n"
                "def mid():\n"
                "    return sink()\n"
                "def entry():\n"
                "    mid()\n"
                "    return sink()\n"  # direct 1-hop beats the 2-hop
            ),
        })
        summaries = project.analysis.summaries
        witness = summaries.reaches("repro.video.chain.entry", F.WALL_CLOCK)
        assert witness is not None
        assert witness.chain == ("repro.video.chain.sink",)
        assert summaries.has_direct("repro.video.chain.sink", F.WALL_CLOCK)
        # mid reaches it too, one hop away.
        assert summaries.reaches(
            "repro.video.chain.mid", F.WALL_CLOCK
        ).chain == ("repro.video.chain.sink",)

    def test_recursion_cycle_reaches_fixpoint(self, tmp_path):
        project = analyze(tmp_path, {
            "src/repro/video/cycle.py": (
                "import time\n"
                "def ping(n):\n"
                "    if n:\n"
                "        return pong(n - 1)\n"
                "    return 0\n"
                "def pong(n):\n"
                "    time.time()\n"
                "    return ping(n)\n"
                "def entry():\n"
                "    return ping(3)\n"
            ),
        })
        summaries = project.analysis.summaries
        # Both cycle members reach the effect; the worklist terminated.
        assert summaries.reaches(
            "repro.video.cycle.ping", F.WALL_CLOCK
        ).chain == ("repro.video.cycle.pong",)
        assert summaries.reaches(
            "repro.video.cycle.entry", F.WALL_CLOCK
        ).chain == ("repro.video.cycle.ping", "repro.video.cycle.pong")

    def test_root_entry_points_skip_covered_callers(self, tmp_path):
        project = analyze(tmp_path, {
            "src/repro/video/roots.py": (
                "import time\n"
                "def sink():\n"
                "    return time.time()\n"
                "def mid():\n"
                "    return sink()\n"
                "def top():\n"
                "    return mid()\n"
            ),
        })
        summaries = project.analysis.summaries
        roots = root_entry_points(
            summaries, F.WALL_CLOCK, lambda fid: fid.startswith("repro.")
        )
        # Only the outermost caller is a root; mid is covered by top.
        assert [fid for fid, _ in roots] == ["repro.video.roots.top"]


# ------------------------------------------------------- transitive rules


class TestTransitiveRules:
    def test_determinism_flags_entry_with_chain(self, tmp_path):
        materialize(tmp_path, {
            "src/repro/support/clocky.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/video/pipe.py": (
                "from ..support.clocky import stamp\n"
                "def encode_stream(frames):\n"
                "    stamp()\n"
                "    return frames\n"
            ),
        })
        findings = [
            f for f in run_lint(tmp_path) if f.rule == "determinism"
        ]
        transitive = [f for f in findings if f.chain]
        assert len(transitive) == 1
        found = transitive[0]
        assert found.file == "src/repro/video/pipe.py"
        assert found.chain == (
            "repro.video.pipe.encode_stream",
            "repro.support.clocky.stamp",
        )
        assert "call chain" in found.message
        assert "clocky.stamp" in found.message

    def test_clean_serialization_chain_produces_nothing(self, tmp_path):
        materialize(tmp_path, {
            "src/repro/video/pure.py": (
                "def helper(x):\n"
                "    return x + 1\n"
                "def encode_stream(frames):\n"
                "    return [helper(f) for f in frames]\n"
            ),
        })
        findings = run_lint(tmp_path)
        assert [f for f in findings if f.chain] == []


# ----------------------------------------------------------- width parity


def wp_findings(tmp_path, files):
    materialize(tmp_path, files)
    return [
        f
        for f in run_lint(tmp_path, checkers=[WidthParityChecker()])
        if f.rule == "width-parity"
    ]


class TestWidthParity:
    def test_width_mismatch_flagged_at_writer(self, tmp_path):
        findings = wp_findings(tmp_path, {
            "src/repro/video/fmt.py": (
                "MAGIC = 0xAB\n"
                "def write_header(w):\n"
                "    w.write_bits(MAGIC, 8)\n"
                "    w.write_bits(0, 16)\n"
                "def read_header(r):\n"
                "    magic = r.read_bits(8)\n"
                "    version = r.read_bits(8)\n"  # 16 written, 8 read
                "    return magic, version\n"
            ),
        })
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "diverged" in findings[0].message

    def test_exact_pair_length_mismatch_flagged(self, tmp_path):
        findings = wp_findings(tmp_path, {
            "src/repro/video/fmt.py": (
                "def write_header(w):\n"
                "    w.write_bits(1, 8)\n"
                "    w.write_bits(2, 8)\n"
                "def read_header(r):\n"
                "    return r.read_bits(8)\n"  # trailing field unread
            ),
        })
        assert len(findings) == 1
        assert "misses the trailing field" in findings[0].message

    def test_masked_narrowing_flagged(self, tmp_path):
        findings = wp_findings(tmp_path, {
            "src/repro/video/fmt.py": (
                "def write_header(w, count):\n"
                "    w.write_bits(count & 0xFFFF, 16)\n"
                "def read_header(r):\n"
                "    return r.read_bits(16)\n"
            ),
        })
        assert len(findings) == 1
        assert "masks the value" in findings[0].message

    def test_unvalidated_name_flagged(self, tmp_path):
        findings = wp_findings(tmp_path, {
            "src/repro/video/fmt.py": (
                "def write_header(w, count):\n"
                "    w.write_bits(count, 16)\n"
                "def read_header(r):\n"
                "    return r.read_bits(16)\n"
            ),
        })
        assert len(findings) == 1
        assert "no visible range check" in findings[0].message

    def test_validated_pair_is_clean(self, tmp_path):
        findings = wp_findings(tmp_path, {
            "src/repro/video/fmt.py": (
                "MAGIC = 0xAB\n"
                "MAX_COUNT = 0xFFFF\n"
                "def write_header(w, count):\n"
                "    if not 0 <= count <= MAX_COUNT:\n"
                "        raise ValueError('count does not fit')\n"
                "    w.write_bits(MAGIC, 8)\n"
                "    w.write_bits(count, 16)\n"
                "def read_header(r):\n"
                "    magic = r.read_bits(8)\n"
                "    return magic, r.read_bits(16)\n"
            ),
        })
        assert findings == []
