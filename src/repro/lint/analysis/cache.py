"""On-disk facts cache keyed by file content hash.

Only the per-module :class:`~repro.lint.analysis.facts.ModuleFacts`
extraction is cached — it is the part that walks ASTs and dominates
cold-run time.  The call graph, effect summaries, and width model are
recomputed from facts on every run: they are cheap, and recomputing
them guarantees a warm run sees exactly the state a cold run would
(facts for unchanged files are byte-identical by construction, so the
derived passes — all deterministic — produce identical findings).

The cache file is a single JSON document::

    {"version": 2, "modules": {"src/repro/x.py": {"sha256": ..., "facts": ...}}}

A missing, corrupt, or version-mismatched cache is treated as cold; a
failed write is ignored (the cache is an optimization, never a
correctness dependency).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .facts import ModuleFacts

SCHEMA_VERSION = 2
DEFAULT_CACHE_DIRNAME = ".lint_cache"
_CACHE_FILENAME = "analysis.json"


def content_hash(source: bytes) -> str:
    return hashlib.sha256(source).hexdigest()


class FactsCache:
    """Load-mutate-save view of the analysis cache directory."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, _CACHE_FILENAME)
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._modules: dict[str, dict] = self._load()

    def _load(self) -> dict[str, dict]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != SCHEMA_VERSION:
            return {}
        modules = raw.get("modules")
        return modules if isinstance(modules, dict) else {}

    def get(self, relpath: str, digest: str) -> ModuleFacts | None:
        entry = self._modules.get(relpath)
        if entry is None or entry.get("sha256") != digest:
            self.misses += 1
            return None
        try:
            facts = ModuleFacts.from_dict(entry["facts"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return facts

    def put(self, relpath: str, digest: str, facts: ModuleFacts) -> None:
        self._modules[relpath] = {
            "sha256": digest,
            "facts": facts.to_dict(),
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "version": SCHEMA_VERSION,
            "modules": {
                relpath: self._modules[relpath]
                for relpath in sorted(self._modules)
            },
        }
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_path, self.path)
        except OSError:
            # Read-only checkout or full disk: lint still ran; the next
            # run simply starts cold.
            return
        self._dirty = False


__all__ = ["FactsCache", "SCHEMA_VERSION", "DEFAULT_CACHE_DIRNAME",
           "content_hash"]
