"""Property-based equivalence harness for every ``*_reference`` oracle.

The repository's performance story rests on batched-kernel/scalar-oracle
pairs (the ``_reference`` convention, ``docs/testing.md``).  This module
is the gate that keeps that convention honest under refactoring:

* :func:`discover_reference_oracles` walks every module under
  ``repro.*`` and collects each ``*_reference`` callable — module-level
  functions and class methods alike, static and class methods included;
* every discovered oracle must appear in the strategy registry
  (``tests/strategies/registry.py``) — landing a new ``_reference``
  kernel without registering a strategy for it fails the coverage test
  loudly, with instructions;
* every registered pair is property-tested for bit-exact equivalence
  over randomized domain inputs at the loaded settings tier (100
  examples at ``STANDARD``, 20 at the CI ``quick`` profile).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from types import ModuleType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from strategies.registry import REGISTRY

#: The refactor-enabler floor: at least this many pairs stay fuzzed.
MIN_PAIRS = 15


def module_reference_oracles(module: ModuleType) -> set[str]:
    """Dotted paths of the ``*_reference`` callables ``module`` defines.

    Module-level functions and class methods alike; a ``staticmethod`` or
    ``classmethod`` is unwrapped first, so a static oracle is found too.
    Objects re-exported from another module are skipped (they belong to
    their defining module).
    """
    found: set[str] = set()
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if name.endswith("_reference"):
                found.add(f"{module.__name__}.{name}")
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mname, mobj in vars(obj).items():
                if isinstance(mobj, (staticmethod, classmethod)):
                    mobj = mobj.__func__
                if inspect.isfunction(mobj) and mname.endswith("_reference"):
                    found.add(f"{module.__name__}.{name}.{mname}")
    return found


def discover_reference_oracles() -> set[str]:
    """Dotted paths of every ``*_reference`` callable under ``repro.*``.

    ``__main__`` modules are skipped (importing them runs the CLI).
    """
    found: set[str] = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        found |= module_reference_oracles(importlib.import_module(info.name))
    return found


def test_static_and_class_method_oracles_are_discovered():
    """A ``@staticmethod``/``@classmethod`` oracle must not slip past
    registration: ``vars(cls)`` holds the descriptor, not a function."""
    module = ModuleType("synthetic_codec")
    exec(
        "class Codec:\n"
        "    @staticmethod\n"
        "    def quantize_reference(block, q):\n"
        "        return block\n"
        "    @classmethod\n"
        "    def scan_reference(cls, block):\n"
        "        return block\n"
        "    def transform_reference(self, block):\n"
        "        return block\n"
        "def pack_reference(block):\n"
        "    return block\n",
        vars(module),
    )
    assert module_reference_oracles(module) == {
        "synthetic_codec.Codec.quantize_reference",
        "synthetic_codec.Codec.scan_reference",
        "synthetic_codec.Codec.transform_reference",
        "synthetic_codec.pack_reference",
    }


def test_reexported_and_non_reference_callables_are_skipped():
    """Only ``*_reference`` names the module itself defines count: a
    re-export belongs to its defining module, and kernels are not
    oracles."""
    source = ModuleType("synthetic_source")
    exec(
        "def dct_reference(block):\n"
        "    return block\n"
        "class Quantizer:\n"
        "    def apply_reference(self, block):\n"
        "        return block\n",
        vars(source),
    )
    facade = ModuleType("synthetic_facade")
    exec(
        "def dct(block):\n"
        "    return block\n"
        "class Scanner:\n"
        "    reference = staticmethod(lambda block: block)\n"
        "    def scan(self, block):\n"
        "        return block\n",
        vars(facade),
    )
    facade.dct_reference = source.dct_reference
    facade.Quantizer = source.Quantizer
    assert module_reference_oracles(facade) == set()
    assert module_reference_oracles(source) == {
        "synthetic_source.dct_reference",
        "synthetic_source.Quantizer.apply_reference",
    }


def test_discovery_finds_the_known_oracles():
    """Sanity: the walker sees representative oracles of every subsystem."""
    discovered = discover_reference_oracles()
    for expected in (
        "repro.video.zigzag.zigzag_reference",
        "repro.video.encoder.VideoEncoder._code_plane_reference",
        "repro.audio.filterbank._analyze_raw_reference",
        "repro.net.fec.xor_parity_reference",
        "repro.support.ipstack.ones_complement_checksum_reference",
    ):
        assert expected in discovered
    assert len(discovered) >= MIN_PAIRS


def test_every_reference_oracle_has_a_registered_strategy():
    """A new ``_reference`` must land together with its strategy."""
    discovered = discover_reference_oracles()
    missing = sorted(discovered - set(REGISTRY))
    assert not missing, (
        "unregistered _reference oracle(s):\n  "
        + "\n  ".join(missing)
        + "\nEvery *_reference kernel must be paired with its batched "
        "counterpart and an input strategy in "
        "tests/strategies/registry.py (see docs/testing.md, 'Registering "
        "a new oracle pair')."
    )
    stale = sorted(set(REGISTRY) - discovered)
    assert not stale, (
        "registry entries with no matching _reference in repro.*:\n  "
        + "\n  ".join(stale)
        + "\nRemove (or rename) the stale entries in "
        "tests/strategies/registry.py."
    )


PAIRS = sorted(REGISTRY.values(), key=lambda pair: pair.oracle)


@pytest.mark.parametrize("pair", PAIRS, ids=[p.oracle for p in PAIRS])
@given(data=st.data())
def test_batched_path_matches_reference_oracle(pair, data):
    """Bit-exact equivalence over randomized inputs, per registered pair.

    Example count follows the loaded settings profile (``STANDARD`` =
    100 locally, ``quick`` = 20 in CI) — no per-test override, so one
    environment variable retiers the whole harness.
    """
    case = data.draw(pair.strategy, label=pair.oracle)
    reference = pair.run_reference(case)
    batched = pair.run_batched(case)
    pair.compare(reference, batched)
