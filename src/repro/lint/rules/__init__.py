"""The rule catalogue: one checker class per machine-enforced convention.

| rule id             | protects                                        |
|---------------------|-------------------------------------------------|
| `rng-discipline`    | explicit, plumbed randomness                    |
| `determinism`       | virtual-time + order-independent serialization  |
| `exception-hygiene` | no silently-swallowed broad excepts             |
| `width-parity`      | encoder field widths match decoder reads        |

``determinism``, ``rng-discipline`` and ``exception-hygiene`` are
*transitive*: they follow call chains through the project-wide analysis
layer (``repro.lint.analysis``) and flag entry points whose helpers
violate the convention, with the witness chain in the message.

See ``docs/static_analysis.md`` for the full catalogue and how to add
a checker.
"""

from __future__ import annotations

from ..core import Checker
from .determinism import DeterminismChecker
from .exceptions import ExceptionHygieneChecker
from .rng import RngDisciplineChecker
from .widthparity import WidthParityChecker

ALL_CHECKERS: tuple[type[Checker], ...] = (
    RngDisciplineChecker,
    DeterminismChecker,
    ExceptionHygieneChecker,
    WidthParityChecker,
)


def default_checkers() -> list[Checker]:
    return [cls() for cls in ALL_CHECKERS]


__all__ = [
    "ALL_CHECKERS",
    "DeterminismChecker",
    "ExceptionHygieneChecker",
    "RngDisciplineChecker",
    "WidthParityChecker",
    "default_checkers",
]
