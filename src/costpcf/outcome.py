"""What a fuel-bounded run of either semantics answers.

A run settles within its budget (`Defined`), proves that it never settles
(`Diverges`: it met a state it had already been in, so it repeats forever),
or spends its budget with neither (`Exhausted`).  Only `Exhausted` can change
with more fuel.  The machine's value is its terminal term; the denotation's
is a semantic value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .records import record


@record
class Defined:
    __slots__ = ("cost", "value")
    cost: object
    value: object


@dataclass(frozen=True)
class Diverges:
    def __repr__(self) -> str:
        return "Diverges"


@dataclass(frozen=True)
class Exhausted:
    def __repr__(self) -> str:
        return "Exhausted"


DIVERGES = Diverges()
EXHAUSTED = Exhausted()
