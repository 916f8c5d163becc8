"""Cost monoids and the phase distinction.

Costs live in a pluggable monoid (naturals under addition by default, or
componentwise vectors of naturals).  The phase distinction seals costs away
from extensional observers: under the Extensional phase every cost is equal
to every other and displays as "*".  Rather than a quotient datatype, sealing
is realized by interpreting plain cost values relative to the active phase:
addition, equality, and printing all consult the phase.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable


class Phase(enum.Enum):
    INTENSIONAL = "int"
    EXTENSIONAL = "ext"


class _Star:
    """The unique extensional cost: what remains of a cost after sealing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


STAR = _Star()


@dataclass(frozen=True)
class CostMonoid:
    """A cost monoid with literal syntax; elements compare with `==`."""

    name: str
    zero: object
    add: Callable
    parse: Callable  # str -> element, raises ValueError
    show: Callable  # element -> str
    contains: Callable  # object -> bool, element validity
    sample: Callable  # (rng, lo, hi) -> element, for randomized testing


def _nat_parse(text: str) -> int:
    if text.isdigit():
        return int(text)
    raise ValueError(f"'{text}' is not a natural number cost")


def _nat_contains(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool) and c >= 0


NAT_MONOID = CostMonoid(
    name="nat",
    zero=0,
    add=lambda a, b: a + b,
    parse=_nat_parse,
    show=str,
    contains=_nat_contains,
    sample=lambda rng, lo=0, hi=9: rng.randint(lo, hi),
)


def vector_monoid(k: int) -> CostMonoid:
    """Naturals^k under componentwise addition; literals look like [1,0]."""
    if k < 1:
        raise ValueError(f"vector monoid needs k >= 1, got {k}")

    def parse(text: str) -> tuple:
        try:
            xs = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"'{text}' is not a [c1,...,c{k}] cost literal") from None
        if not (isinstance(xs, list) and len(xs) == k and all(_nat_contains(x) for x in xs)):
            raise ValueError(f"'{text}' is not a vector of {k} naturals")
        return tuple(xs)

    def contains(c) -> bool:
        return isinstance(c, tuple) and len(c) == k and all(_nat_contains(x) for x in c)

    return CostMonoid(
        name=f"vec:{k}",
        zero=(0,) * k,
        add=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        parse=parse,
        show=lambda c: "[" + ",".join(str(x) for x in c) + "]",
        contains=contains,
        sample=lambda rng, lo=0, hi=9: tuple(rng.randint(lo, hi) for _ in range(k)),
    )


def get_monoid(name: str) -> CostMonoid:
    """Resolve a --monoid id: "nat" or "vec:<k>".  Raises ValueError."""
    if name == "nat":
        return NAT_MONOID
    if name.startswith("vec:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad vector monoid '{name}': expected vec:<k>") from None
        return vector_monoid(k)
    raise ValueError(f"unknown cost monoid '{name}' (expected nat or vec:<k>)")


@dataclass(frozen=True)
class CostModel:
    """A cost monoid together with the active phase.

    All cost arithmetic in the machine and the denotational semantics goes
    through one of these, so the phase is threaded explicitly and never
    global.  Under the Extensional phase the carrier collapses: add yields
    the sealed point, eq always holds, show yields "*".
    """

    monoid: CostMonoid = NAT_MONOID
    phase: Phase = Phase.INTENSIONAL
    # Resolved once here: add reads it on every cost operation.
    extensional: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "extensional", self.phase is Phase.EXTENSIONAL)

    def zero(self):
        return self.monoid.zero

    def add(self, a, b):
        if self.extensional or a is STAR or b is STAR:
            return STAR
        return self.monoid.add(a, b)

    def eq(self, a, b) -> bool:
        if self.extensional:
            return True
        if a is STAR or b is STAR:
            return a is b
        return a == b

    def show(self, c) -> str:
        if self.extensional or c is STAR:
            return "*"
        return self.monoid.show(c)

    def to_json(self, c):
        """JSON rendering: int, list of ints, or "*" when sealed."""
        if self.extensional or c is STAR:
            return "*"
        if isinstance(c, tuple):
            return list(c)
        return c

    def contains(self, c) -> bool:
        return c is STAR or self.monoid.contains(c)

    def with_phase(self, phase: Phase) -> "CostModel":
        return CostModel(self.monoid, phase)


DEFAULT_MODEL = CostModel()

