"""Immutable records that are cheap to construct.

Term nodes, types, delay nodes, semantic values and outcomes are built by the
thousand per run, so their construction cost is a large share of both
semantics.  `record` makes each a frozen dataclass, so `==`, `hash`,
`repr` and `dataclasses.fields` are generated as usual, but gives it an
`__init__` of its own.  A frozen dataclass's `__init__` sets each field
through `object.__setattr__`; this one writes each slot through its slot
descriptor, which takes about half the time per record.  The class declares
its `__slots__` by hand in its body: `dataclass(slots=True)` would build
every class twice.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

# Slots that hold no value of their own.
_SPECIAL = ("__weakref__", "__dict__")


def record(cls=None, /, **initial):
    """Make the slotted class `cls` a frozen dataclass with a fast `__init__`.

    The `__init__` takes the fields in order, by position or keyword, as a
    dataclass's does.  Each slot of `cls` or its bases that is not a field
    (a cache) starts as the value of its entry in `initial`, a Python
    expression over the fields, or as None, so reading it never fails.
    Used as `@record` or as `@record(slot="expression", ...)`.
    """
    if cls is None:
        return lambda cls: record(cls, **initial)
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    caches = [s for c in reversed(cls.__mro__) for s in c.__dict__.get("__slots__", ())
              if s not in names and s not in _SPECIAL]
    setters = {f"_set_{s}": getattr(cls, s).__set__ for s in names + caches}
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    _set_{s}(self, {s})" for s in names]
    lines += [f"    _set_{s}(self, {initial.get(s, 'None')})" for s in caches]
    exec("\n".join(lines), setters)
    init = setters["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
