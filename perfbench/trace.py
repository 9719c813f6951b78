"""Spans and counters recorded around calls into the program's layers.

A traced run wraps selected functions of the program (engine kernels,
codec, fabric, protocol, sweep runtime) so that every call records one
span ``(name, start, end, parent)``; the benchmark's own code opens
spans around the calls it makes itself.  Spans are kept in flat
in-memory arrays and written out when the run ends.

A layer's **self time** is the time its spans cover minus the time
their child spans cover; a layer's **inclusive time** is the time its
spans cover.  Counts are recorded at the same boundaries: the number of
spans of a name, plus named counters fed from call results (bytes on
the wire, pickled transport size).

Wrapping only ever replaces attributes for the duration of a
:class:`Patches` context and restores them on exit.  A target missing
from the program is reported, not an error, so that the traced run
keeps working while later changes move code around.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

__all__ = ["Patches", "Tracer", "active", "summarise"]

_ACTIVE: list[Tracer] = []


def active() -> Tracer | None:
    """The tracer the installed patches record into, if any.

    Worker processes forked from a traced parent inherit it (together
    with the patched classes), which is how per-shard spans are taken
    inside the sweep's process pool.
    """
    return _ACTIVE[-1] if _ACTIVE else None


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (names stay interned)."""
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        """Intern *name* and return its id."""
        return self._names.setdefault(name, len(self._names))

    def begin(self, name_id: int) -> int:
        """Open a span; returns its index for :meth:`finish`."""
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        """Close span *index* (the innermost open one)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        """Add *amount* to a named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def dump(self, path: Path) -> None:
        """Write every span and counter to *path* (``.npz``)."""
        names = sorted(self._names, key=self._names.get)
        counters = sorted(self.counters)
        with open(path, "wb") as stream:
            np.savez(
                stream,
                names=np.array(names, dtype=str),
                name_of=np.frombuffer(self.name_of, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                counter_names=np.array(counters, dtype=str),
                counter_values=np.array(
                    [self.counters[c] for c in counters], dtype=np.float64
                ),
            )


def summarise(paths) -> tuple[dict, dict, dict, dict]:
    """Fold span dumps into per-name totals.

    Returns ``(self_s, inclusive_s, spans, counters)``: self time,
    inclusive time and span count per span name, and the summed named
    counters, over every dump in *paths*.
    """
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    spans: dict[str, int] = {}
    counters: dict[str, float] = {}
    for path in paths:
        with np.load(path) as data:
            names = list(data["names"])
            name_of = data["name_of"]
            parent = data["parent"]
            dur = data["end"] - data["start"]
            for name, value in zip(
                data["counter_names"], data["counter_values"], strict=True
            ):
                counters[str(name)] = counters.get(str(name), 0) + float(value)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(names)
        per_self = np.bincount(name_of, weights=own, minlength=k)
        per_incl = np.bincount(name_of, weights=dur, minlength=k)
        per_count = np.bincount(name_of, minlength=k)
        for i, name in enumerate(names):
            name = str(name)
            self_s[name] = self_s.get(name, 0.0) + float(per_self[i])
            incl_s[name] = incl_s.get(name, 0.0) + float(per_incl[i])
            spans[name] = spans.get(name, 0) + int(per_count[i])
    return self_s, incl_s, spans, counters


class Patches:
    """Temporarily wrap program functions so each call is a span.

    Use as a context manager; every wrapped attribute is restored on
    exit, in reverse order.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Patches:
        _ACTIVE.append(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ACTIVE.remove(self.tracer)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until the context exits."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, span: str, *, size_counter=None) -> None:
        """Record a *span* around every call of ``owner.attr``.

        *owner* is a class or a module.  For a class, the attribute is
        wrapped on the class in its method resolution order that
        defines it, so subclasses that inherit it are covered too.
        *size_counter* names a counter fed with ``len(result)``.
        """
        where = owner
        if isinstance(owner, type):
            where = next(
                (k for k in owner.__mro__ if attr in vars(k)), None
            )
        if where is None or not hasattr(where, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(where)[attr] if isinstance(where, type) else getattr(
            where, attr
        )
        tracer = self.tracer
        name_id = tracer.name_id(span)
        begin = tracer.begin
        finish = tracer.finish
        if size_counter is None:

            def wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    finish(index)

        else:
            add = tracer.add

            def wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    finish(index)
                add(size_counter, len(result))
                return result

        setattr(where, attr, wrapper)
        self._undo.append((where, attr, original))
