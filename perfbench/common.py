"""What every workload round reports, and spans opened by the benchmark."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RoundResult", "derive", "digest", "span"]


@dataclass
class RoundResult:
    """One round of a workload's fixed work.

    ``wall_s`` runs from the workload's spec to its result and includes
    ``setup_s`` (everything before the first protocol step; ``None``
    when the round's set-up cannot be timed apart); neither includes
    the benchmark's checks.  ``exchanges`` is the program's
    own count of completed bootstrap exchanges.  ``digest`` fingerprints
    the program's outputs, so repeated and traced rounds can be compared
    with the first.  ``failed_ops`` holds the indices of operations
    whose checks failed and ``problems`` one line per failed check.
    ``counters`` are the work counts printed with every run and
    ``facts`` the counts the per-layer metrics need.
    """

    wall_s: float
    setup_s: float | None
    exchanges: int
    digest: str
    counters: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)


def derive(seed: int, workload: str, count: int) -> list[int]:
    """*count* 62-bit integers made from the workload seed."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    rng = np.random.default_rng([seed, tag])
    return [int(x) for x in rng.integers(1, 1 << 62, size=count)]


def digest(value: object) -> str:
    """A short fingerprint of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@contextmanager
def span(tracer, name: str):
    """A span around a call the benchmark makes itself (no-op when
    *tracer* is ``None``)."""
    if tracer is None:
        yield
        return
    index = tracer.begin(tracer.name_id(name))
    try:
        yield
    finally:
        tracer.finish(index)
