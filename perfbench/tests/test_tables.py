"""The independent perfect tables against hand-computed cases and
against the program's reference oracle on small random populations.

Run from the checkout root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from perfbench.tables import PerfectTables
from perfbench.trace import Patches, Tracer, summarise
from repro.core.idspace import IDSpace
from repro.core.reference import ReferenceTables


def test_hand_computed_8bit_one_digit_slots():
    # 8-bit ids, b=4 (two hex digits), c=2 (one per side), k=1.
    ids = [0x10, 0x12, 0x34, 0xF0]
    perfect = PerfectTables(ids, id_bits=8, digit_bits=4, leaf_size=2, per_slot=1)
    # 0x10: nearest successor 0x12; nearest predecessor 0xF0.
    assert perfect.leaf_ids(0x10) == {0x12, 0xF0}
    # Row 0 siblings by first digit: 3 and F; row 1 under prefix "1": 2.
    assert perfect.prefix_counts(0x10) == {(0, 3): 1, (0, 15): 1, (1, 2): 1}
    # 0x34 shares no digit with anyone: only row-0 slots.
    assert perfect.prefix_counts(0x34) == {(0, 1): 1, (0, 15): 1}
    assert perfect.totals() == (8, 10)


def test_hand_computed_backfill_and_half_ring():
    # All other ids lie ahead of 0x00 within half the ring, so the
    # predecessor side is empty and both slots go to successors.
    perfect = PerfectTables(
        [0x00, 0x10, 0x20], id_bits=8, digit_bits=4, leaf_size=4, per_slot=3
    )
    assert perfect.leaf_ids(0x00) == {0x10, 0x20}
    # Exactly half the ring away counts as a successor, both ways.
    pair = PerfectTables([0x00, 0x80], id_bits=8, digit_bits=4, leaf_size=2)
    assert pair.leaf_ids(0x00) == {0x80}
    assert pair.leaf_ids(0x80) == {0x00}


def test_prefix_slots_are_capped_at_k():
    # Five ids under first digit 1, each with a distinct second digit:
    # 0x00 sees five in slot (0, 1) and keeps k=3 of them.
    ids = [0x00, 0x11, 0x12, 0x13, 0x14, 0x15]
    perfect = PerfectTables(ids, id_bits=8, digit_bits=4, leaf_size=2, per_slot=3)
    assert perfect.prefix_counts(0x00) == {(0, 1): 3}
    assert perfect.prefix_counts(0x11) == {
        (0, 0): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1,
    }


@pytest.mark.parametrize(
    ("bits", "b", "c", "k", "n"),
    [
        (64, 4, 20, 3, 2),
        (64, 4, 20, 3, 3),
        (64, 4, 20, 3, 21),
        (64, 4, 20, 3, 300),
        (16, 4, 6, 2, 40),
        (8, 2, 4, 2, 40),
        (8, 2, 20, 3, 100),
    ],
)
def test_matches_reference_tables(bits, b, c, k, n):
    space = IDSpace(bits, b)
    ids = space.random_unique_ids(n, random.Random(bits * 1000 + n))
    perfect = PerfectTables(ids, id_bits=bits, digit_bits=b, leaf_size=c, per_slot=k)
    reference = ReferenceTables(space, ids, c, k)
    for node_id in ids:
        assert perfect.leaf_ids(node_id) == set(reference.perfect_leaf_ids(node_id))
        assert perfect.prefix_counts(node_id) == reference.perfect_prefix_counts(
            node_id
        )
    assert perfect.totals() == reference.totals()


def test_audit_scores_perfect_and_damaged_tables():
    space = IDSpace(64, 4)
    ids = space.random_unique_ids(64, random.Random(7))
    perfect = PerfectTables(ids)
    l_own, l_ids, p_own, p_ids = [], [], [], []
    for node_id in ids:
        for member in perfect.leaf_ids(node_id):
            l_own.append(node_id)
            l_ids.append(member)
        counts = perfect.prefix_counts(node_id)
        for other in ids:
            if other == node_id:
                continue
            slot = divmod(int(perfect.slots_of([node_id], [other])[0]), 16)
            if counts.get(slot, 0) > 0:
                counts[slot] -= 1
                p_own.append(node_id)
                p_ids.append(other)
    audit = perfect.audit(l_own, l_ids, p_own, p_ids)
    assert audit.problems == []
    assert audit.total_missing == (0, 0)

    # Drop one leaf entry and one prefix entry; file one entry in a
    # wrong slot; name a stranger.
    slots = perfect.slots_of(p_own, p_ids)
    slots[0] = (slots[0] + 1) % 256
    damaged = perfect.audit(
        l_own[1:] + [ids[0]], l_ids[1:] + [12345], p_own[1:], p_ids[1:], slots[1:]
    )
    assert damaged.total_missing == (1, 1)
    assert any("not members" in line for line in damaged.problems)
    wrong = perfect.audit(l_own, l_ids, p_own, p_ids, slots)
    assert any("wrong slot" in line for line in wrong.problems)


def test_self_time_subtracts_children(tmp_path):
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    a = tracer.begin(outer)
    b = tracer.begin(inner)
    tracer.finish(b)
    tracer.finish(a)
    tracer.add("bytes", 10)
    tracer.dump(tmp_path / "spans.npz")
    self_s, incl_s, spans, counters = summarise([tmp_path / "spans.npz"])
    assert spans == {"outer": 1, "inner": 1}
    assert counters == {"bytes": 10}
    assert self_s["outer"] == pytest.approx(incl_s["outer"] - incl_s["inner"])
    assert np.isclose(self_s["inner"], incl_s["inner"])


def test_patches_restore_and_report_missing_targets():
    class Target:
        def work(self, x):
            return [x] * 3

    original = Target.work
    tracer = Tracer()
    with Patches(tracer) as patches:
        patches.wrap(Target, "work", "t.work", size_counter="t.items")
        patches.wrap(Target, "absent", "t.absent")
        assert Target().work(1) == [1, 1, 1]
        assert patches.missing == ["Target.absent"]
    assert Target.work is original
    assert len(tracer.start) == 1
    assert tracer.counters == {"t.items": 3}
