"""Perfect leaf sets and prefix tables, computed apart from the program.

The benchmark's correctness checks compare the program's tables with
this module, never with the program's own reference oracle
(``repro.core.reference``).  The definitions follow the paper:

* the perfect **leaf set** of a node keeps its ``c/2`` nearest ring
  successors and ``c/2`` nearest ring predecessors, backfilling from the
  other side when one side runs short (a node at exactly half the ring
  counts as a successor);
* the perfect **prefix table** holds, for every row ``i`` and digit
  ``j`` other than the node's own ``i``-th digit, ``min(k, number of
  identifiers that share the node's first i digits and have digit j at
  position i)`` entries.

Everything is whole-population numpy arithmetic over the sorted
identifier array: ring neighbours come from index offsets, and prefix
populations from one ``unique`` count per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Audit", "PerfectTables"]


@dataclass
class Audit:
    """Per-node deficits and table faults of one population snapshot.

    ``missing_leaf`` / ``missing_prefix`` are aligned with
    :attr:`PerfectTables.ids` (nodes absent from the snapshot count
    their whole perfect table as missing).  ``problems`` lists every
    structural fault found, one line each; an empty list means the
    tables are well formed.
    """

    missing_leaf: np.ndarray
    missing_prefix: np.ndarray
    leaf_sizes: np.ndarray
    problems: list[str] = field(default_factory=list)

    @property
    def total_missing(self) -> tuple[int, int]:
        """``(missing leaf entries, missing prefix entries)`` summed."""
        return int(self.missing_leaf.sum()), int(self.missing_prefix.sum())


class PerfectTables:
    """Perfect tables of every member of an identifier population.

    Parameters
    ----------
    ids:
        The live identifiers (any order; duplicates are an error).
    id_bits / digit_bits:
        Identifier width and the paper's ``b``.
    leaf_size:
        The paper's ``c`` (even).
    per_slot:
        The paper's ``k``.
    """

    def __init__(
        self,
        ids,
        *,
        id_bits: int = 64,
        digit_bits: int = 4,
        leaf_size: int = 20,
        per_slot: int = 3,
    ) -> None:
        if id_bits > 64 or id_bits % digit_bits:
            raise ValueError("id_bits must be <= 64 and a multiple of digit_bits")
        if leaf_size < 2 or leaf_size % 2:
            raise ValueError("leaf_size must be even and >= 2")
        raw = np.array([int(x) for x in ids], dtype=np.uint64)
        self.ids = np.unique(raw)
        if self.ids.size != raw.size or raw.size < 1:
            raise ValueError("identifiers must be distinct and non-empty")
        self.id_bits = id_bits
        self.digit_bits = digit_bits
        self.rows = id_bits // digit_bits
        self.base = 1 << digit_bits
        self.leaf_size = leaf_size
        self.per_slot = per_slot
        self._mask = np.uint64((1 << id_bits) - 1)
        self._half = np.uint64(1 << (id_bits - 1))
        self.leaf, self.leaf_valid = self._leaf_sets()
        self.need = self._prefix_needs()

    # -- construction ------------------------------------------------------

    def _ring_walk(self, step: int):
        """Neighbours at ring offsets ``step * 1 .. step * reach`` and
        their forward distances from each node."""
        n = self.ids.size
        reach = min(self.leaf_size, n - 1)
        offsets = np.arange(1, reach + 1) * step
        idx = (np.arange(n)[:, None] + offsets[None, :]) % n
        neighbours = self.ids[idx]
        forward = (neighbours - self.ids[:, None]) & self._mask
        return neighbours, forward

    def _leaf_sets(self):
        n = self.ids.size
        half = self.leaf_size // 2
        if n == 1:
            empty = np.zeros((1, 0), dtype=np.uint64)
            return empty, np.zeros((1, 0), dtype=bool)
        succ, succ_fwd = self._ring_walk(+1)
        pred, pred_fwd = self._ring_walk(-1)
        # Walking forward, distances grow, so the successors form a
        # prefix of the walk; walking backward, the predecessors do.
        n_succ = np.cumprod(succ_fwd <= self._half, axis=1).sum(axis=1)
        n_pred = np.cumprod(pred_fwd > self._half, axis=1).sum(axis=1)
        take_s = np.minimum(half, n_succ)
        take_p = np.minimum(half, n_pred)
        spare = (half - take_s) + (half - take_p)
        extra = np.minimum(spare, n_succ - take_s)
        take_s = take_s + extra
        take_p = take_p + np.minimum(spare - extra, n_pred - take_p)
        cols = np.arange(succ.shape[1])[None, :]
        leaf = np.concatenate((succ, pred), axis=1)
        valid = np.concatenate(
            (cols < take_s[:, None], cols < take_p[:, None]), axis=1
        )
        return leaf, valid

    def _prefix_needs(self) -> np.ndarray:
        n = self.ids.size
        b = self.digit_bits
        need = np.zeros((n, self.rows * self.base), dtype=np.int8)
        digits = np.arange(self.base, dtype=np.uint64)
        shared = True
        for row in range(self.rows):
            if not shared:
                # No node shares its first `row` digits with another:
                # this row and every deeper one have no siblings.
                break
            child_shift = np.uint64(self.id_bits - (row + 1) * b)
            child = self.ids >> child_shift
            groups, sizes = np.unique(child, return_counts=True)
            shared = bool(sizes.max() > 1)
            parent = child >> np.uint64(b)
            keys = (parent[:, None] << np.uint64(b)) | digits[None, :]
            pos = np.minimum(np.searchsorted(groups, keys), groups.size - 1)
            counts = np.where(groups[pos] == keys, sizes[pos], 0)
            own = (child & np.uint64(self.base - 1)).astype(np.intp)
            counts[np.arange(n), own] = 0
            need[:, row * self.base:(row + 1) * self.base] = np.minimum(
                counts, self.per_slot
            )
        return need

    # -- per-node views (for tests and reports) ------------------------------

    def index_of(self, ids) -> np.ndarray:
        """Positions of *ids* in :attr:`ids` (``-1`` when absent)."""
        values = np.asarray(ids, dtype=np.uint64)
        pos = np.minimum(np.searchsorted(self.ids, values), self.ids.size - 1)
        return np.where(self.ids[pos] == values, pos, -1)

    def leaf_ids(self, node_id: int) -> set[int]:
        """The perfect leaf set of *node_id*."""
        i = int(self.index_of([node_id])[0])
        if i < 0:
            raise KeyError(node_id)
        return {int(x) for x in self.leaf[i][self.leaf_valid[i]]}

    def prefix_counts(self, node_id: int) -> dict[tuple[int, int], int]:
        """Non-empty perfect slot populations ``(row, digit) -> count``."""
        i = int(self.index_of([node_id])[0])
        if i < 0:
            raise KeyError(node_id)
        row = self.need[i]
        return {
            divmod(int(slot), self.base): int(row[slot])
            for slot in np.nonzero(row)[0]
        }

    def totals(self) -> tuple[int, int]:
        """``(perfect leaf entries, perfect prefix entries)`` overall."""
        return int(self.leaf_valid.sum()), int(self.need.sum(dtype=np.int64))

    def slots_of(self, owner_ids, entry_ids) -> np.ndarray:
        """Dense slot ``row * base + digit`` of each entry in its owner's
        prefix table (``-1`` for an entry equal to its owner)."""
        owners = np.asarray(owner_ids, dtype=np.uint64)
        entries = np.asarray(entry_ids, dtype=np.uint64)
        diff = owners ^ entries
        b = self.digit_bits
        row = np.zeros(entries.size, dtype=np.int64)
        for r in range(self.rows):
            shift = np.uint64(self.id_bits - (r + 1) * b)
            row += (diff >> shift) == 0
        same = row >= self.rows
        row = np.minimum(row, self.rows - 1)
        shift = (self.id_bits - (row + 1) * b).astype(np.uint64)
        digit = ((entries >> shift) & np.uint64(self.base - 1)).astype(np.int64)
        return np.where(same, -1, row * self.base + digit)

    # -- auditing a snapshot ---------------------------------------------------

    def audit(
        self,
        leaf_owner,
        leaf_ids,
        prefix_owner,
        prefix_ids,
        prefix_slots=None,
        rows=None,
    ) -> Audit:
        """Score flattened tables against perfection.

        ``leaf_owner`` / ``prefix_owner`` are owner identifiers, one per
        entry of ``leaf_ids`` / ``prefix_ids``.  ``prefix_slots`` are the
        slots the program filed each prefix entry under, in the same
        dense ``row * base + digit`` numbering; when given, each must
        equal the independently computed slot.  ``rows`` (ascending
        positions in :attr:`ids`) restricts the audit to those nodes, so
        a large population can be scored in chunks of bounded memory;
        the result's arrays are then aligned with ``rows``.
        """
        if rows is None:
            rows = np.arange(self.ids.size)
        rows = np.asarray(rows, dtype=np.intp)
        n = rows.size
        problems: list[str] = []
        l_own = np.asarray(leaf_owner, dtype=np.uint64)
        l_ids = np.asarray(leaf_ids, dtype=np.uint64)
        p_own = np.asarray(prefix_owner, dtype=np.uint64)
        p_ids = np.asarray(prefix_ids, dtype=np.uint64)
        for label, own, ids in (
            ("leaf", l_own, l_ids),
            ("prefix", p_own, p_ids),
        ):
            foreign = int((self.index_of(ids) < 0).sum())
            if foreign:
                problems.append(f"{foreign} {label} entries are not members")
            selfish = int((own == ids).sum())
            if selfish:
                problems.append(f"{selfish} {label} entries name their owner")
        l_oi = self._local(l_own, rows)
        p_oi = self._local(p_own, rows)
        if (l_oi < 0).any() or (p_oi < 0).any():
            problems.append("a table belongs to a node outside the audit")
        l_keep = l_oi >= 0
        p_keep = p_oi >= 0
        l_oi, l_ids = l_oi[l_keep], l_ids[l_keep]
        p_oi, p_ids, p_own = p_oi[p_keep], p_ids[p_keep], p_own[p_keep]

        leaf_sizes = np.bincount(l_oi, minlength=n)
        if (leaf_sizes > self.leaf_size).any():
            problems.append(
                f"a leaf set holds {int(leaf_sizes.max())} > c entries"
            )
        # Leaf deficit: sort resident (flag 0) and perfect (flag 1)
        # entries by (owner, id, flag); a perfect entry is present when
        # the entry before it is the same (owner, id) held by the node.
        leaf, valid = self.leaf[rows], self.leaf_valid[rows]
        perf_owner = np.repeat(np.arange(n), leaf.shape[1])[valid.ravel()]
        perf_ids = leaf[valid]
        owner = np.concatenate((l_oi, perf_owner))
        ident = np.concatenate((l_ids, perf_ids))
        flag = np.concatenate(
            (np.zeros(l_ids.size, np.int8), np.ones(perf_ids.size, np.int8))
        )
        order = np.lexsort((flag, ident, owner))
        owner, ident, flag = owner[order], ident[order], flag[order]
        same = (owner[1:] == owner[:-1]) & (ident[1:] == ident[:-1])
        dup = same & (flag[1:] == flag[:-1])
        if dup.any():
            problems.append(f"{int(dup.sum())} duplicate table entries")
        hit = same & (flag[1:] == 1) & (flag[:-1] == 0)
        found = np.bincount(owner[1:][hit], minlength=n)
        missing_leaf = valid.sum(axis=1) - found

        width = self.rows * self.base
        need = self.need[rows]
        slots = self.slots_of(p_own, p_ids)
        if prefix_slots is not None:
            filed = np.asarray(prefix_slots, dtype=np.int64)[p_keep]
            wrong = int((filed != slots).sum())
            if wrong:
                problems.append(f"{wrong} prefix entries sit in a wrong slot")
        ok = slots >= 0
        # Occupancy per (owner, slot) from the occupied keys only; the
        # deficit is the total demand minus what occupied slots meet.
        keys, have = np.unique(
            p_oi[ok] * width + slots[ok], return_counts=True
        )
        if have.size and have.max() > self.per_slot:
            problems.append(
                f"a prefix slot holds {int(have.max())} > k entries"
            )
        met = np.minimum(have, need.ravel()[keys])
        missing_prefix = need.sum(axis=1, dtype=np.int64) - np.bincount(
            keys // width, weights=met, minlength=n
        ).astype(np.int64)
        return Audit(
            missing_leaf=missing_leaf,
            missing_prefix=missing_prefix,
            leaf_sizes=leaf_sizes,
            problems=problems,
        )

    def _local(self, owner_ids, rows) -> np.ndarray:
        """Position of each owner within *rows* (``-1`` when outside)."""
        global_index = self.index_of(owner_ids)
        if not rows.size:
            return np.full(global_index.size, -1)
        pos = np.minimum(np.searchsorted(rows, global_index), rows.size - 1)
        return np.where(
            (global_index >= 0) & (rows[pos] == global_index), pos, -1
        )
