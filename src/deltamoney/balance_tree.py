"""Per-client balance history as a hashed B+ tree.

Each balance change lands in a leaf in key order, keys only ever grow,
and every node carries a hash over what sits below it: leaves hash their
record digests, internal nodes hash their child digests plus separator
keys.  The root digest (MHTR) is the client's balance commitment.

Range queries return a verification object: a pruned skeleton of the
tree in which untouched subtrees collapse to digest stubs, qualifying
records are referenced by position in the result list, and the records
just outside the range ride along in full as boundary witnesses.  A
verifier refolds the skeleton to check correctness against a trusted
root and scans the flattened leaf order to check nothing in range was
skipped.

Costs: an insert walks the rightmost path down and back up once, with no
recursion: it hashes the record, then each node on the path bottom-up
(both halves of a node it splits), one ``hashing.digest`` call per
digest.  Internal nodes keep their separator keys encoded, so a rehash
only joins bytes: the child digests from a list, then the keys.
``build`` loads a whole history, as recovery and snapshot loading do: it
checks and hashes each record once, lays out the shape those inserts
would have left a level at a time, and hashes each node once as it lays
it out, where n inserts would rehash the rightmost path n times.  A
range query returning k records costs O(log n + k): the two boundary
witnesses are found by descending the separator keys, and the skeleton
enters only the subtrees whose separator range overlaps the touched
keys.  ``RangeVO.from_bytes`` decodes the skeleton in one walk over
offsets: one precompiled ``struct`` call per count or key block and one
slice per digest or record.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .encoding import BALANCE_RECORD, KEY, RANGE_VO_HEAD, U32, Reader, u32, u64
from .errors import (
    CorruptSnapshot,
    InvertedRange,
    NegativeBalance,
    NonMonotonicKey,
)
from .hashing import (
    DIGEST_SIZE,
    EMPTY_TREE_DIGEST,
    TAG_BTREE_INTERNAL,
    TAG_BTREE_LEAF,
    Digest,
    digest,
)

RECORD_SIZE = BALANCE_RECORD.size  # 80
KEY_SIZE = KEY.size  # encoded (timestamp, client_seq), 16
MIN_FANOUT = 3
MAX_FANOUT = 64
#: Internal levels a skeleton may nest: every internal node has two or more
#: children and a tree holds fewer than 2**64 records, so a real one has
#: fewer; a deeper one is refused before it can exhaust the stack
MAX_DEPTH = 64
SNAPSHOT_MAGIC = b"DMHT"
SNAPSHOT_VERSION = 1

Key = tuple[int, int]  # (timestamp, client_seq)


_tuple_new = tuple.__new__


class _BalanceRecordFields(NamedTuple):
    pair_seq: int
    timestamp: int
    client_seq: int
    peer_id: int
    delta: int
    new_balance: int
    causing_pttr: bytes


class BalanceChangeRecord(_BalanceRecordFields):
    """One leaf entry: a signed delta and the balance it produced.

    An immutable tuple in ``BALANCE_RECORD`` field order, checked when it
    is built: ``_make`` and ``_replace`` go through ``__new__`` too.
    """

    __slots__ = ()

    def __new__(cls, pair_seq, timestamp, client_seq, peer_id, delta,
                new_balance, causing_pttr):
        if new_balance < 0:
            raise NegativeBalance(
                f"balance may not go negative, got {new_balance}"
            )
        if len(causing_pttr) != DIGEST_SIZE:
            raise ValueError(
                f"causing_pttr must be {DIGEST_SIZE} bytes, "
                f"got {len(causing_pttr)}"
            )
        return _tuple_new(cls, (pair_seq, timestamp, client_seq, peer_id,
                                delta, new_balance, causing_pttr))

    @classmethod
    def _make(cls, iterable) -> "BalanceChangeRecord":
        return cls(*iterable)

    #: (timestamp, client_seq), fields 1 and 2, read without a Python frame
    key = property(itemgetter(1, 2))

    def to_bytes(self) -> bytes:
        return BALANCE_RECORD.pack(*self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BalanceChangeRecord":
        if len(data) != RECORD_SIZE:
            raise ValueError(f"expected {RECORD_SIZE} bytes, got {len(data)}")
        return cls(*BALANCE_RECORD.unpack(data))


def _key_bytes(key: Key) -> bytes:
    return KEY.pack(*key)


class _Leaf:
    __slots__ = ("records", "digests", "next", "hash")

    def __init__(self) -> None:
        self.records: list[BalanceChangeRecord] = []
        self.digests: list[Digest] = []
        self.next: Optional["_Leaf"] = None
        self.hash = b""


class _Internal:
    """Children and separators: ``keys[i]`` is the first key under
    ``children[i + 1]``; ``key_bytes`` holds the same keys encoded,
    ``KEY_SIZE`` bytes each, and ``digests[i]`` is ``children[i].hash``,
    so a rehash only joins bytes already at hand."""

    __slots__ = ("keys", "key_bytes", "children", "digests", "hash")

    def __init__(self) -> None:
        self.keys: list[Key] = []
        self.key_bytes = b""
        self.children: list = []
        self.digests: list[Digest] = []
        self.hash = b""


def _check_next(last: Optional[BalanceChangeRecord],
                record: BalanceChangeRecord) -> None:
    """Raise unless ``record`` may follow ``last`` (None: the first one)."""
    prior = 0
    if last is not None:
        if record.key <= last.key:
            raise NonMonotonicKey(
                f"key {record.key} not greater than current max {last.key}"
            )
        prior = last.new_balance
    if record.new_balance != prior + record.delta:
        raise ValueError(
            "new_balance breaks the running sum: "
            f"{prior} + {record.delta} != {record.new_balance}"
        )


def _node_sizes(count: int, capacity: int, keep: int) -> list[int]:
    """Entry counts of the nodes one level of ``count`` entries fills.

    A node holds up to ``capacity``; one more splits it, leaving ``keep``
    behind, and only the last node ever grows, so every node but the
    last holds ``keep`` and the last between ``capacity + 1 - keep`` and
    ``capacity``.
    """
    if count <= capacity:
        return [count]
    full = (count - (capacity + 1 - keep)) // keep
    return [keep] * full + [count - full * keep]


class BalanceMHT:
    """Append-ordered hashed B+ tree of balance-change records.

    ``fanout`` is the maximum number of children of an internal node;
    nodes split at fanout - 1 keys.  Keys are (timestamp, client_seq)
    and must strictly increase, so inserts always land in the rightmost
    leaf and only the rightmost path is rehashed.
    """

    def __init__(self, fanout: int = 8) -> None:
        if not MIN_FANOUT <= fanout <= MAX_FANOUT:
            raise ValueError(
                f"fanout must be within [{MIN_FANOUT}, {MAX_FANOUT}], got {fanout}"
            )
        self.fanout = fanout
        self._root = None
        self._count = 0
        self._max_record: Optional[BalanceChangeRecord] = None

    def __len__(self) -> int:
        return self._count

    def root(self) -> Digest:
        if self._root is None:
            return EMPTY_TREE_DIGEST
        return self._root.hash

    def latest_balance(self) -> int:
        return 0 if self._max_record is None else self._max_record.new_balance

    def insert(self, record: BalanceChangeRecord) -> None:
        """Check and add ``record``, rehashing the nodes it touched.

        Keys only grow, so the record lands in the last leaf.  The walk
        goes down the rightmost path and back up it once: each level
        takes the split of the level below, splits in turn when it
        overflows, and hashes the nodes it touched (the node, then its
        new right sibling).
        """
        _check_next(self._max_record, record)
        limit = self.fanout - 1
        node = self._root
        if node is None:
            node = self._root = _Leaf()
        path = []
        while type(node) is _Internal:
            path.append(node)
            node = node.children[-1]
        leaf = node
        records, digests = leaf.records, leaf.digests
        records.append(record)
        digests.append(digest(record.to_bytes()))
        split = None
        touched = (leaf,)
        if len(records) > limit:
            mid = self.fanout // 2
            # fresh lists, not ``del``: the left half keeps no spare room
            right = _Leaf()
            right.records, right.digests = records[mid:], digests[mid:]
            leaf.records, leaf.digests = records[:mid], digests[:mid]
            right.next, leaf.next = leaf.next, right
            split = right.records[0].key, right
            touched = (leaf, right)
        for node in touched:
            node.hash = digest(TAG_BTREE_LEAF + b"".join(node.digests))
        child = leaf
        for node in reversed(path):
            digests = node.digests
            digests[-1] = child.hash
            touched = (node,)
            if split is not None:
                sep, right = split
                split = None
                node.keys.append(sep)
                node.key_bytes += _key_bytes(sep)
                node.children.append(right)
                digests.append(right.hash)
                if len(node.keys) > limit:
                    mid = len(node.keys) // 2
                    new_right = _Internal()
                    new_right.keys = node.keys[mid + 1:]
                    new_right.key_bytes = node.key_bytes[(mid + 1) * KEY_SIZE:]
                    new_right.children = node.children[mid + 1:]
                    new_right.digests = digests[mid + 1:]
                    split = node.keys[mid], new_right
                    node.keys = node.keys[:mid]
                    node.children = node.children[:mid + 1]
                    node.digests = digests[:mid + 1]
                    node.key_bytes = node.key_bytes[:mid * KEY_SIZE]
                    touched = (node, new_right)
            for inner in touched:
                inner.hash = digest(TAG_BTREE_INTERNAL + b"".join(inner.digests)
                                    + inner.key_bytes)
            child = node
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.key_bytes = _key_bytes(sep)
            new_root.children = [self._root, right]
            new_root.digests = [self._root.hash, right.hash]
            new_root.hash = digest(TAG_BTREE_INTERNAL + b"".join(new_root.digests)
                                   + new_root.key_bytes)
            self._root = new_root
        self._count += 1
        self._max_record = record

    @classmethod
    def build(cls, records: Iterable[BalanceChangeRecord],
              fanout: int = 8) -> "BalanceMHT":
        """The tree that inserting ``records`` in order would give.

        Records pass insert's checks (``_check_next``) in order, and are
        then hashed once each in one comprehension.  The shape is laid out
        a level at a time from the leaves up, and each node is hashed as
        it is laid out, after its children: n records cost n record
        digests and one digest per node, with no recursion.  Inserts only
        ever split the last node of a level, so the shape follows from the
        counts alone: a leaf splits on reaching ``fanout`` records and
        keeps ``fanout // 2``, an internal node on reaching ``fanout + 1``
        children and keeps ``fanout // 2 + 1``, and a separator is the
        first key under the child to its right.
        """
        tree = cls(fanout)
        entries: list[BalanceChangeRecord] = []
        last = None
        for record in records:
            _check_next(last, record)
            entries.append(record)
            last = record
        if last is None:
            return tree
        digests = [digest(record.to_bytes()) for record in entries]
        keep = fanout // 2
        level, first_keys, start = [], [], 0
        for size in _node_sizes(len(entries), fanout - 1, keep):
            leaf = _Leaf()
            leaf.records = entries[start:start + size]
            leaf.digests = digests[start:start + size]
            leaf.hash = digest(TAG_BTREE_LEAF + b"".join(leaf.digests))
            if level:
                level[-1].next = leaf
            level.append(leaf)
            first_keys.append(entries[start].key)
            start += size
        while len(level) > 1:
            parents, parent_keys, start = [], [], 0
            for size in _node_sizes(len(level), fanout, keep + 1):
                node = _Internal()
                node.children = level[start:start + size]
                node.digests = [child.hash for child in node.children]
                node.keys = first_keys[start + 1:start + size]
                node.key_bytes = b"".join(map(_key_bytes, node.keys))
                node.hash = digest(TAG_BTREE_INTERNAL + b"".join(node.digests)
                                   + node.key_bytes)
                parents.append(node)
                parent_keys.append(first_keys[start])
                start += size
            level, first_keys = parents, parent_keys
        tree._root = level[0]
        tree._count = len(entries)
        tree._max_record = last
        return tree

    def _first_leaf(self) -> Optional[_Leaf]:
        node = self._root
        if node is None:
            return None
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def records_in_order(self) -> Iterator[BalanceChangeRecord]:
        leaf = self._first_leaf()
        while leaf is not None:
            yield from leaf.records
            leaf = leaf.next

    # ------------------------------------------------------------------
    # verifiable range queries

    def range_query(self, key_lo: Key, key_hi: Key):
        if key_lo > key_hi:
            raise InvertedRange(f"range [{key_lo}, {key_hi}] is inverted")
        if self._root is None:
            vo = RangeVO(key_lo, key_hi, EMPTY_TREE_DIGEST, ("empty",))
            return [], vo
        # The touched records are every key in [first, last]: the results
        # plus the last key below key_lo and the first above key_hi, the
        # boundary witnesses, where those exist.
        first = self._key_below(key_lo)
        last = self._key_above(key_hi)
        span = (key_lo if first is None else first,
                key_hi if last is None else last)
        results: list[BalanceChangeRecord] = []
        skeleton = self._prune(self._root, key_lo, key_hi, span, results)
        return results, RangeVO(key_lo, key_hi, self._root.hash, skeleton)

    def _key_below(self, key: Key) -> Optional[Key]:
        """Largest record key less than ``key``, or None."""
        node = self._root
        while isinstance(node, _Internal):
            # keys[c - 1] < key is the first key under children[c], so for
            # c > 0 the answer lies under children[c]
            node = node.children[bisect_left(node.keys, key)]
        below = None
        for rec in node.records:
            if rec.key >= key:
                break
            below = rec.key
        return below

    def _key_above(self, key: Key) -> Optional[Key]:
        """Smallest record key greater than ``key``, or None."""
        node = self._root
        above = None
        while isinstance(node, _Internal):
            index = bisect_right(node.keys, key)
            if index < len(node.keys):
                above = node.keys[index]  # first key of the next subtree
            node = node.children[index]
        for rec in node.records:
            if rec.key > key:
                return rec.key
        return above

    def _prune(self, node, key_lo: Key, key_hi: Key, span, results):
        """Skeleton of ``node`` keeping the touched keys, those in ``span``.

        Separators bound every child's keys, so only children whose
        separator range overlaps ``span`` are entered; each of them holds
        a touched key, and every other child becomes a digest stub.
        """
        first, last = span
        if isinstance(node, _Leaf):
            slots = []
            for rec, digest in zip(node.records, node.digests):
                if key_lo <= rec.key <= key_hi:
                    slots.append(("result", len(results)))
                    results.append(rec)
                elif first <= rec.key <= last:
                    slots.append(("boundary", rec.to_bytes()))
                else:
                    slots.append(("stub", digest))
            return ("leaf", tuple(slots))
        start = bisect_right(node.keys, first)
        stop = bisect_right(node.keys, last)
        children = tuple(
            self._prune(child, key_lo, key_hi, span, results)
            if start <= index <= stop else ("stub", child.hash)
            for index, child in enumerate(node.children)
        )
        return ("node", tuple(node.keys), children)

    # ------------------------------------------------------------------
    # persistence

    def snapshot_bytes(self) -> bytes:
        body = b"".join(rec.to_bytes() for rec in self.records_in_order())
        header = (
            SNAPSHOT_MAGIC
            + u32(SNAPSHOT_VERSION)
            + u32(self.fanout)
            + u64(self._count)
        )
        return header + body + self.root()

    @classmethod
    def from_snapshot(cls, data: bytes) -> "BalanceMHT":
        if len(data) < 20 + 32 or data[:4] != SNAPSHOT_MAGIC:
            raise CorruptSnapshot("bad snapshot header")
        r = Reader(data[4:])
        version = r.u32()
        if version != SNAPSHOT_VERSION:
            raise CorruptSnapshot(f"unsupported snapshot version {version}")
        fanout = r.u32()
        count = r.u64()
        if len(data) != 20 + count * RECORD_SIZE + 32:
            raise CorruptSnapshot("snapshot length does not match record count")
        try:
            tree = cls.build(
                (BalanceChangeRecord.from_bytes(r.take(RECORD_SIZE))
                 for _ in range(count)),
                fanout,
            )
        except (ValueError, NonMonotonicKey, NegativeBalance) as exc:
            raise CorruptSnapshot(f"snapshot records are inconsistent: {exc}") from exc
        checksum = r.take(32)
        if tree.root() != checksum:
            raise CorruptSnapshot("recomputed root does not match stored checksum")
        return tree


@dataclass(frozen=True)
class RangeVO:
    """Pruned-skeleton proof for one range query."""

    key_lo: Key
    key_hi: Key
    mhtr: Digest
    skeleton: tuple

    def to_bytes(self) -> bytes:
        return (
            _key_bytes(self.key_lo)
            + _key_bytes(self.key_hi)
            + self.mhtr
            + _encode_skeleton(self.skeleton)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeVO":
        """Decode ``to_bytes``; ``ValueError`` for any other input."""
        try:
            lo_time, lo_seq, hi_time, hi_seq, mhtr = RANGE_VO_HEAD.unpack_from(data)
            skeleton, end = _decode_skeleton(data, RANGE_VO_HEAD.size)
        except (IndexError, struct.error):
            raise ValueError("truncated input") from None
        if end > len(data):  # the last digest or record slice came up short
            raise ValueError("truncated input")
        if end < len(data):
            raise ValueError("trailing bytes after the range VO")
        return cls((lo_time, lo_seq), (hi_time, hi_seq), mhtr, skeleton)


def _encode_skeleton(node) -> bytes:
    kind = node[0]
    if kind == "empty":
        return b"\x03"
    if kind == "stub":
        return b"\x00" + node[1]
    if kind == "leaf":
        parts = [b"\x01", u32(len(node[1]))]
        for slot in node[1]:
            if slot[0] == "stub":
                parts.append(b"\x00" + slot[1])
            elif slot[0] == "result":
                parts.append(b"\x01" + u32(slot[1]))
            else:
                parts.append(b"\x02" + slot[1])
        return b"".join(parts)
    parts = [b"\x02", u32(len(node[1]))]
    parts.extend(_key_bytes(k) for k in node[1])
    parts.append(u32(len(node[2])))
    parts.extend(_encode_skeleton(c) for c in node[2])
    return b"".join(parts)


def _decode_skeleton(data: bytes, at: int, depth: int = 0):
    """The skeleton node encoded at ``data[at:]``, and the offset after it.

    One walk over offsets: a tag is one byte, a count one ``U32`` unpack,
    a node's keys one ``KEY.iter_unpack`` and a digest or record one
    slice.  Reading past the end raises ``IndexError`` or
    ``struct.error``, except a short last slice, which leaves the offset
    past the end; ``RangeVO.from_bytes`` turns either into ``ValueError``.
    ``depth`` counts the internal nodes above this one.
    """
    kind = data[at]
    at += 1
    if kind == 0:
        return ("stub", data[at:at + DIGEST_SIZE]), at + DIGEST_SIZE
    if kind == 1:
        (count,) = U32.unpack_from(data, at)
        at += 4
        slots = []
        for _ in range(count):
            tag = data[at]
            if tag == 0:
                slots.append(("stub", data[at + 1:at + 1 + DIGEST_SIZE]))
                at += 1 + DIGEST_SIZE
            elif tag == 1:
                slots.append(("result", U32.unpack_from(data, at + 1)[0]))
                at += 5
            elif tag == 2:
                slots.append(("boundary", data[at + 1:at + 1 + RECORD_SIZE]))
                at += 1 + RECORD_SIZE
            else:
                raise ValueError(f"unknown slot tag {tag}")
        return ("leaf", tuple(slots)), at
    if kind == 2:
        if depth == MAX_DEPTH:
            raise ValueError(f"skeleton nests more than {MAX_DEPTH} internal levels")
        (count,) = U32.unpack_from(data, at)
        start, at = at + 4, at + 4 + count * KEY_SIZE
        keys = tuple(KEY.iter_unpack(data[start:at]))
        (count,) = U32.unpack_from(data, at)
        at += 4
        children = []
        for _ in range(count):
            child, at = _decode_skeleton(data, at, depth + 1)
            children.append(child)
        return ("node", keys, tuple(children)), at
    if kind == 3:
        return ("empty",), at
    raise ValueError(f"unknown skeleton tag {kind}")


def _fold_skeleton(node, records) -> Digest:
    kind = node[0]
    if kind == "stub":
        return node[1]
    if kind == "leaf":
        digests = []
        for slot in node[1]:
            if slot[0] == "stub":
                digests.append(slot[1])
            elif slot[0] == "result":
                digests.append(digest(records[slot[1]].to_bytes()))
            else:
                digests.append(digest(slot[1]))
        return digest(TAG_BTREE_LEAF + b"".join(digests))
    child_digests = b"".join(_fold_skeleton(c, records) for c in node[2])
    keys = b"".join(_key_bytes(k) for k in node[1])
    return digest(TAG_BTREE_INTERNAL + child_digests + keys)


def _flatten(node, out) -> None:
    kind = node[0]
    if kind == "stub":
        out.append(("gap",))
    elif kind == "leaf":
        for slot in node[1]:
            if slot[0] == "stub":
                out.append(("gap",))
            elif slot[0] == "result":
                out.append(("result", slot[1]))
            else:
                rec = BalanceChangeRecord.from_bytes(slot[1])
                out.append(("boundary", rec.key))
    else:
        for child in node[2]:
            _flatten(child, out)


def examine_range(records, vo: RangeVO, trusted_mhtr: Digest) -> tuple[bool, bool]:
    """(correct, complete) for a range response against a trusted root.

    Correctness folds the skeleton and compares digests.  Completeness
    checks the flattened leaf order: the returned records must sit in a
    contiguous run bracketed by out-of-range boundary witnesses (or the
    edges of the tree), with no elided gaps in between.
    """
    try:
        if vo.skeleton[0] == "empty":
            return trusted_mhtr == EMPTY_TREE_DIGEST, not records
        correct = _fold_skeleton(vo.skeleton, records) == trusted_mhtr
        items: list = []
        _flatten(vo.skeleton, items)
    except Exception:
        return False, False

    lo, hi = vo.key_lo, vo.key_hi
    result_positions = [i for i, item in enumerate(items) if item[0] == "result"]
    indices = [items[i][1] for i in result_positions]
    if indices != list(range(len(records))):
        return correct, False
    keys = [records[i].key for i in indices]
    if any(not lo <= k <= hi for k in keys) or keys != sorted(set(keys)):
        return correct, False

    left_positions, right_positions = [], []
    for i, item in enumerate(items):
        if item[0] != "boundary":
            continue
        if item[1] < lo:
            left_positions.append(i)
        elif item[1] > hi:
            right_positions.append(i)
        else:
            return correct, False  # a qualifying record hidden as a witness
    if result_positions:
        if any(p > result_positions[0] for p in left_positions):
            return correct, False
        if any(p < result_positions[-1] for p in right_positions):
            return correct, False
    start = max(left_positions) + 1 if left_positions else 0
    end = min(right_positions) if right_positions else len(items)
    if any(items[i][0] != "result" for i in range(start, end)):
        return correct, False
    return correct, True
