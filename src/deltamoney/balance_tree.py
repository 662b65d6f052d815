"""Per-client balance history as an append-only Merkle log.

Each balance change is one leaf of a ``merkle.MerkleTree`` over the
records' 80-byte encodings, in the order they happened.  Keys
(timestamp, client_seq) only ever grow and ``client_seq`` counts the
records from 1, so record ``client_seq`` is leaf ``client_seq - 1``.  The
root (MHTR) is the client's balance commitment; an empty history commits
to ``EMPTY_TREE_DIGEST``.

A range query finds its first and last result by bisecting the keys and
proves them together with the records just outside the range, the
boundary witnesses, with one multiproof against the whole tree.  Those
leaves are contiguous, so the proof holds at most 2 * ceil(log2 n)
digests for n records.  A ``RangeVO`` is the two keys, the tree size, the
witnesses (at most two, 80 bytes each) and the digests (32 bytes each):
at most 44 + 160 + 64 * ceil(log2 n) bytes beside the k results.
Verifying it hashes its k + w leaves (w witnesses) and k + w - 1 + d
internal nodes, d the number of digests; completeness is read from the
records' indices with no further hashing.

``BalanceMHT`` is a ``merkle.RecordLog``, which holds its append
(``insert``), ``remove_last`` and ``build``; this module adds the
admission check.  Costs: inserting record i + 1 hashes its leaf, each
parent it completes and the fold of the larger peaks into the root,
1 + popcount(i) digests (``MerkleTree.append``); ``remove_last``
rewrites no stored node and only refolds the root of the m records
left, popcount(m) - 1 digests.  ``build`` checks each record in order
and hashes n leaves and n - 1 internal nodes; recovery builds the tree
with it, and so does a snapshot load, which replays the stored pair
records through recovery (no snapshot stores this tree).  A range query
returning k records costs O(log n + k) before its proof.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import merkle
from .encoding import BALANCE_RECORD, KEY, Reader, u32, u64
from .errors import InvertedRange, NegativeBalance, NonMonotonicKey
from .hashing import DIGEST_SIZE, EMPTY_TREE_DIGEST, Digest

RECORD_SIZE = BALANCE_RECORD.size  # 80

Key = tuple[int, int]  # (timestamp, client_seq)


_tuple_new = tuple.__new__
#: (timestamp, client_seq), fields 1 and 2, read without a Python frame
_record_key = itemgetter(1, 2)
_client_seq = attrgetter("client_seq")


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

    key = property(_record_key)

    def to_bytes(self) -> bytes:
        return BALANCE_RECORD.pack(*self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BalanceChangeRecord":
        if len(data) != RECORD_SIZE:
            raise ValueError(f"expected {RECORD_SIZE} bytes, got {len(data)}")
        return cls(*BALANCE_RECORD.unpack(data))


def _key_bytes(key: Key) -> bytes:
    return KEY.pack(*key)


class BalanceMHT(merkle.RecordLog):
    """Balance-change records beside the Merkle log of their encodings.

    Keys are (timestamp, client_seq) and must strictly increase, so the
    record list is sorted by key and leaf i holds record ``client_seq``
    i + 1.
    """

    # the name the benchmark tracer wraps on this class
    insert = merkle.RecordLog.append

    def latest_balance(self) -> int:
        return self.records[-1].new_balance if self.records else 0

    def _check(self, record: BalanceChangeRecord) -> None:
        """Raise unless ``record`` may follow ``records``."""
        records = self.records
        prior = 0
        if records:
            last = records[-1]
            if record.key <= last.key:
                raise NonMonotonicKey(
                    f"key {record.key} not greater than current max {last.key}"
                )
            prior = last.new_balance
        if record.client_seq != len(records) + 1:
            raise ValueError(
                f"client_seq must count the records: expected {len(records) + 1}, "
                f"got {record.client_seq}"
            )
        if record.new_balance != prior + record.delta:
            raise ValueError(
                "new_balance breaks the running sum: "
                f"{prior} + {record.delta} != {record.new_balance}"
            )

    # ------------------------------------------------------------------
    # verifiable range queries

    def range_query(self, key_lo: Key, key_hi: Key):
        """Records with keys in [key_lo, key_hi] and the ``RangeVO`` proving them.

        The proof covers the results and the boundary witnesses, the
        records just below and just above the range where they exist.
        """
        if key_lo > key_hi:
            raise InvertedRange(f"range [{key_lo}, {key_hi}] is inverted")
        records = self.records
        size = len(records)
        first = bisect_left(records, key_lo, key=_record_key)
        stop = bisect_right(records, key_hi, key=_record_key)
        start, end = max(first - 1, 0), min(stop + 1, size)
        witnesses = tuple(records[start:first] + records[stop:end])
        proof = tuple(self.tree.prove(range(start, end), size)) if size else ()
        return records[first:stop], RangeVO(key_lo, key_hi, size, witnesses, proof)


@dataclass(frozen=True)
class RangeVO:
    """Proof for one range query, beside its results.

    ``size`` is the number of records the proof is against, ``witnesses``
    the records just outside the range and ``proof`` the multiproof of the
    results and witnesses, whose leaf indices their ``client_seq``s give.
    Bytes: the two keys, ``size``, the witness count, the witnesses, then
    digests to the end.
    """

    key_lo: Key
    key_hi: Key
    size: int
    witnesses: tuple[BalanceChangeRecord, ...]
    proof: tuple[Digest, ...]

    def to_bytes(self) -> bytes:
        parts = [_key_bytes(self.key_lo), _key_bytes(self.key_hi),
                 u64(self.size), u32(len(self.witnesses))]
        parts += [witness.to_bytes() for witness in self.witnesses]
        parts += self.proof
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RangeVO":
        """Decode ``to_bytes``; ``ValueError`` for any other input."""
        r = Reader(data)
        key_lo, key_hi = (r.u64(), r.u64()), (r.u64(), r.u64())
        size = r.u64()
        witnesses = tuple(BalanceChangeRecord.from_bytes(r.take(RECORD_SIZE))
                          for _ in range(r.u32()))
        proof = tuple(r.take(DIGEST_SIZE)
                      for _ in range((len(data) - r.offset) // DIGEST_SIZE))
        if not r.done():
            raise ValueError("range VO proof is not a whole number of digests")
        return cls(key_lo, key_hi, size, witnesses, proof)


def examine_range(records, vo: RangeVO, trusted_mhtr: Digest) -> tuple[bool, bool]:
    """(correct, complete) for a range response against a trusted root.

    Correct: the results and witnesses, each at leaf ``client_seq - 1``,
    fold with the proof to ``trusted_mhtr`` as a tree of ``vo.size``
    leaves.  Complete: every result lies in the range, each witness lies
    outside it with at most one on each side, and the results fill every
    leaf from just after the lower witness, or leaf 0 without one, to just
    before the upper witness, or the last leaf without one.

    The size is not attested.  Below an upper witness a wrong one may
    still fold, but the witness, not the size, ends the run there.
    Without one, the results' last leaf must end a tree of that size,
    which only the true size folds to the root.
    """
    lo, hi, size = vo.key_lo, vo.key_hi, vo.size
    below = [w for w in vo.witnesses if w.key < lo]
    above = [w for w in vo.witnesses if w.key > hi]
    if size:
        leaves = sorted([*records, *vo.witnesses], key=_client_seq)
        correct = merkle.verify([leaf.to_bytes() for leaf in leaves],
                                [leaf.client_seq - 1 for leaf in leaves],
                                size, vo.proof, trusted_mhtr)
    else:
        correct = (trusted_mhtr == EMPTY_TREE_DIGEST
                   and not (records or vo.witnesses or vo.proof))
    first = below[0].client_seq if below else 0
    stop = above[0].client_seq - 1 if above else size
    complete = (
        len(below) <= 1 and len(above) <= 1
        and len(below) + len(above) == len(vo.witnesses)
        and all(lo <= record.key <= hi for record in records)
        # the length first, so a claimed size is never materialised
        and stop - first == len(records)
        and [record.client_seq - 1 for record in records] == list(range(first, stop))
    )
    return correct, complete
