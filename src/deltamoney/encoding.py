"""Canonical byte encoding shared by every hashed structure.

All integers are big-endian and fixed-width: client ids, sequence numbers,
amounts, balances and timestamps take 8 bytes each; digests are raw 32-byte
values. Fields are concatenated in declared order with no delimiters, so two
parties encoding the same record always produce identical bytes.

Every fixed-width layout is packed by one precompiled ``struct.Struct``
(``Q`` an unsigned and ``q`` a signed 8-byte integer, ``32s`` a digest,
``c`` one tag byte):

- ``PAIR_RECORD``, ``>5Q`` then six ``32s``, 232 bytes: a
  ``TransactionPairRecord`` (pair_seq, timestamp, payer_id, payee_id,
  amount, the four balance commitments, the two provenance roots);
- ``BALANCE_RECORD``, ``>4QqQ32s``, 80 bytes: a ``BalanceChangeRecord``
  (pair_seq, timestamp, client_seq, peer_id, delta, new_balance,
  causing_pttr);
- ``BALANCE_COMMIT``, ``>cQQQ``, 25 bytes: what ``commit_balance`` hashes
  (the 0x02 tag, client_id, seq, balance);
- ``KEY``, ``>QQ``, 16 bytes: a balance-tree key (timestamp, client_seq).

Each record is a tuple in its layout's field order, so ``to_bytes`` is
one ``pack(*record)``. A ``32s`` field pads or truncates silently, so the
two records check the length of their digest fields in ``__new__``, which
``_make`` and ``_replace`` also run. Variable-length
encodings (verification objects, snapshots) are built from
``u64`` and ``u32`` around those layouts and read back with
``Reader``, one method call per field; ``i64`` packs a signed field
(a balance delta) on its own.

A pair of clients is keyed by ``pair_of``, the lower id first, wherever a
pair names a tree, a registration or a grant, and printed in log lines by
``pair_text``.
"""

import struct

U64 = struct.Struct(">Q")
I64 = struct.Struct(">q")
U32 = struct.Struct(">I")

PAIR_RECORD = struct.Struct(">5Q32s32s32s32s32s32s")
BALANCE_RECORD = struct.Struct(">4QqQ32s")
BALANCE_COMMIT = struct.Struct(">cQQQ")
KEY = struct.Struct(">QQ")

#: Largest encodable timestamp, used as the open-interval sentinel.
FOREVER = 2**64 - 1


def pair_of(a: int, b: int) -> tuple[int, int]:
    """Canonical key of the pair of clients ``a`` and ``b``: lower id first."""
    return (a, b) if a < b else (b, a)


PAIR_TEXTS: dict[tuple[int, int], str] = {}  # ClientNode.register_peer fills it


def pair_text(key: tuple[int, int]) -> str:
    """``key`` as log lines print it; only a registered pair's text is kept,
    so a pair read from a message cannot grow ``PAIR_TEXTS``."""
    return PAIR_TEXTS.get(key) or str(key)


def u64(value: int) -> bytes:
    return U64.pack(value)


def i64(value: int) -> bytes:
    return I64.pack(value)


def u32(value: int) -> bytes:
    return U32.pack(value)


class Reader:
    """Sequential decoder for the variable-length layouts."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def u64(self) -> int:
        return self._unpack(U64, 8)

    def u32(self) -> int:
        return self._unpack(U32, 4)

    def _unpack(self, fmt: struct.Struct, width: int) -> int:
        try:
            (value,) = fmt.unpack_from(self.data, self.offset)
        except struct.error:
            raise ValueError("truncated input") from None
        self.offset += width
        return value

    def take(self, n: int) -> bytes:
        chunk = self.data[self.offset : self.offset + n]
        if len(chunk) != n:
            raise ValueError("truncated input")
        self.offset += n
        return chunk

    def done(self) -> bool:
        return self.offset == len(self.data)
