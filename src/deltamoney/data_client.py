"""Data Client: authorized external verification of transactions and balances.

A bank, corporate, or government party holding a grant can ask a subject
client for transaction records or balance history and receive a
Verification Object alongside the data.  Verification needs nothing from
the subject: the VO carries the records, the Merkle material, and a
manager attestation, and the verifier checks three independent
properties.  Correct means every returned record folds to the attested
root.  Complete means nothing inside the queried range was withheld.
Fresh means the attested root is still the latest one the relevant
manager knows.

Both VO kinds prove their records with one Merkle multiproof of d
digests (32 bytes each), checked by ``merkle.verify`` for k leaf and
k - 1 + d internal hashes, k the leaves proved.  A transaction VO proves
its records (232 bytes each) against the attested prefix of ``size``
leaves, d <= 2 * ceil(log2 size) for adjacent records.  A balance VO
proves its records (80 bytes each) and at most two boundary witnesses
against the attested tree of n records, d <= 2 * ceil(log2 n); its range
VO (``balance_tree.RangeVO``) is at most 44 + 160 + 64 * ceil(log2 n)
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .balance_tree import (
    RECORD_SIZE as BALANCE_RECORD_SIZE,
    BalanceChangeRecord,
    RangeVO,
    examine_range,
)
from .currency_manager import MHTRAttestation
from .encoding import Reader, pair_of, u32, u64
from .errors import (
    DeltaMoneyError,
    NotRegisteredPeers,
    ScopeViolation,
    UnknownSubject,
    UnknownTransaction,
)
from .hashing import DIGEST_SIZE, Digest, KeyStore, Signature
from .integrity_manager import PTTRAttestation
from .merkle import verify as verify_inclusion
from .peer_ledger import RECORD_SIZE as PAIR_RECORD_SIZE, TransactionPairRecord


@dataclass(frozen=True)
class Grant:
    """Static query scope issued to one data client about one subject."""

    data_client_id: int
    subject_client: int
    pairs: frozenset
    balance: bool = False

    def permits(self, pair_key) -> bool:
        return pair_of(*pair_key) in self.pairs


def authorize(data_client_id: int, subject_client: int,
              scope: Iterable, enrolled: Iterable[int],
              balance: bool = False) -> Grant:
    """Issue a grant; the scope is a list of queryable pair keys."""
    if subject_client not in set(enrolled):
        raise UnknownSubject(f"client {subject_client} is not enrolled")
    return Grant(
        data_client_id, subject_client,
        frozenset(pair_of(*p) for p in scope), balance,
    )


@dataclass(frozen=True)
class Verdict:
    correct: bool
    complete: bool
    fresh: bool

    def __bool__(self) -> bool:
        return self.correct and self.complete and self.fresh


def _sig_bytes(sig: Signature) -> bytes:
    return u64(sig.signer_id) + u32(len(sig.bytes)) + sig.bytes


def _read_sig(r: Reader) -> Signature:
    signer = r.u64()
    return Signature(r.take(r.u32()), signer)


@dataclass(frozen=True)
class TransactionInclusionVO:
    """Records of one pair over a seq range and one multiproof for them all.

    The proof is against the attested prefix, ``attestation.pair_seq``
    leaves, a size never sent.  Bytes: the header fields and attestation,
    the record count, the records, then digests to the end.
    """

    pair_key: tuple[int, int]
    seq_lo: int
    seq_hi: int
    records: tuple[bytes, ...]
    proof: tuple[Digest, ...]
    attestation: PTTRAttestation

    kind = 0x01

    def to_bytes(self) -> bytes:
        att = self.attestation
        parts = [
            bytes([self.kind]),
            u64(self.pair_key[0]), u64(self.pair_key[1]),
            u64(self.seq_lo), u64(self.seq_hi),
            u64(att.pair_seq), att.root, _sig_bytes(att.signature),
            u32(len(self.records)),
        ]
        parts.extend(self.records)
        parts.extend(self.proof)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransactionInclusionVO":
        r = Reader(data)
        if r.take(1)[0] != cls.kind:
            raise ValueError("not a transaction inclusion VO")
        pair_key = (r.u64(), r.u64())
        seq_lo, seq_hi = r.u64(), r.u64()
        att_seq = r.u64()
        att_root = r.take(DIGEST_SIZE)
        sig = _read_sig(r)
        records = tuple(r.take(PAIR_RECORD_SIZE) for _ in range(r.u32()))
        proof = tuple(r.take(DIGEST_SIZE)
                      for _ in range((len(data) - r.offset) // DIGEST_SIZE))
        if not r.done():
            raise ValueError("VO proof is not a whole number of digests")
        return cls(pair_key, seq_lo, seq_hi, records, proof,
                   PTTRAttestation(pair_key, att_seq, att_root, sig))


@dataclass(frozen=True)
class BalanceRangeVO:
    """A verifiable slice of one client's balance history."""

    client_id: int
    records: tuple[bytes, ...]
    range_vo: bytes
    attestation: MHTRAttestation

    kind = 0x02

    def to_bytes(self) -> bytes:
        att = self.attestation
        parts = [
            bytes([self.kind]),
            u64(self.client_id),
            att.mhtr, _sig_bytes(att.signature),
            u32(len(self.records)),
        ]
        parts.extend(self.records)
        parts.append(u32(len(self.range_vo)))
        parts.append(self.range_vo)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BalanceRangeVO":
        r = Reader(data)
        if r.take(1)[0] != cls.kind:
            raise ValueError("not a balance range VO")
        client_id = r.u64()
        mhtr = r.take(32)
        sig = _read_sig(r)
        records = tuple(r.take(BALANCE_RECORD_SIZE) for _ in range(r.u32()))
        range_vo = r.take(r.u32())
        if not r.done():
            raise ValueError("trailing bytes in VO")
        return cls(client_id, records, range_vo,
                   MHTRAttestation(client_id, mhtr, sig))


VerificationObject = Union[TransactionInclusionVO, BalanceRangeVO]


def parse_vo(data: bytes) -> VerificationObject:
    if not data:
        raise ValueError("empty VO")
    if data[0] == TransactionInclusionVO.kind:
        return TransactionInclusionVO.from_bytes(data)
    if data[0] == BalanceRangeVO.kind:
        return BalanceRangeVO.from_bytes(data)
    raise ValueError(f"unknown VO kind {data[0]}")


# ----------------------------------------------------------------------
# queries (these do talk to the subject; verification never does)


def query_transactions(grant: Grant, pair_key, seq_lo: int, seq_hi: int,
                       subject, attestation: Optional[PTTRAttestation],
                       omit: frozenset = frozenset()):
    """Fetch records in [seq_lo, seq_hi] up to the attested seq, with a proof.

    ``omit`` makes the subject withhold specific sequence numbers; it
    exists for fault injection and has no honest use; the proof still
    covers a withheld record, so the VO reads correct but incomplete.
    """
    key = pair_of(*pair_key)
    if not grant.permits(key):
        raise ScopeViolation(
            f"grant for data client {grant.data_client_id} does not cover {key}"
        )
    ptt = subject.ptts.get(key)
    if ptt is None:
        raise NotRegisteredPeers(f"subject has no pair {key}")
    if attestation is None:
        raise UnknownTransaction(f"no validated root on file for pair {key}")
    # leaf i holds pair_seq i + 1
    size = attestation.pair_seq
    if not 1 <= size <= ptt.last_seq:
        raise UnknownTransaction(f"subject's pair {key} holds seqs "
                                 f"1..{ptt.last_seq}, not the attested {size}")
    indices = [i for i in range(max(seq_lo - 1, 0), min(seq_hi, size))
               if ptt.records[i].pair_seq not in omit]
    records = [ptt.records[i] for i in indices]
    vo = TransactionInclusionVO(
        key, seq_lo, seq_hi,
        tuple(record.to_bytes() for record in records),
        tuple(ptt.tree.prove(indices, size)), attestation,
    )
    return records, vo


def query_balance_history(grant: Grant, key_lo, key_hi, subject,
                          attestation: MHTRAttestation):
    """Fetch the subject's balance records with keys in [key_lo, key_hi]."""
    if not grant.balance or grant.subject_client != subject.id:
        raise ScopeViolation(
            f"grant for data client {grant.data_client_id} does not cover "
            f"balance history of client {subject.id}"
        )
    records, range_vo = subject.mht.range_query(key_lo, key_hi)
    vo = BalanceRangeVO(
        subject.id,
        tuple(rec.to_bytes() for rec in records),
        range_vo.to_bytes(),
        attestation,
    )
    return records, vo


# ----------------------------------------------------------------------
# verification (zero-trust: VO bytes, keys, and the manager's latest root)


def verify_transaction_vo(vo: TransactionInclusionVO, keystore: KeyStore,
                          latest: Optional[Digest]) -> Verdict:
    att = vo.attestation
    correct = (
        att.pair_key == vo.pair_key
        and keystore.verify(att.signature, att.message())
    )
    seqs = []
    for record_bytes in vo.records:
        try:
            record = TransactionPairRecord.from_bytes(record_bytes)
        except (ValueError, DeltaMoneyError):  # any field the record refuses
            correct = False
            continue
        seqs.append(record.pair_seq)
        if (pair_of(record.payer_id, record.payee_id) != vo.pair_key
                or not vo.seq_lo <= record.pair_seq <= vo.seq_hi):
            correct = False
    # leaf i holds pair_seq i + 1; an unparsed record left correct False
    indices = [seq - 1 for seq in seqs]
    correct = correct and verify_inclusion(
        vo.records, indices, att.pair_seq, vo.proof, att.root
    )
    stop = min(vo.seq_hi, att.pair_seq) + 1
    # the count first, so a claimed range is never materialised
    complete = (len(seqs) == max(stop - vo.seq_lo, 0)
                and sorted(seqs) == list(range(vo.seq_lo, stop)))
    fresh = latest is not None and att.root == latest
    return Verdict(correct, complete, fresh)


def verify_balance_vo(vo: BalanceRangeVO, keystore: KeyStore,
                      latest: Optional[Digest]) -> Verdict:
    att = vo.attestation
    sig_ok = (
        att.client_id == vo.client_id
        and keystore.verify(att.signature, att.message())
    )
    fresh = latest is not None and att.mhtr == latest
    try:
        records = [BalanceChangeRecord.from_bytes(b) for b in vo.records]
        range_vo = RangeVO.from_bytes(vo.range_vo)
    except (ValueError, DeltaMoneyError):  # any field the records refuse
        return Verdict(False, False, fresh)
    correct, complete = examine_range(records, range_vo, att.mhtr)
    return Verdict(correct and sig_ok, complete, fresh)


def verify_vo(vo: VerificationObject, keystore: KeyStore,
              latest: Optional[Digest]) -> Verdict:
    """Triad verdict for any VO; ``latest`` is the manager's current root."""
    if isinstance(vo, TransactionInclusionVO):
        return verify_transaction_vo(vo, keystore, latest)
    if isinstance(vo, BalanceRangeVO):
        return verify_balance_vo(vo, keystore, latest)
    raise ValueError(f"not a verification object: {type(vo).__name__}")
