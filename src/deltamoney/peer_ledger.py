"""Per-peer-pair transaction ledger.

Every transaction between two enrolled clients is expressed as a single
credit-debit pair record whose canonical encoding is byte-identical no
matter which side produced it.  Each peer appends the record to its copy
of the pair's transaction tree and the transaction counts as committed
only when both copies produce the same Merkle root.  Plaintext balances
never enter the shared record, only blinded commitments to them; each
side keeps its balances in its own balance tree, and ``local_view``
checks a record's commitments against them.

A replica's whole state is one ``PairReplica``: the pair key, the
records and the root.  A partner hands it to a crashed client, and a
snapshot stores it as one section (``PairReplica.to_bytes``): the key's
two ids as ``u64``, a ``u64`` count of 232-byte records, the records,
then the root.  Either way ``ClientNode.recover_transactions`` rebuilds
the tree from it (``PeerTransactionTree.restore``) and the holder's
balance tree from the records, which no snapshot stores.

``PeerTransactionTree`` is a ``merkle.RecordLog``, which holds its append
(``append_record``), rollback (``rollback_last``) and one-pass build
(``restore``: n leaves and n - 1 internal nodes for n records, not n
appends of O(log n) hashes); this module adds the admission check.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .encoding import FOREVER, PAIR_RECORD, Reader, pair_of, u64
from .errors import (
    CommitmentMismatch,
    InsufficientBalance,
    LimitExceeded,
    MalformedRecord,
    NonMonotonicSequence,
    NonPositiveAmount,
    NotRegisteredPeers,
    UnknownClient,
    UnregisteredPair,
    WrongAddressee,
)
from .hashing import DIGEST_SIZE, commit_balance
from .merkle import RecordLog

RECORD_SIZE = PAIR_RECORD.size  # 232

_tuple_new = tuple.__new__


class _PairRecordFields(NamedTuple):
    pair_seq: int
    timestamp: int
    payer_id: int
    payee_id: int
    amount: int
    payer_prior_commit: bytes
    payer_new_commit: bytes
    payee_prior_commit: bytes
    payee_new_commit: bytes
    payer_provenance: bytes
    payee_provenance: bytes


class TransactionPairRecord(_PairRecordFields):
    """Shared leaf payload for one credit-debit transaction pair.

    An immutable tuple in ``PAIR_RECORD`` field order, checked when it is
    built: ``_make`` and ``_replace`` go through ``__new__`` too.
    """

    __slots__ = ()

    def __new__(cls, pair_seq, timestamp, payer_id, payee_id, amount,
                payer_prior_commit, payer_new_commit, payee_prior_commit,
                payee_new_commit, payer_provenance, payee_provenance):
        if amount <= 0:
            raise NonPositiveAmount(f"amount must be positive, got {amount}")
        if payer_id == payee_id:
            raise MalformedRecord("payer and payee must be distinct clients")
        fields = (pair_seq, timestamp, payer_id, payee_id, amount,
                  payer_prior_commit, payer_new_commit, payee_prior_commit,
                  payee_new_commit, payer_provenance, payee_provenance)
        if not (0 <= pair_seq <= FOREVER and 0 <= timestamp <= FOREVER
                and 0 <= payer_id <= FOREVER and 0 <= payee_id <= FOREVER
                and amount <= FOREVER):
            raise MalformedRecord(f"{', '.join(cls._fields[:5])} must lie in "
                                  f"[0, {FOREVER}], got {fields[:5]}")
        # one chained comparison per record; the loop only names the field
        if not (len(payer_prior_commit) == len(payer_new_commit)
                == len(payee_prior_commit) == len(payee_new_commit)
                == len(payer_provenance) == len(payee_provenance)
                == DIGEST_SIZE):
            for name, value in zip(cls._fields[5:], fields[5:]):
                if len(value) != DIGEST_SIZE:
                    raise MalformedRecord(
                        f"{name} must be {DIGEST_SIZE} bytes, got {len(value)}"
                    )
        return _tuple_new(cls, fields)

    @classmethod
    def _make(cls, iterable) -> "TransactionPairRecord":
        return cls(*iterable)

    def to_bytes(self) -> bytes:
        return PAIR_RECORD.pack(*self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransactionPairRecord":
        if len(data) != RECORD_SIZE:
            raise ValueError(f"expected {RECORD_SIZE} bytes, got {len(data)}")
        return cls(*PAIR_RECORD.unpack(data))


class PairReplica(NamedTuple):
    """One replica's state, as ``PeerTransactionTree.replica`` reads it.

    A partner hands one to a crashed client (``export_recovery_data``),
    and a snapshot stores one per pair; both are rebuilt by
    ``ClientNode.recover_transactions``, which compares the rebuilt root
    with ``root``.
    """

    pair_key: tuple[int, int]
    records: tuple[TransactionPairRecord, ...]
    root: bytes

    def to_bytes(self) -> bytes:
        """The snapshot's pair section, laid out as the module docstring says."""
        parts = [u64(self.pair_key[0]), u64(self.pair_key[1]),
                 u64(len(self.records))]
        parts += [record.to_bytes() for record in self.records]
        parts.append(self.root)
        return b"".join(parts)

    @classmethod
    def read(cls, r: Reader) -> "PairReplica":
        """Read one ``to_bytes`` section; a cut-short one raises ``ValueError``."""
        pair_key = (r.u64(), r.u64())
        records = tuple(TransactionPairRecord.from_bytes(r.take(RECORD_SIZE))
                        for _ in range(r.u64()))
        return cls(pair_key, records, r.take(DIGEST_SIZE))


class TransactionProposal(NamedTuple):
    """Payer half of a record, sent to the payee for completion."""

    pair_seq: int
    timestamp: int
    payer_id: int
    payee_id: int
    amount: int
    payer_prior_commit: bytes
    payer_new_commit: bytes
    payer_provenance: bytes


class AccountView(NamedTuple):
    """The slice of client state the handshake needs.

    ``balance`` is the ledger balance the commitments are computed over,
    and all the payer may spend: a client runs one exchange at a time, so
    nothing is ever reserved.
    """

    client_id: int
    balance: int
    transaction_limit: int
    provenance: bytes


class PeerTransactionTree(RecordLog):
    """One client's replica of the transaction tree for a peer pair.

    Honest replicas hold byte-identical leaf sequences, so their roots
    agree.  The record with ``pair_seq`` s is leaf s - 1, so ``last_seq``
    counts the records.
    """

    def __init__(self, client_a: int, client_b: int) -> None:
        if client_a == client_b:
            raise ValueError("a pair needs two distinct clients")
        super().__init__()
        self.pair_key = pair_of(client_a, client_b)

    # the names the benchmark tracer wraps on this class
    append_record = RecordLog.append
    rollback_last = RecordLog.remove_last
    root = RecordLog.root

    @property
    def last_seq(self) -> int:
        """``pair_seq`` of the last record, 0 before the first."""
        return len(self.records)

    def next_seq(self) -> int:
        return self.last_seq + 1

    @classmethod
    def restore(cls, replica: PairReplica) -> "PeerTransactionTree":
        """Rebuild a replica from its ``PairReplica`` in one ``build`` pass;
        the caller compares roots."""
        return cls.build(replica.records, *replica.pair_key)

    def replica(self) -> PairReplica:
        """This replica's state, for a crashed partner or a snapshot."""
        return PairReplica(self.pair_key, tuple(self.records), self.root())

    def _check(self, record: TransactionPairRecord) -> None:
        """Raise unless ``record`` is this pair's next one."""
        # a record's two parties differ, so either order of them matches
        key = self.pair_key
        if ((record.payer_id, record.payee_id) != key
                and (record.payee_id, record.payer_id) != key):
            raise UnregisteredPair(
                f"record for pair ({record.payer_id}, {record.payee_id}) "
                f"does not belong to {self.pair_key}"
            )
        if record.pair_seq != self.last_seq + 1:
            raise NonMonotonicSequence(
                f"expected pair_seq {self.last_seq + 1}, got {record.pair_seq}"
            )

    def leaf_digest(self, pair_seq: int) -> bytes:
        """Tree leaf of record ``pair_seq``: ``hash_leaf`` of its
        encoding, stored when it was appended."""
        return self.tree.leaf(pair_seq - 1)


def propose(
    payer: AccountView,
    ptt: Optional[PeerTransactionTree],
    payee_id: int,
    amount: int,
    timestamp: int,
) -> TransactionProposal:
    """Open the handshake: the payer commits to its before/after balances."""
    if ptt is None:
        raise NotRegisteredPeers(
            f"clients {payer.client_id} and {payee_id} are not registered peers"
        )
    if amount <= 0:
        raise NonPositiveAmount(f"amount must be positive, got {amount}")
    if amount > payer.transaction_limit:
        raise LimitExceeded(
            f"amount {amount} exceeds transaction limit {payer.transaction_limit}"
        )
    if amount > payer.balance:
        raise InsufficientBalance(
            f"amount {amount} exceeds available balance {payer.balance}"
        )
    seq = ptt.next_seq()
    return TransactionProposal(
        pair_seq=seq,
        timestamp=timestamp,
        payer_id=payer.client_id,
        payee_id=payee_id,
        amount=amount,
        payer_prior_commit=commit_balance(payer.client_id, seq, payer.balance),
        payer_new_commit=commit_balance(payer.client_id, seq, payer.balance - amount),
        payer_provenance=payer.provenance,
    )


def accept(
    proposal: TransactionProposal,
    payee: AccountView,
) -> TransactionPairRecord:
    """Complete the record with the payee's commitments and provenance."""
    if proposal.payee_id != payee.client_id:
        raise WrongAddressee(
            f"proposal addressed to {proposal.payee_id}, not {payee.client_id}"
        )
    seq = proposal.pair_seq
    return TransactionPairRecord(
        pair_seq=seq,
        timestamp=proposal.timestamp,
        payer_id=proposal.payer_id,
        payee_id=proposal.payee_id,
        amount=proposal.amount,
        payer_prior_commit=proposal.payer_prior_commit,
        payer_new_commit=proposal.payer_new_commit,
        payee_prior_commit=commit_balance(payee.client_id, seq, payee.balance),
        payee_new_commit=commit_balance(
            payee.client_id, seq, payee.balance + proposal.amount
        ),
        payer_provenance=proposal.payer_provenance,
        payee_provenance=payee.provenance,
    )


def local_view(
    record: TransactionPairRecord, self_id: int, prior_balance: int
) -> None:
    """Check one party's plaintext balances against the record's commitments.

    ``prior_balance`` is the party's balance before the record; both it
    and the balance after must open that party's two commitments, or
    ``CommitmentMismatch`` is raised.  It checks each record a recovery
    replays, from a partner's replica or from a snapshot's; a live commit
    checks only that the balance is still the one its exchange opened
    with (``ClientNode._finalize``).
    """
    if self_id == record.payer_id:
        new_balance = prior_balance - record.amount
        expect_prior = record.payer_prior_commit
        expect_new = record.payer_new_commit
    elif self_id == record.payee_id:
        new_balance = prior_balance + record.amount
        expect_prior = record.payee_prior_commit
        expect_new = record.payee_new_commit
    else:
        raise UnknownClient(f"client {self_id} is not a party to this record")
    seq = record.pair_seq
    if commit_balance(self_id, seq, prior_balance) != expect_prior:
        raise CommitmentMismatch(
            "prior balance does not match the record's commitment")
    if commit_balance(self_id, seq, new_balance) != expect_new:
        raise CommitmentMismatch(
            "new balance does not match the record's commitment")


def net_position(ptt: PeerTransactionTree, self_id: int) -> int:
    """Signed net amount for ``self_id`` over the pair's whole history."""
    if self_id not in ptt.pair_key:
        raise UnknownClient(f"client {self_id} is not a member of {ptt.pair_key}")
    net = 0
    for rec in ptt.records:
        net += rec.amount if rec.payee_id == self_id else -rec.amount
    return net

