"""Currency Client: the actor that owns trees and runs the handshake.

A transfer is three messages between the two peers and nothing else on
the critical path: the payer proposes, the payee appends the completed
record to its pair tree and answers with its new root, and the payer
appends, compares roots, and either commits or aborts.  Only after a
commit does each side insert a balance-change record into its own
balance tree and queue the two asynchronous reports (root hash to the
Integrity Manager, new balance to the Currency Manager).

A client handles one exchange at a time, and keeps it in one slot: the
pair key, the proposal it sent as payer or the record it accepted as
payee, and the balance it opened the exchange with.  While the slot is
full the client rejects incoming proposals and refuses to start new
ones; only a message about that pair, for that role, empties it.  That
serializes its balance commitments, which bind the exact before/after
amounts into the shared record, so a proposal never needs to reserve
funds.  Plaintext balances live only in the balance tree, and that tree
is derived from the pair records: a recovery, and a snapshot load, which
stores only the pair replicas, rebuild it by replaying them, each record
checked against the balances (``local_view``); a live commit checks only
that the balance is still the one the exchange opened with, the one its
commitments were computed over (``_finalize``).

A payer's transfer commands wait in its ``queue``; only the head
proposes, once the slot is free, and a commit, abort, refusal or any
reject but ``busy`` ends it.  A head that a busy payee rejected retries
after ``retry_delay`` ticks, at most ``RETRY_MAX_ATTEMPTS`` times, then
logs ``give-up``.  ``handle`` runs all of that without I/O: it takes one
message and the tick, and returns the node's outbox, in order.  Each
entry is a send, ``(target, message, delay)``: a client id and the ticks
until delivery, or ``"im"`` or ``"cm"`` and None for the manager
delivery policy; or a log line, ``(event, details)``.  So the simulation
and a test that feeds messages by hand run the same protocol.  A message
lost at a crashed client is answered here too: ``answer_unreachable``
returns the outbox the down peer would have, which the transport sends.

Transactions with the manager's treasury (client id 0) are issuance and
redemption.  They run through the same handshake, and the client queues
the same balance report as for a transfer, carrying the signed supply
amount (+amount issued, -amount redeemed; 0 for a peer transfer), so the
Currency Manager chains it like any other.  They send no transaction
report, as the Integrity Manager tracks no treasury pair, and the
treasury itself reports nothing.

The handshake messages are immutable ``NamedTuple``s, as are the balance
report (``currency_manager.BalanceReport``), both kinds of record and
the ``PairReplica`` a partner hands over for recovery, each defined in
the module that reads it.  The proposal is its own wire type: the payer
sends its ``TransactionProposal`` as is, the way ``AcceptMsg`` carries
the completed record.  A transfer builds several of them, a recovery
one balance record per replayed pair record, and a tuple is built in a
fraction of the time a frozen dataclass takes.  The records run their
field checks in ``__new__``.  They compare as plain tuples, so two
messages of different types with equal fields are ``==``; receivers tell
messages apart by type (``isinstance``), never by comparing them.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable, Iterable, NamedTuple, Optional

from .balance_tree import BalanceChangeRecord, BalanceMHT
from .currency_manager import MANAGER_ID, BalanceReport
from .encoding import PAIR_TEXTS, Reader, pair_of, pair_text, u32, u64
from .errors import (
    CommitmentMismatch,
    CorruptSnapshot,
    DeltaMoneyError,
    NonMonotonicSequence,
    NotQuiescent,
    NotRegisteredPeers,
    PartnerRootDisagreement,
    UnknownTarget,
)
from .hashing import EMPTY_TREE_DIGEST, Digest, KeyStore
from .integrity_manager import TransactionReport
from .peer_ledger import (
    AccountView,
    PairReplica,
    PeerTransactionTree,
    TransactionPairRecord,
    TransactionProposal,
    accept,
    local_view,
    net_position,
    propose,
)

DEFAULT_LIMIT = 2**32
TREASURY_RESERVE = 2**48
RETRY_BASE = 4
RETRY_CAP = 64
RETRY_MAX_ATTEMPTS = 40

#: Reject and abort reason for a proposal or acceptance dropped at a
#: crashed client (``answer_unreachable``)
UNREACHABLE = "unreachable"
#: Abort reason for an acceptance that reaches a payer holding no proposal
STALE = "stale"
#: Abort reason for an acceptance whose record is not the payer's proposal
MISMATCH = "record does not match proposal"
#: Abort reasons of exchanges the payer never appended: there is no second
#: root to compare, so the payee's rollback reports nothing
ONE_SIDED_ABORTS = frozenset({UNREACHABLE, STALE, MISMATCH})


def retry_delay(key: int, attempt: int) -> int:
    """Ticks a busy-rejected transfer command ``key`` waits before retry
    ``attempt + 1``.

    The first retry waits ``RETRY_BASE`` ticks, and retry k+1 somewhere in
    [span/2, span], span = min(RETRY_BASE * 2**k, RETRY_CAP), picked by
    hashing k with the command's own number, so colliding clients leave
    lockstep without drawing from a seeded rng.
    """
    if attempt == 0:
        return RETRY_BASE
    span = min(RETRY_BASE << attempt, RETRY_CAP)
    mix = hashlib.blake2b(f"{key}:{attempt}".encode(), digest_size=8).digest()
    return span // 2 + int.from_bytes(mix, "big") % (span // 2 + 1)


# ----------------------------------------------------------------------
# protocol messages


class StartTransferCmd(NamedTuple):
    """A request that ``payer`` pay ``payee``; it joins the payer's queue."""

    payer: int
    payee: int
    amount: int
    key: int  # the command's own number; seeds the jitter of its retries

    def give_up(self, reason: str) -> tuple[str, str]:
        """The log line of this command ending without an exchange."""
        return "give-up", f"payee={self.payee} amount={self.amount} reason={reason}"


class RetryMsg(NamedTuple):
    """A payer's own timer: the head backing off from a busy payee may go."""


class AcceptMsg(NamedTuple):
    record: TransactionPairRecord
    payee_root: Digest


class CommitMsg(NamedTuple):
    pair_key: tuple[int, int]
    pair_seq: int
    payer_root: Digest


class AbortMsg(NamedTuple):
    pair_key: tuple[int, int]
    pair_seq: int
    reason: str


class RejectMsg(NamedTuple):
    pair_key: tuple[int, int]
    pair_seq: int
    reason: str


def answer_unreachable(sender, message) -> list[tuple]:
    """The outbox entries of a crashed client for ``message`` from
    ``sender``, dropped on the wire: a proposal's reject and an
    acceptance's abort, sent back at once as a refused connection would
    be, a command's ``give-up``, and nothing for a retry's wake-up."""
    if isinstance(message, TransactionProposal):
        key = pair_of(message.payer_id, message.payee_id)
        return [(sender, RejectMsg(key, message.pair_seq, UNREACHABLE), 0)]
    if isinstance(message, AcceptMsg):
        record = message.record
        key = pair_of(record.payer_id, record.payee_id)
        return [(sender, AbortMsg(key, record.pair_seq, UNREACHABLE), 0)]
    if isinstance(message, StartTransferCmd):
        return [message.give_up("crashed")]
    return []


def _outcome(msg, ended=True) -> tuple[str, str]:
    """The log line of the exchange end a commit, abort or reject reads, or
    of ignoring a commit or abort that found no exchange (``ended`` None)."""
    event = "commit" if isinstance(msg, CommitMsg) else "abort"
    head = f"pair={pair_text(msg.pair_key)} seq={msg.pair_seq}"
    if ended is None:
        return "ignore", f"{head} msg={event}"
    if event == "commit":
        return event, f"{head} root={msg.payer_root[:8].hex()}"
    return event, f"{head} reason={msg.reason}"


class ClientNode:
    """One currency client (or the manager's treasury when id is 0)."""

    def __init__(self, client_id: int, keystore: KeyStore,
                 transaction_limit: int = DEFAULT_LIMIT,
                 opening_reserve: int = 0) -> None:
        self.id = client_id
        self.keystore = keystore
        keystore.generate(client_id)
        self.transaction_limit = transaction_limit
        self.mht = BalanceMHT()
        self.ptts: dict[tuple[int, int], PeerTransactionTree] = {}
        self.opening_reserve = opening_reserve
        # the exchange in flight: (pair key, proposal sent as payer or
        # record accepted as payee, balance it opened with), or None
        self._exchange: Optional[tuple] = None
        # the payer's transfer commands, head first, and the head's busy
        # retries so far and the tick before which it does not propose
        self.queue: deque[StartTransferCmd] = deque()
        self.attempts = self.due = 0
        self.outbox: list[tuple] = []  # see ``handle``
        if opening_reserve:
            self.mht.insert(self._opening_record())

    def _opening_record(self) -> BalanceChangeRecord:
        """The first balance record of a node with an opening reserve."""
        return BalanceChangeRecord(
            pair_seq=0, timestamp=0, client_seq=1, peer_id=self.id,
            delta=self.opening_reserve, new_balance=self.opening_reserve,
            causing_pttr=EMPTY_TREE_DIGEST,
        )

    # ------------------------------------------------------------------
    # basic state

    @property
    def balance(self) -> int:
        return self.mht.latest_balance()

    @property
    def busy(self) -> bool:
        return self._exchange is not None

    def register_peer(self, peer_id: int) -> PeerTransactionTree:
        key = pair_of(self.id, peer_id)
        if key not in self.ptts:
            self.ptts[key] = PeerTransactionTree(*key)
            PAIR_TEXTS.setdefault(key, str(key))
        return self.ptts[key]

    def account_view(self) -> AccountView:
        return AccountView(
            self.id, self.balance, self.transaction_limit, self.mht.root()
        )

    def expected_balance(self) -> int:
        """Opening reserve plus the net of every pair history."""
        return self.opening_reserve + sum(
            net_position(ptt, self.id) for ptt in self.ptts.values()
        )

    # ------------------------------------------------------------------
    # the node's side of the protocol

    def handle(self, sender, message, now: int) -> list[tuple]:
        """Take ``message`` from ``sender``, the client a reply goes to, at
        tick ``now``; return the outbox (see the module docstring)."""
        out = self.outbox
        head_may_go = True
        if isinstance(message, StartTransferCmd):
            self.queue.append(message)
        elif isinstance(message, TransactionProposal):
            try:
                reply = self.receive_propose(message, now)
            except DeltaMoneyError as exc:
                key = pair_of(message.payer_id, message.payee_id)
                out.append(("refuse", f"pair={pair_text(key)} reason={exc}"))
                reply = RejectMsg(key, message.pair_seq, type(exc).__name__)
            if isinstance(reply, RejectMsg):
                out.append(("reject", f"pair={pair_text(reply.pair_key)} "
                                      f"reason={reply.reason}"))
            out.append((sender, reply, 1))
            head_may_go = False
        elif isinstance(message, AcceptMsg):
            mark = len(out)
            result = self.receive_accept(message, now)
            # the answer goes before the reports the commit queued
            out[mark:mark] = [_outcome(result), (sender, result, 1)]
            if not isinstance(result, AbortMsg) or result.reason != STALE:
                self._pop_head()  # the head's exchange ended
        elif isinstance(message, CommitMsg):
            out.append(_outcome(message, self.receive_commit(message, now)))
        elif isinstance(message, AbortMsg):
            out.append(_outcome(message, self.receive_abort(message, now)))
        elif isinstance(message, RejectMsg):
            if self.receive_reject(message, now) is None:
                head_may_go = False  # not this payer's exchange in flight
            elif message.reason == "busy" and self.attempts < RETRY_MAX_ATTEMPTS:
                delay = retry_delay(self.queue[0].key, self.attempts)
                self.attempts, self.due = self.attempts + 1, now + delay
                out.append((self.id, RetryMsg(), delay))
                head_may_go = False
            else:
                if message.reason == "busy":
                    out.append(self.queue[0].give_up("busy"))
                elif message.reason == UNREACHABLE:
                    out.append(_outcome(message))
                self._pop_head()
        elif not isinstance(message, RetryMsg):
            raise UnknownTarget(f"unhandled message {type(message).__name__}")
        if head_may_go:
            self._propose_head(now)
        self.outbox = []
        return out

    def _pop_head(self) -> None:
        self.queue.popleft()
        self.attempts = self.due = 0

    def _propose_head(self, now: int) -> None:
        """Propose the head command once the slot is free and it is due."""
        queue, out = self.queue, self.outbox
        while queue and self._exchange is None and self.due <= now:
            cmd = queue[0]
            try:
                proposal = self.start_transfer(cmd.payee, cmd.amount, now)
            except DeltaMoneyError as exc:
                out.append(("refuse", f"payee={cmd.payee} amount={cmd.amount} "
                                      f"reason={exc}"))
                self._pop_head()
                continue
            out.append(("propose", f"pair={pair_text(pair_of(cmd.payer, cmd.payee))} "
                                   f"seq={proposal.pair_seq} amount={cmd.amount}"))
            out.append((cmd.payee, proposal, 1))

    # ------------------------------------------------------------------
    # handshake steps

    def start_transfer(self, peer_id: int, amount: int,
                       now: int) -> Optional[TransactionProposal]:
        """Open an exchange as payer and return the proposal to send; None
        means busy, try again later."""
        if self._exchange is not None:
            return None
        key = pair_of(self.id, peer_id)
        view = self.account_view()
        proposal = propose(view, self.ptts.get(key), peer_id, amount, now)
        self._exchange = (key, proposal, view.balance)
        return proposal

    def receive_propose(self, proposal: TransactionProposal, now: int):
        key = pair_of(proposal.payer_id, proposal.payee_id)
        if self._exchange is not None:
            return RejectMsg(key, proposal.pair_seq, "busy")
        ptt = self.ptts.get(key)
        if ptt is None:
            raise NotRegisteredPeers(f"pair {key} is not registered")
        if proposal.pair_seq != ptt.next_seq():
            raise NonMonotonicSequence(
                f"expected seq {ptt.next_seq()}, got {proposal.pair_seq}"
            )
        view = self.account_view()
        record = accept(proposal, view)
        ptt.append_record(record)
        self._exchange = (key, record, view.balance)
        return AcceptMsg(record, ptt.root())

    def receive_accept(self, msg: AcceptMsg, now: int):
        record = msg.record
        key = pair_of(record.payer_id, record.payee_id)
        slot = self._release(key, TransactionProposal)
        if slot is None:
            return self._answer_stale(key, record)
        _, proposal, opened = slot
        # a proposal is a record's first seven fields plus the payer's
        # provenance, which the record moves behind the payee's commitments
        if (record[:7] != proposal[:7]
                or record.payer_provenance != proposal.payer_provenance):
            return AbortMsg(key, record.pair_seq, MISMATCH)
        ptt = self.ptts[key]
        ptt.append_record(record)
        my_root = ptt.root()
        if my_root != msg.payee_root:
            self._roll_back(key, record)
            return AbortMsg(key, record.pair_seq, "root mismatch")
        self._finalize(key, record, my_root, opened)
        return CommitMsg(key, record.pair_seq, my_root)

    def _answer_stale(self, key: tuple[int, int], record) -> AbortMsg:
        """Abort an acceptance of a proposal this node no longer holds.

        Only a payer that crashed with its proposal in flight, and was
        rebuilt before the acceptance came, gets one.  If the payee had
        already accepted when the payer was rebuilt, the rebuilt pair tree
        copied the record from it; this acceptance shows the payer never
        committed the record, so its leaf and balance change go again.
        Had the payer committed before it crashed, no acceptance would
        come, and the copy stays.
        """
        ptt = self.ptts.get(key)
        if ptt is not None and ptt.records and ptt.records[-1] == record:
            # known gap: the copy is taken to be the latest balance change,
            # which a commit on another pair since the rebuild makes false
            self._roll_back(key, record, report=False)
            self.mht.remove_last()
        return AbortMsg(key, record.pair_seq, STALE)

    def receive_commit(self, msg: CommitMsg, now: int):
        """End the payee's exchange; returns the slot it emptied, or None."""
        slot = self._release(msg.pair_key, TransactionPairRecord)
        if slot is not None:
            key, record, opened = slot
            root = self.ptts[key].root()
            if root == msg.payer_root:
                self._finalize(key, record, root, opened)
            else:  # should have been an abort; report the divergence
                self._roll_back(key, record)
        return slot

    def receive_abort(self, msg: AbortMsg, now: int):
        """Roll the payee's exchange back; returns the slot it emptied, or None."""
        slot = self._release(msg.pair_key, TransactionPairRecord)
        if slot is not None:
            key, record, _ = slot
            self._roll_back(key, record, report=msg.reason not in ONE_SIDED_ABORTS)
        return slot

    def receive_reject(self, msg: RejectMsg, now: int):
        return self._release(msg.pair_key, TransactionProposal)

    def _release(self, key: tuple[int, int], role: type):
        """Empty the slot if it holds ``key``'s exchange in ``role``.

        ``role`` is ``TransactionProposal`` for the payer's side and
        ``TransactionPairRecord`` for the payee's.  Returns the slot's
        (key, proposal or record, opened balance), or None, leaving the
        slot alone, for any other message.
        """
        slot = self._exchange
        if slot is None or slot[0] != key or not isinstance(slot[1], role):
            return None
        self._exchange = None
        return slot

    def _roll_back(self, key: tuple[int, int], record: TransactionPairRecord,
                   report: bool = True) -> None:
        """Drop ``record``, the last of pair ``key``'s tree.

        With ``report``, and unless the pair is the treasury's, queue the
        aborted ``TransactionReport`` of the root and leaf the tree held
        with it: the divergent root the Integrity Manager compares.
        """
        ptt = self.ptts[key]
        if report and MANAGER_ID not in key:
            self.outbox.append(("im", TransactionReport(
                self.id, key, record.pair_seq, ptt.root(),
                ptt.leaf_digest(record.pair_seq), record.timestamp, aborted=True,
            ), None))
        ptt.rollback_last()

    def _balance_change(self, record: TransactionPairRecord,
                        prior_balance: int, client_seq: int,
                        causing_pttr: Digest) -> BalanceChangeRecord:
        """The balance record a committed ``record`` adds; unchecked."""
        if record.payee_id == self.id:
            delta, peer_id = record.amount, record.payer_id
        else:
            delta, peer_id = -record.amount, record.payee_id
        # positional, in field order: recovery builds one per record
        return BalanceChangeRecord(
            record.pair_seq, record.timestamp, client_seq, peer_id, delta,
            prior_balance + delta, causing_pttr,
        )

    def _finalize(self, key: tuple[int, int], record: TransactionPairRecord,
                  root: Digest, opened: int) -> None:
        """Apply a committed exchange and queue its reports.

        The live check: the balance must still be ``opened``, the one the
        exchange opened with.  The payee computed its commitments over
        it, and the payer compared its own byte for byte with its
        proposal in ``receive_accept``, so only a changed balance (a
        stale rollback on another pair, see ``_answer_stale``) can break
        them; that raises ``CommitmentMismatch``.  Replayed records,
        which come from partners, get ``local_view`` instead.
        """
        prior_balance = self.balance
        if prior_balance != opened:
            raise CommitmentMismatch(
                "prior balance does not match the record's commitment")
        prior_mhtr = self.mht.root()
        change = self._balance_change(
            record, prior_balance, len(self.mht) + 1, root
        )
        self.mht.insert(change)
        if self.id == MANAGER_ID:
            return
        if self.id == record.payer_id:
            peer_provenance = record.payee_provenance
        else:
            peer_provenance = record.payer_provenance
        if MANAGER_ID in key:
            supply = change.delta
        else:
            supply = 0
            self.outbox.append(("im", TransactionReport(
                self.id, key, record.pair_seq, root,
                self.ptts[key].leaf_digest(record.pair_seq), record.timestamp,
            ), None))
        self.outbox.append(("cm", BalanceReport(
            self.id, change.new_balance, self.mht.root(), prior_mhtr,
            peer_provenance, record.timestamp, supply,
        ), None))

    # ------------------------------------------------------------------
    # recovery

    def export_recovery_data(self, peer_id: int) -> PairReplica:
        """What this node hands a wiped partner about their shared pair."""
        return self.ptts[pair_of(self.id, peer_id)].replica()

    def wipe(self) -> list[tuple[str, str]]:
        """Drop all volatile state, as a crash would.

        Returns the ``give-up`` log line of each queued command it drops.
        """
        gave_up = [cmd.give_up("crashed") for cmd in self.queue]
        self.mht = BalanceMHT()
        self.ptts = {}
        self._exchange = None
        self.queue = deque()
        self.attempts = self.due = 0
        self.outbox = []
        return gave_up

    def recover_transactions(
        self,
        partners: Iterable[PairReplica],
        validated: Callable[[tuple[int, int]], Optional[tuple[int, Digest]]],
    ) -> None:
        """Rebuild all pair trees and the balance tree from pair replicas,
        a crashed node's from its partners', a loaded one's from its
        snapshot (``load_snapshot``).

        Each ``PairReplica`` must be keyed by a pair this node belongs to,
        lower id first, the key the Integrity Manager's ``validated``
        lookup and ``ptts`` use.  Its records are checked and hashed into
        a fresh pair tree in one build pass
        (``PeerTransactionTree.restore``); the rebuilt root must match the
        replica's.  When the Integrity Manager has validated a
        ``(seq, root)`` for the pair, the rebuilt history must reach
        ``seq`` (a shorter one is truncated) and its prefix root at
        ``seq`` must be that root: the IM lags the peers, so an honest
        history may run past what it validated.  The balance records are
        then replayed in timestamp order, sorted from the pairs' record
        lists, each citing the root its pair tree had right after it: one
        ``prefix_roots`` call per pair reads them from the levels that
        build already stored, no second tree.  Each record's balance
        change is built by ``_balance_change`` and its commitments checked
        by ``local_view``, and the balance tree is built from the changes
        in one pass.

        Costs, for n records: the pair trees hash n leaves and fewer than
        n internal nodes, the prefix roots popcount(size) - 1 for each
        size of each pair, ``local_view`` two commitments per record, and
        the balance tree n leaves and n - 1 internal nodes.  Each record
        and its balance change are encoded once, each for its own leaf.
        Around those digests each tree level, and each level of prefix
        roots, is one comprehension; the replay is one loop of two calls
        per record.

        All of that is built aside; only once every check has passed is
        the node wiped and the new state swapped in, so a recovery that
        raises leaves the node as it was.
        """
        rebuilt: dict[tuple[int, int], PeerTransactionTree] = {}
        for replica in partners:
            key = replica.pair_key
            # a reversed key would miss ``validated`` and its truncation check
            if not key[0] < key[1] or self.id not in key:
                raise PartnerRootDisagreement(
                    f"pair {key} is not client {self.id}'s, lower id first")
            ptt = PeerTransactionTree.restore(replica)
            root = ptt.root()
            if root != replica.root:
                raise PartnerRootDisagreement(
                    f"pair {key}: records rebuild to root {root[:8].hex()}, "
                    f"not the replica's {replica.root[:8].hex()}"
                )
            latest = validated(key)
            if latest is not None:
                seq, trusted = latest
                if seq > ptt.last_seq:
                    raise PartnerRootDisagreement(
                        f"pair {key}: rebuilt history ends at seq {ptt.last_seq}, "
                        f"before the validated seq {seq}"
                    )
                if seq < ptt.last_seq:
                    root = ptt.tree.root_at(seq)
                if root != trusted:
                    raise PartnerRootDisagreement(
                        f"pair {key}: rebuilt root {root[:8].hex()} at seq {seq} "
                        f"does not match the validated root {trusted[:8].hex()}"
                    )
            rebuilt[key] = ptt

        # every record with the root its pair tree had right after it,
        # replayed by (timestamp, pair key, pair_seq): each pair's records
        # are already in that order, so the sort only interleaves the pairs
        replay = []
        for key, ptt in rebuilt.items():
            roots = ptt.tree.prefix_roots()
            replay += [(record.timestamp, key, record.pair_seq, record, root)
                       for record, root in zip(ptt.records, roots)]
        replay.sort()
        balance = self.opening_reserve
        records = []
        if self.opening_reserve:
            records.append(self._opening_record())
        for _, _, _, record, root in replay:
            # built first, so a replay that drives the balance negative
            # raises ``NegativeBalance`` before ``local_view`` finds the
            # prior balance off the record's commitment
            change = self._balance_change(record, balance, len(records) + 1, root)
            local_view(record, self.id, balance)
            records.append(change)
            balance = change.new_balance
        mht = BalanceMHT.build(records)

        # a live node's queued commands give up in its outbox; a crashed one has none
        self.outbox = self.wipe()
        self.ptts, self.mht = rebuilt, mht

    # ------------------------------------------------------------------
    # persistence

    SNAPSHOT_MAGIC = b"DMCS"
    SNAPSHOT_VERSION = 3

    def persist_snapshot(self) -> bytes:
        """The header (magic, version, id, limit, opening reserve), a
        ``u32`` count of pair sections (``PairReplica.to_bytes``), lower
        key first, then the sha256 of all that.  The balance tree is not
        stored: it is derived from the pair records."""
        if self.busy:
            raise NotQuiescent("an exchange is still in flight")
        parts = [
            self.SNAPSHOT_MAGIC,
            u32(self.SNAPSHOT_VERSION),
            u64(self.id),
            u64(self.transaction_limit),
            u64(self.opening_reserve),
            u32(len(self.ptts)),
        ]
        parts += [self.ptts[key].replica().to_bytes() for key in sorted(self.ptts)]
        body = b"".join(parts)
        return body + hashlib.sha256(body).digest()

    @classmethod
    def load_snapshot(cls, data: bytes, keystore: KeyStore) -> "ClientNode":
        """Rebuild the node a ``persist_snapshot`` wrote, as a crashed one is
        rebuilt: ``recover_transactions`` over its stored replicas, with no
        validated roots.  Any refusal raises ``CorruptSnapshot``."""
        if len(data) < 36 or data[:4] != cls.SNAPSHOT_MAGIC:
            raise CorruptSnapshot("bad snapshot header")
        body, trailer = data[:-32], data[-32:]
        if hashlib.sha256(body).digest() != trailer:
            raise CorruptSnapshot("snapshot checksum mismatch")
        r = Reader(body[4:])
        version = r.u32()
        if version != cls.SNAPSHOT_VERSION:
            raise CorruptSnapshot(f"unsupported snapshot version {version}")
        try:
            client_id, limit, reserve = r.u64(), r.u64(), r.u64()
            replicas = [PairReplica.read(r) for _ in range(r.u32())]
        except Exception as exc:
            raise CorruptSnapshot(f"snapshot does not parse: {exc}") from exc
        if not r.done():
            raise CorruptSnapshot("trailing bytes after the last section")
        node = cls(client_id, keystore, transaction_limit=limit)
        node.opening_reserve = reserve
        try:
            node.recover_transactions(replicas, lambda key: None)
        except DeltaMoneyError as exc:
            raise CorruptSnapshot(str(exc)) from exc
        return node
