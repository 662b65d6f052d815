"""Deterministic discrete-event simulation of the whole system.

Actors (currency clients, the treasury, the Currency Manager, the
Integrity Manager) are isolated state machines exchanging typed messages
through a single event queue ordered by (tick, insertion order).  The
clock jumps straight to the next event, stopping on the way only at
ticks where an Integrity Manager reporting deadline falls due, so idle
ticks cost nothing.  ``steps`` counts the events delivered.  With a
fixed seed the run is fully deterministic: same scenario, same log, byte
for byte.

The three-message transfer handshake travels the peer channel and is
always delivered next tick.  Manager traffic (transaction reports for the
Integrity Manager, and the balance reports of transfers, issuances and
redemptions for the Currency Manager) goes through the configurable
delivery policy, which may delay or duplicate.  Each report is sent once
and is never lost: one that falls due while the managers are partitioned
is held until the partition ends (see ``_deliver``), as a retransmitting
transport would deliver it, and both managers drop a repeat by its
content, field by field.  So a sender keeps no state for its reports and
nothing acknowledges them.  A report the Currency Manager refuses is
logged as ``cm|refuse``, and the run goes on.

Each payer's transfer commands wait in one queue of their own; only the
head proposes, once the payer's slot is free, and a commit, abort,
refusal or any reject but ``busy`` ends it.  A head that a busy payee
rejected retries: the first retry waits ``RETRY_BASE`` ticks, and retry
k+1 waits somewhere in [span/2, span], span = min(RETRY_BASE * 2**k,
RETRY_CAP), picked by hashing k with the command's own number, so
colliding clients leave lockstep without a draw from the seeded rng.  A
head gets ``RETRY_MAX_ATTEMPTS`` retries, then a ``give-up`` line.  A
handshake message is lost only at a crashed client; the transport answers
the drop on that tick, as a refused connection would: a proposal with a
reject, an acceptance with an abort, both ``reason=unreachable``.  A
crashed payer's queued commands, and any sent to it while down, give up
``reason=crashed``; an acceptance that reaches the payer once it is
rebuilt is aborted ``reason=stale`` (see ``ClientNode.receive_accept``).

Every message, report and record is an immutable ``NamedTuple``, built
several times per transfer at a fraction of a frozen dataclass's cost.
They compare as plain tuples, so a message of one type can equal one of
another; the actors dispatch on type, never on ``==``, and a queue
entry's unique insertion number keeps the heap from ever comparing two
messages.

Fault injection covers the adversary catalogue: leaf tampering, double
spends, report replays, forged manager rows, client crashes, manager
partitions, and record omission in data-client queries.  Each fault maps
to one documented detection (an alert kind or a failed verdict).

``FAULTS`` and ``POLICIES`` hold one row per fault kind and per delivery
policy kind: its argument words, as the scenario language writes them,
and the code that runs it.  ``inject``, ``DeliveryPolicy``, ``send`` and
the scenario parser all read them, so a new kind is one row.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .client import (
    AbortMsg,
    AcceptMsg,
    ClientNode,
    CommitMsg,
    DEFAULT_LIMIT,
    ProposeMsg,
    RejectMsg,
    STALE,
    TREASURY_RESERVE,
    pair_of,
)
from .currency_manager import MANAGER_ID, BalanceReport, CurrencyManager
from .data_client import authorize, query_transactions, verify_vo
from .errors import (
    DeltaMoneyError,
    PeerUnreachable,
    StaleProvenance,
    StepLimitExceeded,
    UnknownTarget,
)
from .hashing import KeyStore
from .integrity_manager import (
    AlertKind,
    IntegrityManager,
    TransactionReport,
)

IM_SIGNER = 10_000
RETRY_BASE = 4
RETRY_CAP = 64
RETRY_MAX_ATTEMPTS = 40
MANAGER_ACTORS = frozenset(("cm", "im"))


def retry_delay(key: int, attempt: int) -> int:
    """Ticks a busy-rejected transfer command ``key`` waits before retry
    ``attempt + 1``."""
    if attempt == 0:
        return RETRY_BASE
    span = min(RETRY_BASE << attempt, RETRY_CAP)
    mix = hashlib.blake2b(f"{key}:{attempt}".encode(), digest_size=8).digest()
    return span // 2 + int.from_bytes(mix, "big") % (span // 2 + 1)


# ----------------------------------------------------------------------
# sim-internal messages


@dataclass
class StartTransferCmd:
    payer: int
    payee: int
    amount: int
    key: int  # the command's own number; seeds the jitter of its retries
    attempts: int = 0  # busy retries so far
    due: int = 0  # a head backing off from a busy payee waits for this tick


@dataclass(frozen=True)
class DeliveryPolicy:
    """How manager-bound messages travel; peers always get next-tick.

    ``kind`` names a row of ``POLICIES``.  Checked when built: a kind with
    no row, a negative delay and a probability outside [0, 1] raise
    ``ValueError``.
    """

    kind: str = "normal"
    delay: int = 0
    p_delay: float = 0.0
    max_delay: int = 0
    p_duplicate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POLICIES:
            raise ValueError(f"unknown delivery policy {self.kind!r}")
        for name in ("delay", "max_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, "
                                 f"got {getattr(self, name)}")
        for name in ("p_delay", "p_duplicate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], "
                                 f"got {getattr(self, name)}")


class FaultKind(NamedTuple):
    """One row of ``FAULTS``."""

    args: tuple  # its argument words, each read by ``scenario.WORDS``
    inject: Callable  # the ``Simulation`` method that injects it


class PolicyKind(NamedTuple):
    """One row of ``POLICIES``."""

    args: dict  # each argument word -> the ``DeliveryPolicy`` field it sets
    # (policy, rng) -> the ticks from now at which each copy of a report lands
    offsets: Callable[[DeliveryPolicy, random.Random], list]
    # policy -> the largest offset of a report's first copy (see ``_deliver``)
    latest_first_copy: Callable[[DeliveryPolicy], int]


def _drawn_offsets(policy: DeliveryPolicy, rng: random.Random) -> list[int]:
    """A seeded delay with probability ``p_delay``, then a later duplicate
    with probability ``p_duplicate``, each of 1 to max(1, ``max_delay``)."""
    base = 1
    if rng.random() < policy.p_delay:
        base += rng.randint(1, max(1, policy.max_delay))
    out = [base]
    if rng.random() < policy.p_duplicate:
        out.append(base + rng.randint(1, max(1, policy.max_delay)))
    return out


POLICIES = {
    "normal": PolicyKind({}, lambda policy, rng: [1], lambda policy: 1),
    "delay": PolicyKind({"N": "delay"}, lambda policy, rng: [1 + policy.delay],
                        lambda policy: 1 + policy.delay),
    "duplicate": PolicyKind({}, lambda policy, rng: [1, 2], lambda policy: 1),
    "random": PolicyKind(
        {"P_DELAY": "p_delay", "MAX": "max_delay", "P_DUP": "p_duplicate"},
        _drawn_offsets, lambda policy: 1 + max(1, policy.max_delay)),
}


@dataclass
class SimulationLog:
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def passed(self) -> bool:
        return not self.failures


def grid_roots(nodes: dict) -> tuple[dict, dict]:
    """The balance-tree and pair roots a grid is captured from.

    ``nodes`` maps each live client id to its node.  Each client but the
    treasury gives its balance-tree root, and each pair they hold, treasury
    pairs aside, its root as held by its lower live member, or else by its
    other one: a crashed member holds no pair trees.
    """
    mhtrs = {cid: nodes[cid].mht.root() for cid in sorted(nodes)
             if cid != MANAGER_ID}
    pttrs = {}
    for cid in sorted(nodes):
        for key, ptt in nodes[cid].ptts.items():
            if MANAGER_ID not in key and key not in pttrs:
                pttrs[key] = ptt.root()
    return mhtrs, pttrs


def _junk(tag: str, size: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{tag}:{counter}".encode()).digest()
        counter += 1
    return out[:size]


class Simulation:
    """Event loop, actor roster, fault injection, and scripted asserts."""

    def __init__(self, seed: int = 0, scheme: str = "stub",
                 step_limit: int = 100_000) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.keystore = KeyStore(scheme)
        self.step_limit = step_limit
        self.now = 0
        self.steps = 0  # delivered events
        self._seq = 0
        self._cmd_seq = 0
        self.queue: list = []
        self.log = SimulationLog()
        self.policy = DeliveryPolicy()
        self.cm = CurrencyManager(self.keystore)
        self.im = IntegrityManager(self.keystore, IM_SIGNER)
        self.treasury = ClientNode(MANAGER_ID, self.keystore,
                                   transaction_limit=2**62,
                                   opening_reserve=TREASURY_RESERVE)
        self.clients: dict[int, ClientNode] = {MANAGER_ID: self.treasury}
        # actor name <-> client id, both ways, formatted once per client
        self._actor_ids: dict[str, int] = {}
        self._actor_names: dict[int, str] = {}
        self._add_actor(MANAGER_ID)
        # registered pair key -> its log text, formatted once per pair
        self.registered_pairs: dict[tuple[int, int], str] = {}
        self.crashed: set = set()
        self.alerts: list = []  # (kind name, subjects tuple, tick)
        self.partitions: list = []  # (start, end) manager unreachability
        self.outbox: dict[int, deque] = defaultdict(deque)  # payer -> commands
        self.query_omissions: dict = {}  # (subject, pair) -> set of seqs
        self.last_verdict = None
        self.grids: list = []

    # ------------------------------------------------------------------
    # plumbing

    def emit(self, actor: str, event: str, details: str = "") -> None:
        self.log.lines.append(f"{self.now}|{actor}|{event}|{details}")

    def send(self, target: str, sender: str, message,
             policy: bool = False, delay: int = 1) -> None:
        """Queue ``message`` for delivery ``delay`` ticks from now.

        With ``policy`` the delivery policy sets the ticks instead: next
        tick under ``normal``, otherwise the offsets of its row in
        ``POLICIES``, each delivered as an event of its own.
        """
        if policy:
            kind = self.policy.kind
            if kind != "normal":
                for offset in POLICIES[kind].offsets(self.policy, self.rng):
                    self._seq += 1
                    heapq.heappush(self.queue, (self.now + offset, self._seq,
                                                target, sender, message))
                return
            delay = 1
        self._seq += 1
        heapq.heappush(self.queue,
                       (self.now + delay, self._seq, target, sender, message))

    def _client_actor(self, client_id: int) -> str:
        return self._actor_names.get(client_id) or f"client:{client_id}"

    def _add_actor(self, client_id: int) -> None:
        name = f"client:{client_id}"
        self._actor_ids[name] = client_id
        self._actor_names[client_id] = name

    def _pair_text(self, key: tuple[int, int]) -> str:
        return self.registered_pairs.get(key) or str(key)

    def _alert(self, actor: str, kind: AlertKind, subjects: tuple,
               evidence: str) -> None:
        """Record an alert raised now, and log it."""
        self.alerts.append((kind.value, subjects, self.now))
        self.emit(actor, "alert", f"kind={kind.value} subjects={list(subjects)} "
                  f"evidence={evidence}")

    # ------------------------------------------------------------------
    # event loop

    def _advance_time_to(self, tick: int) -> None:
        """Move the clock forward to ``tick``.

        The clock stops on the way only where a reporting deadline falls
        due, and logs the alerts raised there; every other tick would
        check deadlines and find nothing.
        """
        im = self.im
        while self.now < tick:
            stop = im.next_deadline()
            if stop is None or stop > tick:
                self.now = tick
                return
            self.now = max(stop, self.now + 1)
            for alert in im.check_deadlines(self.now):
                self._alert("im", alert.kind, alert.subjects, alert.evidence)

    def run_until(self, target_tick: Optional[int]) -> None:
        """Deliver events up to target_tick; None means drain everything."""
        queue, heappop = self.queue, heapq.heappop
        while queue:
            tick = queue[0][0]
            if target_tick is not None and tick > target_tick:
                break
            _, _, target, sender, message = heappop(queue)
            if tick > self.now:
                self._advance_time_to(tick)
            self.steps += 1
            if self.steps > self.step_limit:
                raise StepLimitExceeded(
                    f"exceeded {self.step_limit} events at tick {self.now}"
                )
            self._deliver(target, sender, message)
        if target_tick is not None and target_tick > self.now:
            self._advance_time_to(target_tick)

    def advance(self, ticks: int) -> None:
        self.run_until(self.now + ticks)

    def quiesce(self) -> None:
        """Drain every event; log ``steps``, the events delivered."""
        self.run_until(None)
        self.emit("sim", "quiesce", f"steps={self.steps}")

    # ------------------------------------------------------------------
    # delivery and actors

    def _deliver(self, target: str, sender: str, message) -> None:
        """Hand ``message`` to its target actor.

        A message for a manager that falls due inside a partition is held:
        it is queued again for the latest end among the partitions that
        cover this tick, and logged ``net|hold``.  So a partition delays a
        report but never loses it.

        The bound on a harmless outage: the payee reports one tick after
        the payer, and a report's first copy lands at most m ticks after
        it is sent, m the ``latest_first_copy`` of the policy's row in
        ``POLICIES``.  So the two reports of an exchange land within m
        ticks of each other.  A partition begins after the events of the
        tick it is injected on, so one of T ticks holds a report for at
        most T - 1 ticks.  The Integrity Manager alerts once a
        counterpart is more than ``DEFAULT_REPORTING_DEADLINE`` ticks
        late.  So a partition of at most ``DEFAULT_REPORTING_DEADLINE + 1
        - m`` ticks cannot raise ``MissingCounterpartReport``; partitions
        that overlap count as one outage, from the first start to the last
        end.  A longer outage cannot be told apart from a silent party,
        and the alert it may draw is correct.
        """
        if self.partitions and target in MANAGER_ACTORS:
            now = self.now
            end = max((end for start, end in self.partitions if start <= now < end),
                      default=None)
            if end is not None:
                self.emit("net", "hold", f"target={target} until={end}")
                self.send(target, sender, message, delay=end - now)
                return
        client_id = self._actor_ids.get(target)
        if client_id is not None:
            if client_id in self.crashed:
                self.emit("net", "drop", f"target={target} reason=crashed")
                self._answer_drop(target, sender, message)
                return
            self._handle_client(client_id, target, sender, message)
        elif target == "cm":
            self._handle_cm(message)
        elif target == "im":
            self._handle_im(message)
        else:
            raise UnknownTarget(f"no actor {target}")

    def _answer_drop(self, target: str, sender: str, message) -> None:
        """Answer the drop now: a later recovery could copy an open record."""
        if isinstance(message, ProposeMsg):
            p = message.proposal
            self.send(sender, target, RejectMsg(
                pair_of(p.payer_id, p.payee_id), p.pair_seq, "unreachable"), delay=0)
        elif isinstance(message, AcceptMsg):
            r = message.record
            self.send(sender, target, AbortMsg(pair_of(r.payer_id, r.payee_id),
                      r.pair_seq, b"\x00" * 32, "unreachable"), delay=0)
        elif isinstance(message, StartTransferCmd) and not message.attempts:
            self._give_up(target, message, "crashed")

    def _give_up(self, actor: str, cmd: StartTransferCmd, reason: str) -> None:
        self.emit(actor, "give-up",
                  f"payee={cmd.payee} amount={cmd.amount} reason={reason}")

    # -- client actor ---------------------------------------------------

    def _handle_client(self, client_id: int, actor: str, sender: str,
                       message) -> None:
        node = self.clients[client_id]
        if isinstance(message, StartTransferCmd):
            if not message.attempts:  # a retry wakes the head it already is
                self.outbox[client_id].append(message)
        elif isinstance(message, ProposeMsg):
            try:
                reply = node.receive_propose(message, self.now)
            except DeltaMoneyError as exc:
                key = pair_of(message.proposal.payer_id, message.proposal.payee_id)
                self.emit(actor, "refuse",
                          f"pair={self._pair_text(key)} reason={exc}")
                reply = RejectMsg(key, message.proposal.pair_seq,
                                  type(exc).__name__)
            if isinstance(reply, RejectMsg):
                self.emit(actor, "reject",
                          f"pair={self._pair_text(reply.pair_key)} "
                          f"reason={reply.reason}")
            self.send(sender, actor, reply)
            return
        elif isinstance(message, AcceptMsg):
            result = node.receive_accept(message, self.now)
            pair = self._pair_text(result.pair_key)
            if isinstance(result, CommitMsg):
                self.emit(actor, "commit", f"pair={pair} seq={result.pair_seq} "
                          f"root={result.payer_root[:8].hex()}")
            else:
                self.emit(actor, "abort", f"pair={pair} seq={result.pair_seq} "
                          f"reason={result.reason}")
            if not isinstance(result, AbortMsg) or result.reason != STALE:
                self.outbox[client_id].popleft()  # the head's exchange ended
            self.send(sender, actor, result)
            self._flush_reports(node, actor)
        elif isinstance(message, CommitMsg):
            node.receive_commit(message, self.now)
            self.emit(actor, "commit",
                      f"pair={self._pair_text(message.pair_key)} "
                      f"seq={message.pair_seq} root={message.payer_root[:8].hex()}")
            self._flush_reports(node, actor)
        elif isinstance(message, AbortMsg):
            node.receive_abort(message, self.now)
            self.emit(actor, "abort",
                      f"pair={self._pair_text(message.pair_key)} "
                      f"seq={message.pair_seq} reason={message.reason}")
            self._flush_reports(node, actor)
        elif isinstance(message, RejectMsg):
            if node.receive_reject(message, self.now) is None:
                return  # not this payer's exchange in flight
            head = self.outbox[client_id][0]
            if message.reason == "busy" and head.attempts < RETRY_MAX_ATTEMPTS:
                delay = retry_delay(head.key, head.attempts)
                head.attempts, head.due = head.attempts + 1, self.now + delay
                self.send(actor, actor, head, delay=delay)
                return
            if message.reason == "busy":
                self._give_up(actor, head, "busy")
            elif message.reason == "unreachable":
                self.emit(actor, "abort",
                          f"pair={self._pair_text(message.pair_key)} "
                          f"seq={message.pair_seq} reason=unreachable")
            self.outbox[client_id].popleft()
        else:
            raise UnknownTarget(f"unhandled message {type(message).__name__}")
        self._propose_head(node, actor)

    def _propose_head(self, node: ClientNode, actor: str) -> None:
        """Propose the payer's head command once its slot is free."""
        queued = self.outbox.get(node.id)
        while queued and not node.busy and queued[0].due <= self.now:
            cmd = queued[0]
            try:
                msg = node.start_transfer(cmd.payee, cmd.amount, self.now)
            except DeltaMoneyError as exc:
                self.emit(actor, "refuse",
                          f"payee={cmd.payee} amount={cmd.amount} reason={exc}")
                queued.popleft()
                continue
            self.emit(actor, "propose",
                      f"pair={self._pair_text(pair_of(cmd.payer, cmd.payee))} "
                      f"seq={msg.proposal.pair_seq} amount={cmd.amount}")
            self.send(self._client_actor(cmd.payee), actor, msg)

    def _flush_reports(self, node: ClientNode, actor: str) -> None:
        for kind, payload in node.drain_reports():
            self.send(kind, actor, payload, policy=True)

    # -- manager actors ---------------------------------------------------

    def _handle_cm(self, report) -> None:
        """Hand one balance report to the CM and log what it made of it.

        A supply report logs ``issued`` or ``redeemed`` with its amount,
        plus ``status=`` when it did not apply at once; a transfer's
        report logs ``balance-report`` with its status.
        """
        if type(report) is not BalanceReport:
            raise UnknownTarget(f"cm cannot handle {type(report).__name__}")
        client_id = report.client_id
        try:
            status = self.cm.report_balance(report)
        except StaleProvenance as exc:
            self._alert("cm", AlertKind.STALE_PROVENANCE, (client_id,), str(exc))
            return
        except DeltaMoneyError as exc:
            self.emit("cm", "refuse", f"client={client_id} reason={exc}")
            return
        if not report.supply:
            self.emit("cm", "balance-report",
                      f"client={client_id} balance={report.new_balance} "
                      f"status={status}")
            return
        details = f"client={client_id} amount={abs(report.supply)}"
        if status != "applied":
            details += f" status={status}"
        self.emit("cm", "issued" if report.supply > 0 else "redeemed", details)

    def _handle_im(self, report) -> None:
        if type(report) is not TransactionReport:
            raise UnknownTarget(f"im cannot handle {type(report).__name__}")
        outcome = self.im.ingest_report(report, now=self.now)
        self.emit("im", "txn-report",
                  f"pair={self._pair_text(report.pair_key)} seq={report.pair_seq} "
                  f"reporter={report.reporter} status={outcome.status}")
        alert = outcome.alert
        if alert is not None:
            self._alert("im", alert.kind, alert.subjects, alert.evidence)

    # ------------------------------------------------------------------
    # scripted operations

    def enroll(self, client_id: int, limit: Optional[int] = None) -> None:
        limit = DEFAULT_LIMIT if limit is None else limit
        assigned = self.cm.enroll(timestamp=self.now)
        if assigned != client_id:
            raise UnknownTarget(
                f"enrollment order mismatch: wanted {client_id}, got {assigned}"
            )
        node = ClientNode(client_id, self.keystore, transaction_limit=limit)
        self.clients[client_id] = node
        self._add_actor(client_id)
        self.im.note_client(client_id)
        self.treasury.register_peer(client_id)
        node.register_peer(MANAGER_ID)
        key = pair_of(MANAGER_ID, client_id)
        self.registered_pairs[key] = str(key)
        self.emit("cm", "enroll", f"client={client_id} limit={limit}")

    def register(self, a: int, b: int) -> None:
        self.cm.register_pair(a, b)
        self.im.note_pair(a, b)
        self.clients[a].register_peer(b)
        self.clients[b].register_peer(a)
        key = pair_of(a, b)
        self.registered_pairs[key] = str(key)
        self.emit("cm", "register", f"pair={self.registered_pairs[key]}")

    def issue(self, client_id: int, amount: int) -> None:
        self._command(MANAGER_ID, client_id, amount)
        self.emit("sim", "issue-cmd", f"client={client_id} amount={amount}")

    def redeem(self, client_id: int, amount: int) -> None:
        self._command(client_id, MANAGER_ID, amount)
        self.emit("sim", "redeem-cmd", f"client={client_id} amount={amount}")

    def transfer(self, payer: int, payee: int, amount: int) -> None:
        self._command(payer, payee, amount)
        self.emit("sim", "transfer-cmd",
                  f"payer={payer} payee={payee} amount={amount}")

    def _command(self, payer: int, payee: int, amount: int) -> None:
        for client_id in (payer, payee):
            if client_id not in self.clients:
                raise UnknownTarget(f"client {client_id} is not enrolled")
        self._cmd_seq += 1
        self.send(self._client_actor(payer), "sim",
                  StartTransferCmd(payer, payee, amount, self._cmd_seq))

    def capture(self, epoch: int):
        mhtrs, pttrs = grid_roots({cid: node for cid, node in self.clients.items()
                                   if cid not in self.crashed})
        grid = self.im.capture_grid(epoch, mhtrs, pttrs)
        self.grids.append(grid)
        self.emit("im", "capture",
                  f"epoch={epoch} clients={list(grid.client_index)} "
                  f"grid={grid.grid_hash[:8].hex()}")
        return grid

    def recover(self, client_id: int) -> None:
        """Rebuild a crashed client from the pair data its partners hold.

        Only a crashed client is rebuilt: a live one may hold an exchange
        its partners have not appended yet, and rebuilding it from them
        would lose its side of that exchange, so that is refused.  Every
        partner must be up: a crashed one holds no records, so the
        rebuilt node would lack that pair and its balance.  Either
        refusal comes before the node is touched, and a crashed client
        stays crashed.
        """
        if client_id not in self.crashed:
            raise UnknownTarget(f"cannot recover client {client_id}: it is not crashed")
        node = self.clients[client_id]
        partners = sorted(
            other
            for key in self.registered_pairs
            if client_id in key
            for other in key
            if other != client_id
        )
        down = [p for p in partners if p in self.crashed]
        if down:
            raise PeerUnreachable(
                f"cannot recover client {client_id}: partners {down} are crashed"
            )
        data = [self.clients[p].export_recovery_data(client_id) for p in partners]
        node.recover_transactions(data, self.im.latest_validated.get)
        self.crashed.discard(client_id)
        self.emit(self._client_actor(client_id), "recover",
                  f"partners={partners} balance={node.balance} "
                  f"mhtr={node.mht.root()[:8].hex()}")

    def query(self, subject: int, pair, seq_lo: int, seq_hi: int) -> None:
        key = pair_of(*pair)
        grant = authorize(9000, subject, [key], enrolled=set(self.clients))
        attestation = self.im.attest_pttr(key)
        omit = frozenset(self.query_omissions.get((subject, key), ()))
        records, vo = query_transactions(
            grant, key, seq_lo, seq_hi, self.clients[subject], attestation,
            omit=omit,
        )
        latest = (self.im.latest_validated.get(key) or (None, None))[1]
        verdict = verify_vo(vo, self.keystore, latest)
        self.last_verdict = verdict
        self.emit("dataclient", "query",
                  f"subject={subject} pair={key} range=[{seq_lo},{seq_hi}] "
                  f"returned={len(records)} correct={verdict.correct} "
                  f"complete={verdict.complete} fresh={verdict.fresh}")

    # ------------------------------------------------------------------
    # fault injection

    def inject(self, kind: str, *args) -> None:
        """Inject the fault ``kind`` of ``FAULTS`` with its ``args``."""
        fault = FAULTS.get(kind)
        if fault is None:
            raise UnknownTarget(f"unknown fault kind {kind}")
        fault.inject(self, *args)
        self.emit("sim", "inject", f"kind={kind} args={list(args)}")

    def _fault_tamper_leaf(self, client_id: int, pair, index: int) -> None:
        key = pair_of(*pair)
        node = self.clients.get(client_id)
        if node is None or key not in node.ptts:
            raise UnknownTarget(f"client {client_id} has no pair {key}")
        if not 0 <= index < len(node.ptts[key].records):
            raise UnknownTarget(f"pair {key} has no leaf {index}")
        node.ptts[key].tamper_leaf(
            index, _junk(f"tamper:{client_id}:{key}:{index}", 232)
        )

    def _fault_double_spend(self, client_id: int, amount: int) -> None:
        if client_id not in self.clients:
            raise UnknownTarget(f"no client {client_id}")
        closed = self.cm.table.closed_provenances(client_id)
        if not closed:
            raise UnknownTarget(
                f"client {client_id} has no spent state to double spend from"
            )
        node = self.clients[client_id]
        forged = BalanceReport(
            client_id,
            node.balance + amount,
            _junk(f"ds-mhtr:{client_id}:{self.now}", 32),
            sorted(closed)[-1],
            _junk(f"ds-peer:{client_id}:{self.now}", 32),
            self.now,
        )
        self.send("cm", self._client_actor(client_id), forged, policy=True)

    def _fault_replay_report(self, pair) -> None:
        key = pair_of(*pair)
        latest = self.im.latest_validated.get(key)
        if latest is None:
            raise UnknownTarget(f"nothing validated yet for pair {key}")
        seq, root = latest
        forged = TransactionReport(
            key[0], key, seq, root,
            _junk(f"replay:{key}:{self.now}", 32), self.now,
        )
        self.send("im", self._client_actor(key[0]), forged, policy=True)

    def _fault_forge_balance(self, client_id: int, delta: int) -> None:
        if client_id not in self.clients or client_id == MANAGER_ID:
            raise UnknownTarget(f"no client {client_id}")
        self.cm.table.open_row(client_id).valid_balance += delta

    def _fault_crash_client(self, client_id: int) -> None:
        if client_id not in self.clients or client_id == MANAGER_ID:
            raise UnknownTarget(f"cannot crash {client_id}")
        self.clients[client_id].wipe()
        self.crashed.add(client_id)
        self.emit(self._client_actor(client_id), "crash", "")
        for cmd in self.outbox.pop(client_id, ()):
            self._give_up(self._client_actor(client_id), cmd, "crashed")

    def _fault_partition(self, ticks: int) -> None:
        if ticks < 1:
            raise UnknownTarget(f"a partition lasts at least 1 tick, got {ticks}")
        self.partitions.append((self.now, self.now + ticks))

    def _fault_omit_record(self, subject: int, pair, seq: int) -> None:
        key = pair_of(*pair)
        self.query_omissions.setdefault((subject, key), set()).add(seq)

    # ------------------------------------------------------------------
    # assertions

    def check(self, name: str, ok: bool, details: str) -> None:
        outcome = "pass" if ok else "FAIL"
        self.emit("assert", name, f"{outcome} {details}")
        if not ok:
            self.log.failures.append(f"{name}: {details}")

    def assert_balance(self, client_id: int, amount: int) -> None:
        actual = self.clients[client_id].balance
        self.check("balance", actual == amount,
                   f"client={client_id} want={amount} got={actual}")

    def assert_conservation(self, want_holds: bool) -> None:
        verdict = self.cm.check_conservation()
        self.check(
            "conservation", verdict.holds == want_holds,
            f"want={'holds' if want_holds else 'violated'} "
            f"expected={verdict.expected} actual={verdict.actual}",
        )

    def assert_alert(self, kind: str, count: int) -> None:
        actual = sum(1 for k, _, _ in self.alerts if k == kind)
        self.check("alert", actual == count,
                   f"kind={kind} want={count} got={actual}")

    def assert_no_alerts(self) -> None:
        self.check("no-alerts", not self.alerts, f"got={len(self.alerts)}")

    def assert_verdict(self, correct: bool, complete: bool,
                       fresh: bool) -> None:
        v = self.last_verdict
        ok = (v is not None and (v.correct, v.complete, v.fresh)
              == (correct, complete, fresh))
        got = None if v is None else (v.correct, v.complete, v.fresh)
        self.check("verdict", ok,
                   f"want=({correct},{complete},{fresh}) got={got}")


FAULTS = {
    "tamper-leaf": FaultKind(("HOLDER", "A:B", "INDEX"),
                             Simulation._fault_tamper_leaf),
    "double-spend": FaultKind(("CLIENT", "AMOUNT"), Simulation._fault_double_spend),
    "replay-report": FaultKind(("A:B",), Simulation._fault_replay_report),
    "forge-balance": FaultKind(("CLIENT", "DELTA"), Simulation._fault_forge_balance),
    "crash-client": FaultKind(("CLIENT",), Simulation._fault_crash_client),
    "partition-manager": FaultKind(("TICKS",), Simulation._fault_partition),
    "omit-record": FaultKind(("SUBJECT", "A:B", "SEQ"),
                             Simulation._fault_omit_record),
}
