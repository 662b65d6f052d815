"""Deterministic discrete-event simulation of the whole system.

Actors (currency clients, the treasury, the Currency Manager, the
Integrity Manager) are isolated state machines exchanging typed messages
through a single event queue ordered by (tick, insertion order).
``step`` delivers one event, and ``steps`` counts them.  The clock jumps
straight to the next event, stopping on the way only at ticks where an
Integrity Manager reporting deadline falls due, so idle ticks cost
nothing.  With a fixed seed the run is fully deterministic: same
scenario, same log, byte for byte.

The three-message transfer handshake travels the peer channel: a peer
message lands next tick, the answer for a crashed peer (below) on this
one, and a busy payer's retry after its ``retry_delay``.  Manager
traffic (transaction reports for the Integrity Manager, and the balance
reports of transfers, issuances and redemptions for the Currency
Manager) goes through the configurable delivery policy, which may delay
or duplicate.  Each report is sent once and is never lost: one that
falls due while the managers are partitioned is held until the
partition ends (see ``_deliver``), as a retransmitting transport would
deliver it, and both managers drop a repeat by its content, field by
field.  So a sender keeps no state for its reports and nothing
acknowledges them.

Every actor, a client node and both managers alike, runs its own side of
the protocol: its ``handle`` returns an outbox of sends, log lines and
alerts, which the simulation delivers, logs and records.  A report either
manager refuses is logged as ``cm|refuse`` or ``im|refuse``, and the run
goes on.  A handshake message is lost only at a crashed client; the
transport hands the drop to ``client.answer_unreachable`` and sends its
answer on that tick, as a refused connection would: a proposal gets a
reject, an acceptance an abort, both ``reason=unreachable``, and a
command a ``give-up``, ``reason=crashed``.  A queue entry's unique
insertion number keeps the heap from ever comparing two messages.

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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .client import (
    ClientNode,
    DEFAULT_LIMIT,
    StartTransferCmd,
    TREASURY_RESERVE,
    answer_unreachable,
)
from .currency_manager import MANAGER_ID, BalanceReport, CurrencyManager
from .data_client import authorize, query_transactions, verify_vo
from .encoding import pair_of, pair_text
from .errors import PeerUnreachable, StepLimitExceeded, UnknownTarget
from .hashing import KeyStore
from .integrity_manager import Alert, IntegrityManager, TransactionReport

IM_SIGNER = 10_000


@dataclass(frozen=True)
class DeliveryPolicy:
    """How manager-bound messages travel; peer messages never meet it.

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
        self._managers = {"cm": self.cm, "im": self.im}
        # actor -> its name in log lines, formatted once per client
        self._actor_names: dict = {MANAGER_ID: f"client:{MANAGER_ID}",
                                   "cm": "cm", "im": "im"}
        self.registered_pairs: set[tuple[int, int]] = set()
        self.crashed: set = set()
        self.alerts: list = []  # (kind name, subjects tuple, tick)
        self.partition_end = 0  # managers are unreachable before this tick
        self.query_omissions: dict = {}  # (subject, pair) -> set of seqs
        self.last_verdict = None
        self.grids: list = []

    # ------------------------------------------------------------------
    # plumbing

    def emit(self, actor: str, event: str, details: str = "") -> None:
        self.log.lines.append(f"{self.now}|{actor}|{event}|{details}")

    def send(self, target, sender, message,
             delay: Optional[int] = 1) -> None:
        """Queue ``message`` for delivery ``delay`` ticks from now.

        ``target`` and ``sender`` are each a client id or a name (``"cm"``,
        ``"im"``, ``"sim"``).  A ``delay`` of None takes the offsets of the
        delivery policy's row in ``POLICIES``, one event for each.
        """
        offsets = ([delay] if delay is not None
                   else POLICIES[self.policy.kind].offsets(self.policy, self.rng))
        for offset in offsets:
            self._seq += 1
            heapq.heappush(self.queue, (self.now + offset, self._seq,
                                        target, sender, message))

    def _alert(self, actor: str, alert: Alert) -> None:
        """Record an alert raised now, and log it."""
        kind = alert.kind.value
        self.alerts.append((kind, alert.subjects, self.now))
        self.emit(actor, "alert", f"kind={kind} subjects={list(alert.subjects)} "
                  f"evidence={alert.evidence}")

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
                self._alert("im", alert)

    def step(self) -> None:
        """Deliver the earliest queued event: move the clock to its tick,
        count it against ``step_limit`` and hand it to its target.  The
        limit is checked before the pop, so a caught limit loses no event."""
        if self.steps >= self.step_limit:
            raise StepLimitExceeded(
                f"reached {self.step_limit} events at tick {self.now}")
        tick, _, target, sender, message = heapq.heappop(self.queue)
        if tick > self.now:
            self._advance_time_to(tick)
        self.steps += 1
        self._deliver(target, sender, message)

    def run_until(self, target_tick: Optional[int]) -> None:
        """Deliver events up to target_tick; None means drain everything."""
        queue, step = self.queue, self.step
        while queue and (target_tick is None or queue[0][0] <= target_tick):
            step()
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

    def _deliver(self, target, sender, message) -> None:
        """Hand ``message`` to its target, a client node or a manager, and
        act on the outbox its ``handle`` returns; a manager logs a report
        it refuses instead of raising.

        A message for a manager that falls due before ``partition_end``,
        the latest end injected so far, is held: every partition begins on
        the tick it is injected, so the one that ends last covers this tick.
        The message is queued again for that tick, and logged ``net|hold``.
        So a partition delays a report but never loses it.

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
        actor = self.clients.get(target)
        if actor is None:
            actor = self._managers.get(target)
            if actor is None:
                raise UnknownTarget(f"no actor {target}")
            end = self.partition_end
            if end > self.now:
                self.emit("net", "hold", f"target={target} until={end}")
                self.send(target, sender, message, delay=end - self.now)
                return
        elif target in self.crashed:
            self.emit("net", "drop",
                      f"target={self._actor_names[target]} reason=crashed")
            self._act(target, answer_unreachable(sender, message))
            return
        self._act(target, actor.handle(sender, message, self.now))

    def _act(self, actor_id, out: list) -> None:
        """Act on an outbox in order: a pair is a log line, a triple a send
        (see ``ClientNode.handle``), anything else an ``Alert``."""
        actor = self._actor_names[actor_id]
        for entry in out:
            size = len(entry)
            if size == 2:
                self.emit(actor, entry[0], entry[1])
            elif size == 3:
                target, message, delay = entry
                self.send(target, actor_id, message, delay)
            else:
                self._alert(actor, entry)

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
        self._actor_names[client_id] = f"client:{client_id}"
        self.im.note_client(client_id)
        self.treasury.register_peer(client_id)
        node.register_peer(MANAGER_ID)
        self.registered_pairs.add(pair_of(MANAGER_ID, client_id))
        self.emit("cm", "enroll", f"client={client_id} limit={limit}")

    def register(self, a: int, b: int) -> None:
        self.cm.register_pair(a, b)
        self.im.note_pair(a, b)
        self.clients[a].register_peer(b)
        self.clients[b].register_peer(a)
        key = pair_of(a, b)
        self.registered_pairs.add(key)
        self.emit("cm", "register", f"pair={pair_text(key)}")

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
        self.send(payer, "sim",
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
        self.emit(self._actor_names[client_id], "recover",
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
        node.ptts[key].tree.replace_leaf(
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
        self.send("cm", client_id, forged, None)

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
        self.send("im", key[0], forged, None)

    def _fault_forge_balance(self, client_id: int, delta: int) -> None:
        if client_id not in self.clients or client_id == MANAGER_ID:
            raise UnknownTarget(f"no client {client_id}")
        self.cm.table.open_row(client_id).valid_balance += delta

    def _fault_crash_client(self, client_id: int) -> None:
        if client_id not in self.clients or client_id == MANAGER_ID:
            raise UnknownTarget(f"cannot crash {client_id}")
        gave_up = self.clients[client_id].wipe()
        self.crashed.add(client_id)
        self.emit(self._actor_names[client_id], "crash", "")
        self._act(client_id, gave_up)

    def _fault_partition(self, ticks: int) -> None:
        if ticks < 1:
            raise UnknownTarget(f"a partition lasts at least 1 tick, got {ticks}")
        self.partition_end = max(self.partition_end, self.now + ticks)

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
