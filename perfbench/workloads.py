"""The three seeded workloads, each run as fixed-size episodes.

An episode builds a fresh ``Simulation`` (its set-up), runs a fixed
amount of timed work, drains the queue and checks the result.  Inputs
come only from ``(workload, seed)``, so a seed names the same inputs on
every commit, and every episode of one seed does identical work.  The
timed phase is cut into fixed chunks of work (``Episode.chunk_s``), so
the same chunk can be compared across repeated episodes.

* ``long_pair`` -- 2 clients, one pair, a closed loop of transfers in a
  random direction, each followed by a fixed ``advance`` long enough for
  both manager reports to land.  Isolates how a transfer's cost grows
  with the pair's history: no contention, no reads.
* ``busy_mesh`` -- 48 clients on ring-plus-chord pairs, an open loop of
  transfers arriving at seeded times at a fixed rate below one per tick,
  reports delivered with random small delays and duplicates.  Each pair
  pays in one direction, set by a seeded ranking of the clients, so a
  payer waits only on a payee ranked above it and busy rejections cannot
  form a cycle.  Exercises conflicts, busy retries, event dispatch,
  report retry and dedup, and Currency Manager parking over many short
  pair trees.
* ``audit_mix`` -- 4 clients on 4 pairs with a history built in set-up,
  then a closed loop mixing writes, transaction-inclusion queries,
  balance-history range queries and, spaced evenly, a crash and recovery.
  A write advances until both of its manager reports have landed, and
  the auditors pause a random 0-4 ticks before each operation.  Every
  verification object is serialised, parsed and checked by ``verify_vo``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import blake2b, sha256
from heapq import heappop, heappush
from time import perf_counter

from deltamoney import data_client
from deltamoney.sim import DeliveryPolicy, Simulation

from ledger import Ledger, check_episode

FUNDS = 10**12
STEP_LIMIT = 10**9
SETTLE_TICKS = 10  # a transfer and both of its reports land within this

LONG_PAIR_TRANSFERS = 2000
LONG_PAIR_CHUNK = 20  # transfers per timed chunk

MESH_CLIENTS = 48
MESH_TRANSFERS = 1100
MESH_RATE = 0.75  # offered transfers per tick
MESH_POLICY = DeliveryPolicy("random", p_delay=0.2, max_delay=3, p_duplicate=0.1)
MESH_CHUNK = 10  # ticks per timed chunk

AUDIT_CLIENTS = 4
AUDIT_HISTORY = 1200
AUDIT_HISTORY_CHUNK = 20  # set-up transfers per timed chunk
AUDIT_OPS = {"write": 480, "txn_query": 240, "balance_query": 120}
AUDIT_RECOVERIES = 6  # evenly spaced, cycling through the clients
AUDIT_CHUNK = 10  # operations per timed chunk
AUDIT_PAUSE_MAX = 4  # auditor pause before each operation, in ticks
AUDIT_TXN_WINDOW = 16  # sequence numbers per inclusion query
AUDIT_BALANCE_SPAN = 400  # ticks of history per balance range query
DATA_CLIENT_ID = 9000
YARDSTICK_EVENTS = 240


class _NoTrace:
    def installed(self):
        return nullcontext()

    def operation(self, kind):
        return nullcontext()

    def sample(self, simulation):
        pass


NO_TRACE = _NoTrace()


@dataclass
class Episode:
    """What one episode measured and whether its result was correct."""

    wall_s: float = 0.0
    setup_chunk_s: list = field(default_factory=list)  # set-up, in fixed chunks
    chunk_s: list = field(default_factory=list)  # timed phase, in fixed chunks
    yardstick_s: list = field(default_factory=list)  # one after each chunk
    log_digest: str = ""  # of the event log lines the timed phase wrote
    transfer_ms: list = field(default_factory=list)  # in request order
    query_ms: list = field(default_factory=list)
    recover_ms: list = field(default_factory=list)
    commit_ticks: list = field(default_factory=list)  # due tick to payer commit
    settle_ticks: list = field(default_factory=list)  # due tick to IM validation
    outcomes: dict = field(default_factory=dict)
    requested: int = 0
    queries: int = 0
    false_verdicts: int = 0
    recoveries: int = 0
    vo_bytes: int = 0
    sim_events: int = 0
    cm_rows: int = 0
    failures: list = field(default_factory=list)

    @property
    def committed(self) -> int:
        return self.outcomes["committed"]

    @property
    def attempted(self) -> int:
        return self.requested + self.queries + self.recoveries

    @property
    def failed(self) -> int:
        """Transfers that did not commit plus false verdicts on honest subjects."""
        return self.requested - self.committed + self.false_verdicts


def _amount(index: int, rng: random.Random) -> int:
    """Unique within an episode, so the event log identifies the transfer."""
    return 1000 * (index + 1) + rng.randrange(1000)


def _funded(seed: int, clients: int, pairs) -> Simulation:
    sim = Simulation(seed=seed, step_limit=STEP_LIMIT)
    for client_id in range(1, clients + 1):
        sim.enroll(client_id)
    for a, b in pairs:
        sim.register(a, b)
    for client_id in range(1, clients + 1):
        sim.issue(client_id, FUNDS)
        sim.advance(SETTLE_TICKS)
    return sim


def _write(sim, ledger: Ledger, latencies: list, payer: int, payee: int,
           amount: int, ticks: int) -> None:
    """One closed-loop transfer: request it, then advance a fixed span."""
    ledger.request(payer, payee, amount, sim.now + 1)
    start = perf_counter()
    sim.transfer(payer, payee, amount)
    sim.advance(ticks)
    latencies.append((perf_counter() - start) * 1e3)


def yardstick() -> float:
    """Seconds taken by a fixed piece of Python work that no commit changes.

    It is timed after every chunk, so the run can tell how fast the host
    was while the chunks ran.  Like the program, it pushes and pops an
    event heap, formats records, hashes them and files them in dicts.
    ``sha256`` is bound at import, so the tracer's counter never sees it.
    """
    start = perf_counter()
    heap, books = [], {}
    for i in range(YARDSTICK_EVENTS):
        heappush(heap, ((i * 7919) % 97, i))
    while heap:
        tick, i = heappop(heap)
        digest = sha256(f"{tick}|client:{i % 48}|commit|seq={i}".encode()).digest()
        books.setdefault(i % 16, []).append((tick, digest))
    return perf_counter() - start


class _Clock:
    """Times a phase in chunks, with the yardstick run between chunks.

    ``elapsed`` leaves out the time the yardstick took.
    """

    def __init__(self) -> None:
        self.chunk_s: list = []
        self.yardstick_s: list = []
        self.excluded = 0.0
        self.last = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.excluded

    def mark(self) -> None:
        """Close the current chunk; the last mark closes the phase."""
        now = perf_counter()
        self.chunk_s.append(now - self.last)
        self.yardstick_s.append(yardstick())
        self.last = perf_counter()
        self.excluded += self.last - now


def _record(ep: Episode, setup: _Clock, timed: _Clock) -> None:
    ep.setup_chunk_s = setup.chunk_s
    ep.wall_s, ep.chunk_s = sum(timed.chunk_s), timed.chunk_s
    ep.yardstick_s = setup.yardstick_s + timed.yardstick_s


def _finish(sim, ep: Episode, ledger: Ledger, mark: int, steps: int,
            model: dict) -> Episode:
    """Read the outcomes of a drained episode from the log and check them."""
    ep.sim_events = sim.steps - steps
    ep.cm_rows = len(sim.cm.table.rows)
    lines = sim.log.lines[mark:]
    ep.log_digest = blake2b("\n".join(lines).encode()).hexdigest()
    ledger.read_log(lines)
    ep.failures = check_episode(sim, ledger, model)
    ep.outcomes = ledger.counts()
    ep.requested = len(ledger.requests)
    committed = ledger.committed()
    ep.commit_ticks = [r.commit_tick - r.due_tick for r in committed]
    ep.settle_ticks = [r.settle_tick - r.due_tick for r in committed
                       if r.settle_tick is not None]
    return ep


def _balances(sim) -> dict:
    return {c: node.balance for c, node in sim.clients.items() if c != 0}


def long_pair(rng: random.Random, sim_seed: int, tracer=NO_TRACE) -> Episode:
    ep = Episode()
    setup = _Clock()
    sim = _funded(sim_seed, 2, [(1, 2)])
    sim.quiesce()
    setup.mark()
    mark, steps, model, ledger = len(sim.log.lines), sim.steps, _balances(sim), Ledger()
    clock = _Clock()
    with tracer.installed():
        for index in range(LONG_PAIR_TRANSFERS):
            payer = rng.choice((1, 2))
            with tracer.operation("transfer"):
                _write(sim, ledger, ep.transfer_ms, payer, 3 - payer,
                       _amount(index, rng), SETTLE_TICKS)
                tracer.sample(sim)
            if (index + 1) % LONG_PAIR_CHUNK == 0:
                clock.mark()
        sim.quiesce()
    clock.mark()
    _record(ep, setup, clock)
    return _finish(sim, ep, ledger, mark, steps, model)


def ring_pairs(clients: int) -> list:
    return sorted({tuple(sorted((c, c % clients + 1))) for c in range(1, clients + 1)})


def mesh_pairs(clients: int) -> list:
    """The ring plus a chord from each client to the one opposite it."""
    half = clients // 2
    return sorted(set(ring_pairs(clients)) | {(c, c + half) for c in range(1, half + 1)})


def busy_mesh(rng: random.Random, sim_seed: int, tracer=NO_TRACE) -> Episode:
    ep = Episode()
    pairs = mesh_pairs(MESH_CLIENTS)
    setup = _Clock()
    sim = _funded(sim_seed, MESH_CLIENTS, pairs)
    sim.quiesce()
    sim.policy = MESH_POLICY
    setup.mark()
    mark, steps, model = len(sim.log.lines), sim.steps, _balances(sim)

    ranking = list(range(1, MESH_CLIENTS + 1))
    rng.shuffle(ranking)
    rank = {client_id: position for position, client_id in enumerate(ranking)}
    arrivals, due_at = [], 0.0
    for index in range(MESH_TRANSFERS):
        due_at += rng.expovariate(MESH_RATE)
        payer, payee = sorted(rng.choice(pairs), key=rank.__getitem__)
        arrivals.append((sim.now + 1 + int(due_at), payer, payee, _amount(index, rng)))

    ledger, tick_wall = Ledger(), {}  # tick -> (start, end) seconds
    clock = _Clock()
    pending = 0
    with tracer.installed():
        while pending < len(arrivals) or sim.queue:
            with tracer.operation("tick"):
                tick_start = clock.elapsed()
                due = sim.now + 1
                while pending < len(arrivals) and arrivals[pending][0] == due:
                    _, payer, payee, amount = arrivals[pending]
                    ledger.request(payer, payee, amount, due)
                    sim.transfer(payer, payee, amount)
                    pending += 1
                sim.advance(1)
                tick_wall[due] = (tick_start, clock.elapsed())
                tracer.sample(sim)
            if due % MESH_CHUNK == 0:
                clock.mark()
    clock.mark()
    _record(ep, setup, clock)
    _finish(sim, ep, ledger, mark, steps, model)
    # open loop: a transfer waits from the start of its due tick
    ep.transfer_ms = [
        (tick_wall[r.commit_tick][1] - tick_wall[r.due_tick][0]) * 1e3
        for r in ledger.committed()
    ]
    return ep


def audit_mix(rng: random.Random, sim_seed: int, tracer=NO_TRACE) -> Episode:
    ep = Episode()
    pairs = ring_pairs(AUDIT_CLIENTS)
    setup = _Clock()
    sim = _funded(sim_seed, AUDIT_CLIENTS, pairs)
    for index in range(AUDIT_HISTORY):
        payer, payee = pairs[index % len(pairs)]
        if rng.random() < 0.5:
            payer, payee = payee, payer
        sim.transfer(payer, payee, _amount(index, rng))
        sim.advance(SETTLE_TICKS)
        if (index + 1) % AUDIT_HISTORY_CHUNK == 0:
            setup.mark()
    sim.quiesce()
    setup.mark()
    mark, steps, model, ledger = len(sim.log.lines), sim.steps, _balances(sim), Ledger()

    ops = [op for op, count in AUDIT_OPS.items() for _ in range(count)]
    rng.shuffle(ops)
    schedule, spacing = [], len(ops) // AUDIT_RECOVERIES
    for index, op in enumerate(ops):
        schedule.append(op)
        if (index + 1) % spacing == 0:
            schedule.append("recover")
    recovered = 0
    clock = _Clock()
    with tracer.installed():
        for index, op in enumerate(schedule):
            with tracer.operation(op):
                sim.advance(rng.randint(0, AUDIT_PAUSE_MAX))
                if op == "write":
                    payer, payee = rng.choice(pairs)
                    if rng.random() < 0.5:
                        payer, payee = payee, payer
                    _write(sim, ledger, ep.transfer_ms, payer, payee,
                           _amount(index, rng), SETTLE_TICKS)
                elif op == "txn_query":
                    _txn_query(sim, ep, rng.choice(pairs), rng)
                elif op == "balance_query":
                    _balance_query(sim, ep, rng.randint(1, AUDIT_CLIENTS), rng)
                else:
                    recovered += 1
                    _recover(sim, ep, 1 + recovered % AUDIT_CLIENTS)
                tracer.sample(sim)
            if (index + 1) % AUDIT_CHUNK == 0:
                clock.mark()
        sim.quiesce()
    clock.mark()
    _record(ep, setup, clock)
    return _finish(sim, ep, ledger, mark, steps, model)


def _verify(sim, ep: Episode, vo, latest, started: float) -> None:
    blob = vo.to_bytes()
    verdict = data_client.verify_vo(data_client.parse_vo(blob), sim.keystore, latest)
    ep.query_ms.append((perf_counter() - started) * 1e3)
    ep.queries += 1
    ep.vo_bytes += len(blob)
    if not verdict:  # every subject is honest, so anything short of all-true is false
        ep.false_verdicts += 1


def _txn_query(sim, ep: Episode, pair, rng: random.Random) -> None:
    subject = sim.clients[rng.choice(pair)]
    hi = subject.ptts[pair].last_seq
    lo = max(1, hi - rng.randrange(AUDIT_TXN_WINDOW))
    started = perf_counter()
    grant = data_client.authorize(DATA_CLIENT_ID, subject.id, [pair],
                                  enrolled=set(sim.clients))
    _, vo = data_client.query_transactions(
        grant, pair, lo, hi, subject, sim.im.attest_pttr(pair))
    _verify(sim, ep, vo, sim.im.latest_validated[pair][1], started)


def _balance_query(sim, ep: Episode, subject_id: int, rng: random.Random) -> None:
    subject = sim.clients[subject_id]
    lo = max(0, sim.now - rng.randint(1, AUDIT_BALANCE_SPAN))
    started = perf_counter()
    grant = data_client.authorize(DATA_CLIENT_ID, subject_id, [],
                                  enrolled=set(sim.clients), balance=True)
    attestation = sim.cm.attest_mhtr(subject_id)
    _, vo = data_client.query_balance_history(
        grant, (lo, 0), (sim.now, 2**62), subject, attestation)
    _verify(sim, ep, vo, attestation.mhtr, started)


def _recover(sim, ep: Episode, client_id: int) -> None:
    sim.quiesce()
    sim.inject("crash-client", client_id)
    started = perf_counter()
    sim.recover(client_id)
    ep.recover_ms.append((perf_counter() - started) * 1e3)
    ep.recoveries += 1


WORKLOADS = {"long_pair": long_pair, "busy_mesh": busy_mesh, "audit_mix": audit_mix}
