"""Transfer outcomes and correctness checks read from a simulation.

Every transfer the benchmark requests carries an amount unique within its
episode, so its fate can be followed through the simulation's event log
(``tick|actor|event|details`` lines) without touching the program:

* ``propose`` by the payer opens an exchange on a pair;
* ``commit`` by the payer settles it (``commit_tick``);
* ``abort`` by the payer, a non-busy ``reject`` by the payee, or a
  ``refuse`` at the payer ends it without money moving;
* ``give-up`` ends it after the busy-retry budget ran out;
* the Integrity Manager's ``txn-report ... status=validated`` line for the
  committed ``(pair, seq)`` marks it settled (``settle_tick``).

A requested transfer with no outcome, or with two, fails the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

_LINE = re.compile(r"^(\d+)\|([^|]*)\|([^|]*)\|(.*)$")
_PAIR = re.compile(r"pair=\((\d+), (\d+)\)")
_SEQ = re.compile(r"seq=(\d+)")
_AMOUNT = re.compile(r"amount=(\d+)")
_REASON = re.compile(r"reason=(\S+)")

OUTCOMES = ("committed", "aborted", "refused", "gave_up")


@dataclass
class Request:
    payer: int
    payee: int
    amount: int
    due_tick: int
    outcome: Optional[str] = None
    commit_tick: Optional[int] = None
    settle_tick: Optional[int] = None
    duplicate_outcome: bool = False


@dataclass
class Ledger:
    """Requests of one episode and what the event log says became of them."""

    requests: dict = field(default_factory=dict)  # amount -> Request
    report_give_ups: int = 0

    def request(self, payer: int, payee: int, amount: int, due_tick: int) -> None:
        if amount in self.requests:
            raise ValueError(f"amount {amount} requested twice in one episode")
        self.requests[amount] = Request(payer, payee, amount, due_tick)

    def _settle(self, amount: Optional[int], outcome: str, tick: int) -> None:
        req = self.requests.get(amount)
        if req is None:
            return
        if req.outcome is not None:
            req.duplicate_outcome = True
            return
        req.outcome = outcome
        if outcome == "committed":
            req.commit_tick = tick

    def read_log(self, lines) -> None:
        """Match log lines to requests; ``lines`` start after set-up."""
        inflight: dict = {}  # pair -> {payer: amount}
        committed_at: dict = {}  # (pair, seq) -> amount
        for line in lines:
            m = _LINE.match(line)
            if m is None:
                continue
            tick, actor, event, details = int(m[1]), m[2], m[3], m[4]
            if event == "txn-report":
                if details.endswith("status=validated"):
                    amount = committed_at.get((_pair(details), _seq(details)))
                    req = self.requests.get(amount)
                    if req is not None and req.settle_tick is None:
                        req.settle_tick = tick
                continue
            if not actor.startswith("client:"):
                continue
            me = int(actor[7:])
            if event == "propose":
                amount = int(_AMOUNT.search(details)[1])
                inflight.setdefault(_pair(details), {})[me] = amount
            elif event in ("commit", "abort"):
                pair = _pair(details)
                amount = inflight.get(pair, {}).pop(me, None)
                if amount is None:
                    continue  # the payee's side of the same exchange
                if event == "commit":
                    committed_at[(pair, _seq(details))] = amount
                    self._settle(amount, "committed", tick)
                else:
                    self._settle(amount, "aborted", tick)
            elif event == "reject":
                pair = _pair(details)
                payer = pair[0] if pair[1] == me else pair[1]
                amount = inflight.get(pair, {}).pop(payer, None)
                if _REASON.search(details)[1] != "busy":
                    self._settle(amount, "refused", tick)
            elif event == "refuse" and details.startswith("payee="):
                self._settle(int(_AMOUNT.search(details)[1]), "refused", tick)
            elif event == "give-up":
                if details.startswith("report="):
                    self.report_give_ups += 1
                else:
                    self._settle(int(_AMOUNT.search(details)[1]), "gave_up", tick)

    def counts(self) -> dict:
        out = {name: 0 for name in OUTCOMES}
        for req in self.requests.values():
            if req.outcome is not None:
                out[req.outcome] += 1
        return out

    def committed(self) -> list:
        return [r for r in self.requests.values() if r.outcome == "committed"]


def _pair(details: str) -> tuple:
    m = _PAIR.search(details)
    return (int(m[1]), int(m[2]))


def _seq(details: str) -> int:
    return int(_SEQ.search(details)[1])


def check_episode(sim, ledger: Ledger, model: dict) -> list:
    """Correctness failures of a quiesced episode; empty means it passed.

    ``model`` maps each client to the balance the benchmark expects from
    the transfers the log reports as committed.
    """
    failures = []
    verdict = sim.cm.check_conservation()
    if not verdict.holds:
        failures.append(
            f"conservation: expected {verdict.expected}, actual {verdict.actual}"
        )
    if sim.alerts:
        failures.append(f"alerts: {len(sim.alerts)}, first {sim.alerts[0]}")
    if ledger.report_give_ups:
        failures.append(f"report give-ups: {ledger.report_give_ups}")
    for key in sorted(sim.registered_pairs):
        a, b = (sim.clients[c].ptts.get(key) for c in key)
        if a is None or b is None or a.root() != b.root():
            failures.append(f"replica roots differ on pair {key}")
            continue
        validated = sim.im.latest_validated.get(key)
        if 0 not in key and a.last_seq and (
                validated is None or validated != (a.last_seq, a.root())):
            failures.append(f"pair {key}: validated root lags the replicas")
    counts = ledger.counts()
    requested = len(ledger.requests)
    if sum(counts.values()) != requested:
        failures.append(
            f"outcomes: {requested} requested but {counts} accounted for"
        )
    if any(r.duplicate_outcome for r in ledger.requests.values()):
        failures.append("outcomes: a transfer ended twice")
    for req in ledger.committed():
        model[req.payer] -= req.amount
        model[req.payee] += req.amount
    for client_id, want in sorted(model.items()):
        node = sim.clients[client_id]
        row = sim.cm.table.open_row(client_id)
        if node.balance != want or row.valid_balance != want:
            failures.append(
                f"client {client_id}: expected balance {want}, client holds "
                f"{node.balance}, manager holds {row.valid_balance}"
            )
    return failures
