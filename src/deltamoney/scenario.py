"""Line-oriented scenario files for driving the simulator.

One step per line; blank lines and ``#`` comments are skipped.  Pairs are
written ``A:B``.  The grammar:

    seed N                         default rng seed (one line, optional)
    clients N [LIMIT]              enroll clients 1..N
    register A B                   register the transacting pair (A, B)
    issue CLIENT AMOUNT            treasury issues AMOUNT to CLIENT
    redeem CLIENT AMOUNT           CLIENT redeems AMOUNT at the treasury
    transfer PAYER PAYEE AMOUNT    start one transfer
    policy normal                  manager reports arrive next tick
    policy delay N                 ... arrive N ticks late (N >= 0)
    policy duplicate               ... arrive twice
    policy random P_DELAY MAX P_DUP   seeded mix of delays and duplicates
                                   (probabilities in [0, 1], MAX >= 0)
    fault tamper-leaf HOLDER A:B INDEX
    fault double-spend CLIENT AMOUNT
    fault replay-report A:B
    fault forge-balance CLIENT DELTA
    fault crash-client CLIENT
    fault partition-manager TICKS
    fault omit-record SUBJECT A:B SEQ
    advance N                      run the clock forward N ticks
    quiesce                        run until no event remains
    capture EPOCH                  capture a Merkle hash grid
    recover CLIENT                 rebuild a crashed client from partners
    query SUBJECT A:B LO HI        data-client query with verification
    assert-balance CLIENT AMOUNT
    assert-conservation holds|violated
    assert-alert KIND COUNT
    assert-no-alerts
    assert-verdict T|F T|F T|F     (correct, complete, fresh)

Commands are scheduled, not executed, until an ``advance`` or ``quiesce``
runs the clock.  Each payer runs its transfers one at a time, in order.
A proposal that meets a busy payee is retried on a jittered backoff (4,
then up to 8, 16, 32 and 64 ticks; see ``deltamoney.sim``).  Each manager
report is sent once; ``partition-manager`` holds the reports that fall
due during it and delivers them when it ends.  A message dropped at a
crashed client is answered ``unreachable``, a crashed payer gives up its
transfers, and an acceptance reaching it once rebuilt is answered
``stale``.  ``advance`` keeps step timing
independent of the delivery policy, so scripts comparing final state
across policies should sequence exchanges with it and end on ``quiesce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ScenarioParseError
from .sim import DeliveryPolicy, Simulation

FAULT_ARITY = {
    "tamper-leaf": 3,
    "double-spend": 2,
    "replay-report": 1,
    "forge-balance": 2,
    "crash-client": 1,
    "partition-manager": 1,
    "omit-record": 3,
}


@dataclass(frozen=True)
class Step:
    lineno: int
    op: str
    args: tuple


@dataclass
class Scenario:
    steps: list = field(default_factory=list)
    seed: int = 0


def _fail(lineno: int, why: str) -> ScenarioParseError:
    return ScenarioParseError(f"line {lineno}: {why}")


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _fail(lineno, f"{what} must be an integer, got {token!r}") from None


def _float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise _fail(lineno, f"{what} must be a number, got {token!r}") from None


def _pair(token: str, lineno: int) -> tuple[int, int]:
    left, sep, right = token.partition(":")
    if not sep:
        raise _fail(lineno, f"pair must look like A:B, got {token!r}")
    return (_int(left, lineno, "pair member"), _int(right, lineno, "pair member"))


def _bool(token: str, lineno: int) -> bool:
    if token in ("T", "t", "true", "True"):
        return True
    if token in ("F", "f", "false", "False"):
        return False
    raise _fail(lineno, f"expected T or F, got {token!r}")


def _want(parts: list, count: int, lineno: int, usage: str) -> None:
    if len(parts) - 1 != count:
        raise _fail(lineno, f"usage: {usage}")


def _policy(parts: list, lineno: int) -> DeliveryPolicy:
    """The policy of one ``policy KIND [ARGS]`` line, checked as it is built."""
    kind = parts[1]
    try:
        if kind == "normal":
            _want(parts, 1, lineno, "policy normal")
            return DeliveryPolicy()
        if kind == "delay":
            _want(parts, 2, lineno, "policy delay N")
            return DeliveryPolicy("delay", delay=_int(parts[2], lineno, "delay"))
        if kind == "duplicate":
            _want(parts, 1, lineno, "policy duplicate")
            return DeliveryPolicy("duplicate")
        if kind == "random":
            _want(parts, 4, lineno, "policy random P_DELAY MAX_DELAY P_DUP")
            return DeliveryPolicy(
                "random",
                p_delay=_float(parts[2], lineno, "p_delay"),
                max_delay=_int(parts[3], lineno, "max_delay"),
                p_duplicate=_float(parts[4], lineno, "p_duplicate"),
            )
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None
    raise _fail(lineno, f"unknown policy {kind!r}")


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    seed_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0]
        if op == "seed":
            _want(parts, 1, lineno, "seed N")
            if seed_seen:
                raise _fail(lineno, "seed may only appear once")
            seed_seen = True
            scenario.seed = _int(parts[1], lineno, "seed")
        elif op == "clients":
            if len(parts) not in (2, 3):
                raise _fail(lineno, "usage: clients N [LIMIT]")
            count = _int(parts[1], lineno, "client count")
            if count < 1:
                raise _fail(lineno, "client count must be positive")
            limit = _int(parts[2], lineno, "limit") if len(parts) == 3 else None
            scenario.steps.append(Step(lineno, "clients", (count, limit)))
        elif op == "register":
            _want(parts, 2, lineno, "register A B")
            scenario.steps.append(Step(lineno, "register", (
                _int(parts[1], lineno, "client"), _int(parts[2], lineno, "client"),
            )))
        elif op in ("issue", "redeem"):
            _want(parts, 2, lineno, f"{op} CLIENT AMOUNT")
            scenario.steps.append(Step(lineno, op, (
                _int(parts[1], lineno, "client"), _int(parts[2], lineno, "amount"),
            )))
        elif op == "transfer":
            _want(parts, 3, lineno, "transfer PAYER PAYEE AMOUNT")
            scenario.steps.append(Step(lineno, "transfer", (
                _int(parts[1], lineno, "payer"), _int(parts[2], lineno, "payee"),
                _int(parts[3], lineno, "amount"),
            )))
        elif op == "policy":
            if len(parts) < 2:
                raise _fail(lineno, "usage: policy KIND [ARGS]")
            scenario.steps.append(Step(lineno, "policy", (_policy(parts, lineno),)))
        elif op == "fault":
            if len(parts) < 2:
                raise _fail(lineno, "usage: fault KIND [ARGS]")
            kind = parts[1]
            arity = FAULT_ARITY.get(kind)
            if arity is None:
                raise _fail(lineno, f"unknown fault {kind!r}")
            rest = parts[2:]
            if len(rest) != arity:
                raise _fail(lineno, f"fault {kind} takes {arity} argument(s)")
            if kind == "tamper-leaf":
                args = (_int(rest[0], lineno, "holder"), _pair(rest[1], lineno),
                        _int(rest[2], lineno, "leaf index"))
            elif kind in ("double-spend", "forge-balance"):
                args = (_int(rest[0], lineno, "client"),
                        _int(rest[1], lineno, "amount"))
            elif kind == "replay-report":
                args = (_pair(rest[0], lineno),)
            elif kind in ("crash-client", "partition-manager"):
                args = (_int(rest[0], lineno, "argument"),)
                if kind == "partition-manager" and args[0] < 1:
                    raise _fail(lineno, "a partition lasts at least 1 tick")
            else:  # omit-record
                args = (_int(rest[0], lineno, "subject"), _pair(rest[1], lineno),
                        _int(rest[2], lineno, "sequence"))
            scenario.steps.append(Step(lineno, "fault", (kind,) + args))
        elif op == "advance":
            _want(parts, 1, lineno, "advance N")
            ticks = _int(parts[1], lineno, "ticks")
            if ticks < 1:
                raise _fail(lineno, "advance must move forward")
            scenario.steps.append(Step(lineno, "advance", (ticks,)))
        elif op == "quiesce":
            _want(parts, 0, lineno, "quiesce")
            scenario.steps.append(Step(lineno, "quiesce", ()))
        elif op == "capture":
            _want(parts, 1, lineno, "capture EPOCH")
            scenario.steps.append(Step(lineno, "capture",
                                       (_int(parts[1], lineno, "epoch"),)))
        elif op == "recover":
            _want(parts, 1, lineno, "recover CLIENT")
            scenario.steps.append(Step(lineno, "recover",
                                       (_int(parts[1], lineno, "client"),)))
        elif op == "query":
            _want(parts, 4, lineno, "query SUBJECT A:B LO HI")
            scenario.steps.append(Step(lineno, "query", (
                _int(parts[1], lineno, "subject"), _pair(parts[2], lineno),
                _int(parts[3], lineno, "lo"), _int(parts[4], lineno, "hi"),
            )))
        elif op == "assert-balance":
            _want(parts, 2, lineno, "assert-balance CLIENT AMOUNT")
            scenario.steps.append(Step(lineno, "assert-balance", (
                _int(parts[1], lineno, "client"), _int(parts[2], lineno, "amount"),
            )))
        elif op == "assert-conservation":
            _want(parts, 1, lineno, "assert-conservation holds|violated")
            if parts[1] not in ("holds", "violated"):
                raise _fail(lineno, "expected holds or violated")
            scenario.steps.append(Step(lineno, "assert-conservation",
                                       (parts[1] == "holds",)))
        elif op == "assert-alert":
            _want(parts, 2, lineno, "assert-alert KIND COUNT")
            scenario.steps.append(Step(lineno, "assert-alert", (
                parts[1], _int(parts[2], lineno, "count"),
            )))
        elif op == "assert-no-alerts":
            _want(parts, 0, lineno, "assert-no-alerts")
            scenario.steps.append(Step(lineno, "assert-no-alerts", ()))
        elif op == "assert-verdict":
            _want(parts, 3, lineno, "assert-verdict T|F T|F T|F")
            scenario.steps.append(Step(lineno, "assert-verdict", (
                _bool(parts[1], lineno), _bool(parts[2], lineno),
                _bool(parts[3], lineno),
            )))
        else:
            raise _fail(lineno, f"unknown step {op!r}")
    return scenario


def run_scenario(scenario: Scenario, seed: Optional[int] = None,
                 scheme: str = "stub") -> Simulation:
    """Execute parsed steps against a fresh simulation and return it."""
    sim = Simulation(seed=scenario.seed if seed is None else seed, scheme=scheme)
    for step in scenario.steps:
        if step.op == "clients":
            count, limit = step.args
            for client_id in range(1, count + 1):
                sim.enroll(client_id, limit)
        elif step.op == "register":
            sim.register(*step.args)
        elif step.op == "issue":
            sim.issue(*step.args)
        elif step.op == "redeem":
            sim.redeem(*step.args)
        elif step.op == "transfer":
            sim.transfer(*step.args)
        elif step.op == "policy":
            sim.policy = step.args[0]
        elif step.op == "fault":
            sim.inject(*step.args)
        elif step.op == "advance":
            sim.advance(*step.args)
        elif step.op == "quiesce":
            sim.quiesce()
        elif step.op == "capture":
            sim.capture(*step.args)
        elif step.op == "recover":
            sim.recover(*step.args)
        elif step.op == "query":
            sim.query(*step.args)
        elif step.op == "assert-balance":
            sim.assert_balance(*step.args)
        elif step.op == "assert-conservation":
            sim.assert_conservation(*step.args)
        elif step.op == "assert-alert":
            sim.assert_alert(*step.args)
        elif step.op == "assert-no-alerts":
            sim.assert_no_alerts()
        elif step.op == "assert-verdict":
            sim.assert_verdict(*step.args)
    return sim
