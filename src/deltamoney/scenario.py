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
then up to 8, 16, 32 and 64 ticks; see ``deltamoney.client``).  Each manager
report is sent once; ``partition-manager`` holds the reports that fall
due during it and delivers them when it ends.  A message dropped at a
crashed client is answered ``unreachable``, a crashed payer gives up its
transfers, and an acceptance reaching it once rebuilt is answered
``stale``.  ``advance`` keeps step timing
independent of the delivery policy, so scripts comparing final state
across policies should sequence exchanges with it and end on ``quiesce``.

``STEPS`` holds one row per op: its usage line, its argument readers and
the ``Simulation`` method it runs; the parser and the runner both read
it.  The KINDs of ``fault`` and ``policy`` are the rows of
``deltamoney.sim.FAULTS`` and ``POLICIES``, which name their argument
words, and ``WORDS`` holds one reader per word.  So a new KIND is one row
in ``deltamoney.sim`` and no edit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .errors import ScenarioParseError
from .sim import FAULTS, POLICIES, DeliveryPolicy, Simulation


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


# a reader turns one argument token into its value, or fails citing the line
Reader = Callable[[str, int], object]


def _int(what: str, least: Optional[int] = None, why: str = "") -> Reader:
    """Reads an integer; one below ``least``, if given, fails with ``why``."""
    def read(token: str, lineno: int) -> int:
        try:
            value = int(token)
        except ValueError:
            raise _fail(lineno, f"{what} must be an integer, got {token!r}") from None
        if least is not None and value < least:
            raise _fail(lineno, why)
        return value
    return read


def _number(what: str) -> Reader:
    def read(token: str, lineno: int) -> float:
        try:
            return float(token)
        except ValueError:
            raise _fail(lineno, f"{what} must be a number, got {token!r}") from None
    return read


def _flag(yes: tuple, no: tuple, expected: str) -> Reader:
    """Reads True for a word of ``yes`` and False for one of ``no``."""
    def read(token: str, lineno: int) -> bool:
        if token in yes:
            return True
        if token in no:
            return False
        raise _fail(lineno, f"expected {expected}, got {token!r}")
    return read


_member = _int("pair member")


def _pair(token: str, lineno: int) -> tuple[int, int]:
    left, sep, right = token.partition(":")
    if not sep:
        raise _fail(lineno, f"pair must look like A:B, got {token!r}")
    return (_member(left, lineno), _member(right, lineno))


def _word(token: str, lineno: int) -> str:
    return token


_CLIENT, _AMOUNT = _int("client"), _int("amount")
_TF = _flag(("T", "t", "true", "True"), ("F", "f", "false", "False"), "T or F")


# the reader of each argument word of a fault or policy KIND
WORDS = {
    "HOLDER": _int("holder"), "A:B": _pair, "INDEX": _int("leaf index"),
    "CLIENT": _CLIENT, "AMOUNT": _AMOUNT, "DELTA": _int("delta"),
    "TICKS": _int("ticks", 1, "a partition lasts at least 1 tick"),
    "SUBJECT": _int("subject"), "SEQ": _int("sequence"),
    "N": _int("delay"), "P_DELAY": _number("p_delay"), "MAX": _int("max_delay"),
    "P_DUP": _number("p_duplicate"),
}


class Row(NamedTuple):
    """How one op is written and run."""

    usage: str  # its grammar line: the op, then one word per argument
    # one reader per argument, or for fault and policy the ``sim`` table
    # whose KIND rows name their argument words
    readers: Union[tuple, dict]
    run: Optional[Callable] = None  # runs the step's args on a Simulation
    # the step's args from the values read, its KIND first if it has one
    make: Callable = lambda *values: values


def _policy(kind: str, *values) -> tuple:
    """A policy step's args: the policy whose fields ``values`` set."""
    return (DeliveryPolicy(kind, **dict(zip(POLICIES[kind].args.values(), values))),)


def _enroll(sim: Simulation, count: int, limit: Optional[int]) -> None:
    for client_id in range(1, count + 1):
        sim.enroll(client_id, limit)


# every step but ``seed``, which sets ``Scenario.seed``, runs its ``run``
STEPS = {row.usage.split()[0]: row for row in [
    Row("seed N", (_int("seed"),)),
    Row("clients N [LIMIT]",
        (_int("client count", 1, "client count must be positive"), _int("limit")),
        _enroll, lambda count, limit=None: (count, limit)),
    Row("register A B", (_CLIENT, _CLIENT), Simulation.register),
    Row("issue CLIENT AMOUNT", (_CLIENT, _AMOUNT), Simulation.issue),
    Row("redeem CLIENT AMOUNT", (_CLIENT, _AMOUNT), Simulation.redeem),
    Row("transfer PAYER PAYEE AMOUNT", (_int("payer"), _int("payee"), _AMOUNT),
        Simulation.transfer),
    Row("policy KIND [ARGS]", POLICIES,
        lambda sim, policy: setattr(sim, "policy", policy), _policy),
    Row("fault KIND [ARGS]", FAULTS, Simulation.inject),
    Row("advance N", (_int("ticks", 1, "advance must move forward"),),
        Simulation.advance),
    Row("quiesce", (), Simulation.quiesce),
    Row("capture EPOCH", (_int("epoch"),), Simulation.capture),
    Row("recover CLIENT", (_CLIENT,), Simulation.recover),
    Row("query SUBJECT A:B LO HI",
        (_int("subject"), _pair, _int("lo"), _int("hi")), Simulation.query),
    Row("assert-balance CLIENT AMOUNT", (_CLIENT, _AMOUNT),
        Simulation.assert_balance),
    Row("assert-conservation holds|violated",
        (_flag(("holds",), ("violated",), "holds or violated"),),
        Simulation.assert_conservation),
    Row("assert-alert KIND COUNT", (_word, _int("count")), Simulation.assert_alert),
    Row("assert-no-alerts", (), Simulation.assert_no_alerts),
    Row("assert-verdict T|F T|F T|F", (_TF, _TF, _TF), Simulation.assert_verdict),
]}


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    seed_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        op, tokens = words[0], words[1:]
        row = STEPS.get(op)
        if row is None:
            raise _fail(lineno, f"unknown step {op!r}")
        head, readers = (), row.readers
        if isinstance(readers, dict):  # the first token picks the KIND's row
            if not tokens:
                raise _fail(lineno, f"usage: {row.usage}")
            head, tokens = tokens[:1], tokens[1:]
            kind = readers.get(head[0])
            if kind is None:
                raise _fail(lineno, f"unknown {op} {head[0]!r}")
            readers = [WORDS[word] for word in kind.args]
        if op == "clients" and len(tokens) == 1:
            readers = readers[:1]  # LIMIT left out
        if len(tokens) != len(readers):
            raise _fail(lineno, f"{op} {head[0]} takes {len(readers)} argument(s)"
                        if head else f"usage: {row.usage}")
        values = [read(token, lineno) for read, token in zip(readers, tokens)]
        if op == "seed":
            if seed_seen:
                raise _fail(lineno, "seed may only appear once")
            seed_seen = True
            scenario.seed = values[0]
            continue
        try:
            args = row.make(*head, *values)
        except ValueError as exc:  # a policy checks its fields as it is built
            raise _fail(lineno, str(exc)) from None
        scenario.steps.append(Step(lineno, op, args))
    return scenario


def run_scenario(scenario: Scenario, seed: Optional[int] = None,
                 scheme: str = "stub") -> Simulation:
    """Execute parsed steps against a fresh simulation and return it."""
    sim = Simulation(seed=scenario.seed if seed is None else seed, scheme=scheme)
    for step in scenario.steps:
        STEPS[step.op].run(sim, *step.args)
    return sim
