"""Both managers drop a repeated report by its content, as a SHA-256 did.

The Integrity Manager (IM) and the Currency Manager (CM) once kept a
SHA-256 fingerprint of every report they received, packed from the
report's fields, and dropped a report whose fingerprint they had seen.
``FingerprintIM`` and ``FingerprintCM`` keep that rule in front of the
managers' own paths, with the fingerprints rebuilt one field at a time
below; seeded streams of repeats, crossed and re-sent reports, replays,
aborts, parks, stale and refused reports then drive each manager beside
its reference, and every outcome, alert and CM row must agree at every
step.  The streams keep to reports those fingerprints encode faithfully:
u64 fields and 32-byte digests.
"""

import gc
import hashlib
import random
import types
from collections import Counter

import pytest

from deltamoney.currency_manager import BalanceReport, CurrencyManager
from deltamoney.encoding import u64
from deltamoney.errors import DeltaMoneyError
from deltamoney.hashing import EMPTY_TREE_DIGEST, KeyStore
from deltamoney.integrity_manager import (
    AlertKind,
    IntegrityManager,
    TransactionReport,
    ValidationOutcome,
)
from deltamoney.sim import DeliveryPolicy
from worlds import small_world

SEEDS = range(30)
PAIRS = [(1, 2), (1, 3), (2, 3)]


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def tag(text: str) -> bytes:
    return sha(text.encode())


def ref_txn_fingerprint(r: TransactionReport) -> bytes:
    return sha(
        u64(r.reporter) + u64(r.pair_key[0]) + u64(r.pair_key[1])
        + u64(r.pair_seq) + r.pttr + r.record_digest + u64(r.timestamp)
        + (b"\x01" if r.aborted else b"\x00")
    )


def ref_balance_fingerprint(r: BalanceReport) -> bytes:
    return sha(
        u64(r.client_id) + u64(r.new_balance) + r.mhtr + r.prior_mhtr
        + r.peer_provenance + u64(r.timestamp)
    )


class FingerprintIM(IntegrityManager):
    """The IM behind the fingerprint rule: a repeat is a report whose
    fingerprint was seen, and any other report for a validated seq that
    is not aborted is a replay.  Only the reports neither rule decides
    reach the manager's own path, with its own repeat set emptied first,
    so its content keys never answer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fingerprints = set()
        self.validated_keys = set()

    def ingest_report(self, report, now=None):
        fp = ref_txn_fingerprint(report)
        if fp in self.fingerprints:
            return ValidationOutcome("duplicate")
        self.fingerprints.add(fp)
        key = (report.pair_key, report.pair_seq)
        if not report.aborted and key in self.validated_keys:
            alert = self._raise_alert(
                AlertKind.ROOT_MISMATCH,
                report.pair_key,
                f"replay: pair {report.pair_key} seq {report.pair_seq} "
                f"re-reported by {report.reporter} after validation",
                report.timestamp if now is None else now,
            )
            return ValidationOutcome("replay", alert)
        self._seen_reports.clear()
        outcome = super().ingest_report(report, now)
        if outcome.status == "validated":
            self.validated_keys.add(key)
        return outcome


class FingerprintCM(CurrencyManager):
    """The CM behind the fingerprint rule, which a report with a negative
    balance never reaches: it is refused before anything is kept.  As in
    ``FingerprintIM``, the manager's own repeat set is emptied first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fingerprints = set()

    def report_balance(self, report):
        if report.new_balance >= 0:
            fp = ref_balance_fingerprint(report)
            if fp in self.fingerprints:
                return "duplicate"
            self.fingerprints.add(fp)
        self._seen_reports.clear()
        return super().report_balance(report)


def fresh_im(cls):
    im = cls(KeyStore(), 1000)
    for c in (1, 2, 3):
        im.note_client(c)
    for pair in PAIRS:
        im.note_pair(*pair)
    return im


def answer(call, *args):
    """What a manager call returns, or the refusal it raises."""
    try:
        return call(*args)
    except DeltaMoneyError as exc:
        return type(exc).__name__, str(exc)


# --- the Integrity Manager ---------------------------------------------


def im_stream(rng, steps=300):
    """Reports from a few seqs of three pairs, drawn from small domains so
    that repeats, re-sent changes, timestamps that differ, crossed seqs and
    replays all come up; a quarter of the steps resend an earlier report,
    and some steps are deadline checks instead."""
    sent = []
    for _ in range(steps):
        if rng.random() < 0.1:
            yield "check", rng.randint(0, 40)
            continue
        if sent and rng.random() < 0.25:
            report = rng.choice(sent)
        else:
            pair = rng.choice(PAIRS)
            seq = rng.randint(1, 6)
            report = TransactionReport(
                rng.choice(pair), pair, seq,
                tag(rng.choice("aab")), tag(rng.choice("rrs")),
                seq + rng.choice([0, 0, 0, 1]), aborted=rng.random() < 0.1,
            )
            sent.append(report)
        yield "ingest", report


def im_case(im, report):
    """The kinds of case a report is, read from the reference before it
    lands, for the coverage check."""
    key = (report.pair_key, report.pair_seq)
    pending = im._pending.get(key)
    fresh = ref_txn_fingerprint(report) not in im.fingerprints
    if report.aborted:
        return {"aborted"}
    if key in im.validated_keys:
        return {"replay"} if fresh else {"repeat after validation"}
    cases = set() if fresh else {"repeat while pending"}
    if pending is None:
        return cases
    if fresh and report.reporter in pending.reports:
        cases.add("changed while pending")
    other = [r for c, r in pending.reports.items() if c != report.reporter]
    if other and (other[0].pttr, other[0].record_digest) == (
            report.pttr, report.record_digest):
        latest = im.latest_validated.get(report.pair_key, (0,))[0]
        if other[0].timestamp != report.timestamp:
            cases.add("validated, timestamps differ")
        if latest > report.pair_seq:
            cases.add("validated after a later seq")
    return cases


def run_im(seed):
    rng = random.Random(seed)
    im, ref = fresh_im(IntegrityManager), fresh_im(FingerprintIM)
    cases = Counter()
    for step, (op, arg) in enumerate(im_stream(rng)):
        if op == "check":
            assert im.check_deadlines(arg) == ref.check_deadlines(arg), step
            continue
        cases.update(im_case(ref, arg))
        now = rng.choice([None, arg.timestamp + rng.randint(0, 20)])
        assert im.ingest_report(arg, now) == ref.ingest_report(arg, now), step
        assert im.alerts == ref.alerts, step
        assert im.latest_validated == ref.latest_validated, step
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_im_drops_exactly_the_reports_a_fingerprint_dropped(seed):
    run_im(seed)


def test_im_streams_reach_every_case():
    cases = sum((run_im(seed) for seed in SEEDS), Counter())
    assert set(cases) == {
        "aborted", "replay", "repeat after validation", "repeat while pending",
        "changed while pending", "validated, timestamps differ",
        "validated after a later seq",
    }, cases


@pytest.mark.parametrize("size", [31, 33])
def test_a_wrong_length_digest_never_matches_a_validated_entry(size):
    """The entry joins the pttr and the record digest; a report whose
    bytes split differently between the two is not a repeat but a replay."""
    im = fresh_im(IntegrityManager)
    pttr, rec = tag("root"), tag("rec")
    im.ingest_report(TransactionReport(1, (1, 2), 1, pttr, rec, 5))
    assert im.ingest_report(
        TransactionReport(2, (1, 2), 1, pttr, rec, 5)).status == "validated"
    joined = pttr + rec
    shifted = TransactionReport(1, (1, 2), 1, joined[:size], joined[size:], 5)
    outcome = im.ingest_report(shifted)
    assert outcome.status == "replay"
    assert outcome.alert.kind is AlertKind.ROOT_MISMATCH
    assert im.ingest_report(shifted).status == "duplicate"
    assert len(im.alerts) == 1


# --- the Currency Manager ----------------------------------------------


def cm_stream(rng, clients, steps=200):
    """Each client's chain of transfers, issuances and redemptions,
    delivered out of order so that reports park, mixed with repeats (some
    differing only in supply, which the fingerprint left out, or only in
    timestamp, which it covered), double spends from any state of a
    chain, negative balances and redemptions no balance covers."""
    chains, states = {}, {}
    for c in clients:
        balance, chain, states[c] = 0, [], [EMPTY_TREE_DIGEST]
        for k in range(1, 12):
            supply = rng.choice([0, 0, rng.randint(1, 50),
                                 -rng.randint(0, balance)])
            if supply == 0:
                balance = max(0, balance + rng.randint(-20, 20))
            else:
                balance += supply
            chain.append(BalanceReport(c, balance, tag(f"m:{c}:{k}"),
                                       states[c][-1], tag(f"peer:{k}"), k,
                                       supply))
            states[c].append(chain[-1].mhtr)
        chains[c] = chain
    sent = []
    for step in range(steps):
        roll = rng.random()
        c = rng.choice(clients)
        if sent and roll < 0.3:
            report = rng.choice(sent)
            change = rng.random()
            if change < 0.2:
                report = report._replace(supply=report.supply + 1)
            elif change < 0.3:
                report = report._replace(timestamp=report.timestamp + 1)
        elif roll < 0.4:
            report = BalanceReport(
                c, rng.choice([0, 5, -1]), tag(f"fork:{c}:{step}"),
                rng.choice(states[c]), tag("peer"), 100 + step,
                rng.choice([0, -10**6]))
        elif chains[c]:
            chain = chains[c]
            report = chain.pop(min(rng.choice([0, 0, 0, 1, 2]), len(chain) - 1))
        else:
            continue
        sent.append(report)
        yield report


def run_cm(seed):
    rng = random.Random(seed)
    cm, ref = CurrencyManager(), FingerprintCM()
    clients = [cm.enroll(1) for _ in range(3)]
    assert [ref.enroll(1) for _ in range(3)] == clients
    refused, cases = set(), Counter()
    for step, report in enumerate(cm_stream(rng, clients)):
        got = answer(cm.report_balance, report)
        assert got == answer(ref.report_balance, report), step
        assert cm.table.rows == ref.table.rows, step
        assert cm._parked == ref._parked, step
        assert cm.supply == ref.supply, step
        if isinstance(got, tuple):
            refused.add(report[:6])
            got = got[0]
        elif got == "duplicate" and report[:6] in refused:
            got = "repeat of a refused report"
        cases[got] += 1
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_cm_drops_exactly_the_reports_a_fingerprint_dropped(seed):
    run_cm(seed)


def test_cm_streams_reach_every_case():
    cases = sum((run_cm(seed) for seed in SEEDS), Counter())
    assert {"applied", "parked", "duplicate", "StaleProvenance",
            "InsufficientBalance", "NegativeBalance",
            "repeat of a refused report"} <= set(cases), cases


# --- what the IM keeps once a run quiesces ------------------------------


def reachable_bytes(*roots):
    """The bytes objects reachable from ``roots`` through containers and
    instances, by identity."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen, found, stack = set(), {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, bytes):
            found[id(obj)] = obj
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_an_honest_run_leaves_no_report_and_no_client_digest_in_the_im():
    """About 50 transfers, every report delivered twice, with a crash and
    a recovery in the middle: once the run quiesces the IM holds no report,
    and each validated seq's entry is one new bytes object that refers to
    nothing: not a report, nor a digest a client holds or held."""
    sim = small_world(seed=21)
    sim.policy = DeliveryPolicy("duplicate")
    moves = [(1, 2), (2, 3), (3, 1), (2, 1)]
    for i in range(24):
        sim.transfer(*moves[i % 4], 5 + i)
        sim.advance(3)
    sim.quiesce()
    crashed = sim.clients[2]
    sim.inject("crash-client", 2)
    sim.recover(2)
    for i in range(24):
        sim.transfer(*moves[i % 4], 7 + i)
        sim.advance(3)
    sim.quiesce()
    assert sim.alerts == []
    assert "status=duplicate" in sim.log.text()
    im = sim.im
    assert im._seen_reports == set()
    assert len(im._validated) >= 48
    held = reachable_bytes(crashed, sim.clients)
    for entry in im._validated.values():
        assert type(entry) is bytes and gc.get_referents(entry) == []
        assert len(entry) == 72 and id(entry) not in held


def test_reports_past_the_u64_timestamp_keep_no_entry():
    """Two matching reports whose timestamp a u64 cannot hold validate
    and stay in the repeat set, so each repeat is still a duplicate."""
    im = fresh_im(IntegrityManager)
    reports = [TransactionReport(c, (1, 2), 1, tag("root"), tag("rec"), 2**64)
               for c in (1, 2)]
    assert [im.ingest_report(r, now=5).status for r in reports] == [
        "held", "validated"]
    assert im._validated == {((1, 2), 1): None}
    assert [im.ingest_report(r, now=6).status for r in reports] == [
        "duplicate", "duplicate"]
    assert im.alerts == []
