import hashlib
import itertools
import random

import pytest

from deltamoney.errors import (
    BadSignature,
    UnknownReporter,
    UnregisteredPair,
)
from deltamoney.hashing import EMPTY_CELL_DIGEST, KeyStore, Signature
from deltamoney.integrity_manager import (
    Alert,
    AlertKind,
    IntegrityManager,
    TransactionReport,
    export_grid,
    parse_grid,
)

IM_ID = 1000


def digest(tag):
    return hashlib.sha256(tag.encode()).digest()


def fresh_im(cls=IntegrityManager, **kwargs):
    im = cls(KeyStore(), IM_ID, **kwargs)
    for c in (1, 2, 3, 4):
        im.note_client(c)
    for pair in itertools.combinations((1, 2, 3, 4), 2):
        im.note_pair(*pair)
    return im


def report(reporter, pair, seq, pttr, rec="rec", t=1):
    return TransactionReport(reporter, pair, seq, pttr, digest(rec), t)


def test_matching_reports_validate():
    im = fresh_im()
    out = im.ingest_report(report(1, (1, 2), 1, digest("root")))
    assert out.status == "held"
    out = im.ingest_report(report(2, (1, 2), 1, digest("root")))
    assert out.status == "validated"
    assert im.alerts == []
    assert im.latest_validated[(1, 2)] == (1, digest("root"))


def test_mismatched_roots_alert_both_peers():
    im = fresh_im()
    im.ingest_report(report(1, (1, 2), 1, digest("honest")))
    out = im.ingest_report(report(2, (1, 2), 1, digest("tampered")))
    assert out.status == "mismatch"
    assert out.alert.kind is AlertKind.ROOT_MISMATCH
    assert set(out.alert.subjects) == {1, 2}
    assert im.alerts == [out.alert]


def test_reporter_guards():
    im = fresh_im()
    with pytest.raises(UnknownReporter):
        im.ingest_report(report(9, (1, 2), 1, digest("r")))
    with pytest.raises(UnregisteredPair):
        im2 = IntegrityManager(KeyStore(), IM_ID)
        im2.note_client(1)
        im2.note_client(2)
        im2.ingest_report(report(1, (1, 2), 1, digest("r")))
    with pytest.raises(UnknownReporter):
        im.ingest_report(report(3, (1, 2), 1, digest("r")))


def test_handle_returns_the_line_and_alert_of_each_outcome():
    """``handle`` logs each report's status, then gives its alert."""
    im = fresh_im()
    first = report(1, (1, 2), 1, digest("root"))
    assert im.handle(1, first, 7) == [
        ("txn-report", "pair=(1, 2) seq=1 reporter=1 status=held")]
    assert im.handle(1, first, 7) == [
        ("txn-report", "pair=(1, 2) seq=1 reporter=1 status=duplicate")]
    assert im.handle(2, report(2, (1, 2), 1, digest("root")), 8) == [
        ("txn-report", "pair=(1, 2) seq=1 reporter=2 status=validated")]
    im.handle(1, report(1, (1, 2), 2, digest("honest")), 9)
    out = im.handle(2, report(2, (1, 2), 2, digest("tampered")), 9)
    assert out == [
        ("txn-report", "pair=(1, 2) seq=2 reporter=2 status=mismatch"),
        Alert(AlertKind.ROOT_MISMATCH, (1, 2),
              f"pair (1, 2) seq 2: 1 says {digest('honest')[:8].hex()}, "
              f"2 says {digest('tampered')[:8].hex()}", 9),
    ]
    assert im.alerts == [out[1]]


@pytest.mark.parametrize("reporter, pair, reason", [
    (3, (1, 2), "client 3 is not a member of (1, 2)"),
    (9, (1, 2), "client 9 is not enrolled"),
    (1, (1, 5), "pair (1, 5) is not registered"),
], ids=["non-member", "unenrolled", "unregistered-pair"])
def test_handle_logs_a_refused_report(reporter, pair, reason):
    im = fresh_im()
    assert im.handle(reporter, report(reporter, pair, 1, digest("r")), 4) == [
        ("refuse", f"pair={pair} seq=1 reporter={reporter} reason={reason}")]
    assert im.alerts == [] and im.next_deadline() is None


def test_identical_duplicate_is_idempotent():
    im = fresh_im()
    r = report(1, (1, 2), 1, digest("root"))
    assert im.ingest_report(r).status == "held"
    assert im.ingest_report(r).status == "duplicate"
    assert im.ingest_report(report(2, (1, 2), 1, digest("root"))).status == "validated"
    assert im.ingest_report(r).status == "duplicate"
    assert im.alerts == []


def test_replay_after_validation_alerts():
    im = fresh_im()
    im.ingest_report(report(1, (1, 2), 1, digest("root"), t=1))
    im.ingest_report(report(2, (1, 2), 1, digest("root"), t=1))
    # attacker re-submits the validated report with a refreshed timestamp
    out = im.ingest_report(report(1, (1, 2), 1, digest("root"), t=50))
    assert out.status == "replay"
    assert out.alert.kind is AlertKind.ROOT_MISMATCH
    assert "replay" in out.alert.evidence


def test_missing_counterpart_deadline():
    im = fresh_im()
    im.ingest_report(report(1, (1, 2), 5, digest("root"), t=7), now=7)
    assert im.check_deadlines(now=7 + im.reporting_deadline) == []
    raised = im.check_deadlines(now=7 + im.reporting_deadline + 1)
    assert len(raised) == 1
    assert raised[0].kind is AlertKind.MISSING_COUNTERPART_REPORT
    assert raised[0].subjects == (2,)
    assert im.check_deadlines(now=100) == []  # no duplicate alert
    # the late counterpart still validates
    out = im.ingest_report(report(2, (1, 2), 5, digest("root"), t=7), now=100)
    assert out.status == "validated"


def test_next_deadline_is_the_earliest_unalerted_due_tick():
    im = fresh_im()
    assert im.next_deadline() is None
    im.ingest_report(report(1, (1, 2), 5, digest("root"), t=7), now=7)
    im.ingest_report(report(3, (3, 4), 1, digest("root"), t=3), now=3)
    im.ingest_report(report(2, (2, 3), 2, digest("root"), t=9), now=9)
    assert im.next_deadline() == 3 + im.reporting_deadline + 1
    assert im.check_deadlines(now=im.next_deadline() - 1) == []
    assert len(im.check_deadlines(now=im.next_deadline())) == 1
    assert im.next_deadline() == 7 + im.reporting_deadline + 1
    im.check_deadlines(now=100)
    assert len(im.alerts) == 3
    assert im.next_deadline() is None  # all still pending, all alerted


class ScanIM(IntegrityManager):
    """The deadline rule as a scan of every pending entry: alert, in
    pending order, each entry not yet alerted whose first report is more
    than the reporting deadline old."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.alerted = {}  # id -> entry, kept alive so ids stay unique

    def check_deadlines(self, now):
        raised = []
        for (pair_key, pair_seq), pending in self._pending.items():
            if id(pending) in self.alerted:
                continue
            if now - pending.first_seen > self.reporting_deadline:
                silent = [c for c in pair_key if c not in pending.reports]
                raised.append(self._raise_alert(
                    AlertKind.MISSING_COUNTERPART_REPORT,
                    silent or pair_key,
                    f"pair {pair_key} seq {pair_seq}: no counterpart report "
                    f"within {self.reporting_deadline} ticks",
                    now,
                ))
                self.alerted[id(pending)] = pending
        return raised

    def next_deadline(self):
        first = min((pending.first_seen for pending in self._pending.values()
                     if id(pending) not in self.alerted), default=None)
        return None if first is None else first + self.reporting_deadline + 1


@pytest.mark.parametrize("seed", range(40))
def test_deadlines_match_the_scan_rule(seed):
    """Seeded ingest/check sequences: late and missing counterparts,
    mismatches that reopen a key, aborts, duplicates and clocks that
    jump back; every answer and alert must equal the scan rule's."""
    rng = random.Random(seed)
    deadline = rng.choice([0, 1, 3, 10])
    fast = fresh_im(reporting_deadline=deadline)
    scan = fresh_im(ScanIM, reporting_deadline=deadline)
    pairs = list(itertools.combinations((1, 2, 3, 4), 2))
    now = 0
    for step in range(400):
        now = max(0, now + rng.choice([0, 1, 1, 2, 5, 13, -4]))
        op = rng.random()
        if op < 0.6:
            pair = rng.choice(pairs)
            r = TransactionReport(
                rng.choice(pair), pair, rng.randint(1, 12),
                digest(rng.choice("aab")), digest("rec"),
                rng.randint(0, now + 3), aborted=rng.random() < 0.05,
            )
            at = None if rng.random() < 0.2 else now
            got = fast.ingest_report(r, now=at)
            want = scan.ingest_report(r, now=at)
            assert got == want, step
        elif op < 0.8:
            at = now + rng.choice([-3, 0, 0, 2, deadline + 1])
            assert fast.check_deadlines(at) == scan.check_deadlines(at), step
        else:
            assert fast.next_deadline() == scan.next_deadline(), step
    assert fast.next_deadline() == scan.next_deadline()
    assert fast.alerts == scan.alerts
    assert any(a.kind is AlertKind.MISSING_COUNTERPART_REPORT
               for a in fast.alerts)


def test_deadline_heap_stays_bounded_without_checks():
    """Reports matched in direct mode, with no deadline check or
    next_deadline call, do not pile up behind the pending entries."""
    im = fresh_im()
    for seq in range(1, 2001):
        im.ingest_report(report(1, (1, 2), seq, digest("root"), t=seq))
        im.ingest_report(report(2, (1, 2), seq, digest("root"), t=seq))
    assert not im._pending
    assert len(im._due) <= 16
    assert im.next_deadline() is None


def three_peer_state():
    mhtrs = {1: digest("mht1"), 2: digest("mht2"), 3: digest("mht3")}
    pttrs = {
        (1, 2): digest("ptt12"),
        (1, 3): digest("ptt13"),
        (2, 3): digest("ptt23"),
    }
    return mhtrs, pttrs


def test_grid_matches_table_shape():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    assert grid.client_index == (1, 2, 3)
    for i in range(3):
        assert grid.cells[i][i] == mhtrs[i + 1]
    assert grid.cells[0][1] == pttrs[(1, 2)]
    assert grid.cells[0][2] == pttrs[(1, 3)]
    assert grid.cells[1][2] == pttrs[(2, 3)]
    for i, j in ((1, 0), (2, 0), (2, 1)):
        assert grid.cells[i][j] == EMPTY_CELL_DIGEST


def test_grid_hashes_match_concatenation_oracle():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    sha = lambda b: hashlib.sha256(b).digest()
    for i in range(3):
        assert grid.row_hashes[i] == sha(b"".join(grid.cells[i]))
    for j in range(3):
        assert grid.column_hashes[j] == sha(
            b"".join(grid.cells[i][j] for i in range(3))
        )
    assert grid.grid_hash == sha(
        b"".join(grid.row_hashes) + b"".join(grid.column_hashes)
    )


def test_single_client_grid():
    im = fresh_im()
    grid = im.capture_grid(0, {1: digest("only")}, {})
    sha = lambda b: hashlib.sha256(b).digest()
    row = sha(digest("only"))
    assert grid.grid_hash == sha(row + row)


def test_grid_requires_clients():
    im = fresh_im()
    with pytest.raises(ValueError):
        im.capture_grid(0, {}, {})


def test_grid_determinism_and_sensitivity():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    g1 = im.capture_grid(0, mhtrs, pttrs)
    g2 = im.capture_grid(0, dict(mhtrs), dict(pttrs))
    assert g1.grid_hash == g2.grid_hash
    mhtrs[2] = digest("changed")
    assert im.capture_grid(1, mhtrs, pttrs).grid_hash != g1.grid_hash


def test_verify_grid_honest():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    verdict = im.verify_grid(grid, mhtrs, pttrs)
    assert verdict.matches and verdict.mismatched_cells == ()


def test_verify_grid_signs_nothing(monkeypatch):
    """Verifying compares hashes; only a captured grid is signed."""
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    signed = []
    sign = KeyStore.sign

    def counted(keystore, *args):
        signed.append(args)
        return sign(keystore, *args)

    monkeypatch.setattr(KeyStore, "sign", counted)
    assert im.verify_grid(grid, mhtrs, pttrs).matches
    mhtrs[2] = digest("drift")
    assert im.verify_grid(grid, mhtrs, pttrs).mismatched_cells == ((1, 1),)
    assert signed == []


def four_peer_state():
    mhtrs = {c: digest(f"mht{c}") for c in (1, 2, 3, 4)}
    pttrs = {p: digest(f"ptt{p}") for p in itertools.combinations((1, 2, 3, 4), 2)}
    return mhtrs, pttrs


def test_every_cell_mutation_localized_on_4x4():
    im = fresh_im()
    mhtrs, pttrs = four_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    for i in range(4):
        for j in range(4):
            if i > j:
                assert grid.cells[i][j] == EMPTY_CELL_DIGEST
                continue
            cur_m, cur_p = dict(mhtrs), dict(pttrs)
            if i == j:
                cur_m[i + 1] = digest("mutated")
            else:
                cur_p[(i + 1, j + 1)] = digest("mutated")
            verdict = im.verify_grid(grid, cur_m, cur_p)
            assert not verdict.matches
            assert verdict.mismatched_cells == ((i, j),)


def test_grid_bad_signature_and_tampered_cells():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    grid = im.capture_grid(0, mhtrs, pttrs)
    forged = MerkleGridWith(grid, signature=Signature(b"\x00" * 32, IM_ID))
    with pytest.raises(BadSignature):
        im.verify_grid(forged, mhtrs, pttrs)
    cells = [list(row) for row in grid.cells]
    cells[0][1] = digest("evil")
    tampered = MerkleGridWith(grid, cells=tuple(tuple(r) for r in cells))
    with pytest.raises(BadSignature):
        im.verify_grid(tampered, mhtrs, pttrs)


def MerkleGridWith(grid, **overrides):
    from dataclasses import replace

    return replace(grid, **overrides)


def test_grid_export_parse_round_trip():
    im = fresh_im()
    mhtrs, pttrs = three_peer_state()
    del pttrs[(1, 3)]  # leave one registered pair without transactions
    grid = im.capture_grid(2, mhtrs, pttrs)
    text = export_grid(grid)
    assert "-" in text
    back = parse_grid(text)
    assert back == grid
    verdict = im.verify_grid(back, mhtrs, pttrs)
    assert verdict.matches


def test_archive_and_attestation():
    im = fresh_im()
    assert im.attest_pttr((1, 2)) is None
    im.ingest_report(report(1, (1, 2), 1, digest("root")))
    im.ingest_report(report(2, (1, 2), 1, digest("root")))
    att = im.attest_pttr((1, 2))
    assert att.root == digest("root")
    assert att.pair_seq == 1
    assert im.keystore.verify(att.signature, att.message())


def test_no_balance_state_stored():
    from deltamoney.balance_tree import BalanceChangeRecord
    from deltamoney.currency_manager import BalanceRow

    im = fresh_im()
    im.ingest_report(report(1, (1, 2), 1, digest("root")))
    im.ingest_report(report(2, (1, 2), 1, digest("root")))
    im.capture_grid(0, *three_peer_state())

    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        assert not isinstance(obj, (BalanceRow, BalanceChangeRecord))
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                walk(item)
        else:
            if hasattr(obj, "__dict__"):
                walk(vars(obj))
            # a slotted object keeps its attributes outside __dict__
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        walk(getattr(obj, name))

    walk(im)


def abort_report(reporter, pair, seq, pttr, rec="rec", t=1):
    return TransactionReport(reporter, pair, seq, pttr, digest(rec), t,
                             aborted=True)


def test_agreeing_abort_reports_are_discarded_and_retry_validates():
    im = fresh_im()
    assert im.ingest_report(abort_report(1, (1, 2), 1, digest("same"))).status == "held"
    out = im.ingest_report(abort_report(2, (1, 2), 1, digest("same")))
    assert out.status == "aborted"
    assert im.alerts == []
    assert (1, 2) not in im.latest_validated
    # the retried exchange reuses the sequence number without tripping replay
    im.ingest_report(report(1, (1, 2), 1, digest("retry"), t=2))
    out = im.ingest_report(report(2, (1, 2), 1, digest("retry"), t=2))
    assert out.status == "validated"
    assert im.alerts == []


def test_divergent_abort_reports_raise_one_alert():
    im = fresh_im()
    im.ingest_report(abort_report(1, (1, 2), 4, digest("mine")))
    out = im.ingest_report(abort_report(2, (1, 2), 4, digest("yours")))
    assert out.status == "mismatch"
    assert out.alert.kind is AlertKind.ROOT_MISMATCH
    assert "aborted" in out.alert.evidence
    assert len(im.alerts) == 1
