import hashlib
import random

import pytest

from deltamoney.currency_manager import (
    BalanceReport,
    CurrencyManager,
    TemporalBalanceTable,
)
from deltamoney.encoding import FOREVER
from deltamoney.errors import (
    InsufficientBalance,
    NegativeBalance,
    NonPositiveAmount,
    StaleProvenance,
    UnknownClient,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST
from deltamoney.integrity_manager import Alert, AlertKind


def digest(tag):
    return hashlib.sha256(tag.encode()).digest()


def manager_with_two_clients():
    cm = CurrencyManager()
    c1 = cm.enroll(timestamp=1)
    c2 = cm.enroll(timestamp=2)
    return cm, c1, c2


def supply(cm, client_id, amount, t, mhtr=None):
    """Deliver the client's report of an issuance (amount > 0) or a
    redemption (amount < 0), following its open row."""
    row = cm.table.open_row(client_id)
    if mhtr is None:
        mhtr = digest(f"supply:{client_id}:{len(cm.table.rows)}")
    return cm.report_balance(BalanceReport(
        client_id, row.valid_balance + amount, mhtr,
        prior_mhtr=row.provenance_mhtr, peer_provenance=digest("treasury"),
        timestamp=t, supply=amount))


def report_transfer(cm, payer, payee, amount, t, payer_prior, payee_prior,
                    payer_new, payee_new, payer_bal, payee_bal):
    """Deliver both legs of a transfer to the manager."""
    out1 = cm.report_balance(BalanceReport(
        payer, payer_bal, payer_new, prior_mhtr=payer_prior,
        peer_provenance=payee_prior, timestamp=t))
    out2 = cm.report_balance(BalanceReport(
        payee, payee_bal, payee_new, prior_mhtr=payee_prior,
        peer_provenance=payer_prior, timestamp=t))
    return out1, out2


def test_enrollment_ids_unique_and_active():
    cm, c1, c2 = manager_with_two_clients()
    assert c1 != c2
    assert cm.registry == {c1, c2}
    verdict = cm.check_conservation()
    assert verdict.holds and verdict.actual == 0


def test_register_pair_guards():
    cm, c1, c2 = manager_with_two_clients()
    with pytest.raises(UnknownClient):
        cm.register_pair(c1, 99)
    with pytest.raises(UnknownClient):
        cm.register_pair(99, c2)
    cm.register_pair(c1, c2)


def test_issue_matches_table_rows():
    cm, c1, c2 = manager_with_two_clients()
    assert supply(cm, c1, 1000, 1, digest("m1")) == "applied"
    assert cm.check_conservation().holds
    supply(cm, c2, 2000, 2, digest("m2"))
    open_rows = {r.client_id: r for r in cm.table.open_rows()}
    assert open_rows[c1].valid_balance == 1000
    assert open_rows[c2].valid_balance == 2000
    assert open_rows[c2].valid_to == FOREVER
    assert open_rows[c2].provenance_mhtr == digest("m2")
    assert open_rows[c2].remarks == "Issued"
    verdict = cm.check_conservation()
    assert verdict.holds and verdict.actual == 3000
    assert cm.supply.total_issued == 3000


def test_issue_guards():
    cm, c1, _ = manager_with_two_clients()
    with pytest.raises(NonPositiveAmount):
        cm.issue(c1, 0, 1)
    with pytest.raises(UnknownClient):
        cm.issue(42, 100, 1)


def test_redeem_updates_supply_and_rows():
    cm, c1, _ = manager_with_two_clients()
    supply(cm, c1, 1000, 1)
    supply(cm, c1, -400, 2)
    assert cm.table.open_row(c1).valid_balance == 600
    assert cm.table.open_row(c1).remarks == "Redeemed"
    assert cm.supply.net == 600
    assert cm.check_conservation().holds
    supply(cm, c1, -600, 3)
    assert cm.table.open_row(c1).valid_balance == 0
    assert cm.check_conservation().holds
    rows, row = len(cm.table.rows), cm.table.open_row(c1)
    with pytest.raises(InsufficientBalance):
        cm.report_balance(BalanceReport(
            c1, 0, digest("over"), prior_mhtr=row.provenance_mhtr,
            peer_provenance=digest("treasury"), timestamp=4, supply=-1))
    assert len(cm.table.rows) == rows and cm.supply.total_redeemed == 1000


def test_negative_report_balance_is_refused_before_it_is_remembered():
    """Nothing of the report is kept, so its repeat is refused again."""
    cm, c1, _ = manager_with_two_clients()
    supply(cm, c1, 1000, 1)
    rows, row = len(cm.table.rows), cm.table.open_row(c1)
    report = BalanceReport(
        c1, -1, digest("over"), prior_mhtr=row.provenance_mhtr,
        peer_provenance=digest("treasury"), timestamp=2, supply=-1001)
    for _ in range(2):
        with pytest.raises(NegativeBalance):
            cm.report_balance(report)
    assert len(cm.table.rows) == rows and cm.supply.total_redeemed == 0


def test_supply_report_parks_behind_the_report_it_follows():
    """A redemption that overtakes the transfer before it waits for it, and
    its funds check then runs against the row the transfer left."""
    cm, c1, c2 = manager_with_two_clients()
    m1, m2, n1, r1 = digest("m1"), digest("m2"), digest("n1"), digest("r1")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 1000, 2, m2)
    early = cm.report_balance(BalanceReport(
        c1, 1050, r1, prior_mhtr=n1, peer_provenance=digest("treasury"),
        timestamp=5, supply=-50))
    assert early == "parked" and cm.supply.total_redeemed == 0
    report_transfer(cm, c2, c1, 100, 3, m2, m1, digest("n2"), n1, 900, 1100)
    assert cm.parked_count() == 0 and cm.supply.total_redeemed == 50
    assert cm.table.open_row(c1).valid_balance == 1050
    assert cm.table.open_row(c1).provenance_mhtr == r1
    assert cm.check_conservation().holds


def test_refused_parked_redemption_stays_parked():
    cm, c1, c2 = manager_with_two_clients()
    m1, m2, n1 = digest("m1"), digest("m2"), digest("n1")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 1000, 2, m2)
    cm.report_balance(BalanceReport(
        c1, 0, digest("r1"), prior_mhtr=n1, peer_provenance=digest("treasury"),
        timestamp=5, supply=-1050))
    report_transfer(cm, c1, c2, 100, 3, m1, m2, n1, digest("n2"), 900, 1100)
    assert cm.parked_count(c1) == 1
    assert cm.table.open_row(c1).provenance_mhtr == n1
    assert cm.supply.total_redeemed == 0 and cm.check_conservation().holds


def test_table4_transfer_rows_and_conservation():
    cm, c1, c2 = manager_with_two_clients()
    m1, m2 = digest("mhtr1@issue"), digest("mhtr2@issue")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 2000, 2, m2)
    n1, n2 = digest("mhtr1@t3"), digest("mhtr2@t3")
    out_payer, out_payee = report_transfer(
        cm, c2, c1, 500, 3, payer_prior=m2, payee_prior=m1,
        payer_new=n2, payee_new=n1, payer_bal=1500, payee_bal=1500,
    )
    assert (out_payer, out_payee) == ("applied", "applied")
    closed = [r for r in cm.table.rows if not r.open and r.remarks != "Initial Balance"]
    assert {(r.client_id, r.valid_balance, r.valid_to) for r in closed} == {
        (c1, 1000, 3), (c2, 2000, 3),
    }
    assert all(r.txn_timestamp == 3 for r in closed)
    open_rows = {r.client_id: r for r in cm.table.open_rows()}
    assert open_rows[c1].valid_balance == 1500
    assert open_rows[c2].valid_balance == 1500
    assert open_rows[c1].valid_from == 3
    verdict = cm.check_conservation()
    assert verdict.holds and verdict.actual == 3000


def test_historical_conservation_windows():
    cm, c1, c2 = manager_with_two_clients()
    m1, m2 = digest("m1"), digest("m2")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 2000, 2, m2)
    report_transfer(cm, c2, c1, 500, 3, m2, m1, digest("n2"), digest("n1"),
                    1500, 1500)
    at1 = cm.check_conservation(at=1)
    assert at1.holds and at1.actual == 1000
    at2 = cm.check_conservation(at=2)
    assert at2.holds and at2.actual == 3000
    at3 = cm.check_conservation(at=3)
    assert at3.holds and at3.actual == 3000
    assert cm.table.row_at(c1, 2).valid_balance == 1000
    assert cm.table.row_at(c1, 3).valid_balance == 1500


def test_double_spend_raises_stale_provenance():
    cm, c1, c2 = manager_with_two_clients()
    m1, m2 = digest("m1"), digest("m2")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 2000, 2, m2)
    report_transfer(cm, c2, c1, 500, 3, m2, m1, digest("n2"), digest("n1"),
                    1500, 1500)
    # second spend from the same prior state m2
    with pytest.raises(StaleProvenance):
        cm.report_balance(BalanceReport(c2, 1200, digest("forged"), prior_mhtr=m2,
                                        peer_provenance=m1, timestamp=4))


def test_duplicate_report_is_idempotent():
    cm, c1, c2 = manager_with_two_clients()
    m1, m2 = digest("m1"), digest("m2")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 2000, 2, m2)
    args = dict(prior_mhtr=m2, peer_provenance=m1, timestamp=3)
    first = cm.report_balance(BalanceReport(c2, 1500, digest("n2"), **args))
    assert first == "applied"
    again = cm.report_balance(BalanceReport(c2, 1500, digest("n2"), **args))
    assert again == "duplicate"
    rows_before = len(cm.table.rows)
    cm.report_balance(BalanceReport(c2, 1500, digest("n2"), **args))
    assert len(cm.table.rows) == rows_before


def test_out_of_order_reports_park_then_apply():
    cm, c1, c2 = manager_with_two_clients()
    m1 = digest("m1")
    supply(cm, c1, 1000, 1, m1)
    a, b = digest("after-first"), digest("after-second")
    # second hop arrives first: prior is a state the manager has not seen
    out = cm.report_balance(BalanceReport(
        c1, 700, b, prior_mhtr=a, peer_provenance=digest("peer2"), timestamp=4))
    assert out == "parked"
    assert cm.parked_count(c1) == 1
    out = cm.report_balance(BalanceReport(
        c1, 900, a, prior_mhtr=m1, peer_provenance=digest("peer1"), timestamp=3))
    assert out == "applied"
    assert cm.parked_count() == 0
    assert cm.table.open_row(c1).valid_balance == 700
    assert cm.table.open_row(c1).provenance_mhtr == b


def test_report_for_unknown_client_or_refused_redemption():
    cm, c1, _ = manager_with_two_clients()
    with pytest.raises(UnknownClient):
        cm.report_balance(BalanceReport(77, 10, digest("x"), EMPTY_TREE_DIGEST,
                                        digest("p"), 1))
    overdraw = BalanceReport(c1, 0, digest("x"), EMPTY_TREE_DIGEST, digest("p"),
                             1, supply=-10)
    with pytest.raises(InsufficientBalance, match="redeem 10 exceeds balance 0"):
        cm.report_balance(overdraw)
    # a repeat of the refused report is a duplicate, not a second refusal
    assert cm.report_balance(overdraw) == "duplicate"
    assert cm.table.open_row(c1).provenance_mhtr == EMPTY_TREE_DIGEST


def test_handle_returns_the_line_or_alert_of_each_outcome():
    """``handle`` answers each report with one entry: the line that logs
    what became of it, or the alert of a report from a spent state."""
    cm, c1, c2 = manager_with_two_clients()
    m1, m2, n1 = digest("m1"), digest("m2"), digest("n1")
    treasury = digest("treasury")
    assert cm.handle(0, BalanceReport(c1, 1000, m1, EMPTY_TREE_DIGEST, treasury,
                                      3, supply=1000), 5) == [
        ("issued", f"client={c1} amount=1000")]
    assert cm.handle(0, BalanceReport(c2, 1990, m2, digest("later"), treasury,
                                      4, supply=-10), 5) == [
        ("redeemed", f"client={c2} amount=10 status=parked")]
    move = BalanceReport(c1, 900, n1, m1, digest("peer"), 6)
    assert cm.handle(c1, move, 7) == [
        ("balance-report", f"client={c1} balance=900 status=applied")]
    assert cm.handle(c1, move, 7) == [
        ("balance-report", f"client={c1} balance=900 status=duplicate")]
    assert cm.handle(c1, BalanceReport(c1, 800, digest("x"), digest("ahead"),
                                       digest("peer"), 8), 9) == [
        ("balance-report", f"client={c1} balance=800 status=parked")]
    assert cm.handle(77, BalanceReport(77, 10, digest("y"), EMPTY_TREE_DIGEST,
                                       digest("peer"), 8), 9) == [
        ("refuse", "client=77 reason=client 77 is not enrolled")]
    assert cm.handle(c1, BalanceReport(c1, 1200, digest("again"), m1,
                                       digest("peer"), 10), 11) == [
        Alert(AlertKind.STALE_PROVENANCE, (c1,),
              f"client {c1} reported from an already spent state", 11)]
    assert cm.table.open_row(c1).valid_balance == 900


def test_forged_balance_breaks_conservation():
    cm, c1, c2 = manager_with_two_clients()
    m1 = digest("m1")
    supply(cm, c1, 1000, 1, m1)
    out = cm.report_balance(BalanceReport(
        c1, 1100, digest("forged-root"), prior_mhtr=m1,
        peer_provenance=digest("nobody"), timestamp=2))
    assert out == "applied"
    verdict = cm.check_conservation()
    assert not verdict.holds
    assert verdict.discrepancy == 100


def test_no_transaction_records_stored():
    from deltamoney.peer_ledger import TransactionPairRecord

    cm, c1, c2 = manager_with_two_clients()
    m1, m2 = digest("m1"), digest("m2")
    supply(cm, c1, 1000, 1, m1)
    supply(cm, c2, 2000, 2, m2)
    report_transfer(cm, c2, c1, 500, 3, m2, m1, digest("n2"), digest("n1"),
                    1500, 1500)

    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        assert not isinstance(obj, TransactionPairRecord)
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

    walk(cm)


def test_per_client_index_matches_linear_scan():
    """Seeded issue, redeem, transfer and out-of-order report steps; every
    lookup is compared with a scan over the whole table."""
    rng = random.Random(7)
    cm = CurrencyManager()
    clients = [cm.enroll(timestamp=i) for i in range(5)]
    balance = {c: 0 for c in clients}  # each client's own view, ahead of the CM
    root = {c: EMPTY_TREE_DIGEST for c in clients}
    in_flight = []  # the fields of each undelivered balance report

    def move(who, delta, peer_prior, step, supply=0):
        balance[who] += delta
        new_root = digest(f"{who}:{step}")
        in_flight.append(dict(client_id=who, new_balance=balance[who],
                              mhtr=new_root, prior_mhtr=root[who],
                              peer_provenance=peer_prior, supply=supply))
        root[who] = new_root

    parked = 0
    tick = len(clients)
    for step in range(400):
        tick += rng.choice((0, 0, 1, 2))
        c = rng.choice(clients)
        op = rng.random()
        if op < 0.15:
            amount = rng.randint(1, 500)
            move(c, amount, digest("treasury"), step, supply=amount)
        elif op < 0.25 and balance[c]:
            amount = rng.randint(1, balance[c])
            move(c, -amount, digest("treasury"), step, supply=-amount)
        elif op < 0.65 and balance[c]:
            payee = rng.choice([p for p in clients if p != c])
            amount = rng.randint(1, balance[c])
            priors = (root[c], root[payee])
            move(c, -amount, priors[1], step)
            move(payee, amount, priors[0], step)
        elif in_flight:
            args = in_flight.pop(rng.randrange(len(in_flight)))
            report = BalanceReport(**args, timestamp=tick)
            parked += cm.report_balance(report) == "parked"
    for args in in_flight:
        cm.report_balance(BalanceReport(**args, timestamp=tick))
    assert parked and cm.parked_count() == 0
    rows = cm.table.rows
    assert len(rows) > 300 and any(r.valid_from == r.valid_to for r in rows)

    def scan_row(client_id, at):
        for row in rows:
            if row.client_id == client_id and row.valid_from <= at < row.valid_to:
                return row
        return None

    assert {id(r) for r in cm.table.open_rows()} == {id(r) for r in rows if r.open}
    assert cm.check_conservation().actual == sum(r.valid_balance for r in rows if r.open)
    assert cm.check_conservation().holds
    for at in range(tick + 2):
        for client_id in clients:
            assert cm.table.row_at(client_id, at) is scan_row(client_id, at)
        verdict = cm.check_conservation(at=at)
        actual = sum(r.valid_balance for r in map(scan_row, clients, [at] * 5) if r)
        assert (verdict.actual, verdict.expected) == (actual, cm.supply.net_at(at))
    for client_id in clients:
        assert cm.table.closed_provenances(client_id) == {
            r.provenance_mhtr for r in rows if r.client_id == client_id and not r.open
        }
