"""Client node tests: handshake, finalization, recovery, snapshots.

Histories run through ``Simulation``; a test that pins one handshake step
calls that step on the simulation's nodes directly, and the protocol tests
feed bare nodes each other's messages by hand.
"""

import hashlib
import random

import pytest

from deltamoney.balance_tree import BalanceChangeRecord, BalanceMHT
from deltamoney.client import (
    RETRY_BASE,
    RETRY_MAX_ATTEMPTS,
    ONE_SIDED_ABORTS,
    AbortMsg,
    AcceptMsg,
    BalanceReport,
    ClientNode,
    CommitMsg,
    RejectMsg,
    RetryMsg,
    StartTransferCmd,
    TREASURY_RESERVE,
    answer_unreachable,
    pair_of,
    retry_delay,
)
from deltamoney.currency_manager import MANAGER_ID
from deltamoney.errors import (
    CommitmentMismatch,
    CorruptSnapshot,
    InsufficientBalance,
    LimitExceeded,
    NegativeBalance,
    NonMonotonicSequence,
    NotQuiescent,
    NotRegisteredPeers,
    PartnerRootDisagreement,
    UnregisteredPair,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST, KeyStore, hash_leaf
from deltamoney.integrity_manager import TransactionReport
from deltamoney.peer_ledger import (
    PeerTransactionTree,
    TransactionPairRecord,
    TransactionProposal,
    net_position,
    propose,
)
from deltamoney.sim import Simulation
from worlds import run_transfers, small_world


def drain_reports(node):
    """The (manager, report) pairs ``node`` queued in its outbox, taken out."""
    reports = [(target, report) for target, report, _ in node.outbox]
    node.outbox.clear()
    return reports


def test_direct_transfer_commits_and_moves_balances():
    sim = small_world(clients=2, fund=10_000)
    a, b = sim.clients[1], sim.clients[2]
    run_transfers(sim, [(1, 2, 300)])
    assert a.balance == 9_700
    assert b.balance == 10_300
    key = pair_of(1, 2)
    assert sim.im.latest_validated[key] == (1, a.ptts[key].root())
    assert b.ptts[key].root() == a.ptts[key].root()
    assert view_tuples(a)[-1] == (2, 1, 10_000, 9_700)
    assert view_tuples(b)[-1] == (1, 1, 10_000, 10_300)


def test_commit_queues_one_im_and_one_cm_report_per_side():
    sim = small_world(clients=2, fund=10_000)
    a, b = sim.clients[1], sim.clients[2]
    accepted = b.receive_propose(a.start_transfer(2, 50, sim.now), sim.now)
    b.receive_commit(a.receive_accept(accepted, sim.now), sim.now)
    for node in (a, b):
        reports = drain_reports(node)
        kinds = [kind for kind, _ in reports]
        assert kinds == ["im", "cm"]
        im_report = reports[0][1]
        cm_report = reports[1][1]
        assert isinstance(im_report, TransactionReport)
        assert isinstance(cm_report, BalanceReport)
        assert im_report.pttr == node.ptts[pair_of(1, 2)].root()
        assert cm_report.new_balance == node.balance
        assert cm_report.mhtr == node.mht.root()
    assert drain_reports(node) == []


def test_treasury_pair_queues_only_a_chained_supply_report():
    sim = Simulation()
    sim.enroll(1)
    treasury, client = sim.treasury, sim.clients[1]
    accepted = client.receive_propose(
        treasury.start_transfer(1, 10_000, sim.now), sim.now)
    client.receive_commit(treasury.receive_accept(accepted, sim.now), sim.now)
    reports = drain_reports(client)
    assert [k for k, _ in reports] == ["cm"]
    issued = reports[0][1]
    assert isinstance(issued, BalanceReport)
    assert (issued.client_id, issued.supply, issued.new_balance) == (1, 10_000, 10_000)
    assert issued.prior_mhtr == EMPTY_TREE_DIGEST
    assert issued.mhtr == client.mht.root()
    assert drain_reports(treasury) == []
    assert client.balance == 10_000
    assert treasury.balance == TREASURY_RESERVE - 10_000

    accepted = treasury.receive_propose(
        client.start_transfer(MANAGER_ID, 400, sim.now), sim.now)
    treasury.receive_commit(client.receive_accept(accepted, sim.now), sim.now)
    [(kind, redeemed)] = drain_reports(client)
    assert kind == "cm"
    assert (redeemed.supply, redeemed.new_balance) == (-400, 9_600)
    assert redeemed.prior_mhtr == issued.mhtr
    assert redeemed.mhtr == client.mht.root()
    assert drain_reports(treasury) == []


def test_handshake_is_three_messages_and_none_to_managers():
    sim = small_world(clients=2, fund=10_000)
    a, b, tick = sim.clients[1], sim.clients[2], sim.now
    wire = []
    msg = a.start_transfer(2, 75, tick)
    wire.append(msg)
    reply = b.receive_propose(msg, tick + 1)
    wire.append(reply)
    result = a.receive_accept(reply, tick + 2)
    wire.append(result)
    b.receive_commit(result, tick + 3)
    assert [type(m) for m in wire] == [TransactionProposal, AcceptMsg, CommitMsg]
    # reports exist but only after the commit, off the critical path
    assert a.balance == 9_925 and b.balance == 10_075


def test_busy_node_rejects_incoming_proposals():
    sim = small_world(fund=10_000)
    a, b, c, tick = sim.clients[1], sim.clients[2], sim.clients[3], sim.now
    opened = a.start_transfer(2, 10, tick)
    assert opened is not None and a.busy
    assert a.start_transfer(3, 10, tick) is None
    incoming = c.start_transfer(1, 5, tick)
    reply = a.receive_propose(incoming, tick)
    assert isinstance(reply, RejectMsg) and reply.reason == "busy"
    c.receive_reject(reply, tick)
    assert not c.busy
    # finish the original exchange normally
    accept_msg = b.receive_propose(opened, tick)
    result = a.receive_accept(accept_msg, tick)
    assert isinstance(result, CommitMsg)
    b.receive_commit(result, tick)
    assert not a.busy and not b.busy


def test_stray_messages_leave_a_busy_client_busy():
    """Only a message about the pair and role in the slot empties it."""
    sim = small_world(fund=10_000)
    one, two, three = sim.clients[1], sim.clients[2], sim.clients[3]
    tick = sim.now
    opened = three.start_transfer(2, 100, tick)
    accepted = two.receive_propose(opened, tick)
    assert isinstance(accepted, AcceptMsg)
    two.receive_abort(AbortMsg((1, 2), 1, "stray"), tick)
    two.receive_commit(CommitMsg((1, 2), 1, b"\x00" * 32), tick)
    two.receive_reject(RejectMsg((2, 3), 1, "stray"), tick)
    assert two.busy
    # the payer's side ignores a commit, abort or reject meant for another
    # pair, and a commit or abort for its own pair, which only a payee gets
    three.receive_reject(RejectMsg((1, 3), 1, "stray"), tick)
    three.receive_commit(CommitMsg((2, 3), 1, b"\x00" * 32), tick)
    three.receive_abort(AbortMsg((2, 3), 1, "stray"), tick)
    assert three.busy
    second = one.start_transfer(2, 40, tick)
    assert two.receive_propose(second, tick).reason == "busy"
    one.receive_reject(RejectMsg((1, 2), second.pair_seq, "busy"), tick)
    result = three.receive_accept(accepted, tick)
    assert isinstance(result, CommitMsg)
    two.receive_commit(result, tick)
    assert not two.busy and not three.busy
    run_transfers(sim, [(1, 2, 40)])
    assert (one.balance, two.balance, three.balance) == (9_960, 10_140, 9_900)
    for node in (one, two, three):
        assert node.balance == node.expected_balance()


# ----------------------------------------------------------------------
# the protocol between bare nodes: each returned message fed by hand


def bare_nodes(*ids, reserve=1_000):
    """Nodes with an opening reserve and every pair registered; no Simulation."""
    keystore = KeyStore("stub")
    nodes = {c: ClientNode(c, keystore, opening_reserve=reserve) for c in ids}
    for a in ids:
        for b in ids:
            if a != b:
                nodes[a].register_peer(b)
    return nodes


def split(out):
    """A node's outbox as its sends and its log lines, each in order."""
    return ([entry for entry in out if len(entry) == 3],
            [entry for entry in out if len(entry) == 2])


def test_busy_payee_makes_the_head_retry_then_give_up():
    nodes = bare_nodes(1, 2, 3)
    one, two = nodes[1], nodes[2]
    # client 2 opens an exchange with 3, which never answers: 2 stays busy
    [(target, _, _)], _ = split(two.handle(None, StartTransferCmd(2, 3, 5, 1), 0))
    assert target == 3 and two.busy
    sends, logs = split(one.handle(None, StartTransferCmd(1, 2, 10, 7), 0))
    assert logs == [("propose", "pair=(1, 2) seq=1 amount=10")]
    now, waits = 0, []
    for attempt in range(RETRY_MAX_ATTEMPTS + 1):
        [(target, proposal, delay)] = sends
        assert (target, type(proposal), delay) == (2, TransactionProposal, 1)
        now += 1
        [(target, reject, delay)], logs = split(two.handle(1, proposal, now))
        assert (target, reject.reason, delay) == (1, "busy", 1)
        assert logs == [("reject", "pair=(1, 2) reason=busy")]
        now += 1
        sends, logs = split(one.handle(2, reject, now))
        if attempt == RETRY_MAX_ATTEMPTS:
            break
        [(target, wake, delay)] = sends
        assert (target, delay, logs) == (1, retry_delay(7, attempt), [])
        assert (one.attempts, one.due) == (attempt + 1, now + delay)
        assert not one.busy and one.handle(1, wake, now + delay - 1) == []
        waits.append(delay)
        now += delay
        sends, logs = split(one.handle(1, wake, now))
        assert logs == [("propose", "pair=(1, 2) seq=1 amount=10")]
    # the first retry waits RETRY_BASE; the second a span its key jitters
    assert waits[0] == RETRY_BASE
    assert RETRY_BASE <= waits[1] == retry_delay(7, 1) <= 2 * RETRY_BASE
    assert sends == [] and logs == [("give-up", "payee=2 amount=10 reason=busy")]
    assert not one.queue and not one.busy and (one.attempts, one.due) == (0, 0)
    assert one.balance == 1_000 and two.busy


def test_refused_head_frees_the_queue_on_the_same_tick():
    nodes = bare_nodes(1, 2, 3)
    one, two = nodes[1], nodes[2]
    [(_, proposal, _)], _ = split(one.handle(None, StartTransferCmd(1, 2, 600, 1), 0))
    # both wait behind the head; the first will exceed what it leaves
    assert one.handle(None, StartTransferCmd(1, 3, 900, 2), 0) == []
    assert one.handle(None, StartTransferCmd(1, 3, 300, 3), 0) == []
    [(_, accepted, _)], _ = split(two.handle(1, proposal, 1))
    sends, logs = split(one.handle(2, accepted, 2))
    assert [event for event, _ in logs] == ["commit", "refuse", "propose"]
    assert logs[1][1].startswith("payee=3 amount=900 reason=")
    assert logs[2] == ("propose", "pair=(1, 3) seq=1 amount=300")
    assert [(target, type(msg), delay) for target, msg, delay in sends] == [
        (2, CommitMsg, 1), ("im", TransactionReport, None),
        ("cm", BalanceReport, None), (3, TransactionProposal, 1)]
    assert list(one.queue) == [StartTransferCmd(1, 3, 300, 3)] and one.busy


def test_commit_or_abort_with_no_exchange_is_logged_ignore():
    three = bare_nodes(1, 3)[3]
    for msg, kind in ((CommitMsg((1, 3), 1, b"\x00" * 32), "commit"),
                      (AbortMsg((1, 3), 1, "stray"), "abort")):
        assert three.handle(1, msg, 5) == [
            ("ignore", f"pair=(1, 3) seq=1 msg={kind}")]
    assert three.ptts[(1, 3)].last_seq == 0 and three.balance == 1_000


def test_payer_guards_propagate():
    sim = small_world(clients=2, fund=100, limit=50)
    a, b = sim.clients[1], sim.clients[2]
    for amount in (60, 50, 45, 20):  # the last finds only 5 left
        sim.transfer(1, 2, amount)
    sim.quiesce()
    assert [line.split("|", 1)[1] for line in sim.log.lines
            if "|refuse|" in line] == [
        "client:1|refuse|payee=2 amount=60 reason=amount 60 exceeds "
        "transaction limit 50",
        "client:1|refuse|payee=2 amount=20 reason=amount 20 exceeds "
        "available balance 5",
    ]
    with pytest.raises(LimitExceeded):
        a.start_transfer(2, 60, sim.now)
    with pytest.raises(InsufficientBalance):
        a.start_transfer(2, 20, sim.now)
    assert not a.busy and not b.busy
    assert a.balance == 5 and b.balance == 195


def test_payee_refusal_is_logged_and_rejected():
    """A proposal the payee's checks refuse is logged as its refusal and
    answered with a reject naming the error; the payer's exchange ends
    and no money moves."""
    sim = small_world(clients=2, fund=10_000)
    del sim.clients[2].ptts[(1, 2)]  # the payee no longer holds the pair
    run_transfers(sim, [(1, 2, 10)])
    assert ("|client:2|refuse|pair=(1, 2) reason=pair (1, 2) is not registered"
            in sim.log.text())
    assert "|client:2|reject|pair=(1, 2) reason=NotRegisteredPeers" in sim.log.text()
    assert not sim.clients[1].busy
    assert sim.clients[1].balance == 10_000


@pytest.mark.parametrize("field, value", [
    ("payer_prior_commit", bytes(31)),
    ("timestamp", -1),
    ("timestamp", 2**64),
    ("amount", 2**64),
], ids=["short-commit", "negative-timestamp", "timestamp-past-u64",
        "amount-past-u64"])
def test_a_malformed_proposal_is_refused_not_raised(field, value):
    """A proposal whose record the payee cannot build or encode (a short
    commitment, a field outside u64, a balance past it) is refused like
    any other: logged, answered with a reject, and nothing appended."""
    sim = small_world(seed=11)
    one = sim.clients[1]
    proposal = propose(one.account_view(), one.ptts[(1, 2)], 2, 10, sim.now)
    sim.send(2, 1, proposal._replace(**{field: value}), 1)
    sim.quiesce()
    assert "|client:2|refuse|pair=(1, 2) reason=" in sim.log.text()
    assert "|client:2|reject|pair=(1, 2) reason=MalformedRecord" in sim.log.text()
    two = sim.clients[2]
    assert not two.busy
    assert len(two.ptts[(1, 2)].records) == len(two.ptts[(1, 2)].tree) == 0


def test_unregistered_pair_refuses():
    sim = small_world(clients=2)
    stranger = ClientNode(2, KeyStore("stub"))  # holds no pair with client 1
    with pytest.raises(NotRegisteredPeers):
        stranger.start_transfer(1, 10, sim.now)
    assert not stranger.busy
    proposal = sim.clients[1].start_transfer(2, 10, sim.now)
    with pytest.raises(NotRegisteredPeers):
        stranger.receive_propose(proposal, sim.now)


def test_commit_and_abort_reports_carry_the_record_digest():
    """A report names the record by its pair-tree leaf: both a commit and
    an abort report read the leaf the reporter's tree stored."""
    sim = small_world(clients=2, fund=10_000)
    a, b, tick = sim.clients[1], sim.clients[2], sim.now
    key = pair_of(1, 2)
    accepted = b.receive_propose(a.start_transfer(2, 50, tick), tick)
    b.receive_commit(a.receive_accept(accepted, tick), tick)
    record = a.ptts[key].records[-1]
    want = hash_leaf(record.to_bytes())
    for node in (a, b):
        assert node.ptts[key].leaf_digest(record.pair_seq) == want
        assert drain_reports(node)[0][1].record_digest == want
    msg = a.start_transfer(2, 40, tick + 1)
    reply = b.receive_propose(msg, tick + 1)
    result = a.receive_accept(AcceptMsg(reply.record, b"\x55" * 32), tick + 1)
    b.receive_abort(result, tick + 1)
    want = hash_leaf(reply.record.to_bytes())
    for node in (a, b):
        report = drain_reports(node)[0][1]
        assert report.aborted and report.record_digest == want


def test_divergent_payee_root_aborts_and_rolls_back():
    sim = small_world(clients=2, fund=10_000)
    a, b, tick = sim.clients[1], sim.clients[2], sim.now
    key = pair_of(1, 2)
    root_before_a = a.ptts[key].root()
    root_before_b = b.ptts[key].root()
    msg = a.start_transfer(2, 40, tick)
    reply = b.receive_propose(msg, tick)
    forged = AcceptMsg(reply.record, b"\x55" * 32)
    result = a.receive_accept(forged, tick)
    assert isinstance(result, AbortMsg) and "mismatch" in result.reason
    b.receive_abort(result, tick)
    assert a.ptts[key].root() == root_before_a
    assert b.ptts[key].root() == root_before_b
    assert a.balance == 10_000 and b.balance == 10_000
    assert not a.busy and not b.busy
    # a forged message aborts honest replicas, so both abort reports agree
    a_reports = drain_reports(a)
    b_reports = drain_reports(b)
    assert [k for k, _ in a_reports] == ["im"]
    assert [k for k, _ in b_reports] == ["im"]
    assert a_reports[0][1].aborted and b_reports[0][1].aborted
    assert a_reports[0][1].pttr == b_reports[0][1].pttr


def test_acceptance_of_another_record_aborts_one_sided():
    """An acceptance whose record is not the proposal aborts before the
    payer appends anything, so there is no second root to compare:
    neither side reports, and the Integrity Manager holds nothing."""
    sim = small_world(clients=2, fund=10_000)
    a, b, tick = sim.clients[1], sim.clients[2], sim.now
    key = pair_of(1, 2)
    root_before = b.ptts[key].root()
    _, (_, propose, _) = a.handle(None, StartTransferCmd(1, 2, 40, 1), tick)
    (_, accepted, _), = b.handle(1, propose, tick)
    forged = AcceptMsg(accepted.record._replace(amount=41), accepted.payee_root)
    payer_out = a.handle(2, forged, tick)
    abort = payer_out[1][1]
    assert payer_out == [
        ("abort", "pair=(1, 2) seq=1 reason=record does not match proposal"),
        (2, abort, 1),
    ]
    payee_out = b.handle(1, abort, tick)
    assert payee_out == [
        ("abort", "pair=(1, 2) seq=1 reason=record does not match proposal"),
    ]
    assert b.ptts[key].root() == root_before and len(b.ptts[key]) == 0
    assert not a.busy and not b.busy and not a.queue
    assert a.balance == b.balance == 10_000
    for entry in payer_out + payee_out:
        if entry[0] == "im":
            sim.im.ingest_report(entry[1], now=tick)
    sim.advance(50)
    assert sim.im._pending_aborts == {} and sim.im.next_deadline() is None
    assert sim.alerts == []


def test_tampered_replica_aborts_with_divergent_reports():
    sim = small_world(clients=2, fund=10_000)
    a, b = sim.clients[1], sim.clients[2]
    run_transfers(sim, [(1, 2, 10)])
    tick = sim.now
    key = pair_of(1, 2)
    b.ptts[key].tree.replace_leaf(0, b"\xde" * 232)
    msg = a.start_transfer(2, 20, tick + 1)
    reply = b.receive_propose(msg, tick + 1)
    result = a.receive_accept(reply, tick + 1)
    assert isinstance(result, AbortMsg)
    b.receive_abort(result, tick + 1)
    report_a = drain_reports(a)[0][1]
    report_b = drain_reports(b)[0][1]
    assert report_a.aborted and report_b.aborted
    assert report_a.pttr != report_b.pttr
    # the Integrity Manager turns the divergent pair into one alert
    from deltamoney.integrity_manager import AlertKind, IntegrityManager

    im = IntegrityManager(KeyStore("stub"), signer_id=900)
    im.note_client(1), im.note_client(2), im.note_pair(1, 2)
    assert im.ingest_report(report_a).status == "held"
    outcome = im.ingest_report(report_b)
    assert outcome.status == "mismatch"
    assert outcome.alert.kind is AlertKind.ROOT_MISMATCH
    assert set(outcome.alert.subjects) == {1, 2}


def test_byzantine_commit_root_is_rolled_back_and_reported():
    sim = small_world(clients=2, fund=10_000)
    a, b, tick = sim.clients[1], sim.clients[2], sim.now
    key = pair_of(1, 2)
    before = b.ptts[key].root()
    msg = a.start_transfer(2, 25, tick)
    reply = b.receive_propose(msg, tick)
    commit_msg = a.receive_accept(reply, tick)
    forged = CommitMsg(key, commit_msg.pair_seq, b"\x77" * 32)
    b.receive_commit(forged, tick)
    assert b.ptts[key].root() == before
    assert b.balance == 10_000
    assert [k for k, _ in drain_reports(b)] == ["im"]


def _payer_root_mismatch(a, b, reply):
    a.receive_accept(AcceptMsg(reply.record, b"\x55" * 32), 0)
    return a


def _forged_commit_root(a, b, reply):
    b.receive_commit(CommitMsg((1, 2), reply.record.pair_seq, b"\x77" * 32), 0)
    return b


def _root_mismatch_abort(a, b, reply):
    b.receive_abort(AbortMsg((1, 2), reply.record.pair_seq, "root mismatch"), 0)
    return b


@pytest.mark.parametrize("roll_back", [
    _payer_root_mismatch, _forged_commit_root, _root_mismatch_abort,
], ids=lambda roll_back: roll_back.__name__.strip("_"))
def test_reported_rollback_reports_the_root_and_leaf_it_dropped(roll_back):
    """Each rollback that reports restores the pair root and queues one
    aborted report of the root it held before and the record's leaf."""
    sim = small_world(clients=2, fund=10_000)
    a, b = sim.clients[1], sim.clients[2]
    before = {node: node.ptts[(1, 2)].root() for node in (a, b)}
    reply = b.receive_propose(a.start_transfer(2, 40, sim.now), sim.now)
    node = roll_back(a, b, reply)
    assert node.ptts[(1, 2)].root() == before[node]
    [(target, report)] = drain_reports(node)
    assert target == "im" and report.aborted
    assert (report.reporter, report.pair_key, report.pair_seq) == (
        node.id, (1, 2), reply.record.pair_seq)
    # an honest payer's root after the append is the payee's
    assert report.pttr == reply.payee_root
    assert report.record_digest == hash_leaf(reply.record.to_bytes())


@pytest.mark.parametrize("reason", sorted(ONE_SIDED_ABORTS))
def test_one_sided_abort_rolls_the_payee_back_and_reports_nothing(reason):
    sim = small_world(clients=2, fund=10_000)
    a, b = sim.clients[1], sim.clients[2]
    before = b.ptts[(1, 2)].root()
    reply = b.receive_propose(a.start_transfer(2, 40, sim.now), sim.now)
    b.receive_abort(AbortMsg((1, 2), reply.record.pair_seq, reason), sim.now)
    assert b.ptts[(1, 2)].root() == before and not b.busy
    assert drain_reports(b) == []


_DIGEST = b"\x01" * 32


@pytest.mark.parametrize("message, answer", [
    (TransactionProposal(3, 0, 2, 1, 5, _DIGEST, _DIGEST, _DIGEST),
     [(2, RejectMsg((1, 2), 3, "unreachable"), 0)]),
    (AcceptMsg(TransactionPairRecord(4, 0, 1, 2, 5, *[_DIGEST] * 6), _DIGEST),
     [(2, AbortMsg((1, 2), 4, "unreachable"), 0)]),
    (StartTransferCmd(1, 2, 5, 9), [("give-up", "payee=2 amount=5 reason=crashed")]),
    (RetryMsg(), []),
], ids=["TransactionProposal", "AcceptMsg", "StartTransferCmd", "RetryMsg"])
def test_answer_unreachable_answers_for_the_down_client(message, answer):
    """The entries a crashed client's outbox would hold for ``message``
    from client 2; a reply goes back to the sender at once."""
    out = answer_unreachable(2, message)
    # equal tuples of different message types compare equal, so the types too
    assert out == answer
    assert [type(entry[1]) for entry in out] == [type(entry[1]) for entry in answer]


@pytest.mark.parametrize("copied", [True, False],
                         ids=["copy-rolled-back", "nothing-copied"])
def test_commit_after_a_stale_answer_checks_the_opened_balance(copied):
    """A live commit checks the balance against the one its exchange
    opened with.

    Client 2 proposes 10 to client 3, crashes and is rebuilt, then
    accepts 5 from client 1.  Client 3's acceptance of the old proposal
    reaches it while it holds that exchange.  Rebuilt after client 3
    accepted, it copied the record, and the stale answer rolls the copy
    back: the balance its (1, 2) commitments bind is gone, and the
    commit raises.  Rebuilt before, it has nothing to roll back, and the
    commit goes through.
    """
    sim = small_world(fund=10_000)
    one, two, three, tick = sim.clients[1], sim.clients[2], sim.clients[3], sim.now
    proposal = two.start_transfer(3, 10, tick)
    if copied:
        old_acceptance = three.receive_propose(proposal, tick)
    sim.inject("crash-client", 2)
    sim.recover(2)
    if not copied:
        old_acceptance = three.receive_propose(proposal, tick)
    assert two.balance == (9_990 if copied else 10_000)
    held = two.receive_propose(one.start_transfer(2, 5, tick + 1), tick + 1)
    assert isinstance(held, AcceptMsg)
    stale = two.receive_accept(old_acceptance, tick + 2)
    assert isinstance(stale, AbortMsg) and stale.reason == "stale"
    three.receive_abort(stale, tick + 2)
    assert two.balance == 10_000
    commit = one.receive_accept(held, tick + 2)
    assert isinstance(commit, CommitMsg)
    if copied:
        with pytest.raises(CommitmentMismatch, match="prior balance"):
            two.receive_commit(commit, tick + 3)
    else:
        two.receive_commit(commit, tick + 3)
        assert two.balance == 10_005 == two.expected_balance()
        assert [kind for kind, _ in drain_reports(two)] == ["im", "cm"]


def test_stale_answer_rolls_the_balance_tree_back_in_log_time(sha256_calls):
    """A stale answer drops the copied record's balance change with one
    ``remove_last``: the root is that of the history without it, and the
    rollback hashes at most one digest per level of the balance tree."""
    sim = small_world(fund=10_000)
    two, three = sim.clients[2], sim.clients[3]
    run_transfers(sim, (((2, 3) if i % 2 else (3, 2)) + (1 + i,) for i in range(40)))
    tick = sim.now
    old_acceptance = three.receive_propose(two.start_transfer(3, 10, tick), tick)
    sim.inject("crash-client", 2)
    sim.recover(2)
    records = list(two.mht.records)
    assert records[-1].delta == -10
    rollbacks = []
    remove_last = two.mht.remove_last

    def counted_remove_last():
        before = sha256_calls[0]
        remove_last()
        rollbacks.append(sha256_calls[0] - before)

    two.mht.remove_last = counted_remove_last
    stale = two.receive_accept(old_acceptance, tick + 1)
    assert isinstance(stale, AbortMsg) and stale.reason == "stale"
    assert two.mht.root() == BalanceMHT.build(records[:-1]).root()
    assert len(rollbacks) == 1
    assert 0 < rollbacks[0] <= len(two.mht).bit_length()
    assert two.balance == two.expected_balance() == records[-2].new_balance


def test_balance_matches_net_positions_after_random_traffic():
    sim = run_traffic(seed=42, n_clients=4, rounds=200)
    log = sim.log.text()
    assert "|refuse|" not in log and "|abort|" not in log
    nodes = [sim.clients[c] for c in (1, 2, 3, 4)]
    for node in nodes:
        assert node.balance == node.expected_balance()
    assert sim.treasury.balance == sim.treasury.expected_balance()
    total = sum(node.balance for node in nodes)
    assert total == 4 * 10_000


def test_mht_records_cross_reference_ptt_roots():
    sim = small_world(clients=2, fund=10_000)
    a = sim.clients[1]
    run_transfers(sim, [(1, 2, 10), (2, 1, 4)])
    key = pair_of(1, 2)
    records = [r for r in a.mht.records if r.peer_id == 2]
    assert records[-1].causing_pttr == a.ptts[key].root()


def run_traffic(seed=7, n_clients=3, rounds=60):
    """``rounds`` random transfers of 1-40, each run to its end; a payer
    short of the amount sits its round out."""
    rng = random.Random(seed)
    sim = small_world(seed=seed, clients=n_clients, fund=10_000)
    ids = list(range(1, n_clients + 1))
    for _ in range(rounds):
        payer, payee = rng.sample(ids, 2)
        amount = rng.randint(1, 40)
        if sim.clients[payer].balance >= amount:
            run_transfers(sim, [(payer, payee, amount)])
    return sim


def forged_partners(sim, forge):
    """Client 1's recovery data from clients 0, 2 and 3, where ``forge``
    rewrites client 2's list of records on pair (1, 2) in place and the
    claimed root is rebuilt to match, so only the replay can refuse it."""
    data = sim.clients[2].export_recovery_data(1)
    records = list(data.records)
    forge(records)
    forged = data._replace(records=tuple(records))
    forged = forged._replace(root=PeerTransactionTree.restore(forged).root())
    return [forged, *(sim.clients[p].export_recovery_data(1) for p in (0, 3))]


def misfiled_replica(sim, forgery):
    """Client 2's replica of pair (1, 2), still keyed (1, 2), with its
    records forged so ``_check`` refuses one: a seq skipped, a seq
    repeated, or record 2 swapped for pair (2, 3)'s record 2.  Returned
    with the error that appending the records one by one to a fresh
    pair tree raises."""
    replica = sim.clients[2].export_recovery_data(1)
    records = list(replica.records)
    if forgery == "skipped seq":
        del records[1]
    elif forgery == "repeated seq":
        records.insert(2, records[1])
    else:
        records[1] = sim.clients[2].ptts[(2, 3)].records[1]
    appended = PeerTransactionTree(1, 2)
    with pytest.raises((NonMonotonicSequence, UnregisteredPair)) as refused:
        for record in records:
            appended.append_record(record)
    return replica._replace(records=tuple(records)), refused.value


MISFILED = pytest.mark.parametrize("forgery, error", [
    ("skipped seq", NonMonotonicSequence),
    ("repeated seq", NonMonotonicSequence),
    ("other pair's record", UnregisteredPair),
])


def view_tuples(node):
    """(peer, pair_seq, prior, new) of each balance change, in tree order."""
    return [(r.peer_id, r.pair_seq, r.new_balance - r.delta, r.new_balance)
            for r in node.mht.records]


class TestRecovery:
    def test_recovered_state_is_bit_identical(self):
        sim = run_traffic()
        victim = sim.clients[1]
        mhtr_before = victim.mht.root()
        balance_before = victim.balance
        ptt_roots_before = {k: p.root() for k, p in victim.ptts.items()}
        views_before = view_tuples(victim)
        seq_before = len(victim.mht)

        partners = [sim.clients[i].export_recovery_data(1) for i in (0, 2, 3)]
        victim.recover_transactions(partners, lambda key: None)

        assert victim.mht.root() == mhtr_before
        assert victim.balance == balance_before
        assert len(victim.mht) == seq_before
        assert {k: p.root() for k, p in victim.ptts.items()} == ptt_roots_before
        assert view_tuples(victim) == views_before

    def test_deep_balance_tree_recovery_is_bit_identical(self):
        """A victim with 220 balance records, so its balance tree stores
        eight levels and folds its root from five peaks, and the treasury
        with its opening reserve record both rebuild the trees they had
        before the crash."""
        sim = small_world(seed=5, fund=10_000)
        victim = sim.clients[1]
        rng = random.Random(5)
        while len(victim.mht) < 220:
            count = len(victim.mht)
            payer, payee = rng.sample([1, rng.choice((2, 3))], 2)
            run_transfers(sim, [(payer, payee, rng.randint(1, 60))])
            assert len(victim.mht) == count + 1
        assert len(victim.mht.tree._levels) == 8
        assert sim.alerts == [] and sim.cm.check_conservation().holds

        def crash_and_recover(node, partners):
            partners = [sim.clients[p].export_recovery_data(node.id)
                        for p in partners]
            before = (node.mht.root(), node.persist_snapshot(),
                      len(node.mht), view_tuples(node))
            node.wipe()
            node.recover_transactions(partners, lambda key: None)
            assert (node.mht.root(), node.persist_snapshot(),
                    len(node.mht), view_tuples(node)) == before
            loaded = ClientNode.load_snapshot(node.persist_snapshot(),
                                              node.keystore)
            assert loaded.mht.root() == node.mht.root()
            assert loaded.mht.records == node.mht.records

        crash_and_recover(victim, [0, 2, 3])
        crash_and_recover(sim.treasury, [1, 2, 3])

    @pytest.mark.parametrize("count", [255, 256, 257])
    def test_one_pair_around_a_power_of_two_recovers_bit_identical(self, count):
        """A pair of 2**8 - 1, 2**8 and 2**8 + 1 records: the prefix roots
        the replay cites fold one to nine peaks, and the pair tree gains
        its ninth level at 257."""
        sim = small_world(clients=2, fund=10_000)
        a = sim.clients[1]
        run_transfers(sim, (((1, 2) if index % 3 else (2, 1)) + (1 + index % 5,)
                            for index in range(count)))
        assert len(a.ptts[(1, 2)]) == count
        records = list(a.mht.records)
        snapshot = a.persist_snapshot()
        partners = [sim.clients[p].export_recovery_data(1) for p in (0, 2)]
        a.wipe()
        a.recover_transactions(partners, lambda key: None)
        assert a.mht.records == records
        assert a.persist_snapshot() == snapshot

    @pytest.mark.parametrize("case, error", [
        ("forged-commitment", CommitmentMismatch),
        ("missing-partner", NegativeBalance),
        ("other-pair", PartnerRootDisagreement),
    ])
    def test_failed_recovery_leaves_the_node_as_it_was(self, case, error):
        """A recovery that raises must not leave a half-recovered node.

        A partner's record whose balance commitment is junk, under a root
        rebuilt to match it, passes the rebuild and fails the replay late;
        without the treasury's data the replay lacks the issuance and the
        first payment would go negative; a replica of pair (2, 3) is not
        client 1's to rebuild from.  Each way the node keeps the state it
        had before the call.
        """
        sim = small_world(fund=10_000)
        a = sim.clients[1]
        run_transfers(sim, [(1, 2, 10), (1, 2, 11), (1, 2, 12), (1, 2, 5)])
        partners = [sim.clients[p].export_recovery_data(1) for p in (2, 3)]
        if case == "forged-commitment":
            replica = partners[0]
            records = list(replica.records)
            records[1] = records[1]._replace(payer_new_commit=b"\x03" * 32)
            forged = replica._replace(records=tuple(records))
            partners[0] = forged._replace(
                root=PeerTransactionTree.restore(forged).root())
        if case != "missing-partner":
            partners.append(sim.treasury.export_recovery_data(1))
        if case == "other-pair":
            partners.append(sim.clients[2].export_recovery_data(3))

        def state():
            return (a.persist_snapshot(), a.balance, len(a.mht),
                    a.mht.root(), view_tuples(a),
                    {k: p.root() for k, p in a.ptts.items()})

        before = state()
        assert a.balance == 9962 and len(a.mht) == 5
        with pytest.raises(error):
            a.recover_transactions(partners, lambda key: None)
        assert state() == before

    @MISFILED
    def test_misfiled_replica_is_refused_as_appending_would(self, forgery, error):
        """A partner's replica of the right pair whose records skip a seq,
        repeat one or take in another pair's record is refused with the
        error and message appending them raises, and the node keeps its
        state."""
        sim = run_traffic()
        forged, expected = misfiled_replica(sim, forgery)
        victim = sim.clients[1]
        partners = [forged, *(sim.clients[p].export_recovery_data(1)
                              for p in (0, 3))]
        before = victim.persist_snapshot(), victim.mht.root()
        with pytest.raises(error) as refused:
            victim.recover_transactions(partners, lambda key: None)
        assert type(expected) is error
        assert str(refused.value) == str(expected)
        assert (victim.persist_snapshot(), victim.mht.root()) == before

    def test_partner_claiming_wrong_root_is_caught(self):
        sim = run_traffic()
        data = sim.clients[2].export_recovery_data(1)
        lying = data._replace(root=b"\x01" * 32)
        with pytest.raises(PartnerRootDisagreement):
            sim.clients[1].recover_transactions([lying], lambda key: None)

    def test_validated_root_disagreement_is_caught(self):
        """A forged validated root, at the latest seq or at an earlier one."""
        sim = run_traffic()
        data = sim.clients[2].export_recovery_data(1)
        last = data.records[-1].pair_seq
        for seq in (last, last - 1):
            with pytest.raises(PartnerRootDisagreement):
                sim.clients[1].recover_transactions(
                    [data], lambda key: (seq, b"\x02" * 32))

    def test_validated_seq_past_the_rebuilt_history_is_caught(self):
        """Partners that hand over a truncated history are refused."""
        sim = run_traffic()
        data = sim.clients[2].export_recovery_data(1)
        truncated = data._replace(
            records=data.records[:-1],
            root=sim.clients[2].ptts[(1, 2)].tree.root_at(
                data.records[-2].pair_seq))
        validated = (data.records[-1].pair_seq, data.root)
        with pytest.raises(PartnerRootDisagreement, match="before the validated"):
            sim.clients[1].recover_transactions([truncated], lambda key: validated)

    def test_replica_under_a_reversed_pair_key_is_refused(self):
        """A truncated history keyed (2, 1) would miss the IM's (1, 2)
        entry and skip the check above, so it is refused for its key."""
        sim = run_traffic()
        data = sim.clients[2].export_recovery_data(1)
        truncated = data._replace(
            pair_key=(2, 1),
            records=data.records[:-1],
            root=sim.clients[2].ptts[(1, 2)].tree.root_at(
                data.records[-2].pair_seq))
        partners = [sim.clients[p].export_recovery_data(1) for p in (0, 3)]
        validated = {pair_of(1, 2): (data.records[-1].pair_seq, data.root)}
        with pytest.raises(PartnerRootDisagreement, match="lower id first"):
            sim.clients[1].recover_transactions(partners + [truncated],
                                                validated.get)

    def test_validated_root_agreement_passes(self):
        """The IM's root at the latest seq, or at an earlier one it has
        validated while later reports are still in flight."""
        sim = run_traffic()
        data = sim.clients[2].export_recovery_data(1)
        ptt = sim.clients[2].ptts[(1, 2)]
        last = data.records[-1].pair_seq
        partners = [sim.clients[p].export_recovery_data(1) for p in (0, 2, 3)]
        for seq in (last, last - 1):
            trusted = {pair_of(1, 2): (seq, ptt.tree.root_at(seq))}
            sim.clients[1].recover_transactions(partners, trusted.get)


    def test_partner_history_whose_timestamps_fall_back_is_refused(self):
        """Replay runs in timestamp order, so a record moved before its
        predecessor meets a balance its commitments do not open."""
        sim = run_traffic()

        def fall_back(records):
            records[1] = records[1]._replace(timestamp=records[0].timestamp - 1)

        victim = sim.clients[1]
        before = victim.persist_snapshot(), victim.mht.root()
        with pytest.raises(ValueError, match="prior balance"):
            victim.recover_transactions(forged_partners(sim, fall_back),
                                        lambda key: None)
        assert (victim.persist_snapshot(), victim.mht.root()) == before

    def test_forged_new_commitment_mid_history_is_refused(self):
        """Client 1's new-balance commitment forged on a record halfway
        through its history with client 2: the prior one still opens, so
        the replay refuses the record on its new balance."""
        sim = run_traffic()

        def forge(records):
            i = len(records) // 2
            record = records[i]
            side = "payer" if record.payer_id == 1 else "payee"
            records[i] = record._replace(**{f"{side}_new_commit": b"\x11" * 32})

        victim = sim.clients[1]
        before = victim.persist_snapshot(), victim.mht.root()
        with pytest.raises(CommitmentMismatch, match="new balance"):
            victim.recover_transactions(forged_partners(sim, forge), lambda key: None)
        assert (victim.persist_snapshot(), victim.mht.root()) == before

    @pytest.mark.parametrize("first", ["commitment", "overdraft"])
    def test_replay_raises_on_the_earliest_forged_record(self, first):
        """Two records client 1 paid on, one with its prior commitment
        forged and one with an amount it cannot cover: whichever comes
        first in the replay raises, and the node is left as it was."""
        sim = run_traffic()

        def wrong_commitment(record):
            return record._replace(payer_prior_commit=b"\x11" * 32)

        def overdraft(record):
            return record._replace(amount=10**9)

        faults = [wrong_commitment, overdraft]
        if first == "overdraft":
            faults.reverse()

        def forge(records):
            paid = [i for i, record in enumerate(records) if record.payer_id == 1]
            for i, fault in zip((paid[len(paid) // 3], paid[2 * len(paid) // 3]),
                                faults):
                records[i] = fault(records[i])

        victim = sim.clients[1]
        before = victim.persist_snapshot(), victim.mht.root()
        if first == "commitment":
            expected = pytest.raises(CommitmentMismatch, match="prior balance")
        else:
            expected = pytest.raises(NegativeBalance, match="may not go negative")
        with expected:
            victim.recover_transactions(forged_partners(sim, forge), lambda key: None)
        assert (victim.persist_snapshot(), victim.mht.root()) == before

    def test_recovery_and_later_commits_keep_their_digest_counts(
            self, sha256_calls, monkeypatch):
        """SHA-256 digests of one recovery, of loading its snapshot, and of
        the commits after it, and the record encodes of the recovery and
        the load.

        Four clients on a ring of four pairs, each issued 10**6, run 200
        transfers; client 1 crashes and is rebuilt from 101 records, its
        snapshot is loaded, then it pays client 2 fifty times.  Every
        digest is one ``hashlib.sha256`` call, so a change to the replay or
        to any tree's hashing shows.

        The recovery's 774: 2 commitments per replayed record in
        ``local_view`` (202), the pair trees' 101 leaves and 98 internal
        nodes, 172 prefix-root folds, and the balance tree's 101 leaves
        and 100 internal nodes.  A load replays the same records through
        the same recovery, plus the snapshot's checksum and the key
        derivation of its fresh node: 776.  The 50 commits' 1166: per
        commit, 4 commitments (200), 2 pair-tree leaves (100) with the
        parents they complete and their root folds (366), and 2
        balance-tree inserts, clients 1 and 2 each growing from 101 to 151
        records (100 leaves and 400 parents and root folds); a live commit
        checks no commitment and hashes no report digest.

        The recovery and the load each encode every one of the 101 pair
        records and every one of the 101 balance records exactly once,
        each through its ``to_bytes``, for its tree's leaf.
        """
        encodes = {TransactionPairRecord: 0, BalanceChangeRecord: 0}

        def counted(cls):
            to_bytes = cls.to_bytes

            def counting(record):
                encodes[cls] += 1
                return to_bytes(record)
            return counting

        for cls in encodes:
            monkeypatch.setattr(cls, "to_bytes", counted(cls))
        sim = Simulation(seed=7)
        pairs = [(1, 2), (2, 3), (3, 4), (1, 4)]
        for c in range(1, 5):
            sim.enroll(c)
        for a, b in pairs:
            sim.register(a, b)
        for c in range(1, 5):
            sim.issue(c, 10**6)
            sim.advance(10)
        for i in range(200):
            a, b = pairs[i % 4]
            sim.transfer(*((b, a) if i % 3 == 0 else (a, b)), 100 + i)
            sim.advance(10)
        sim.quiesce()
        sim.inject("crash-client", 1)

        digests = sha256_calls
        digests[0] = 0
        encodes.update(dict.fromkeys(encodes, 0))
        sim.recover(1)
        assert len(sim.clients[1].mht) == 101
        assert sum(map(len, sim.clients[1].ptts.values())) == 101
        assert digests[0] == 774
        assert encodes == {TransactionPairRecord: 101, BalanceChangeRecord: 101}
        snapshot, keystore = sim.clients[1].persist_snapshot(), KeyStore("stub")
        digests[0] = 0
        encodes.update(dict.fromkeys(encodes, 0))
        loaded = ClientNode.load_snapshot(snapshot, keystore)
        assert loaded.mht.root() == sim.clients[1].mht.root()
        assert digests[0] == 774 + 2
        assert encodes == {TransactionPairRecord: 101, BalanceChangeRecord: 101}
        digests[0] = 0
        for i in range(50):
            sim.transfer(1, 2, 7 + i)
            sim.advance(10)
        sim.quiesce()
        assert digests[0] == 1166


class TestRecoverBalance:
    """A client's balance is recoverable from the manager's open row,
    which the conservation audit vouches for only while the rows sum to
    the supply."""

    def test_recover_balance_agrees(self):
        sim = small_world(fund=10_000)
        assert sim.cm.check_conservation().holds
        assert sim.cm.table.open_row(2).valid_balance == sim.clients[2].balance
        assert sim.clients[2].balance == 10_000

    def test_recover_balance_detects_forged_row(self):
        sim = small_world(fund=10_000)
        sim.inject("forge-balance", 3, 5)
        verdict = sim.cm.check_conservation()
        assert not verdict.holds and verdict.discrepancy == 5


class TestSnapshots:
    def test_round_trip_preserves_everything(self):
        node = run_traffic(seed=11).clients[2]
        blob = node.persist_snapshot()
        ks = KeyStore("stub")
        loaded = ClientNode.load_snapshot(blob, ks)
        assert loaded.id == node.id
        assert loaded.balance == node.balance
        assert len(loaded.mht) == len(node.mht)
        assert loaded.mht.root() == node.mht.root()
        assert loaded.transaction_limit == node.transaction_limit
        assert {k: p.root() for k, p in loaded.ptts.items()} == {
            k: p.root() for k, p in node.ptts.items()
        }
        assert view_tuples(loaded) == view_tuples(node)
        # the reloaded node keeps transacting from where it left off
        loaded.register_peer(3)

    def test_snapshot_refused_mid_exchange(self):
        sim = small_world(clients=2, fund=10_000)
        sim.clients[1].start_transfer(2, 5, sim.now)
        with pytest.raises(NotQuiescent):
            sim.clients[1].persist_snapshot()

    @pytest.mark.parametrize("where", [2, 40, 130, -40, -1])
    def test_any_flipped_byte_is_detected(self, where):
        blob = bytearray(run_traffic(seed=13).clients[1].persist_snapshot())
        blob[where] ^= 0x40
        with pytest.raises(CorruptSnapshot):
            ClientNode.load_snapshot(bytes(blob), KeyStore("stub"))

    def test_record_disagreeing_with_the_balance_tree_is_corrupt(self):
        """A well-formed snapshot whose pair record does not commit to the
        balances its replay derives; every checksum is valid."""
        sim = small_world(clients=2, fund=10_000)
        a = sim.clients[1]
        run_transfers(sim, [(1, 2, 30)])
        ptt = a.ptts[pair_of(1, 2)]
        forged = ptt.records[-1]._replace(payer_prior_commit=b"\x00" * 32)
        ptt.rollback_last()
        ptt.append_record(forged)
        with pytest.raises(CorruptSnapshot, match="prior balance"):
            ClientNode.load_snapshot(a.persist_snapshot(), KeyStore("stub"))

    @pytest.mark.parametrize("forgery, refusal", [
        ("made-up root", "records rebuild to root"),
        ("amount the balances do not open", "new balance does not match"),
    ])
    def test_forged_pair_records_are_refused(self, forgery, refusal):
        """A snapshot stores no balance record, so a forged balance or
        causing PTTR can only be written through the pair records, and
        every checksum is recomputed: a replica root its records do not
        rebuild to, or a record whose amount (root rebuilt to match) moves
        the balance off its commitment."""
        sim = small_world(clients=2, fund=10_000)
        a = sim.clients[1]
        run_transfers(sim, [(1, 2, 30)])
        if forgery != "made-up root":
            ptt = a.ptts[pair_of(1, 2)]
            forged = ptt.records[-1]._replace(amount=70)
            ptt.rollback_last()
            ptt.append_record(forged)
        body = bytearray(a.persist_snapshot()[:-32])
        if forgery == "made-up root":
            body[-32:] = b"\x07" * 32  # the last pair section's root
        blob = bytes(body) + hashlib.sha256(bytes(body)).digest()
        with pytest.raises(CorruptSnapshot, match=refusal):
            ClientNode.load_snapshot(blob, KeyStore("stub"))

    def test_snapshot_of_the_previous_version_is_refused(self):
        """A version-2 snapshot stored a balance tree beside its pair
        sections; with a valid checksum it is still refused, by its
        version."""
        a = run_traffic(seed=13).clients[1]
        body = bytearray(a.persist_snapshot()[:-32])
        body[4:8] = (2).to_bytes(4, "big")  # the u32 after the magic
        blob = bytes(body) + hashlib.sha256(bytes(body)).digest()
        with pytest.raises(CorruptSnapshot,
                           match="^unsupported snapshot version 2$"):
            ClientNode.load_snapshot(blob, KeyStore("stub"))

    @MISFILED
    def test_misfiled_pair_section_is_corrupt(self, forgery, error):
        """A snapshot whose pair section for (1, 2) skips a seq, repeats
        one or takes in another pair's record, checksum recomputed, is a
        ``CorruptSnapshot`` carrying the message appending the records
        raises."""
        sim = run_traffic()
        forged, expected = misfiled_replica(sim, forgery)
        a = sim.clients[1]
        body = a.persist_snapshot()[:-32]
        section = a.ptts[(1, 2)].replica().to_bytes()
        assert body.count(section) == 1
        body = body.replace(section, forged.to_bytes())
        blob = body + hashlib.sha256(body).digest()
        with pytest.raises(CorruptSnapshot) as refused:
            ClientNode.load_snapshot(blob, KeyStore("stub"))
        assert type(expected) is error
        assert type(refused.value.__cause__) is error
        assert str(refused.value) == str(expected)

    def test_truncated_snapshot_is_detected(self):
        blob = small_world(clients=2, fund=10_000).clients[1].persist_snapshot()
        with pytest.raises(CorruptSnapshot):
            ClientNode.load_snapshot(blob[: len(blob) // 2], KeyStore("stub"))


def test_treasury_invariant_holds():
    treasury = small_world(clients=2, fund=500).treasury
    assert treasury.balance == TREASURY_RESERVE - 1000
    assert treasury.expected_balance() == treasury.balance
    key = pair_of(MANAGER_ID, 1)
    assert net_position(treasury.ptts[key], MANAGER_ID) == -500
