"""Client node tests: handshake, finalization, recovery, snapshots."""

import dataclasses
import hashlib
import random

import pytest

from deltamoney.client import (
    AbortMsg,
    AcceptMsg,
    BalanceReport,
    ClientNode,
    CommitMsg,
    PartnerRecoveryData,
    ProposeMsg,
    RejectMsg,
    TREASURY_RESERVE,
    pair_of,
    record_digest,
    transact,
)
from deltamoney.currency_manager import MANAGER_ID, CurrencyManager
from deltamoney.errors import (
    ConservationViolation,
    CorruptSnapshot,
    InsufficientBalance,
    LimitExceeded,
    NegativeBalance,
    NotQuiescent,
    NotRegisteredPeers,
    PartnerRootDisagreement,
    PeerSuspended,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST, KeyStore
from deltamoney.integrity_manager import TransactionReport
from deltamoney.peer_ledger import net_position, reset_epoch


def make_nodes(*ids, limit=10**9):
    ks = KeyStore("stub")
    nodes = {i: ClientNode(i, ks, transaction_limit=limit) for i in ids}
    for a in ids:
        for b in ids:
            if a < b:
                nodes[a].register_peer(b)
                nodes[b].register_peer(a)
    return nodes


def make_funded(*ids, amount=10_000, limit=10**9, fanouts=None):
    ks = KeyStore("stub")
    treasury = ClientNode(MANAGER_ID, ks, opening_reserve=TREASURY_RESERVE)
    nodes = {i: ClientNode(i, ks, transaction_limit=limit,
                           fanout=(fanouts or {}).get(i, 8)) for i in ids}
    tick = 1
    for i in ids:
        treasury.register_peer(i)
        nodes[i].register_peer(MANAGER_ID)
        outcome = transact(treasury, nodes[i], amount, tick)
        assert outcome.committed
        tick += 1
    for a in ids:
        for b in ids:
            if a < b:
                nodes[a].register_peer(b)
                nodes[b].register_peer(a)
    return treasury, nodes, tick


def test_direct_transfer_commits_and_moves_balances():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    a.drain_reports(), b.drain_reports()
    outcome = transact(a, b, 300, tick)
    assert outcome.committed
    assert a.balance == 9_700
    assert b.balance == 10_300
    key = pair_of(1, 2)
    assert a.ptts[key].root() == b.ptts[key].root() == outcome.root
    assert view_tuples(a)[-1] == (2, 1, 10_000, 9_700)
    assert view_tuples(b)[-1] == (1, 1, 10_000, 10_300)


def test_commit_queues_one_im_and_one_cm_report_per_side():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    a.drain_reports(), b.drain_reports()
    transact(a, b, 50, tick)
    for node in (a, b):
        reports = node.drain_reports()
        kinds = [kind for kind, _ in reports]
        assert kinds == ["im", "cm"]
        im_report = reports[0][1]
        cm_report = reports[1][1]
        assert isinstance(im_report, TransactionReport)
        assert isinstance(cm_report, BalanceReport)
        assert im_report.pttr == node.ptts[pair_of(1, 2)].root()
        assert cm_report.new_balance == node.balance
        assert cm_report.mhtr == node.mht.root()
    assert node.drain_reports() == []


def test_treasury_pair_queues_only_a_chained_supply_report():
    treasury, nodes, tick = make_funded(1)
    reports = nodes[1].drain_reports()
    assert [k for k, _ in reports] == ["cm"]
    issued = reports[0][1]
    assert isinstance(issued, BalanceReport)
    assert (issued.client_id, issued.supply, issued.new_balance) == (1, 10_000, 10_000)
    assert issued.prior_mhtr == EMPTY_TREE_DIGEST
    assert issued.mhtr == nodes[1].mht.root()
    assert treasury.drain_reports() == []
    assert nodes[1].balance == 10_000
    assert treasury.balance == TREASURY_RESERVE - 10_000

    assert transact(nodes[1], treasury, 400, tick).committed
    [(kind, redeemed)] = nodes[1].drain_reports()
    assert kind == "cm"
    assert (redeemed.supply, redeemed.new_balance) == (-400, 9_600)
    assert redeemed.prior_mhtr == issued.mhtr
    assert redeemed.mhtr == nodes[1].mht.root()
    assert treasury.drain_reports() == []


def test_handshake_is_three_messages_and_none_to_managers():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    a.drain_reports(), b.drain_reports()
    wire = []
    msg = a.start_transfer(2, 75, tick)
    wire.append(msg)
    reply = b.receive_propose(msg, tick + 1)
    wire.append(reply)
    result = a.receive_accept(reply, tick + 2)
    wire.append(result)
    b.receive_commit(result, tick + 3)
    assert [type(m) for m in wire] == [ProposeMsg, AcceptMsg, CommitMsg]
    # reports exist but only after the commit, off the critical path
    assert a.balance == 9_925 and b.balance == 10_075


def test_busy_node_rejects_incoming_proposals():
    treasury, nodes, tick = make_funded(1, 2, 3)
    a, b, c = nodes[1], nodes[2], nodes[3]
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
    treasury, nodes, tick = make_funded(1, 2, 3)
    one, two, three = nodes[1], nodes[2], nodes[3]
    opened = three.start_transfer(2, 100, tick)
    accepted = two.receive_propose(opened, tick)
    assert isinstance(accepted, AcceptMsg)
    two.receive_abort(AbortMsg((1, 2), 1, b"\x00" * 32, "stray"), tick)
    two.receive_commit(CommitMsg((1, 2), 1, b"\x00" * 32), tick)
    two.receive_reject(RejectMsg((2, 3), 1, "stray"), tick)
    assert two.busy
    # the payer's side ignores a commit, abort or reject meant for another
    # pair, and a commit or abort for its own pair, which only a payee gets
    three.receive_reject(RejectMsg((1, 3), 1, "stray"), tick)
    three.receive_commit(CommitMsg((2, 3), 1, b"\x00" * 32), tick)
    three.receive_abort(AbortMsg((2, 3), 1, b"\x00" * 32, "stray"), tick)
    assert three.busy
    second = one.start_transfer(2, 40, tick)
    assert two.receive_propose(second, tick).reason == "busy"
    one.receive_reject(RejectMsg((1, 2), second.proposal.pair_seq, "busy"), tick)
    result = three.receive_accept(accepted, tick)
    assert isinstance(result, CommitMsg)
    two.receive_commit(result, tick)
    assert not two.busy and not three.busy
    assert transact(one, two, 40, tick + 1).committed
    assert (one.balance, two.balance, three.balance) == (9_960, 10_140, 9_900)
    for node in (one, two, three):
        assert node.balance == node.expected_balance()


def test_payer_guards_propagate():
    treasury, nodes, tick = make_funded(1, 2, amount=100, limit=50)
    a, b = nodes[1], nodes[2]
    with pytest.raises(LimitExceeded):
        transact(a, b, 60, tick)
    transact(a, b, 50, tick)
    transact(a, b, 45, tick + 1)
    with pytest.raises(InsufficientBalance):
        transact(a, b, 20, tick + 2)  # only 5 left
    assert not a.busy and not b.busy
    assert a.balance == 5 and b.balance == 195


def test_suspended_payee_refuses():
    treasury, nodes, tick = make_funded(1, 2)
    nodes[2].suspended = True
    with pytest.raises(PeerSuspended):
        transact(nodes[1], nodes[2], 10, tick)
    assert not nodes[1].busy
    assert nodes[1].balance == 10_000


def test_unregistered_pair_refuses():
    ks = KeyStore("stub")
    a = ClientNode(1, ks)
    b = ClientNode(2, ks)
    with pytest.raises(NotRegisteredPeers):
        transact(a, b, 10, 1)


def test_commit_and_abort_reports_carry_the_record_digest():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    a.drain_reports(), b.drain_reports()
    transact(a, b, 50, tick)
    record = a.ptts[pair_of(1, 2)].records[-1]
    want = hashlib.sha256(record.to_bytes()).digest()
    assert record_digest(record) == want
    for node in (a, b):
        assert node.drain_reports()[0][1].record_digest == want
    msg = a.start_transfer(2, 40, tick + 1)
    reply = b.receive_propose(msg, tick + 1)
    result = a.receive_accept(AcceptMsg(reply.record, b"\x55" * 32), tick + 1)
    b.receive_abort(result, tick + 1)
    want = hashlib.sha256(reply.record.to_bytes()).digest()
    for node in (a, b):
        report = node.drain_reports()[0][1]
        assert report.aborted and report.record_digest == want


def test_divergent_payee_root_aborts_and_rolls_back():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    a.drain_reports(), b.drain_reports()
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
    a_reports = a.drain_reports()
    b_reports = b.drain_reports()
    assert [k for k, _ in a_reports] == ["im"]
    assert [k for k, _ in b_reports] == ["im"]
    assert a_reports[0][1].aborted and b_reports[0][1].aborted
    assert a_reports[0][1].pttr == b_reports[0][1].pttr


def test_tampered_replica_aborts_with_divergent_reports():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    transact(a, b, 10, tick)
    a.drain_reports(), b.drain_reports()
    key = pair_of(1, 2)
    b.ptts[key].tamper_leaf(0, b"\xde" * 232)
    msg = a.start_transfer(2, 20, tick + 1)
    reply = b.receive_propose(msg, tick + 1)
    result = a.receive_accept(reply, tick + 1)
    assert isinstance(result, AbortMsg)
    b.receive_abort(result, tick + 1)
    report_a = a.drain_reports()[0][1]
    report_b = b.drain_reports()[0][1]
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
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    b.drain_reports()
    key = pair_of(1, 2)
    before = b.ptts[key].root()
    msg = a.start_transfer(2, 25, tick)
    reply = b.receive_propose(msg, tick)
    commit_msg = a.receive_accept(reply, tick)
    forged = CommitMsg(key, commit_msg.pair_seq, b"\x77" * 32)
    b.receive_commit(forged, tick)
    assert b.ptts[key].root() == before
    assert b.balance == 10_000
    assert [k for k, _ in b.drain_reports()] == ["im"]


def test_balance_matches_net_positions_after_random_traffic():
    random.seed(42)
    treasury, nodes, tick = make_funded(1, 2, 3, 4)
    ids = list(nodes)
    for _ in range(200):
        payer, payee = random.sample(ids, 2)
        amount = random.randint(1, 50)
        if nodes[payer].balance < amount:
            continue
        outcome = transact(nodes[payer], nodes[payee], amount, tick)
        assert outcome.committed
        tick += 1
    for node in nodes.values():
        assert node.balance == node.expected_balance()
    assert treasury.balance == treasury.expected_balance()
    total = sum(node.balance for node in nodes.values())
    assert total == 4 * 10_000


def test_mht_records_cross_reference_ptt_roots():
    treasury, nodes, tick = make_funded(1, 2)
    a, b = nodes[1], nodes[2]
    transact(a, b, 10, tick)
    transact(b, a, 4, tick + 1)
    key = pair_of(1, 2)
    records = [r for r in a.mht.records_in_order() if r.peer_id == 2]
    assert records[-1].causing_pttr == a.ptts[key].root()


def run_traffic(seed=7, n_clients=3, rounds=60):
    random.seed(seed)
    treasury, nodes, tick = make_funded(*range(1, n_clients + 1))
    ids = list(nodes)
    for _ in range(rounds):
        payer, payee = random.sample(ids, 2)
        amount = random.randint(1, 40)
        if nodes[payer].balance >= amount:
            transact(nodes[payer], nodes[payee], amount, tick)
        tick += 1
    return treasury, nodes, tick


def view_tuples(node):
    """(peer, pair_seq, prior, new) of each balance change, in tree order."""
    return [(r.peer_id, r.pair_seq, r.new_balance - r.delta, r.new_balance)
            for r in node.mht.records_in_order()]


def tree_depth(node):
    depth = 1
    while hasattr(node, "children"):
        node, depth = node.children[0], depth + 1
    return depth


class TestRecovery:
    def test_recovered_state_is_bit_identical(self):
        treasury, nodes, tick = run_traffic()
        victim = nodes[1]
        mhtr_before = victim.mht.root()
        balance_before = victim.balance
        ptt_roots_before = {k: p.root() for k, p in victim.ptts.items()}
        views_before = view_tuples(victim)
        seq_before = victim.client_seq

        partners = [treasury.export_recovery_data(1)]
        partners += [nodes[i].export_recovery_data(1) for i in (2, 3)]
        victim.recover_transactions(partners, lambda key: None)

        assert victim.mht.root() == mhtr_before
        assert victim.balance == balance_before
        assert victim.client_seq == seq_before
        assert {k: p.root() for k, p in victim.ptts.items()} == ptt_roots_before
        assert view_tuples(victim) == views_before

    def test_deep_balance_tree_recovery_is_bit_identical(self):
        """A fanout-3 victim with over 200 balance records, so internal
        nodes split at several levels, and the treasury with its opening
        reserve record both rebuild the trees they had before the crash."""
        treasury, nodes, tick = make_funded(1, 2, 3, fanouts={1: 3})
        rng = random.Random(5)
        victim = nodes[1]
        while len(victim.mht) < 220:
            other = nodes[rng.choice((2, 3))]
            payer, payee = rng.sample([victim, other], 2)
            assert transact(payer, payee, rng.randint(1, 60), tick).committed
            tick += 1
        assert tree_depth(victim.mht._root) >= 5

        def crash_and_recover(node, partners):
            partners = [p.export_recovery_data(node.id) for p in partners]
            before = (node.mht.root(), node.persist_snapshot(),
                      node.client_seq, view_tuples(node))
            node.wipe()
            node.recover_transactions(partners, lambda key: None)
            assert (node.mht.root(), node.persist_snapshot(),
                    node.client_seq, view_tuples(node)) == before
            loaded = ClientNode.load_snapshot(node.persist_snapshot(),
                                              node.keystore)
            assert loaded.mht.root() == node.mht.root()
            assert loaded.mht.fanout == node.fanout

        crash_and_recover(victim, [treasury, nodes[2], nodes[3]])
        crash_and_recover(treasury, list(nodes.values()))

    @pytest.mark.parametrize("count", [255, 256, 257])
    def test_one_pair_around_a_power_of_two_recovers_bit_identical(self, count):
        """A pair of 2**8 - 1, 2**8 and 2**8 + 1 records: the prefix roots
        the replay cites fold one to nine peaks, and the pair tree gains
        its ninth level at 257."""
        treasury, nodes, tick = make_funded(1, 2)
        a, b = nodes[1], nodes[2]
        for index in range(count):
            payer, payee = (a, b) if index % 3 else (b, a)
            assert transact(payer, payee, 1 + index % 5, tick).committed
            tick += 1
        assert len(a.ptts[(1, 2)]) == count
        records = list(a.mht.records_in_order())
        snapshot = a.persist_snapshot()
        partners = [treasury.export_recovery_data(1), b.export_recovery_data(1)]
        a.wipe()
        a.recover_transactions(partners, lambda key: None)
        assert list(a.mht.records_in_order()) == records
        assert a.persist_snapshot() == snapshot

    def test_recovery_after_epoch_reset_is_bit_identical(self):
        """Records after an epoch reset cite roots of the new epoch's tree.

        Partners hand over only the current epoch, so the pre-crash state
        is the one left by a first recovery after the reset; the archived
        epoch nets to zero for client 1, so its balance is unaffected.  A
        second crash must rebuild that state byte for byte.
        """
        treasury, nodes, tick = make_funded(1, 2, 3)
        a, b, c = nodes[1], nodes[2], nodes[3]
        for payer, payee in ((a, b), (b, a)) * 2:
            assert transact(payer, payee, 25, tick).committed
            tick += 1
        key = pair_of(1, 2)
        root = a.ptts[key].root()
        signatures = [a.keystore.sign(1, root), a.keystore.sign(2, root)]
        for node in (a, b):
            reset_epoch(node.ptts[key], signatures, a.keystore)

        def crash_and_recover():
            partners = [treasury.export_recovery_data(1)]
            partners += [node.export_recovery_data(1) for node in (b, c)]
            a.wipe()
            a.recover_transactions(partners, lambda key: None)

        crash_and_recover()
        for payer, payee, amount in ((a, b, 30), (b, a, 12), (a, c, 7),
                                     (a, b, 5), (c, a, 3)):
            assert transact(payer, payee, amount, tick).committed
            tick += 1
        assert a.ptts[key].epoch_start == 4
        mhtr_before, blob_before = a.mht.root(), a.persist_snapshot()
        crash_and_recover()
        assert a.mht.root() == mhtr_before
        assert a.persist_snapshot() == blob_before
        assert a.balance == a.expected_balance() == 10_000 - 30 + 12 - 7 - 5 + 3

    @pytest.mark.xfail(strict=True, reason=(
        "recover_transactions starts the balance replay at the opening "
        "reserve and drops each pair's carried_net_low; ROADMAP item 6 "
        "fixes this and removes the marker"))
    def test_recovery_keeps_the_net_of_an_archived_epoch(self):
        treasury, nodes, tick = make_funded(1, 2, 3)
        a, b, c = nodes[1], nodes[2], nodes[3]
        for amount in (10, 11, 12):
            assert transact(a, b, amount, tick).committed
            tick += 1
        key = pair_of(1, 2)
        root = a.ptts[key].root()
        signatures = [a.keystore.sign(1, root), a.keystore.sign(2, root)]
        for node in (a, b):
            reset_epoch(node.ptts[key], signatures, a.keystore)
        partners = [treasury.export_recovery_data(1)]
        partners += [node.export_recovery_data(1) for node in (b, c)]
        a.wipe()
        a.recover_transactions(partners, lambda key: None)
        assert a.expected_balance() == 10_000 - 10 - 11 - 12
        assert a.balance == a.expected_balance()

    @pytest.mark.parametrize("case, error", [
        ("archived-epoch", ValueError),
        ("missing-partner", NegativeBalance),
    ])
    def test_failed_recovery_leaves_the_node_as_it_was(self, case, error):
        """A replay that raises must not leave a half-recovered node.

        After an epoch reset the replay drops the archived epoch's net
        (see the xfail above), so a record's balance commitment does not
        match; without the treasury's data the replay lacks the issuance
        and the first payment would go negative.  Either way the node
        keeps the state it had before the call.
        """
        treasury, nodes, tick = make_funded(1, 2, 3)
        a, b, c = nodes[1], nodes[2], nodes[3]
        for amount in (10, 11, 12):
            assert transact(a, b, amount, tick).committed
            tick += 1
        key = pair_of(1, 2)
        if case == "archived-epoch":
            root = a.ptts[key].root()
            signatures = [a.keystore.sign(1, root), a.keystore.sign(2, root)]
            for node in (a, b):
                reset_epoch(node.ptts[key], signatures, a.keystore)
        assert transact(a, b, 5, tick).committed
        partners = [node.export_recovery_data(1) for node in (b, c)]
        if case == "archived-epoch":
            partners.append(treasury.export_recovery_data(1))

        def state():
            return (a.persist_snapshot(), a.balance, len(a.mht), a.client_seq,
                    a.mht.root(), view_tuples(a),
                    {k: p.root() for k, p in a.ptts.items()})

        before = state()
        assert a.balance == 9962 and len(a.mht) == 5
        with pytest.raises(error):
            a.recover_transactions(partners, lambda key: None)
        assert state() == before

    def test_partner_claiming_wrong_root_is_caught(self):
        treasury, nodes, tick = run_traffic()
        data = nodes[2].export_recovery_data(1)
        lying = PartnerRecoveryData(
            peer_id=data.peer_id, records=data.records,
            claimed_root=b"\x01" * 32, epoch=data.epoch,
            archived_roots=data.archived_roots,
            carried_net_low=data.carried_net_low,
            seq_at_epoch_start=data.seq_at_epoch_start,
        )
        with pytest.raises(PartnerRootDisagreement):
            nodes[1].recover_transactions([lying], lambda key: None)

    def test_validated_root_disagreement_is_caught(self):
        treasury, nodes, tick = run_traffic()
        data = nodes[2].export_recovery_data(1)
        with pytest.raises(PartnerRootDisagreement):
            nodes[1].recover_transactions([data], lambda key: b"\x02" * 32)

    def test_validated_root_agreement_passes(self):
        treasury, nodes, tick = run_traffic()
        data = nodes[2].export_recovery_data(1)
        trusted = {pair_of(1, 2): data.claimed_root}
        nodes[1].recover_transactions(
            [data, treasury.export_recovery_data(1),
             nodes[3].export_recovery_data(1)],
            lambda key: trusted.get(key),
        )


class TestRecoverBalance:
    def setup_cm(self, nodes):
        cm = CurrencyManager()
        for i in sorted(nodes):
            assigned = cm.enroll(b"pk", limit=10**9)
            assert assigned == i
        for i in nodes:
            for _, report in nodes[i].drain_reports():
                cm.report_balance(*dataclasses.astuple(report))
        return cm

    def test_recover_balance_agrees(self):
        treasury, nodes, tick = make_funded(1, 2, 3)
        cm = self.setup_cm(nodes)
        assert nodes[2].recover_balance(cm) == 10_000

    def test_recover_balance_detects_forged_row(self):
        treasury, nodes, tick = make_funded(1, 2, 3)
        cm = self.setup_cm(nodes)
        cm.table.open_row(3).valid_balance += 5
        with pytest.raises(ConservationViolation):
            nodes[2].recover_balance(cm)


class TestSnapshots:
    def test_round_trip_preserves_everything(self):
        treasury, nodes, tick = run_traffic(seed=11)
        node = nodes[2]
        blob = node.persist_snapshot()
        ks = KeyStore("stub")
        loaded = ClientNode.load_snapshot(blob, ks)
        assert loaded.id == node.id
        assert loaded.balance == node.balance
        assert loaded.client_seq == node.client_seq
        assert loaded.mht.root() == node.mht.root()
        assert loaded.transaction_limit == node.transaction_limit
        assert {k: p.root() for k, p in loaded.ptts.items()} == {
            k: p.root() for k, p in node.ptts.items()
        }
        assert view_tuples(loaded) == view_tuples(node)
        # the reloaded node keeps transacting from where it left off
        loaded.register_peer(3)

    def test_snapshot_refused_mid_exchange(self):
        treasury, nodes, tick = make_funded(1, 2)
        nodes[1].start_transfer(2, 5, tick)
        with pytest.raises(NotQuiescent):
            nodes[1].persist_snapshot()

    @pytest.mark.parametrize("where", [2, 40, 130, -40, -1])
    def test_any_flipped_byte_is_detected(self, where):
        treasury, nodes, tick = run_traffic(seed=13)
        blob = bytearray(nodes[1].persist_snapshot())
        blob[where] ^= 0x40
        with pytest.raises(CorruptSnapshot):
            ClientNode.load_snapshot(bytes(blob), KeyStore("stub"))

    def test_record_disagreeing_with_the_balance_tree_is_corrupt(self):
        """A well-formed snapshot whose pair record does not commit to the
        balances in the balance tree; every checksum is valid."""
        treasury, nodes, tick = make_funded(1, 2)
        a = nodes[1]
        assert transact(a, nodes[2], 30, tick).committed
        ptt = a.ptts[pair_of(1, 2)]
        forged = dataclasses.replace(ptt.records[-1],
                                     payer_prior_commit=b"\x00" * 32)
        ptt.rollback_last()
        ptt.append_record(forged)
        with pytest.raises(CorruptSnapshot, match="prior balance"):
            ClientNode.load_snapshot(a.persist_snapshot(), KeyStore("stub"))

    def test_truncated_snapshot_is_detected(self):
        treasury, nodes, tick = make_funded(1, 2)
        blob = nodes[1].persist_snapshot()
        with pytest.raises(CorruptSnapshot):
            ClientNode.load_snapshot(blob[: len(blob) // 2], KeyStore("stub"))


def test_treasury_invariant_holds():
    treasury, nodes, tick = make_funded(1, 2, amount=500)
    assert treasury.balance == TREASURY_RESERVE - 1000
    assert treasury.expected_balance() == treasury.balance
    key = pair_of(MANAGER_ID, 1)
    assert net_position(treasury.ptts[key], MANAGER_ID) == -500
