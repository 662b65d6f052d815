import random

import pytest

from deltamoney.encoding import Reader, u64
from deltamoney.errors import (
    IndexOutOfRange,
    InsufficientBalance,
    LimitExceeded,
    NonMonotonicSequence,
    NonPositiveAmount,
    NotRegisteredPeers,
    UnknownClient,
    UnregisteredPair,
    WrongAddressee,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST, commit_balance, hash_leaf
from deltamoney.merkle import MerkleTree
from deltamoney.peer_ledger import (
    AccountView,
    PairReplica,
    PeerTransactionTree,
    TransactionPairRecord,
    accept,
    local_view,
    net_position,
    propose,
)

ALICE, BOB = 1, 2


def account(client_id, balance, limit=10_000, provenance=b"\x07" * 32):
    return AccountView(client_id, balance, limit, provenance)


def fresh_pair():
    return PeerTransactionTree(ALICE, BOB), PeerTransactionTree(ALICE, BOB)


def append_both(a_ptt, b_ptt, rec):
    """Append one record to both replicas, as the two peers of a commit do."""
    a_ptt.append_record(rec)
    b_ptt.append_record(rec)


def make_record(payer_ptt, payer_balance, payee_balance, amount, timestamp=1,
                payer=BOB, payee=ALICE):
    proposal = propose(account(payer, payer_balance), payer_ptt, payee, amount, timestamp)
    return accept(proposal, account(payee, payee_balance))


def test_record_encoding_round_trip():
    a_ptt, _ = fresh_pair()
    rec = make_record(a_ptt, 2000, 1000, 500)
    data = rec.to_bytes()
    assert len(data) == 232
    assert TransactionPairRecord.from_bytes(data) == rec


def test_encoding_is_side_independent():
    a_ptt, _ = fresh_pair()
    rec = make_record(a_ptt, 2000, 1000, 500)
    again = TransactionPairRecord(**{f: getattr(rec, f) for f in rec._fields})
    assert again.to_bytes() == rec.to_bytes()


def test_record_rejects_degenerate_fields():
    with pytest.raises(NonPositiveAmount):
        make_record(fresh_pair()[0], 2000, 1000, 0)
    with pytest.raises(ValueError):
        TransactionPairRecord(1, 1, ALICE, ALICE, 5, *([b"\x00" * 32] * 6))


def test_propose_carries_table_commitments():
    # payer 2000 -> 1500, payee 1000 -> 1500 for a 500 transfer
    a_ptt, _ = fresh_pair()
    proposal = propose(account(BOB, 2000), a_ptt, ALICE, 500, timestamp=9)
    assert proposal.pair_seq == 1
    assert proposal.payer_prior_commit == commit_balance(BOB, 1, 2000)
    assert proposal.payer_new_commit == commit_balance(BOB, 1, 1500)
    rec = accept(proposal, account(ALICE, 1000))
    assert rec.payee_prior_commit == commit_balance(ALICE, 1, 1000)
    assert rec.payee_new_commit == commit_balance(ALICE, 1, 1500)


def test_propose_guards():
    a_ptt, _ = fresh_pair()
    with pytest.raises(NotRegisteredPeers):
        propose(account(BOB, 2000), None, ALICE, 500, 1)
    with pytest.raises(InsufficientBalance):
        propose(account(BOB, 2000), a_ptt, ALICE, 2001, 1)
    with pytest.raises(LimitExceeded):
        propose(account(BOB, 2000, limit=100), a_ptt, ALICE, 500, 1)
    with pytest.raises(NonPositiveAmount):
        propose(account(BOB, 2000), a_ptt, ALICE, -5, 1)


def test_accept_guards():
    a_ptt, _ = fresh_pair()
    proposal = propose(account(BOB, 2000), a_ptt, ALICE, 500, 1)
    with pytest.raises(WrongAddressee):
        accept(proposal, account(3, 1000))


def test_commit_honest_roots_agree():
    a_ptt, b_ptt = fresh_pair()
    rec = make_record(a_ptt, 2000, 1000, 500)
    append_both(a_ptt, b_ptt, rec)
    assert a_ptt.root() == b_ptt.root() != EMPTY_TREE_DIGEST


def test_three_commits_match_batch_build_oracle():
    a_ptt, b_ptt = fresh_pair()
    records = []
    payer_bal, payee_bal = 5000, 1000
    for i in range(3):
        amount = 100 * (i + 1)
        rec = make_record(a_ptt, payer_bal, payee_bal, amount, timestamp=i + 1)
        append_both(a_ptt, b_ptt, rec)
        assert a_ptt.root() == b_ptt.root()
        records.append(rec)
        payer_bal -= amount
        payee_bal += amount
    batch = MerkleTree.build([r.to_bytes() for r in records])
    assert a_ptt.root() == batch.root()


def test_commit_mismatch_rolls_both_back():
    a_ptt, b_ptt = fresh_pair()
    first = make_record(a_ptt, 2000, 1000, 500)
    append_both(a_ptt, b_ptt, first)
    pre_a = a_ptt.root()
    # adversary flips a byte of its committed prior leaf
    forged = bytearray(first.to_bytes())
    forged[0] ^= 1
    b_ptt.tree.replace_leaf(0, bytes(forged))
    second = make_record(a_ptt, 1500, 1500, 200, timestamp=2)
    append_both(a_ptt, b_ptt, second)
    assert a_ptt.root() != b_ptt.root()
    a_ptt.rollback_last()
    b_ptt.rollback_last()
    assert len(a_ptt) == len(b_ptt) == 1
    assert a_ptt.root() == pre_a
    honest = MerkleTree.build([first.to_bytes()])
    assert a_ptt.root() == honest.root()
    assert b_ptt.root() != honest.root()


def test_replayed_sequence_rejected():
    a_ptt, b_ptt = fresh_pair()
    rec = make_record(a_ptt, 2000, 1000, 500)
    append_both(a_ptt, b_ptt, rec)
    with pytest.raises(NonMonotonicSequence):
        a_ptt.append_record(rec)


def test_foreign_record_rejected():
    a_ptt, _ = fresh_pair()
    other = PeerTransactionTree(3, 4)
    rec = make_record(other, 900, 100, 50, payer=3, payee=4)
    with pytest.raises(UnregisteredPair):
        a_ptt.append_record(rec)


def test_local_view_checks_both_commitments():
    a_ptt, _ = fresh_pair()
    rec = make_record(a_ptt, 2000, 1000, 500)
    local_view(rec, BOB, 2000)
    local_view(rec, ALICE, 1000)
    for who, prior in ((BOB, 1999), (ALICE, 999), (ALICE, 2000)):
        with pytest.raises(ValueError, match="prior balance"):
            local_view(rec, who, prior)
    # the right prior balance, but the record's new commitment is off
    forged = rec._replace(payee_new_commit=commit_balance(ALICE, 1, 1499))
    with pytest.raises(ValueError, match="new balance"):
        local_view(forged, ALICE, 1000)
    with pytest.raises(UnknownClient):
        local_view(rec, 3, 1000)


def test_net_position_empty_and_single():
    a_ptt, b_ptt = fresh_pair()
    assert net_position(a_ptt, ALICE) == 0
    rec = make_record(a_ptt, 2000, 1000, 500)
    append_both(a_ptt, b_ptt, rec)
    assert net_position(a_ptt, ALICE) == 500
    assert net_position(a_ptt, BOB) == -500


def test_net_position_matches_linear_scan_oracle():
    rng = random.Random(17)
    a_ptt, b_ptt = fresh_pair()
    expected_alice = 0
    bal = {ALICE: 50_000, BOB: 50_000}
    for i in range(40):
        payer, payee = (ALICE, BOB) if rng.random() < 0.5 else (BOB, ALICE)
        amount = rng.randint(1, 200)
        rec = make_record(a_ptt, bal[payer], bal[payee], amount,
                          timestamp=i + 1, payer=payer, payee=payee)
        append_both(a_ptt, b_ptt, rec)
        bal[payer] -= amount
        bal[payee] += amount
        expected_alice += amount if payee == ALICE else -amount
    assert net_position(a_ptt, ALICE) == expected_alice
    assert net_position(a_ptt, BOB) == -expected_alice
    assert net_position(b_ptt, ALICE) == expected_alice


def test_pair_rolled_back_to_empty_reads_as_a_fresh_one():
    ptt, _ = fresh_pair()
    rec = make_record(ptt, 2000, 1000, 500)
    ptt.append_record(rec)
    ptt.rollback_last()
    assert ptt.root() == EMPTY_TREE_DIGEST
    assert ptt.tree.prefix_roots() == []
    with pytest.raises(IndexOutOfRange):
        ptt.tree.root_at(1)
    ptt.append_record(rec)
    assert ptt.root() == MerkleTree.build([rec.to_bytes()]).root()


def test_leaf_digest_reads_the_stored_leaf_by_pair_seq():
    """A leaf is read by its record's ``pair_seq``: record s is leaf s - 1,
    and a seq before the first record or past the last one has no leaf."""
    ptt, _ = fresh_pair()
    records = []
    for i, amount in enumerate((500, 100, 50)):
        records.append(make_record(ptt, 2000, 1000, amount, timestamp=i + 1))
        ptt.append_record(records[-1])
    for rec in records:
        assert ptt.leaf_digest(rec.pair_seq) == hash_leaf(rec.to_bytes())
    for seq in (0, ptt.last_seq + 1):
        with pytest.raises(IndexOutOfRange):
            ptt.leaf_digest(seq)


def test_pair_replica_section_round_trips():
    """The section a snapshot stores for a pair, against a field-by-field
    reference: the key's two ids, the record count, the records, then
    the root.  It reads back to the same replica and tree, and every
    cut-short copy raises ``ValueError``."""
    ptt, _ = fresh_pair()
    ptt.append_record(make_record(ptt, 2000, 1000, 300, payer=ALICE, payee=BOB))
    for amount in (100, 50):
        ptt.append_record(make_record(ptt, 1300, 1700, amount, timestamp=2))
    replica = ptt.replica()
    assert replica == ((ALICE, BOB), tuple(ptt.records), ptt.root())
    blob = replica.to_bytes()
    assert blob == b"".join([
        u64(ALICE), u64(BOB), u64(3),
        *(rec.to_bytes() for rec in ptt.records), ptt.root(),
    ])
    r = Reader(blob)
    assert PairReplica.read(r) == replica and r.done()
    rebuilt = PeerTransactionTree.restore(replica)
    assert rebuilt.root() == ptt.root() and rebuilt.next_seq() == 4
    assert net_position(rebuilt, ALICE) == net_position(ptt, ALICE) == -150
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            PairReplica.read(Reader(blob[:cut]))


def misfiled_histories():
    """Records for a (ALICE, BOB) replica that skip a seq, repeat one, or
    take in a record of pair (3, 4), by name."""
    ptt, _ = fresh_pair()
    for amount in (300, 100, 50):
        ptt.append_record(make_record(ptt, 2000, 1000, amount))
    records = ptt.records
    other = PeerTransactionTree(3, 4)
    other.append_record(make_record(other, 900, 100, 50, payer=3, payee=4))
    other.append_record(make_record(other, 850, 150, 20, payer=3, payee=4))
    return {
        "skipped seq": [records[0], records[2]],
        "repeated seq": [records[0], records[1], records[1], records[2]],
        "other pair's record": [records[0], other.records[1], records[2]],
    }


@pytest.mark.parametrize("case, error", [
    ("skipped seq", NonMonotonicSequence),
    ("repeated seq", NonMonotonicSequence),
    ("other pair's record", UnregisteredPair),
])
def test_restore_refuses_what_appending_refuses(case, error):
    """A replica keyed to the right pair whose records are out of line is
    refused with the exception and message ``append_record`` raises for
    the first bad record."""
    records = misfiled_histories()[case]
    appended = PeerTransactionTree(ALICE, BOB)
    with pytest.raises(error) as refused_by_append:
        for record in records:
            appended.append_record(record)
    replica = PairReplica((ALICE, BOB), tuple(records), EMPTY_TREE_DIGEST)
    with pytest.raises(error) as refused_by_restore:
        PeerTransactionTree.restore(replica)
    assert type(refused_by_restore.value) is error
    assert str(refused_by_restore.value) == str(refused_by_append.value)

