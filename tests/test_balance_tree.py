import hashlib
import random

import pytest

from deltamoney.balance_tree import (
    BalanceChangeRecord,
    BalanceMHT,
    RangeVO,
    examine_range,
)
from deltamoney.errors import (
    EmptyTree,
    InvertedRange,
    NegativeBalance,
    NonMonotonicKey,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST
from deltamoney.merkle import MerkleTree
from test_merkle import mth_oracle

EVERYTHING = (0, 0), (2**64 - 1, 2**64 - 1)


def sha(data):
    return hashlib.sha256(data).digest()


def oracle_root(records):
    """RFC 6962 Merkle Tree Hash of the records' encodings, or the empty
    sentinel, computed apart from the tree."""
    if not records:
        return EMPTY_TREE_DIGEST
    return mth_oracle([record.to_bytes() for record in records])(0, len(records))


def history(n, seed=0, start_tick=1):
    """n records with a valid running balance, one tick apart."""
    rng = random.Random(seed)
    records = []
    balance = 0
    for i in range(n):
        delta = rng.randint(-balance, 400) if balance else rng.randint(1, 400)
        balance += delta
        records.append(
            BalanceChangeRecord(
                pair_seq=i + 1,
                timestamp=start_tick + i,
                client_seq=i + 1,
                peer_id=rng.randint(1, 5),
                delta=delta,
                new_balance=balance,
                causing_pttr=sha(b"pttr%d" % i),
            )
        )
    return records


def insert_all(records):
    tree = BalanceMHT()
    for rec in records:
        tree.insert(rec)
    return tree


def bumped(record):
    """``record`` with its balance off by one."""
    return record._replace(new_balance=record.new_balance + 1)


def test_record_encoding_round_trip():
    rec = history(3)[2]
    data = rec.to_bytes()
    assert len(data) == 80
    assert BalanceChangeRecord.from_bytes(data) == rec


def test_record_rejects_negative_balance():
    with pytest.raises(NegativeBalance):
        BalanceChangeRecord(1, 1, 1, 2, -5, -5, sha(b"x"))


def test_empty_tree_sentinel_and_zero_balance():
    tree = BalanceMHT()
    assert tree.root() == EMPTY_TREE_DIGEST
    assert tree.latest_balance() == 0
    assert len(tree) == 0


def test_single_record_root_is_tagged_leaf_hash():
    rec = BalanceChangeRecord(1, 1, 1, 2, 1000, 1000, sha(b"p"))
    tree = insert_all([rec])
    assert tree.root() == sha(b"\x00" + rec.to_bytes())
    assert tree.latest_balance() == 1000


def test_twenty_inserts_keep_key_order():
    records = history(20)
    tree = insert_all(records)
    assert tree.records == records
    assert sorted(r.key for r in records) == [r.key for r in records]


def test_non_monotonic_key_rejected():
    records = history(5)
    tree = insert_all(records)
    stale = BalanceChangeRecord(
        9, records[-1].timestamp, records[-1].client_seq,
        2, 0 if tree.latest_balance() else 1,
        tree.latest_balance(), sha(b"x"),
    )
    with pytest.raises(NonMonotonicKey):
        tree.insert(stale)


def test_running_sum_violation_rejected():
    tree = insert_all(history(3))
    bad = BalanceChangeRecord(4, 99, 4, 2, 10, tree.latest_balance() + 11, sha(b"x"))
    with pytest.raises(ValueError, match="running sum"):
        tree.insert(bad)


def test_latest_balance_matches_delta_fold():
    for seed in range(5):
        records = history(50, seed=seed)
        tree = insert_all(records)
        assert tree.latest_balance() == sum(r.delta for r in records)


def test_same_history_same_root_changed_delta_changes_root():
    for seed in range(10):
        records = history(30, seed=seed)
        a, b = insert_all(records), insert_all(records)
        assert a.root() == b.root()
        mutated = list(records)
        idx = seed % len(records)
        victim = mutated[idx]
        mutated[idx] = victim._replace(delta=victim.delta + 1,
                                       new_balance=victim.new_balance + 1)
        for j in range(idx + 1, len(mutated)):
            mutated[j] = bumped(mutated[j])
        assert insert_all(mutated).root() != a.root()


@pytest.mark.parametrize("seed", range(3, 9))
def test_cached_hashes_equal_full_rebuild(seed):
    records = history(200, seed=seed)
    tree = insert_all(records)
    assert tree.root() == oracle_root(records)
    for _ in range(77):
        tree.remove_last()
    assert tree.root() == oracle_root(records[:123])
    assert tree.records == records[:123]


def test_root_matches_the_oracle_at_every_size_and_after_remove_last():
    """Sizes 0..200 by insert, then back down to 0 by ``remove_last``."""
    records = history(200, seed=21)
    tree = BalanceMHT()
    for n in range(201):
        if n:
            tree.insert(records[n - 1])
        assert tree.root() == oracle_root(records[:n]), n
    for n in range(199, -1, -1):
        tree.remove_last()
        assert len(tree) == n
        assert tree.root() == oracle_root(records[:n]), n
        assert tree.latest_balance() == (records[n - 1].new_balance if n else 0)


def test_remove_last_of_an_empty_tree_raises():
    with pytest.raises(EmptyTree):
        BalanceMHT().remove_last()


def test_full_range_query_verifies():
    records = history(30)
    tree = insert_all(records)
    got, vo = tree.range_query(*EVERYTHING)
    assert got == records
    assert examine_range(got, vo, tree.root()) == (True, True)


def test_subrange_query_and_boundaries():
    records = history(30)
    tree = insert_all(records)
    lo, hi = records[7].key, records[19].key
    got, vo = tree.range_query(lo, hi)
    assert got == records[7:20]
    assert vo.witnesses == (records[6], records[20])
    assert examine_range(got, vo, tree.root()) == (True, True)


def test_empty_range_between_adjacent_keys():
    records = history(10)
    tree = insert_all(records)
    t = records[4].timestamp
    got, vo = tree.range_query((t, records[4].client_seq + 1), (t + 1, 0))
    assert got == []
    assert vo.witnesses == (records[4], records[5])
    assert examine_range(got, vo, tree.root()) == (True, True)
    # scan oracle: nothing lies strictly between those records
    assert [r for r in records if (t, records[4].client_seq + 1) <= r.key <= (t + 1, 0)] == []


def scan_range_query(records, key_lo, key_hi, reference):
    """Reference range query: scan every record in order, then prove the
    results and witnesses against the prefix of ``reference``, a tree
    built at once over a longer history."""
    results, below, above = [], [], []
    for rec in records:
        if rec.key < key_lo:
            below = [rec]
        elif rec.key > key_hi:
            above = [rec]
            break
        else:
            results.append(rec)
    proved = [rec.client_seq - 1 for rec in below + results + above]
    proof = tuple(reference.prove(proved, len(records))) if records else ()
    return results, RangeVO(key_lo, key_hi, len(records),
                            tuple(below + above), proof)


def sample_ranges(rng, n):
    """Ranges inside, around, before and after the keys (1, 1) .. (n, n)
    that history(n) gives."""
    candidates = [(t, c) for t in range(n + 3) for c in (t - 1, t, t + 1)
                  if c >= 0]
    lo, hi = sorted(rng.sample(candidates, 2))
    ranges = [
        (lo, hi),
        ((0, 0), (1, 0)),  # before the first key
        ((n, n + 1), (2**64 - 1, 2**64 - 1)),  # after the last key
        EVERYTHING,
    ]
    if n:
        k = rng.choice(range(1, n + 1))
        ranges.append(((k, k), (k, k)))
    return ranges


@pytest.mark.parametrize("seed", [3, 4, 5, 8, 16])
def test_range_query_matches_scan_oracle(seed):
    """Seeded trees of 0..300 records; ranges inside, around and outside the keys."""
    rng = random.Random(seed)
    records = history(300, seed=seed)
    reference = MerkleTree.build([rec.to_bytes() for rec in records])
    tree = BalanceMHT()
    for n in range(301):
        if n:
            tree.insert(records[n - 1])
        for key_lo, key_hi in sample_ranges(rng, n):
            got, vo = tree.range_query(key_lo, key_hi)
            want, want_vo = scan_range_query(records[:n], key_lo, key_hi, reference)
            assert got == want, (n, key_lo, key_hi)
            assert vo.to_bytes() == want_vo.to_bytes(), (n, key_lo, key_hi)
            assert examine_range(got, vo, tree.root()) == (True, True)


@pytest.mark.parametrize("seed", [3, 4, 5, 8, 16])
def test_build_matches_one_insert_at_a_time(seed):
    """build(records[:n]) against n inserts for n = 0..300: same root,
    records and range answers."""
    rng = random.Random(seed)
    records = history(300, seed=seed)
    inserted = BalanceMHT()
    for n in range(301):
        if n:
            inserted.insert(records[n - 1])
        built = BalanceMHT.build(records[:n])
        assert built.root() == inserted.root(), n
        assert len(built) == n
        assert built.records == records[:n]
        assert built.latest_balance() == inserted.latest_balance()
        for key_lo, key_hi in sample_ranges(rng, n):
            got, vo = built.range_query(key_lo, key_hi)
            want, want_vo = inserted.range_query(key_lo, key_hi)
            assert got == want, (n, key_lo, key_hi)
            assert vo == want_vo, (n, key_lo, key_hi)


@pytest.mark.parametrize("split", [0, 1, 2, 3, 7, 50, 199])
def test_built_tree_keeps_growing_by_insert(split):
    records = history(200, seed=split)
    tree = BalanceMHT.build(records[:split])
    for record in records[split:]:
        tree.insert(record)
    assert tree.root() == insert_all(records).root()
    assert tree.root() == oracle_root(records)


@pytest.mark.parametrize("seed", [3, 4, 5, 8, 16])
def test_build_hashes_each_record_and_each_node_once(seed, sha256_calls):
    """n leaves and n - 1 internal nodes, and nothing for no records."""
    calls = sha256_calls
    records = history(300, seed=seed)
    calls[0] = 0
    assert BalanceMHT.build([]).root() == EMPTY_TREE_DIGEST
    assert calls[0] == 0
    BalanceMHT.build(records)
    assert calls[0] == 2 * len(records) - 1


@pytest.mark.parametrize("seed", [3, 4, 5, 8, 16])
def test_insert_hashes_record_new_path_and_split_halves(seed, sha256_calls):
    """The insert of leaf i hashes its record and one internal node per set
    bit of i: the parents it completes and the fold of the larger peaks,
    which are stored and not hashed again. The count is the same for every
    history."""
    calls = sha256_calls
    records = history(300, seed=seed)
    calls[0] = 0
    tree = BalanceMHT()
    for index, record in enumerate(records):
        before = calls[0]
        tree.insert(record)
        assert calls[0] - before == 1 + bin(index).count("1")
    assert calls[0] == 300 + sum(bin(i).count("1") for i in range(300)) == 1480


def test_remove_last_hashes_at_most_one_digest_per_level(sha256_calls):
    calls = sha256_calls
    tree = insert_all(history(300))
    while len(tree):
        before = calls[0]
        tree.remove_last()
        assert calls[0] - before <= max(len(tree) - 1, 0).bit_length()


def broken_histories():
    records = history(20, seed=3)
    r = records[9]
    return {
        "repeated key": (records[:10] + [records[9]], NonMonotonicKey),
        "earlier key": (records[:10] + [records[4]], NonMonotonicKey),
        "broken running sum": (records[:9] + [bumped(r)], ValueError),
        "skipped client_seq": (records[:9] + [r._replace(client_seq=11)], ValueError),
        "falling timestamp": (records[:9] + [r._replace(timestamp=r.timestamp - 2)],
                              NonMonotonicKey),
    }


@pytest.mark.parametrize("case", sorted(broken_histories()))
def test_build_raises_what_insert_raises(case):
    records, error = broken_histories()[case]
    with pytest.raises(error) as inserted:
        insert_all(records)
    with pytest.raises(error) as built:
        BalanceMHT.build(records)
    assert type(built.value) is type(inserted.value) is error
    assert str(built.value) == str(inserted.value)


def test_inverted_range_rejected():
    tree = insert_all(history(5))
    with pytest.raises(InvertedRange):
        tree.range_query((5, 0), (4, 0))


def test_empty_tree_range_query():
    tree = BalanceMHT()
    got, vo = tree.range_query((0, 0), (10, 0))
    assert got == []
    assert examine_range(got, vo, tree.root()) == (True, True)
    assert examine_range(got, vo, sha(b"other")) == (False, True)


@pytest.mark.parametrize("where", ["before all keys", "after all keys", "in a gap",
                                   "over everything", "one key"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_honest_edge_ranges_are_correct_and_complete(where, n):
    records = history(n, start_tick=10)
    tree = insert_all(records)
    key_lo, key_hi = {
        "before all keys": ((0, 0), (9, 99)),
        "after all keys": ((n + 10, 0), EVERYTHING[1]),
        "in a gap": ((10, 2), (10, 99)),
        "over everything": EVERYTHING,
        "one key": (records[n // 2].key, records[n // 2].key),
    }[where]
    got, vo = tree.range_query(key_lo, key_hi)
    assert got == [r for r in records if key_lo <= r.key <= key_hi]
    assert examine_range(got, vo, tree.root()) == (True, True)
    back = RangeVO.from_bytes(vo.to_bytes())
    assert back == vo
    assert examine_range(got, back, tree.root()) == (True, True)


def test_dropped_record_detected():
    records = history(30)
    tree = insert_all(records)
    lo, hi = records[5].key, records[15].key
    got, vo = tree.range_query(lo, hi)
    assert examine_range(got[:-1], vo, tree.root()) == (False, False)
    assert examine_range(got[1:], vo, tree.root()) == (False, False)


def test_withheld_result_with_a_matching_proof_reads_incomplete():
    """A subject that withholds a result and proves the rest with that
    leaf's digest in the proof stays correct, but not complete."""
    records = history(30)
    tree = insert_all(records)
    got, vo = tree.range_query(records[5].key, records[15].key)
    for hidden in range(len(got)):
        shown = got[:hidden] + got[hidden + 1:]
        indices = [r.client_seq - 1 for r in (records[4], *shown, records[16])]
        forged = RangeVO(vo.key_lo, vo.key_hi, vo.size, vo.witnesses,
                         tuple(tree.tree.prove(indices, vo.size)))
        assert examine_range(shown, forged, tree.root()) == (True, False)


def test_every_single_omission_and_mutation_detected():
    records = history(30, seed=2)
    tree = insert_all(records)
    got, vo = tree.range_query(*EVERYTHING)
    root = tree.root()
    for i in range(len(got)):
        omitted = got[:i] + got[i + 1 :]
        assert examine_range(omitted, vo, root) == (False, False)
        mutated = list(got)
        mutated[i] = bumped(got[i])
        correct, _ = examine_range(mutated, vo, root)
        assert not correct


def test_mutated_witness_is_incorrect():
    records = history(12)
    tree = insert_all(records)
    got, vo = tree.range_query(records[3].key, records[7].key)
    for side in (0, 1):
        witnesses = list(vo.witnesses)
        witnesses[side] = bumped(witnesses[side])
        forged = RangeVO(vo.key_lo, vo.key_hi, vo.size, tuple(witnesses), vo.proof)
        assert examine_range(got, forged, tree.root())[0] is False


def test_stale_vo_fails_against_new_root():
    records = history(12)
    tree = insert_all(records)
    lo, hi = records[2].key, records[6].key
    got, vo = tree.range_query(lo, hi)
    old_root = tree.root()
    extra = history(13)[-1]
    tree.insert(extra)
    assert vo.size == 12
    assert examine_range(got, vo, old_root) == (True, True)
    assert examine_range(got, vo, tree.root()) == (False, True)


def test_hidden_qualifying_record_as_boundary_detected():
    """records[5] in range, sent as a witness: the same leaves are proved,
    so the proof still folds, and only completeness fails."""
    records = history(8)
    tree = insert_all(records)
    lo, hi = records[2].key, records[5].key
    got, vo = tree.range_query(lo, hi)
    forged = RangeVO(vo.key_lo, vo.key_hi, vo.size,
                     (records[1], records[5], records[6]), vo.proof)
    assert examine_range(got[:3], forged, tree.root()) == (True, False)


def test_two_witnesses_on_one_side_read_incomplete():
    """The range narrowed to start past records[3], which then goes with
    records[2] as two witnesses below it: the same leaves are proved."""
    records = history(10)
    tree = insert_all(records)
    got, vo = tree.range_query(records[3].key, records[6].key)
    low = RangeVO((records[3].key[0], records[3].key[1] + 1), vo.key_hi, vo.size,
                  (records[2], records[3], records[7]), vo.proof)
    assert examine_range(got[1:], low, tree.root()) == (True, False)


def test_dropped_edge_witness_reads_incomplete_or_incorrect():
    records = history(10)
    tree = insert_all(records)
    got, vo = tree.range_query(records[3].key, records[6].key)
    for kept in ((vo.witnesses[1],), (vo.witnesses[0],)):
        forged = RangeVO(vo.key_lo, vo.key_hi, vo.size, kept, vo.proof)
        assert examine_range(got, forged, tree.root()) != (True, True)
        # with a proof rebuilt to match: correct, but not complete
        indices = sorted(r.client_seq - 1 for r in (*kept, *got))
        forged = RangeVO(vo.key_lo, vo.key_hi, vo.size, kept,
                         tuple(tree.tree.prove(indices, vo.size)))
        assert examine_range(got, forged, tree.root()) == (True, False)


@pytest.mark.parametrize("size", [6, 7, 9, 11, 16])
def test_lied_size_at_the_right_edge_never_reads_all_true(size):
    """The range runs past the last of 10 records, so no upper witness
    bounds it: a size claimed shorter, with the results cut to it, or
    longer does not read all-true, with the honest proof or one made for
    the claimed prefix."""
    records = history(10)
    tree = insert_all(records)
    got, vo = tree.range_query(records[5].key, EVERYTHING[1])
    assert len(vo.witnesses) == 1
    shown = got[:size - 5]
    indices = [r.client_seq - 1 for r in (records[4], *shown)]
    for proof in (vo.proof, tuple(tree.tree.prove(indices, min(size, 10)))):
        lied = RangeVO(vo.key_lo, vo.key_hi, size, vo.witnesses, proof)
        assert examine_range(shown, lied, tree.root()) != (True, True)


def test_a_huge_claimed_size_reads_false_false_without_being_built():
    """No upper witness, so the size bounds the run: one of 2**64 - 1
    leaves is refused by its length, not by listing its indices."""
    records = history(3)
    tree = insert_all(records)
    got, vo = tree.range_query(*EVERYTHING)
    huge = RangeVO(vo.key_lo, vo.key_hi, 2**64 - 1, vo.witnesses, vo.proof)
    assert examine_range(got, huge, tree.root()) == (False, False)
    back = RangeVO.from_bytes(huge.to_bytes())
    assert examine_range(got, back, tree.root()) == (False, False)


def test_withholding_the_only_record_reads_false_false():
    records = history(1)
    tree = insert_all(records)
    got, vo = tree.range_query(*EVERYTHING)
    assert got == records and vo.witnesses == () and vo.proof == ()
    assert examine_range(got, vo, tree.root()) == (True, True)
    assert examine_range([], vo, tree.root()) == (False, False)
    empty = RangeVO(vo.key_lo, vo.key_hi, 0, (), ())
    assert examine_range([], empty, tree.root()) == (False, True)


def test_vo_serialization_round_trip():
    records = history(25)
    tree = insert_all(records)
    for lo, hi in (EVERYTHING,
                   (records[3].key, records[9].key),
                   ((records[5].timestamp, records[5].client_seq + 1), (records[5].timestamp + 1, 0))):
        got, vo = tree.range_query(lo, hi)
        back = RangeVO.from_bytes(vo.to_bytes())
        assert back == vo
        assert examine_range(got, back, tree.root()) == (True, True)


def test_range_vo_bytes_refuse_a_partial_digest_or_a_cut_header():
    records = history(25)
    tree = insert_all(records)
    _, vo = tree.range_query(records[3].key, records[9].key)
    data = vo.to_bytes()
    assert len(data) == 44 + 2 * 80 + 32 * len(vo.proof)
    for end in range(len(data)):
        if end < 44 + 2 * 80 or (end - 44 - 2 * 80) % 32:
            with pytest.raises(ValueError):
                RangeVO.from_bytes(data[:end])
    with pytest.raises(ValueError):
        RangeVO.from_bytes(data + b"\x00")
