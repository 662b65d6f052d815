import hashlib
import math
import random

import pytest

from deltamoney.balance_tree import (
    MAX_DEPTH,
    BalanceChangeRecord,
    BalanceMHT,
    RangeVO,
    _Internal,
    _Leaf,
    examine_range,
)
from deltamoney.encoding import u32
from deltamoney.errors import (
    CorruptSnapshot,
    InvertedRange,
    NegativeBalance,
    NonMonotonicKey,
)
from deltamoney.hashing import EMPTY_TREE_DIGEST


def sha(data):
    return hashlib.sha256(data).digest()


def rebuild_hash(node):
    """From-scratch recompute of a node's hash, ignoring caches."""
    if isinstance(node, _Leaf):
        return sha(b"\x04" + b"".join(sha(r.to_bytes()) for r in node.records))
    child = b"".join(rebuild_hash(c) for c in node.children)
    keys = b"".join(
        k[0].to_bytes(8, "big") + k[1].to_bytes(8, "big") for k in node.keys
    )
    return sha(b"\x05" + child + keys)


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


def insert_all(records, fanout=4):
    tree = BalanceMHT(fanout)
    for rec in records:
        tree.insert(rec)
    return tree


def leaves_of(tree):
    found = []
    leaf = tree._first_leaf()
    while leaf is not None:
        found.append(leaf)
        leaf = leaf.next
    return found


def depths(node, d=0):
    if isinstance(node, _Leaf):
        return [d]
    out = []
    for child in node.children:
        out.extend(depths(child, d + 1))
    return out


def internal_key_counts(node, is_root=True):
    if isinstance(node, _Leaf):
        return []
    out = [] if is_root else [len(node.keys)]
    for child in node.children:
        out.extend(internal_key_counts(child, is_root=False))
    return out


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
    assert tree.root() == sha(b"\x04" + sha(rec.to_bytes()))
    assert tree.latest_balance() == 1000


def test_fanout_bounds():
    for bad in (2, 65, 0):
        with pytest.raises(ValueError):
            BalanceMHT(bad)
    BalanceMHT(3)
    BalanceMHT(64)


def test_twenty_inserts_fanout_4_shape_and_order():
    records = history(20)
    tree = insert_all(records, fanout=4)
    assert isinstance(tree._root, _Internal)
    assert list(tree.records_in_order()) == records
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
    bad = BalanceChangeRecord(4, 99, 99, 2, 10, tree.latest_balance() + 11, sha(b"x"))
    with pytest.raises(ValueError):
        tree.insert(bad)


def test_latest_balance_matches_delta_fold():
    for seed in range(5):
        records = history(50, seed=seed)
        tree = insert_all(records, fanout=5)
        assert tree.latest_balance() == sum(r.delta for r in records)


def test_same_history_same_root_changed_delta_changes_root():
    for seed in range(10):
        records = history(30, seed=seed)
        a, b = insert_all(records, fanout=4), insert_all(records, fanout=4)
        assert a.root() == b.root()
        mutated = list(records)
        idx = seed % len(records)
        victim = mutated[idx]
        bumped = BalanceChangeRecord(
            victim.pair_seq, victim.timestamp, victim.client_seq, victim.peer_id,
            victim.delta + 1, victim.new_balance + 1, victim.causing_pttr,
        )
        mutated[idx] = bumped
        for j in range(idx + 1, len(mutated)):
            r = mutated[j]
            mutated[j] = BalanceChangeRecord(
                r.pair_seq, r.timestamp, r.client_seq, r.peer_id,
                r.delta, r.new_balance + 1, r.causing_pttr,
            )
        assert insert_all(mutated, fanout=4).root() != a.root()


@pytest.mark.parametrize("fanout", range(3, 9))
def test_cached_hashes_equal_full_rebuild(fanout):
    records = history(200, seed=fanout)
    tree = insert_all(records, fanout=fanout)
    assert tree.root() == rebuild_hash(tree._root)


@pytest.mark.parametrize("fanout", range(3, 9))
def test_bplus_shape_invariants(fanout):
    records = history(200, seed=fanout + 10)
    tree = insert_all(records, fanout=fanout)
    assert len(set(depths(tree._root))) == 1
    low = math.ceil(fanout / 2) - 1
    for count in internal_key_counts(tree._root):
        assert low <= count <= fanout - 1
    assert sum(len(l.records) for l in leaves_of(tree)) == 200


def test_different_fanouts_differ_in_root():
    records = history(40)
    assert insert_all(records, 3).root() != insert_all(records, 8).root()


def full_range(tree):
    return (0, 0), (2**64 - 1, 2**64 - 1)


def test_full_range_query_verifies():
    records = history(30)
    tree = insert_all(records, fanout=4)
    lo, hi = full_range(tree)
    got, vo = tree.range_query(lo, hi)
    assert got == records
    assert examine_range(got, vo, tree.root()) == (True, True)


def test_subrange_query_and_boundaries():
    records = history(30)
    tree = insert_all(records, fanout=4)
    lo, hi = records[7].key, records[19].key
    got, vo = tree.range_query(lo, hi)
    assert got == records[7:20]
    assert examine_range(got, vo, tree.root()) == (True, True)


def test_empty_range_between_adjacent_keys():
    records = history(10)
    tree = insert_all(records, fanout=4)
    t = records[4].timestamp
    got, vo = tree.range_query((t, records[4].client_seq + 1), (t + 1, 0))
    assert got == []
    assert examine_range(got, vo, tree.root()) == (True, True)
    # scan oracle: nothing lies strictly between those records
    assert [r for r in records if (t, records[4].client_seq + 1) <= r.key <= (t + 1, 0)] == []


def scan_range_query(tree, key_lo, key_hi):
    """Reference range query: scan every record in order, then prune every node."""
    if tree._root is None:
        return [], RangeVO(key_lo, key_hi, EMPTY_TREE_DIGEST, ("empty",))
    results = []
    left_boundary = right_boundary = None
    for rec in tree.records_in_order():
        if rec.key < key_lo:
            left_boundary = rec
        elif rec.key > key_hi:
            right_boundary = rec
            break
        else:
            results.append(rec)
    witnesses = {id(left_boundary), id(right_boundary)}
    index_of = {id(rec): i for i, rec in enumerate(results)}

    def prune(node):
        if isinstance(node, _Leaf):
            slots = []
            keep = False
            for rec, digest in zip(node.records, node.digests):
                if id(rec) in index_of:
                    slots.append(("result", index_of[id(rec)]))
                    keep = True
                elif id(rec) in witnesses:
                    slots.append(("boundary", rec.to_bytes()))
                    keep = True
                else:
                    slots.append(("stub", digest))
            return ("leaf", tuple(slots)) if keep else ("stub", node.hash)
        children = [prune(c) for c in node.children]
        if all(c[0] == "stub" for c in children):
            return ("stub", node.hash)
        return ("node", tuple(node.keys), tuple(children))

    return results, RangeVO(key_lo, key_hi, tree._root.hash, prune(tree._root))


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
        ((0, 0), (2**64 - 1, 2**64 - 1)),
    ]
    if n:
        k = rng.choice(range(1, n + 1))
        ranges.append(((k, k), (k, k)))
    return ranges


@pytest.mark.parametrize("fanout", [3, 4, 5, 8, 16])
def test_range_query_matches_scan_oracle(fanout):
    """Seeded trees of 0..300 records; ranges inside, around and outside the keys."""
    rng = random.Random(fanout)
    records = history(300, seed=fanout)
    tree = BalanceMHT(fanout)
    for n in range(301):
        if n:
            tree.insert(records[n - 1])
        for key_lo, key_hi in sample_ranges(rng, n):
            got, vo = tree.range_query(key_lo, key_hi)
            want, want_vo = scan_range_query(tree, key_lo, key_hi)
            assert got == want, (n, key_lo, key_hi)
            assert vo.to_bytes() == want_vo.to_bytes(), (n, key_lo, key_hi)


def count_nodes(node):
    if node is None:
        return 0
    if isinstance(node, _Leaf):
        return 1
    return 1 + sum(count_nodes(child) for child in node.children)


def height(tree):
    return 0 if tree._root is None else depths(tree._root)[-1] + 1


@pytest.mark.parametrize("fanout", [3, 4, 5, 8, 16])
def test_build_matches_one_insert_at_a_time(fanout):
    """build(records[:n]) against n inserts for n = 0..300: same root,
    snapshot, leaf sizes, depths and range answers."""
    rng = random.Random(fanout)
    records = history(300, seed=fanout)
    inserted = BalanceMHT(fanout)
    for n in range(301):
        if n:
            inserted.insert(records[n - 1])
        built = BalanceMHT.build(records[:n], fanout)
        assert built.root() == inserted.root(), n
        assert built.snapshot_bytes() == inserted.snapshot_bytes(), n
        assert len(built) == n
        assert built._max_record == inserted._max_record
        assert built.latest_balance() == inserted.latest_balance()
        assert ([len(leaf.records) for leaf in leaves_of(built)]
                == [len(leaf.records) for leaf in leaves_of(inserted)]), n
        if n:
            assert depths(built._root) == depths(inserted._root), n
        for key_lo, key_hi in sample_ranges(rng, n):
            got, vo = built.range_query(key_lo, key_hi)
            want, want_vo = inserted.range_query(key_lo, key_hi)
            assert got == want, (n, key_lo, key_hi)
            assert vo.to_bytes() == want_vo.to_bytes(), (n, key_lo, key_hi)


@pytest.mark.parametrize("split", [0, 1, 2, 3, 7, 50, 199])
def test_built_tree_keeps_growing_by_insert(split):
    records = history(200, seed=split)
    tree = BalanceMHT.build(records[:split], fanout=3)
    for record in records[split:]:
        tree.insert(record)
    assert tree.root() == insert_all(records, fanout=3).root()
    assert tree.root() == rebuild_hash(tree._root)


@pytest.mark.parametrize("fanout", [3, 4, 5, 8, 16])
def test_build_hashes_each_record_and_each_node_once(fanout, sha256_calls):
    calls = sha256_calls
    records = history(300, seed=fanout)
    calls[0] = 0
    assert BalanceMHT.build([], fanout).root() == EMPTY_TREE_DIGEST
    assert calls[0] == 0
    tree = BalanceMHT.build(records, fanout)
    assert calls[0] == len(records) + count_nodes(tree._root)


# hashes taken by 300 inserts of history(300, seed=fanout), counted before
# build existed: insert's cost must not change
INSERT_HASHES = {3: 3074, 4: 1957, 5: 1855, 8: 1373, 16: 1089}


@pytest.mark.parametrize("fanout", sorted(INSERT_HASHES))
def test_insert_hashes_record_new_path_and_split_halves(fanout, sha256_calls):
    """An insert hashes its record, each node on the new rightmost path
    and the left half of each node it split."""
    calls = sha256_calls
    records = history(300, seed=fanout)
    calls[0] = 0
    tree = BalanceMHT(fanout)
    for record in records:
        before, nodes, levels = calls[0], count_nodes(tree._root), height(tree)
        tree.insert(record)
        # every split adds one node, and a new root one more
        splits = count_nodes(tree._root) - nodes - (height(tree) - levels)
        assert calls[0] - before == 1 + height(tree) + splits
    assert calls[0] == INSERT_HASHES[fanout]


def broken_histories():
    records = history(20, seed=3)
    r = records[9]
    sum_off = BalanceChangeRecord(
        r.pair_seq, r.timestamp, r.client_seq, r.peer_id, r.delta,
        r.new_balance + 1, r.causing_pttr,
    )
    return {
        "repeated key": (records[:10] + [records[9]], NonMonotonicKey),
        "earlier key": (records[:10] + [records[4]], NonMonotonicKey),
        "broken running sum": (records[:9] + [sum_off], ValueError),
    }


@pytest.mark.parametrize("case", sorted(broken_histories()))
def test_build_raises_what_insert_raises(case):
    records, error = broken_histories()[case]
    with pytest.raises(error) as inserted:
        insert_all(records)
    with pytest.raises(error) as built:
        BalanceMHT.build(records, fanout=4)
    assert type(built.value) is type(inserted.value) is error
    assert str(built.value) == str(inserted.value)


@pytest.mark.parametrize("case", sorted(broken_histories()))
def test_snapshot_of_a_broken_history_is_corrupt(case):
    records, _ = broken_histories()[case]
    blob = insert_all(records[:-1]).snapshot_bytes()
    header = blob[:12] + len(records).to_bytes(8, "big")
    body = blob[20:-32] + records[-1].to_bytes()
    with pytest.raises(CorruptSnapshot, match="inconsistent"):
        BalanceMHT.from_snapshot(header + body + blob[-32:])


def test_snapshot_with_a_bad_fanout_is_corrupt():
    blob = bytearray(insert_all(history(5)).snapshot_bytes())
    blob[8:12] = (2).to_bytes(4, "big")
    with pytest.raises(CorruptSnapshot, match="fanout"):
        BalanceMHT.from_snapshot(bytes(blob))


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


def test_dropped_record_detected():
    records = history(30)
    tree = insert_all(records, fanout=4)
    lo, hi = records[5].key, records[15].key
    got, vo = tree.range_query(lo, hi)
    assert examine_range(got[:-1], vo, tree.root()) == (False, False)
    assert examine_range(got[1:], vo, tree.root()) == (False, False)


def test_every_single_omission_and_mutation_detected():
    records = history(30, seed=2)
    tree = insert_all(records, fanout=4)
    lo, hi = full_range(tree)
    got, vo = tree.range_query(lo, hi)
    root = tree.root()
    for i in range(len(got)):
        omitted = got[:i] + got[i + 1 :]
        assert examine_range(omitted, vo, root) == (False, False)
        r = got[i]
        mutated = list(got)
        mutated[i] = BalanceChangeRecord(
            r.pair_seq, r.timestamp, r.client_seq, r.peer_id,
            r.delta, r.new_balance + 1, r.causing_pttr,
        )
        correct, _ = examine_range(mutated, vo, root)
        assert not correct


def test_stale_vo_fails_against_new_root():
    records = history(12)
    tree = insert_all(records, fanout=4)
    lo, hi = records[2].key, records[6].key
    got, vo = tree.range_query(lo, hi)
    old_root = tree.root()
    extra = history(13)[-1]
    tree.insert(extra)
    assert examine_range(got, vo, old_root) == (True, True)
    assert examine_range(got, vo, tree.root()) == (False, True)
    assert examine_range(got, vo, vo.mhtr) == (True, True)


def test_hidden_qualifying_record_as_boundary_detected():
    records = history(8)
    tree = insert_all(records, fanout=4)
    lo, hi = records[2].key, records[5].key
    got, vo = tree.range_query(lo, hi)

    def demote(node):
        if node[0] == "leaf":
            slots = []
            for slot in node[1]:
                if slot == ("result", 3):
                    slots.append(("boundary", records[5].to_bytes()))
                else:
                    slots.append(slot)
            return ("leaf", tuple(slots))
        if node[0] == "node":
            return ("node", node[1], tuple(demote(c) for c in node[2]))
        return node

    forged = RangeVO(vo.key_lo, vo.key_hi, vo.mhtr, demote(vo.skeleton))
    # the hashes still fold to the root; only completeness fails
    assert examine_range(got[:3], forged, tree.root()) == (True, False)


def test_vo_serialization_round_trip():
    records = history(25)
    tree = insert_all(records, fanout=4)
    for lo, hi in (((0, 0), (2**64 - 1, 2**64 - 1)),
                   (records[3].key, records[9].key),
                   ((records[5].timestamp, records[5].client_seq + 1), (records[5].timestamp + 1, 0))):
        got, vo = tree.range_query(lo, hi)
        back = RangeVO.from_bytes(vo.to_bytes())
        assert back == vo
        assert examine_range(got, back, tree.root()) == (True, True)


def test_skeleton_nested_past_max_depth_is_refused():
    """A chain of one-child internal nodes parses up to ``MAX_DEPTH`` of
    them and raises ``ValueError`` past that, however deep the chain, so
    outside bytes never reach the interpreter's recursion limit."""
    def chain(levels):
        return bytes(64) + (b"\x02" + u32(0) + u32(1)) * levels + b"\x03"

    assert RangeVO.from_bytes(chain(MAX_DEPTH)).skeleton[0] == "node"
    for levels in (MAX_DEPTH + 1, 5000):
        with pytest.raises(ValueError, match="internal levels"):
            RangeVO.from_bytes(chain(levels))


def test_snapshot_round_trip_and_tamper():
    records = history(37, seed=9)
    tree = insert_all(records, fanout=5)
    blob = tree.snapshot_bytes()
    loaded = BalanceMHT.from_snapshot(blob)
    assert loaded.root() == tree.root()
    assert loaded.latest_balance() == tree.latest_balance()
    assert list(loaded.records_in_order()) == records
    for pos in (0, 7, 25, len(blob) - 1):
        bad = bytearray(blob)
        bad[pos] ^= 0x40
        with pytest.raises(CorruptSnapshot):
            BalanceMHT.from_snapshot(bytes(bad))


def test_empty_snapshot_round_trip():
    tree = BalanceMHT(fanout=6)
    loaded = BalanceMHT.from_snapshot(tree.snapshot_bytes())
    assert loaded.root() == EMPTY_TREE_DIGEST
    assert loaded.fanout == 6
