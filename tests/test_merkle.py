import hashlib
import math
import random
import struct
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamoney.balance_tree import BalanceChangeRecord, BalanceMHT
from deltamoney.errors import EmptyPayload, EmptyTree, IndexOutOfRange
from deltamoney.hashing import hash_internal, hash_leaf
from deltamoney.merkle import MerkleTree, verify
from deltamoney.peer_ledger import PeerTransactionTree, TransactionPairRecord


def brute_force_root(payloads):
    """Independent level-by-level fold, coded apart from the tree."""
    level = [hashlib.sha256(b"\x00" + p).digest() for p in payloads]
    while len(level) > 1:
        nxt = []
        i = 0
        while i + 1 < len(level):
            nxt.append(hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest())
            i += 2
        if i < len(level):
            nxt.append(level[i])
        level = nxt
    return level[0]


def payloads(n):
    return [b"payload-%d" % i for i in range(n)]


def mth_oracle(items):
    """RFC 6962 section 2.1 Merkle Tree Hash of ``items``, by its recursion.

    MTH of one entry is SHA-256(0x00 || d); of n > 1 entries it is
    SHA-256(0x01 || MTH(D[0:k]) || MTH(D[k:n])) for the largest power of
    two k < n.  The result is a function of [lo, hi), memoized per call.
    """

    @lru_cache(maxsize=None)
    def mth(lo, hi):
        n = hi - lo
        if n == 1:
            return hashlib.sha256(b"\x00" + items[lo]).digest()
        k = 1 << ((n - 1).bit_length() - 1)
        return hashlib.sha256(b"\x01" + mth(lo, lo + k) + mth(lo + k, hi)).digest()

    return mth


def test_build_rejects_empty():
    with pytest.raises(EmptyTree):
        MerkleTree.build([])


def test_single_leaf_root_is_leaf_digest():
    tree = MerkleTree.build([b"p"])
    assert tree.root() == hash_leaf(b"p")


def test_two_leaf_root():
    tree = MerkleTree.build([b"p", b"q"])
    assert tree.root() == hash_internal(hash_leaf(b"p"), hash_leaf(b"q"))


def test_four_leaf_root_matches_brute_force():
    items = payloads(4)
    assert MerkleTree.build(items).root() == brute_force_root(items)


@pytest.mark.parametrize("n", range(1, 33))
def test_roots_match_brute_force_all_small_sizes(n):
    items = payloads(n)
    assert MerkleTree.build(items).root() == brute_force_root(items)


def test_append_equals_batch_build():
    tree = MerkleTree.build([b"p0"])
    for i in range(1, 7):
        tree.append(b"p%d" % i)
    batch = MerkleTree.build([b"p%d" % i for i in range(7)])
    assert tree.root() == batch.root()


def test_append_keeps_existing_leaf_digests():
    tree = MerkleTree.build(payloads(5))
    before = tree.root_at(5)
    tree.append(b"new")
    assert tree.root_at(5) == before


@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_incremental_append_equals_batch(items):
    tree = MerkleTree.build(items[:1])
    for payload in items[1:]:
        tree.append(payload)
    assert tree.root() == MerkleTree.build(items).root()


def test_single_leaf_proof_is_empty_path():
    tree = MerkleTree.build([b"only"])
    assert tree.prove([0], 1) == []
    assert verify([b"only"], [0], 1, [], hash_leaf(b"only"))


def test_eight_leaf_proofs_have_length_three():
    items = payloads(8)
    tree = MerkleTree.build(items)
    for i in range(8):
        proof = tree.prove([i], 8)
        assert len(proof) == 3
        assert verify([items[i]], [i], 8, proof, brute_force_root(items))


def test_prove_out_of_range():
    """A leaf or prefix outside the tree, or indices not strictly rising."""
    tree = MerkleTree.build(payloads(4))
    for indices, size in (([4], 4), ([0], 5), ([0], 0), ([], 0), ([-1], 4),
                          ([2, 1], 4), ([3, 3], 4), ([0, 3, 2], 4)):
        with pytest.raises(IndexOutOfRange):
            tree.prove(indices, size)


def test_round_trip_all_leaves_16():
    items = payloads(16)
    tree = MerkleTree.build(items)
    root = tree.root()
    for i, payload in enumerate(items):
        assert verify([payload], [i], 16, tree.prove([i], 16), root)


def test_verify_rejects_flipped_path_digest():
    items = payloads(8)
    tree = MerkleTree.build(items)
    proof = tree.prove([3], 8)
    sib = proof[1]
    bad = proof[:1] + [bytes([sib[0] ^ 1]) + sib[1:]] + proof[2:]
    assert not verify([items[3]], [3], 8, bad, tree.root())


def test_foreign_payload_rejected_against_all_proofs():
    items = payloads(16)
    tree = MerkleTree.build(items)
    root = tree.root()
    rng = random.Random(3)
    for _ in range(20):
        foreign = bytes([rng.randrange(256) for _ in range(12)]) + b"!"
        assert foreign not in items
        for i in range(16):
            assert not verify([foreign], [i], 16, tree.prove([i], 16), root)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 33, 64])
def test_proof_length_bound_and_completeness(n):
    items = payloads(n)
    tree = MerkleTree.build(items)
    root = tree.root()
    bound = math.ceil(math.log2(n)) if n > 1 else 0
    for i in range(n):
        proof = tree.prove([i], n)
        assert len(proof) <= bound
        assert verify([items[i]], [i], n, proof, root)


def test_root_sensitive_to_single_bit_flips():
    rng = random.Random(11)
    for n in range(1, 33):
        items = [bytes([i]) for i in range(n)]
        root = MerkleTree.build(items).root()
        idx = rng.randrange(n)
        bit = rng.randrange(8)
        mutated = list(items)
        mutated[idx] = bytes([items[idx][0] ^ (1 << bit)])
        assert MerkleTree.build(mutated).root() != root


def test_forged_proofs_rejected():
    items = payloads(16)
    tree = MerkleTree.build(items)
    root = tree.root()
    rng = random.Random(5)
    rejected = 0
    for _ in range(10_000):
        proof = [rng.randbytes(32) for _ in range(rng.randrange(0, 5))]
        payload = rng.randbytes(8) + b"forged"
        if not verify([payload], [0], 16, proof, root):
            rejected += 1
    assert rejected == 10_000


# custom: every digest taken through a counter patched over hashlib.sha256
@pytest.mark.parametrize("counted", [False, True], ids=["sha256", "custom"])
def test_empty_payload_rejected_by_every_scheme(counted, request):
    calls = request.getfixturevalue("sha256_calls") if counted else [0]
    with pytest.raises(EmptyPayload):
        MerkleTree.build([b""])
    tree = MerkleTree.build([b"p"])
    with pytest.raises(EmptyPayload):
        tree.append(b"")
    assert calls[0] == int(counted)  # only b"p" was hashed
    assert len(tree) == 1 and tree.root() == hash_leaf(b"p")


def test_incremental_updates_match_rebuild():
    """A seeded mix of appends, removals and replacements over 1..300 leaves."""
    rng = random.Random(2205)
    items = [b"seed"]
    tree = MerkleTree.build(items)
    step = 0
    while len(items) < 300:
        step += 1
        op = rng.random()
        if op < 0.6:
            items.append(b"leaf-%d" % step)
            tree.append(items[-1])
        elif op < 0.8 and len(items) > 1:
            items.pop()
            tree.remove_last()
        else:
            index = rng.randrange(len(items))
            items[index] = b"replaced-%d" % step
            tree.replace_leaf(index, items[index])
        n = len(items)
        built = MerkleTree.build(items)
        assert len(tree) == n
        assert len(tree._levels) == len(built._levels) == n.bit_length()
        assert tree.root() == built.root() == brute_force_root(items)
        for i in range(n):
            assert tree.prove([i], n) == built.prove([i], n)


def test_emptied_tree_grows_again():
    tree = MerkleTree.build(payloads(3))
    for _ in range(3):
        tree.remove_last()
    with pytest.raises(EmptyTree):
        tree.root()
    with pytest.raises(EmptyTree):
        tree.remove_last()
    for payload in payloads(5):
        tree.append(payload)
    assert tree.root() == brute_force_root(payloads(5))


def test_append_then_root_hashes_one_path(sha256_calls):
    """Leaf i costs its leaf digest, one parent per trailing set bit of i
    and one fold per larger peak: 1 + popcount(i).  ``root`` then reads
    the cached fold and hashes nothing."""
    calls = sha256_calls
    tree = MerkleTree()
    for i in range(400):
        calls[0] = 0
        tree.append(b"payload-%d" % i)
        tree.root()
        tree.root()
        assert calls[0] == 1 + bin(i).count("1"), i


def test_root_at_equals_prefix_build():
    items = payloads(300)
    tree = MerkleTree.build(items)
    for k in range(1, 301):
        want = MerkleTree.build(items[:k]).root()
        assert tree.root_at(k) == want == brute_force_root(items[:k]), k
    for size in (0, 301):
        with pytest.raises(IndexOutOfRange):
            tree.root_at(size)


def test_root_at_equals_rfc6962_mth_for_every_prefix():
    items = payloads(300)
    mth = mth_oracle(items)
    tree = MerkleTree()
    for n in range(1, 301):
        tree.append(items[n - 1])
        assert tree.root() == mth(0, n), n
        for k in range(1, n + 1):
            assert tree.root_at(k) == mth(0, k), (n, k)


def test_prefix_roots_equal_rfc6962_mth_for_every_prefix(sha256_calls):
    """One call gives the root of every prefix, each from the stored levels.

    Every size up to 64, then one below, at and one past each power of two
    from 128 to 1024, where the top block ends short, whole or just begun.
    """
    calls = sha256_calls
    items = payloads(1025)
    mth = mth_oracle(items)  # MTH of items[0:k] depends on those k alone
    edges = [2**p + d for p in range(7, 11) for d in (-1, 0, 1)]
    for n in [*range(1, 65), *edges]:
        tree = MerkleTree.build(items[:n])
        calls[0] = 0
        roots = tree.prefix_roots()
        # popcount(k) - 1 internal hashes per prefix, no leaf rehashed
        assert calls[0] == sum(bin(k).count("1") - 1 for k in range(1, n + 1)), n
        assert roots == [mth(0, k) for k in range(1, n + 1)], n
    assert MerkleTree().prefix_roots() == []


# an operation: ("append",), ("remove",) or ("replace", index seed)
OPERATIONS = st.lists(
    st.one_of(
        st.just(("append",)),
        st.just(("remove",)),
        st.tuples(st.just("replace"), st.integers(min_value=0, max_value=10**6)),
    ),
    max_size=120,
)


@given(OPERATIONS)
@settings(max_examples=150, deadline=None)
def test_incremental_levels_equal_build(operations):
    """Every stored node, not only the root, matches a fresh build.

    Level h holds exactly the n >> h perfect subtrees of 2**h leaves, each
    the MTH of its block, and the root is the MTH of all n leaves: no node
    is left stale, partial or past the end after any mutation.
    """
    items = [b"first"]
    tree = MerkleTree.build(items)
    for step, op in enumerate(operations):
        if op[0] == "append":
            items.append(b"leaf-%d" % step)
            tree.append(items[-1])
        elif op[0] == "remove":
            if not items:
                with pytest.raises(EmptyTree):
                    tree.remove_last()
                continue
            items.pop()
            tree.remove_last()
        elif items:
            index = op[1] % len(items)
            items[index] = b"replaced-%d" % step
            tree.replace_leaf(index, items[index])
        n = len(items)
        mth = mth_oracle(tuple(items))
        assert len(tree._levels) == max(n.bit_length(), 1)
        for h, level in enumerate(tree._levels):
            assert level == [mth(i << h, (i + 1) << h) for i in range(n >> h)]
        if items:
            assert tree._levels == MerkleTree.build(items)._levels
            assert tree.root() == mth(0, n)
        else:
            assert tree._levels == [[]]


def test_remove_last_hashes_only_the_fold_of_the_peaks_left(sha256_calls):
    """Removing down to m leaves truncates the levels, hashing nothing, and
    refolds the root of the m leaves: popcount(m) - 1 digests, 1260 over
    m = 398 down to 1."""
    calls = sha256_calls
    items = payloads(399)
    mth = mth_oracle(items)
    tree = MerkleTree.build(items)
    total = 0
    for m in range(398, 0, -1):
        calls[0] = 0
        tree.remove_last()
        assert calls[0] == bin(m).count("1") - 1, m
        total += calls[0]
        assert tree.root() == mth(0, m), m
    assert total == 1260
    calls[0] = 0
    tree.remove_last()
    assert calls[0] == 0 and tree._levels == [[]]


def test_root_at_hashes_one_per_extra_peak(sha256_calls):
    calls = sha256_calls
    tree = MerkleTree.build(payloads(300))
    for k in range(1, 301):
        calls[0] = 0
        tree.root_at(k)
        assert calls[0] == bin(k).count("1") - 1, k


def test_verify_agrees_with_brute_force_for_every_scheme(sha256_calls):
    """Every one-leaf proof of trees of 1..300 leaves folds to the brute-force root.

    Each verify hashes the leaf and then one node per proof digest, and
    reaches the right verdict for the true root and for a wrong one.
    """
    calls = sha256_calls
    items = payloads(300)
    tree = MerkleTree.build(items[:1])
    for n in range(1, 301):
        if n > 1:
            tree.append(items[n - 1])
        root = tree.root()
        assert root == brute_force_root(items[:n])
        wrong = hashlib.sha256(root).digest()
        for i in range(n):
            proof = tree.prove([i], n)
            for expected, verdict in ((root, True), (wrong, False)):
                calls[0] = 0
                assert verify([items[i]], [i], n, proof, expected) is verdict
                assert calls[0] == len(proof) + 1
        assert not verify([b""], [0], n, tree.prove([0], n), root)


def _subsets(rng, size):
    """Three seeded random index sets and three random windows of ``range(size)``."""
    for _ in range(3):
        yield sorted(rng.sample(range(size), rng.randint(0, size)))
        lo = rng.randrange(size)
        yield list(range(lo, rng.randint(lo + 1, size)))


def test_multiproofs_match_the_rfc6962_oracle():
    """Every n <= 64, every prefix size <= n, proved leaves against MTH.

    A tree of 64 leaves proves every contiguous window of every prefix;
    every smaller tree proves seeded random index sets and windows of each
    of its prefixes.  Proofs stay within ceil(log2 size) digests for one
    leaf and 2 * ceil(log2 size) for a window.
    """
    rng = random.Random(9162)
    items = payloads(64)
    mth = mth_oracle(items)
    for n in range(1, 65):
        tree = MerkleTree.build(items[:n])
        for size in range(1, n + 1):
            root = mth(0, size)
            bound = math.ceil(math.log2(size))
            if n == 64:
                windows = [list(range(lo, hi)) for lo in range(size)
                           for hi in range(lo + 1, size + 1)]
            else:
                windows = list(_subsets(rng, size))
            for indices in windows:
                proof = tree.prove(indices, size)
                leaves = [items[i] for i in indices]
                assert verify(leaves, indices, size, proof, root), (n, size, indices)
                if len(indices) == 1:
                    assert len(proof) <= bound
                if indices and indices == list(range(indices[0], indices[-1] + 1)):
                    assert len(proof) <= 2 * bound
                if not indices:
                    assert proof == [root]


def test_multiproof_forgeries_rejected():
    items = payloads(64)
    tree = MerkleTree.build(items)
    rng = random.Random(13)
    checked = 0
    for size in range(2, 65):
        root = tree.root_at(size)
        for _ in range(6):
            lo = rng.randrange(size)
            indices = list(range(lo, rng.randint(lo + 1, size)))
            if rng.random() < 0.5:
                indices = sorted(rng.sample(range(size), rng.randint(1, size)))
            leaves = [items[i] for i in indices]
            proof = tree.prove(indices, size)
            assert verify(leaves, indices, size, proof, root)
            forgeries = [
                # one more digest, anywhere
                (leaves, indices, proof[:1] + [rng.randbytes(32)] + proof[1:]),
                # a changed payload
                (leaves[:-1] + [leaves[-1] + b"!"], indices, proof),
                # an index past the prefix
                (leaves, indices[:-1] + [size], proof),
            ]
            if proof:
                j = rng.randrange(len(proof))
                flipped = bytearray(proof[j])
                flipped[rng.randrange(32)] ^= 1 + rng.randrange(255)
                forgeries.append((leaves, indices,
                                  proof[:j] + [bytes(flipped)] + proof[j + 1:]))
                forgeries.append((leaves, indices, proof[:j] + proof[j + 1:]))
            if len(proof) > 1:
                j, k = sorted(rng.sample(range(len(proof)), 2))
                swapped = list(proof)
                swapped[j], swapped[k] = swapped[k], swapped[j]
                forgeries.append((leaves, indices, swapped))
            if len(indices) > 1:
                forgeries.append((leaves[::-1], indices[::-1], proof))
                forgeries.append((leaves[:1] + leaves[1:],
                                  indices[:1] + [indices[0]] + indices[2:], proof))
            for forged_leaves, forged_indices, forged_proof in forgeries:
                assert not verify(forged_leaves, forged_indices, size,
                                  forged_proof, root), (size, indices)
                checked += 1
    assert checked > 2000


@pytest.mark.parametrize("new_log, good, unpackable", [
    (lambda: PeerTransactionTree(1, 2),
     TransactionPairRecord(1, 5, 1, 2, 10, *[bytes(32)] * 6),
     (2, 2**64, 1, 2, 10, *[bytes(32)] * 6)),  # timestamp past u64
    (BalanceMHT,
     BalanceChangeRecord(1, 5, 1, 2, 10, 10, bytes(32)),
     (2, 6, 2, 2, 2**63, 10 + 2**63, bytes(32))),  # delta past i64
], ids=["pair", "balance"])
def test_a_record_that_fails_to_encode_leaves_the_log_as_it_was(
        new_log, good, unpackable):
    """``RecordLog.append`` checks, encodes and hashes a record before
    ``records`` takes it: one that passes ``_check`` (built past the
    record's own checks) but does not pack raises and changes nothing."""
    log = new_log()
    log.append(good)
    root = log.root()
    with pytest.raises(struct.error):
        log.append(tuple.__new__(type(good), unpackable))
    assert len(log.records) == len(log.tree) == 1
    assert log.root() == root
