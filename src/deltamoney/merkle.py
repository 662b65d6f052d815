"""Append-capable binary Merkle tree with multiproofs over its prefixes.

Leaves are hashed with the leaf tag and adjacent nodes are paired left to
right with the internal tag.  The tree stores only perfect subtrees, the
nodes no later append or removal changes (Crosby and Wallach's frozen
nodes, USENIX Security 2009): level h holds one node per whole block of
2**h leaves.  Any run of leaves that ends a prefix splits into such
subtrees, its peaks, one per set bit of its length, and its digest is the
peaks folded from the right.  That is RFC 6962's Merkle Tree Hash
(section 2.1) of the ordered leaf payloads; no node is ever paired with a
copy of itself (duplicate-and-hash, which is malleable).  ``_fold_peaks``
is that one fold; the root, ``root_at``, ``prove`` and ``verify`` all go
through it.

Costs: appending leaf i hashes the leaf and each parent it completes (one
per trailing set bit of i), then folds the larger peaks into the cached
root: 1 + popcount(i) hashes in all.  Removing the last leaf truncates
every level to the whole blocks left, hashing nothing, and refolds the
root of the m leaves left for popcount(m) - 1 hashes.  No stored node is
ever rewritten.  Replacing a leaf, which only fault injection does,
refolds every level above the leaves.  ``build`` hashes n leaves and
n - 1 internal nodes, one comprehension per level and the peak fold.
``prefix_roots`` gives the root of every prefix for popcount(size) - 1
hashes each, all read from the stored levels with no leaf rehashed, in one
comprehension per half-block offset or per block of each level.

Every digest is one inline ``hashlib.sha256(tagged).digest()`` over the
bytes ``hashing.hash_leaf`` and ``hashing.hash_internal`` hash, with no
helper frame in between, for a recovery takes thousands of digests.
``hashlib.sha256`` is looked up at every call, never bound at import, so
a counter patched over it (the benchmark tracer, the tests'
``sha256_calls``) sees every digest.

A proof shows sorted leaves against the root of the first ``size`` leaves
(RFC 9162 section 2.1.3's subtree split, extended to many leaves as in
Ramabaja and Avdullahu, "Compact Merkle Multiproofs", 2020).  It is a bare
list of digests, left to right the digest of every maximal subtree of the
split of ``[0, size)`` that holds no proved leaf; indices and ``size`` fix
its shape, so it needs no side bytes.  Verifying k leaves hashes them and
k - 1 + d internal nodes, d the number of digests: at most ceil(log2 size)
for one leaf and 2 * ceil(log2 size) for a window of adjacent leaves.

``RecordLog``, under both the pair trees and the balance trees, is the
one checked append, rollback (``remove_last``) and build of records over
such a tree, at the costs above, each record encoded once for its leaf.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Iterable, NoReturn, Sequence

from .errors import EmptyPayload, EmptyTree, IndexOutOfRange
from .hashing import EMPTY_TREE_DIGEST, TAG_INTERNAL, TAG_LEAF, Digest


class MerkleTree:
    """Binary hash tree over an ordered list of byte payloads.

    ``_levels[0]`` holds the leaf digests and ``_levels[h]`` the ``n >> h``
    perfect subtrees of 2**h leaves over the ``n`` leaves, so there are
    ``max(n.bit_length(), 1)`` levels and every perfect subtree of any
    prefix is a stored node.  ``_root`` caches the peaks' fold, which
    makes ``root`` a plain read.
    """

    def __init__(self):
        self._levels: list[list[Digest]] = [[]]
        self._root: Digest | None = None

    @classmethod
    def build(cls, leaf_payloads) -> "MerkleTree":
        leaves = [hashlib.sha256(TAG_LEAF + payload).digest() if payload
                  else _empty_payload() for payload in leaf_payloads]
        if not leaves:
            raise EmptyTree("cannot build a tree with no leaves")
        tree = cls()
        tree._pair_up(leaves)
        return tree

    def append(self, payload: bytes) -> None:
        if not payload:
            raise EmptyPayload("leaf payload must be non-empty")
        node = hashlib.sha256(TAG_LEAF + payload).digest()
        levels = self._levels
        index = len(levels[0])
        levels[0].append(node)
        # a node at an odd index completes its parent, one level up
        depth = 0
        while index & 1:
            node = hashlib.sha256(
                TAG_INTERNAL + levels[depth][index - 1] + node).digest()
            index >>= 1
            depth += 1
            if depth < len(levels):
                levels[depth].append(node)
            else:
                levels.append([node])
        # node is now the smallest peak; the larger ones end where it starts
        rest = index << depth
        self._root = _fold_peaks(levels, rest, rest, node)

    def remove_last(self) -> None:
        levels = self._levels
        size = len(levels[0]) - 1
        if size < 0:
            raise EmptyTree("nothing to remove")
        del levels[max(size.bit_length(), 1):]
        for depth, level in enumerate(levels):
            del level[size >> depth:]
        self._root = _fold_peaks(levels, size, size)

    def replace_leaf(self, leaf_index: int, payload: bytes) -> None:
        """Overwrite one leaf and refold the levels above (fault injection)."""
        if not 0 <= leaf_index < len(self):
            raise IndexOutOfRange(f"leaf {leaf_index} outside tree of {len(self)}")
        if not payload:
            raise EmptyPayload("leaf payload must be non-empty")
        leaves = self._levels[0]
        leaves[leaf_index] = hashlib.sha256(TAG_LEAF + payload).digest()
        self._pair_up(leaves)

    def _pair_up(self, leaves: list[Digest]) -> None:
        self._levels = _fold_levels(leaves)
        self._root = _fold_peaks(self._levels, len(leaves), len(leaves))

    def __len__(self) -> int:
        return len(self._levels[0])

    def root(self) -> Digest:
        if self._root is None:
            raise EmptyTree("tree has no leaves")
        return self._root

    def leaf(self, index: int) -> Digest:
        """Digest of leaf ``index``, as stored: no payload is rehashed."""
        leaves = self._levels[0]
        if not 0 <= index < len(leaves):
            raise IndexOutOfRange(f"leaf {index} outside tree of {len(leaves)}")
        return leaves[index]

    def root_at(self, size: int) -> Digest:
        """Root the tree had when it held only its first ``size`` leaves."""
        if not 1 <= size <= len(self._levels[0]):
            raise IndexOutOfRange(f"prefix {size} outside tree of {len(self)}")
        return _fold_peaks(self._levels, size, size)

    def prefix_roots(self) -> list[Digest]:
        """``root_at(size)`` for every size from 1 to ``len(self)``, in order.

        Computed for all sizes at once, a level at a time from the stored
        levels.  After level h, ``roots[i]`` is the root of the leaves from
        the start of leaf i's block of 2**(h + 1) leaves through leaf i.
        A level changes only the indices in the right half of a block: the
        last one, whose block is then whole, takes the stored parent (so an
        odd leaf takes its stored parent), and every other one hashes the
        stored left half with its running root.  The top level has no
        parents, for its one block is not whole.  The prefix ending at leaf
        i so costs one hash per set bit of i above its trailing ones, the
        popcount(i + 1) - 1 of ``_fold_peaks``.  A level runs one
        comprehension per half-block offset or per block, whichever is
        fewer, so no per-size Python loop is left.
        """
        levels = self._levels
        roots = list(levels[0])
        n = len(roots)
        for h, parents in enumerate([*levels[1:], []]):
            half, block = 1 << h, 2 << h
            lefts = levels[h]
            # the last index of each whole block takes the stored parent
            roots[block - 1::block] = parents
            if half <= n // block:  # few offsets, many blocks: stride them
                left_halves = lefts[::2]
                for offset in range(half, block - 1):
                    roots[offset::block] = [
                        hashlib.sha256(TAG_INTERNAL + left + root).digest()
                        for left, root in zip(left_halves, roots[offset::block])]
            else:  # few blocks: slice each one's right half
                for start in range(half, n, block):
                    stop = min(start + half - 1, n)
                    prefix = TAG_INTERNAL + lefts[(start >> h) - 1]
                    roots[start:stop] = [hashlib.sha256(prefix + root).digest()
                                         for root in roots[start:stop]]
        return roots

    def prove(self, indices: Sequence[int], size: int) -> list[Digest]:
        """Multiproof of leaves ``indices`` against ``root_at(size)``.

        Walks the RFC 6962 split of ``[0, size)``, listing left to right
        the digest of every maximal subtree that holds none of ``indices``
        and skipping any subtree whose leaves are all proved.
        """
        levels = self._levels
        if not (size <= len(levels[0]) and _well_formed(indices, size)):
            raise IndexOutOfRange(f"leaves {list(indices)} do not rise strictly "
                                  f"in a prefix {size} of a tree of {len(self)}")
        proof: list[Digest] = []

        def walk(lo: int, hi: int, i: int, j: int) -> None:
            # indices[i:j] are the proved leaves inside [lo, hi)
            if i == j:
                proof.append(_fold_peaks(levels, hi, hi - lo))
            elif j - i < hi - lo:
                mid = lo + (1 << ((hi - lo - 1).bit_length() - 1))
                m = bisect_left(indices, mid, i, j)
                walk(lo, mid, i, m)
                walk(mid, hi, m, j)

        walk(0, size, 0, len(indices))
        return proof


class RecordLog:
    """Checked records beside the ``MerkleTree`` of their encodings.

    Record i is leaf i, hashed over ``record.to_bytes()``.  A subclass
    defines ``_check``, which raises unless a record may follow
    ``records``.  ``append`` checks and encodes a record and appends its
    leaf before ``records`` takes it, so one that fails either step
    changes nothing and ``records`` and ``tree`` always hold the same
    count.  An empty log's root is ``EMPTY_TREE_DIGEST``.
    """

    def __init__(self) -> None:
        self.records: list = []
        self.tree = MerkleTree()

    def __len__(self) -> int:
        return len(self.records)

    def root(self) -> Digest:
        return self.tree.root() if self.records else EMPTY_TREE_DIGEST

    def append(self, record) -> None:
        """Check ``record``, append its leaf, then keep it."""
        self._check(record)
        self.tree.append(record.to_bytes())
        self.records.append(record)

    def remove_last(self) -> None:
        """Drop the last record and its leaf; ``EmptyTree`` when empty."""
        self.tree.remove_last()
        self.records.pop()

    @classmethod
    def build(cls, records: Iterable, *args) -> "RecordLog":
        """The log that appending ``records`` in order to ``cls(*args)`` gives.

        Each record passes ``_check`` in order, and the tree is then
        hashed in one ``MerkleTree.build``: n leaves and n - 1 internal
        nodes, instead of n appends of O(log n) hashes each.
        """
        log = cls(*args)
        for record in records:
            log._check(record)
            log.records.append(record)
        if log.records:
            log.tree = MerkleTree.build([record.to_bytes() for record in log.records])
        return log


def _well_formed(indices: Sequence[int], size: int) -> bool:
    """True iff ``size`` is positive and ``indices`` rise strictly in ``[0, size)``."""
    return size > 0 and all(a < b for a, b in zip((-1, *indices), (*indices, size)))


def _fold_levels(leaves: list[Digest]) -> list[list[Digest]]:
    """The perfect subtrees over ``leaves``, a level each, leaves first.

    Level h pairs the nodes of level h - 1, leaving an unpaired last one
    out, so it holds ``len(leaves) >> h`` nodes.
    """
    levels = [leaves]
    level = leaves
    while len(level) > 1:
        pairs = iter(level)  # zip(pairs, pairs) yields nodes 0 and 1, 2 and 3, ...
        level = [hashlib.sha256(TAG_INTERNAL + left + right).digest()
                 for left, right in zip(pairs, pairs)]
        levels.append(level)
    return levels


def _fold_peaks(levels: list[list[Digest]], hi: int, width: int,
                node: Digest | None = None) -> Digest | None:
    """Digest of the ``width`` leaves ending at ``hi``, folded onto ``node``.

    The run must be a node of the split of a prefix: perfect, or ending
    the prefix with its start a multiple of the power of two above
    ``width``.  Either way it splits into peaks stored in ``levels``, one
    per set bit of ``width`` and the largest leftmost (level h, index i
    covers leaves [i * 2**h, (i + 1) * 2**h)).  Folding them from the
    right is RFC 6962's Merkle Tree Hash: popcount(width) - 1 hashes, one
    more with a ``node``, and no leaf rehashed; None for no leaves.
    """
    while width:
        bit = width & -width
        depth = bit.bit_length() - 1
        peak = levels[depth][(hi >> depth) - 1]
        if node is None:
            node = peak
        else:
            node = hashlib.sha256(TAG_INTERNAL + peak + node).digest()
        width ^= bit
    return node


def _empty_payload() -> NoReturn:
    raise EmptyPayload("leaf payload must be non-empty")


def verify(leaf_payloads: Sequence[bytes], indices: Sequence[int], size: int,
           proof: Sequence[Digest], root: Digest) -> bool:
    """True iff the payloads at leaves ``indices`` and ``proof`` fold to ``root``.

    Repeats ``prove``'s walk: a subtree holding none of ``indices`` takes
    the next digest of ``proof``, one whose leaves are all given is folded
    from them, and any other is split.  Every digest must be used.
    """
    if (len(leaf_payloads) != len(indices) or not _well_formed(indices, size)
            or not all(leaf_payloads)):
        return False
    leaves = [hashlib.sha256(TAG_LEAF + payload).digest()
              for payload in leaf_payloads]
    digests = iter(proof)

    def fold(lo: int, hi: int, i: int, j: int) -> Digest:
        if i == j:
            return next(digests)
        if j - i == hi - lo:
            return _fold_peaks(_fold_levels(leaves[i:j]), j - i, j - i)
        mid = lo + (1 << ((hi - lo - 1).bit_length() - 1))
        m = bisect_left(indices, mid, i, j)
        left, right = fold(lo, mid, i, m), fold(mid, hi, m, j)
        return hashlib.sha256(TAG_INTERNAL + left + right).digest()

    try:
        node = fold(0, size, 0, len(indices))
    except StopIteration:  # the proof ran out of digests
        return False
    return next(digests, None) is None and node == root
