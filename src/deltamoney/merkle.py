"""Append-capable binary Merkle tree with inclusion proofs.

Leaves are hashed with the leaf tag, adjacent nodes are paired left to right
with the internal tag, and an unpaired rightmost node is promoted unchanged
to the next level (no duplicate-and-hash, which is malleable). The root is a
pure function of the ordered leaf payloads, and equals RFC 6962's Merkle
Tree Hash (section 2.1) of them.

Costs: appending or removing the last leaf changes only the right edge,
one node per level, so it hashes at most one node per level.  The edge is
walked with bit arithmetic on the leaf index: a node at an odd index has a
left sibling and is hashed with it, one at an even index is the unpaired
rightmost node and is carried up as is.  An append fills new slots up to
the first odd index and overwrites existing ones above it; a removal trims
each level to its new size and rehashes the edge of the last leaf left.
Replacing a leaf, which only fault injection does, refolds every level
above the leaves.  Every digest is one ``scheme.function`` call on the
tagged bytes, with no helper frame in between.

Proofs carry explicit sides so verification needs no knowledge of the tree
shape: each path entry says on which side the sibling digest sits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import PROOF_ENTRY, Reader, u32, u64
from .errors import EmptyPayload, EmptyTree, IndexOutOfRange
from .hashing import DIGEST_SIZE, SHA256, TAG_INTERNAL, TAG_LEAF, Digest, HashScheme

SIDE_LEFT = 0  # sibling hashes in on the left
SIDE_RIGHT = 1


@dataclass(frozen=True)
class InclusionProof:
    """Authentication path for one leaf against a claimed root."""

    leaf_index: int
    path: tuple[tuple[int, Digest], ...]  # (side, sibling digest)
    claimed_root: Digest

    def to_bytes(self) -> bytes:
        parts = [u64(self.leaf_index), u32(len(self.path))]
        parts.extend(PROOF_ENTRY.pack(*entry) for entry in self.path)
        parts.append(self.claimed_root)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "InclusionProof":
        r = Reader(data)
        leaf_index = r.u64()
        count = r.u32()
        path = tuple(PROOF_ENTRY.iter_unpack(r.take(count * PROOF_ENTRY.size)))
        for side, _ in path:
            # verify reads every side but SIDE_LEFT as right: only the two
            # canonical bytes parse, so one proof has one encoding
            if side not in (SIDE_LEFT, SIDE_RIGHT):
                raise ValueError(f"proof side byte {side} is neither 0 nor 1")
        proof = cls(leaf_index, path, r.take(DIGEST_SIZE))
        if not r.done():
            raise ValueError("trailing bytes after the inclusion proof")
        return proof


class MerkleTree:
    """Binary hash tree over an ordered list of byte payloads.

    ``_levels[0]`` holds the leaf digests and each later level the nodes one
    step up, so the last level is the root. Every mutation keeps all levels
    current, which makes ``root`` and ``prove`` plain reads.
    """

    def __init__(self, scheme: HashScheme = SHA256):
        self.scheme = scheme
        self._levels: list[list[Digest]] = [[]]

    @classmethod
    def build(cls, leaf_payloads, scheme: HashScheme = SHA256) -> "MerkleTree":
        fn = scheme.function
        leaves = []
        for payload in leaf_payloads:
            if not payload:
                raise EmptyPayload("leaf payload must be non-empty")
            leaves.append(fn(TAG_LEAF + payload))
        if not leaves:
            raise EmptyTree("cannot build a tree with no leaves")
        tree = cls(scheme)
        tree._levels = _fold_levels(leaves, fn)
        return tree

    def append(self, payload: bytes) -> None:
        if not payload:
            raise EmptyPayload("leaf payload must be non-empty")
        fn = self.scheme.function
        node = fn(TAG_LEAF + payload)
        levels = self._levels
        index = len(levels[0])
        levels[0].append(node)
        # an even index is the unpaired rightmost node, promoted into a
        # parent slot that is new as long as the node itself is new
        depth = 0
        while index and not index & 1:
            index >>= 1
            depth += 1
            levels[depth].append(node)
        if index == 1:
            # the leaf index was a power of two: the old root gains a
            # right sibling, and the tree a level
            levels.append([fn(TAG_INTERNAL + levels[depth][0] + node)])
            return
        # past the first odd index every parent slot exists already
        while index:
            if index & 1:
                node = fn(TAG_INTERNAL + levels[depth][index - 1] + node)
            index >>= 1
            depth += 1
            levels[depth][index] = node

    def remove_last(self) -> None:
        levels = self._levels
        leaves = levels[0]
        if not leaves:
            raise EmptyTree("nothing to remove")
        leaves.pop()
        last = len(leaves) - 1
        if last < 0:
            del levels[1:]
            return
        # a tree whose last leaf is ``last`` has last.bit_length() + 1
        # levels, and level h ends at node last >> h
        del levels[last.bit_length() + 1:]
        fn = self.scheme.function
        node = leaves[last]
        index, depth = last, 0
        while index:
            if index & 1:
                node = fn(TAG_INTERNAL + levels[depth][index - 1] + node)
            index >>= 1
            depth += 1
            level = levels[depth]
            del level[index + 1:]
            level[index] = node

    def replace_leaf(self, leaf_index: int, payload: bytes) -> None:
        """Overwrite one leaf and refold the levels above (fault injection)."""
        self._check_index(leaf_index)
        if not payload:
            raise EmptyPayload("leaf payload must be non-empty")
        leaves = self._levels[0]
        leaves[leaf_index] = self.scheme.function(TAG_LEAF + payload)
        self._levels = _fold_levels(leaves, self.scheme.function)

    def _check_index(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < len(self):
            raise IndexOutOfRange(f"leaf {leaf_index} outside tree of {len(self)}")

    def __len__(self) -> int:
        return len(self._levels[0])

    def root(self) -> Digest:
        if not self._levels[0]:
            raise EmptyTree("tree has no leaves")
        return self._levels[-1][0]

    def root_at(self, size: int) -> Digest:
        """Root the tree had when it held only its first ``size`` leaves.

        The prefix splits into perfect subtrees, one per set bit of
        ``size`` and the largest leftmost; each is a node already stored
        in ``_levels`` (level h, index i covers leaves [i * 2**h,
        (i + 1) * 2**h)).  Promoting unpaired nodes makes the prefix root
        these peaks folded from the right, RFC 6962's Merkle Tree Hash, so
        this visits only the set bits of ``size``, costs popcount(size) - 1
        hashes and rehashes no leaf.
        """
        if not 1 <= size <= len(self._levels[0]):
            raise IndexOutOfRange(f"prefix {size} outside tree of {len(self)}")
        levels, fn = self._levels, self.scheme.function
        bit = size & -size
        depth = bit.bit_length() - 1
        node = levels[depth][(size >> depth) - 1]
        rest = size ^ bit
        while rest:
            bit = rest & -rest
            depth = bit.bit_length() - 1
            node = fn(TAG_INTERNAL + levels[depth][(size >> depth) - 1] + node)
            rest ^= bit
        return node

    def prove(self, leaf_index: int) -> InclusionProof:
        self._check_index(leaf_index)
        path = []
        index = leaf_index
        for level in self._levels[:-1]:
            sibling = index ^ 1
            if sibling < len(level):
                side = SIDE_LEFT if sibling < index else SIDE_RIGHT
                path.append((side, level[sibling]))
            # an unpaired rightmost node was promoted: no path entry
            index //= 2
        return InclusionProof(leaf_index, tuple(path), self.root())


def _fold_levels(leaves: list[Digest], fn) -> list[list[Digest]]:
    """Every level of the tree over ``leaves``, leaves first, root last."""
    levels = [leaves]
    level = leaves
    while len(level) > 1:
        nxt = [fn(TAG_INTERNAL + level[i] + level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) & 1:  # the unpaired rightmost node is promoted
            nxt.append(level[-1])
        levels.append(nxt)
        level = nxt
    return levels


def verify(
    payload: bytes,
    proof: InclusionProof,
    expected_root: Digest,
    scheme: HashScheme = SHA256,
) -> bool:
    """True iff folding the payload's leaf digest up the path hits the root."""
    fn = scheme.function
    try:
        if not payload:
            return False
        node = fn(TAG_LEAF + payload)
    except Exception:
        return False
    for side, sibling in proof.path:
        if side == SIDE_LEFT:
            node = fn(TAG_INTERNAL + sibling + node)
        else:
            node = fn(TAG_INTERNAL + node + sibling)
    return node == expected_root
