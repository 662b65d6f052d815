"""Append-capable binary Merkle tree with inclusion proofs.

Leaves are hashed with the leaf tag, adjacent nodes are paired left to right
with the internal tag, and an unpaired rightmost node is promoted unchanged
to the next level (no duplicate-and-hash, which is malleable). The root is a
pure function of the ordered leaf payloads.

Updates cost O(log n) hashes. Appending, removing or replacing a leaf can
change only that leaf's ancestors, one node per level, so a mutation hashes
the leaf and then rehashes the path from it to the root: a node with a
sibling is ``hash_internal(left, right)``, an unpaired rightmost node is
carried up as is, and each level is cut to half the size of the one below
(rounded up), which drops the nodes of a removed leaf.

Proofs carry explicit sides so verification needs no knowledge of the tree
shape: each path entry says on which side the sibling digest sits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import PROOF_ENTRY, Reader, u32, u64
from .errors import EmptyTree, IndexOutOfRange
from .hashing import DIGEST_SIZE, SHA256, Digest, HashScheme, hash_internal, hash_leaf

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
        payloads = list(leaf_payloads)
        if not payloads:
            raise EmptyTree("cannot build a tree with no leaves")
        tree = cls(scheme)
        level = [hash_leaf(p, scheme) for p in payloads]
        tree._levels = [level]
        while len(level) > 1:
            nxt = [
                hash_internal(level[i], level[i + 1], scheme)
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            tree._levels.append(nxt)
            level = nxt
        return tree

    def append(self, payload: bytes) -> None:
        leaves = self._levels[0]
        leaves.append(hash_leaf(payload, self.scheme))
        self._update_path(len(leaves) - 1)

    def remove_last(self) -> None:
        leaves = self._levels[0]
        if not leaves:
            raise EmptyTree("nothing to remove")
        leaves.pop()
        self._update_path(len(leaves) - 1)

    def replace_leaf(self, leaf_index: int, payload: bytes) -> None:
        self._check_index(leaf_index)
        self._levels[0][leaf_index] = hash_leaf(payload, self.scheme)
        self._update_path(leaf_index)

    def _update_path(self, index: int) -> None:
        """Recompute the ancestors of leaf ``index`` and fit every level's size.

        Only the touched leaf's ancestors can change, and the levels above
        hold ceil(len(below) / 2) nodes, so a level that grew gains its last
        node here and one that shrank loses it. A negative index (the tree
        just became empty) only trims.
        """
        levels = self._levels
        depth = 0
        while len(levels[depth]) > 1:
            level = levels[depth]
            index //= 2
            left = 2 * index
            if left + 1 < len(level):
                node = hash_internal(level[left], level[left + 1], self.scheme)
            else:  # unpaired rightmost node: promoted unchanged
                node = level[left]
            depth += 1
            if depth == len(levels):
                levels.append([])
            parent = levels[depth]
            if index < len(parent):
                parent[index] = node
            else:
                parent.append(node)
            del parent[(len(level) + 1) // 2:]
        del levels[depth + 1:]

    def _check_index(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < len(self):
            raise IndexOutOfRange(f"leaf {leaf_index} outside tree of {len(self)}")

    def __len__(self) -> int:
        return len(self._levels[0])

    @property
    def leaf_digests(self) -> list[Digest]:
        return list(self._levels[0])

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
        this costs popcount(size) - 1 hashes and rehashes no leaf.
        """
        if not 1 <= size <= len(self):
            raise IndexOutOfRange(f"prefix {size} outside tree of {len(self)}")
        peaks = [
            self._levels[h][(size >> h) - 1]
            for h in range(size.bit_length())
            if size >> h & 1
        ]
        node = peaks[0]
        for peak in peaks[1:]:
            node = hash_internal(peak, node, self.scheme)
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


def verify(
    payload: bytes,
    proof: InclusionProof,
    expected_root: Digest,
    scheme: HashScheme = SHA256,
) -> bool:
    """True iff folding the payload's leaf digest up the path hits the root."""
    try:
        node = hash_leaf(payload, scheme)
    except Exception:
        return False
    for side, sibling in proof.path:
        if side == SIDE_LEFT:
            node = hash_internal(sibling, node, scheme)
        else:
            node = hash_internal(node, sibling, scheme)
    return node == expected_root
