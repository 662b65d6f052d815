"""Hashing primitives, balance commitments and root signatures.

The tree and commitment hashes are domain-separated by a single prefix byte,
so a leaf digest can never be replayed as an internal node, a balance
commitment, or a grid cell:

    0x00  Merkle leaf, also the record digest of an IM report
    0x01  Merkle internal node
    0x02  balance commitment
    0x03  empty-tree sentinel
    0x06  empty grid cell

0x00 and 0x01 serve both logs, the pair trees and the balance trees, as
one ``merkle.RecordLog`` over a ``merkle.MerkleTree``; their leaves
differ in length (232-byte pair records against 80-byte balance
records), so neither can stand for the other.  0x04 and 0x05 are
unused; 0x06 keeps its value, which pinned grids hash.

Other hashes carry no tag: the grid's row, column and grid digests, the
client snapshot checksum and ``KeyStore``'s key derivation. None of them
is ever compared with a tree node; the grid digests are pinned by golden
event logs, so adding a tag would change recorded output.

Every digest is SHA-256 taken through ``hashlib.sha256``, looked up on
every call and never bound at import, so a counter patched over it (the
benchmark tracer, the tests' ``sha256_calls``) sees each one. On the hot
paths, every tree node in ``merkle`` and every ``commit_balance``, the
digest is one inline ``hashlib.sha256(data).digest()`` with no helper
frame, for a recovery hashes thousands of them. ``digest`` is that call
as a function, for the cold callers (the grid, the sentinels) and the
tests. ``hash_leaf`` and ``hash_internal`` state the Merkle trees' two
node digests; ``merkle`` inlines them, and the tests hold it to them.

Root signatures are pluggable: a real Ed25519 scheme and a deterministic
HMAC-style stub ship with the engine.  Each signer has one key object
that both signs and verifies, and ``KeyStore`` keeps one per signer id.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .encoding import BALANCE_COMMIT, FOREVER, u64
from .errors import EmptyPayload, MalformedRecord, NegativeBalance, UnknownKey

Digest = bytes

DIGEST_SIZE = 32

TAG_LEAF = b"\x00"
TAG_INTERNAL = b"\x01"
TAG_BALANCE = b"\x02"
TAG_EMPTY_TREE = b"\x03"
TAG_EMPTY_CELL = b"\x06"


def digest(data: bytes) -> Digest:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()

#: Root reported by a client whose balance tree holds no records yet.
EMPTY_TREE_DIGEST = digest(TAG_EMPTY_TREE)

#: Digest standing in for a grid cell with no registered pair behind it.
EMPTY_CELL_DIGEST = digest(TAG_EMPTY_CELL)


def hash_leaf(payload: bytes) -> Digest:
    """Digest of a data block destined for a tree leaf."""
    if not payload:
        raise EmptyPayload("leaf payload must be non-empty")
    return digest(TAG_LEAF + payload)


def hash_internal(left: Digest, right: Digest) -> Digest:
    """Digest of two concatenated child digests."""
    return digest(TAG_INTERNAL + left + right)


def commit_balance(client_id: int, seq: int, balance: int) -> Digest:
    """Binding commitment to a client's balance at a given sequence number.

    The sequence number salts the commitment so equal balances at different
    points in a pair's history commit differently, while any verifier holding
    the plaintext triple can recompute the digest.
    """
    if balance < 0:
        raise NegativeBalance(f"cannot commit negative balance {balance}")
    if balance > FOREVER:
        raise MalformedRecord(f"cannot commit balance {balance} above {FOREVER}")
    return hashlib.sha256(
        BALANCE_COMMIT.pack(TAG_BALANCE, client_id, seq, balance)).digest()


# --- root signatures -------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    bytes: bytes
    signer_id: int


class StubKey:
    """Deterministic signing double for simulations and tests.

    Signatures are keyed digests of the message, so one secret both signs
    and verifies, which is fine for a test scheme that never leaves a
    process.
    """

    def __init__(self, signer_id: int, secret: bytes):
        self.signer_id = signer_id
        self._secret = secret

    def sign(self, message: bytes) -> Signature:
        mac = hmac.new(self._secret, message, hashlib.sha256).digest()
        return Signature(mac, self.signer_id)

    def verify(self, message: bytes, signature: Signature) -> bool:
        expected = hmac.new(self._secret, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature.bytes)


class Ed25519Key:
    """Real asymmetric scheme; deterministic given a 32-byte seed.

    The public key is derived once, here, and checks every signature.
    """

    def __init__(self, signer_id: int, seed: bytes):
        from cryptography.hazmat.primitives.asymmetric import ed25519

        self.signer_id = signer_id
        self._private = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
        self._public = self._private.public_key()

    def sign(self, message: bytes) -> Signature:
        return Signature(self._private.sign(message), self.signer_id)

    def verify(self, message: bytes, signature: Signature) -> bool:
        from cryptography.exceptions import InvalidSignature

        try:
            self._public.verify(signature.bytes, message)
            return True
        except InvalidSignature:
            return False


#: The key class of each signature scheme, by the name ``keys.json`` records
SCHEMES = {"stub": StubKey, "ed25519": Ed25519Key}


class KeyStore:
    """One key per signer, indexed by signer id, derived from ``seed``."""

    def __init__(self, scheme: str = "stub", seed: bytes = b"deltamoney"):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown signature scheme {scheme!r}")
        self.scheme = scheme
        self.seed = seed
        self._keys: dict[int, StubKey | Ed25519Key] = {}

    def generate(self, signer_id: int) -> StubKey | Ed25519Key:
        """The signer's key, derived on the first call and kept."""
        key = self._keys.get(signer_id)
        if key is None:
            material = hashlib.sha256(self.seed + u64(signer_id)).digest()
            key = self._keys[signer_id] = SCHEMES[self.scheme](signer_id, material)
        return key

    def sign(self, signer_id: int, message: bytes) -> Signature:
        try:
            key = self._keys[signer_id]
        except KeyError:
            raise UnknownKey(f"no key registered for signer {signer_id}") from None
        return key.sign(message)

    def verify(self, signature: Signature, message: bytes) -> bool:
        key = self._keys.get(signature.signer_id)
        return key is not None and key.verify(message, signature)
