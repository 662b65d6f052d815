import hashlib
import random

import pytest

from deltamoney.encoding import u64
from deltamoney.errors import EmptyPayload, NegativeBalance, UnknownKey
from deltamoney.hashing import (
    Ed25519Key,
    KeyStore,
    Signature,
    StubKey,
    commit_balance,
    hash_internal,
    hash_leaf,
)


def reference_sha256(data: bytes) -> bytes:
    # independent invocation, not routed through the module under test
    h = hashlib.new("sha256")
    h.update(data)
    return h.digest()


def test_hash_leaf_rejects_empty_payload():
    with pytest.raises(EmptyPayload):
        hash_leaf(b"")


def test_hash_leaf_deterministic():
    assert hash_leaf(b"A") == hash_leaf(b"A")


def test_hash_leaf_matches_reference():
    assert hash_leaf(b"A") == reference_sha256(b"\x00A")


def test_hash_internal_differs_from_input():
    d = hash_leaf(b"x")
    assert hash_internal(d, d) != d


def test_hash_internal_is_order_sensitive():
    a, b = hash_leaf(b"a"), hash_leaf(b"b")
    assert hash_internal(a, b) != hash_internal(b, a)


def test_hash_internal_matches_reference():
    a, b = hash_leaf(b"a"), hash_leaf(b"b")
    assert hash_internal(a, b) == reference_sha256(b"\x01" + a + b)


def test_domain_separation_leaf_vs_internal():
    payload = bytes(range(64))
    assert hash_leaf(payload) != hash_internal(payload[:32], payload[32:])


def test_commit_balance_deterministic_and_id_sensitive():
    assert commit_balance(1, 4, 1500) == commit_balance(1, 4, 1500)
    assert commit_balance(1, 4, 1500) != commit_balance(2, 4, 1500)


def test_commit_balance_matches_reference_layout():
    # canonical layout: tag 0x02, then id/seq/balance as 8-byte big-endian
    expected = reference_sha256(b"\x02" + u64(1) + u64(1) + u64(1000))
    assert commit_balance(1, 1, 1000) == expected


def test_commit_balance_rejects_negative():
    with pytest.raises(NegativeBalance):
        commit_balance(1, 1, -1)


def test_commit_balance_binding_over_random_triples():
    rng = random.Random(7)
    seen = {}
    for _ in range(10_000):
        triple = (rng.randrange(2**32), rng.randrange(2**32), rng.randrange(2**40))
        digest = commit_balance(*triple)
        assert seen.setdefault(digest, triple) == triple
    assert len(seen) == len(set(seen.values()))


@pytest.mark.parametrize("key_cls", [StubKey, Ed25519Key])
def test_sign_verify_round_trip(key_cls):
    key = key_cls(9, b"\x11" * 32)
    root = hash_leaf(b"root")
    sig = key.sign(root)
    assert sig.signer_id == 9
    assert key.verify(root, sig)


@pytest.mark.parametrize("key_cls", [StubKey, Ed25519Key])
def test_verify_rejects_flipped_root(key_cls):
    key = key_cls(9, b"\x11" * 32)
    root = hash_leaf(b"root")
    sig = key.sign(root)
    flipped = bytes([root[0] ^ 1]) + root[1:]
    assert not key.verify(flipped, sig)


@pytest.mark.parametrize("key_cls", [StubKey, Ed25519Key])
def test_verify_rejects_other_signer(key_cls):
    key = key_cls(9, b"\x11" * 32)
    other = key_cls(10, b"\x22" * 32)
    root = hash_leaf(b"root")
    sig = key.sign(root)
    assert not other.verify(root, sig)


def test_ed25519_signature_checks_under_the_seeds_own_public_key():
    # an independent verifier, built from the seed outside the module
    from cryptography.hazmat.primitives.asymmetric import ed25519

    seed, root = b"\x11" * 32, hash_leaf(b"root")
    sig = Ed25519Key(9, seed).sign(root)
    public = ed25519.Ed25519PrivateKey.from_private_bytes(seed).public_key()
    public.verify(sig.bytes, root)  # raises InvalidSignature on a bad one


def test_keystore_unknown_handle():
    store = KeyStore()
    with pytest.raises(UnknownKey):
        store.sign(42, b"msg")


def test_keystore_rejects_an_unknown_scheme():
    with pytest.raises(ValueError, match="nonesuch"):
        KeyStore("nonesuch")


def test_keystore_round_trip():
    store = KeyStore(scheme="ed25519")
    key = store.generate(3)
    sig = store.sign(3, b"msg")
    assert isinstance(key, Ed25519Key) and key.verify(b"msg", sig)


@pytest.mark.parametrize("scheme", ["stub", "ed25519"])
def test_keystore_keeps_one_public_key_per_signer(scheme):
    store = KeyStore(scheme=scheme)
    key = store.generate(3)
    assert store.generate(3) is key
    sig = store.sign(3, b"msg")
    assert store.verify(sig, b"msg") and not store.verify(sig, b"other")
    assert not store.verify(Signature(sig.bytes, 4), b"msg")
    with pytest.raises(UnknownKey):
        store.sign(4, b"msg")
