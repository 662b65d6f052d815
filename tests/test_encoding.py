"""Fixed-width byte layouts against a field-by-field reference.

Each layout packs through one precompiled ``struct``; the references below
rebuild the same bytes one field at a time with ``u64``/``i64``, so a
swapped field or a signed/unsigned mix-up in a format string shows up as
different bytes (or as a pack error at 2**64 - 1 or a negative delta).
"""

import hashlib
import random

import pytest

from deltamoney.balance_tree import BalanceChangeRecord, _key_bytes
from deltamoney.encoding import i64, u32, u64
from deltamoney.errors import NegativeBalance, NonPositiveAmount
from deltamoney.hashing import commit_balance
from deltamoney.data_client import TransactionInclusionVO, parse_vo
from deltamoney.hashing import Signature
from deltamoney.integrity_manager import PTTRAttestation
from deltamoney.peer_ledger import TransactionPairRecord

CASES = 300
U64_MAX = 2**64 - 1
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def unsigned(rng, low=0):
    return rng.choice([low, low + 1, 2**63, U64_MAX, rng.randrange(low, 2**64)])


def signed(rng):
    return rng.choice([0, -1, 1, I64_MIN, I64_MAX, rng.randrange(I64_MIN, I64_MAX + 1)])


def digest(rng):
    return rng.randbytes(32)


# --- references, one field at a time -----------------------------------


def ref_pair_record(r: TransactionPairRecord) -> bytes:
    return (
        u64(r.pair_seq) + u64(r.timestamp) + u64(r.payer_id)
        + u64(r.payee_id) + u64(r.amount)
        + r.payer_prior_commit + r.payer_new_commit
        + r.payee_prior_commit + r.payee_new_commit
        + r.payer_provenance + r.payee_provenance
    )


def ref_balance_record(r: BalanceChangeRecord) -> bytes:
    return (
        u64(r.pair_seq) + u64(r.timestamp) + u64(r.client_seq)
        + u64(r.peer_id) + i64(r.delta) + u64(r.new_balance) + r.causing_pttr
    )


def ref_commit(client_id, seq, balance) -> bytes:
    return sha(b"\x02" + u64(client_id) + u64(seq) + u64(balance))


def ref_transaction_vo(vo: TransactionInclusionVO) -> bytes:
    att, sig = vo.attestation, vo.attestation.signature
    return (
        bytes([0x01]) + u64(vo.pair_key[0]) + u64(vo.pair_key[1])
        + u64(vo.seq_lo) + u64(vo.seq_hi)
        + u64(att.pair_seq) + att.root
        + u64(sig.signer_id) + u32(len(sig.bytes)) + sig.bytes
        + u32(len(vo.records)) + b"".join(vo.records) + b"".join(vo.proof)
    )


# --- random values -------------------------------------------------------


def pair_record(rng) -> TransactionPairRecord:
    payer = unsigned(rng)
    payee = unsigned(rng)
    while payee == payer:
        payee = rng.randrange(2**64)
    return TransactionPairRecord(
        unsigned(rng), unsigned(rng), payer, payee, unsigned(rng, low=1),
        *(digest(rng) for _ in range(6)),
    )


def balance_record(rng) -> BalanceChangeRecord:
    return BalanceChangeRecord(
        unsigned(rng), unsigned(rng), unsigned(rng), unsigned(rng),
        signed(rng), unsigned(rng), digest(rng),
    )


def test_pair_record_layout_matches_reference_and_round_trips():
    rng = random.Random(901)
    for _ in range(CASES):
        rec = pair_record(rng)
        data = rec.to_bytes()
        assert data == ref_pair_record(rec)
        assert len(data) == 232
        assert TransactionPairRecord.from_bytes(data) == rec


def test_balance_record_layout_matches_reference_and_round_trips():
    rng = random.Random(902)
    deltas = set()
    for _ in range(CASES):
        rec = balance_record(rng)
        deltas.add(rec.delta < 0)
        data = rec.to_bytes()
        assert data == ref_balance_record(rec)
        assert len(data) == 80
        assert BalanceChangeRecord.from_bytes(data) == rec
    assert deltas == {True, False}


def test_balance_commitment_layout_matches_reference():
    rng = random.Random(903)
    for _ in range(CASES):
        triple = unsigned(rng), unsigned(rng), unsigned(rng)
        assert commit_balance(*triple) == ref_commit(*triple)


def test_balance_tree_key_layout_matches_reference():
    rng = random.Random(906)
    for _ in range(CASES):
        key = unsigned(rng), unsigned(rng)
        assert _key_bytes(key) == u64(key[0]) + u64(key[1])


def test_inclusion_proof_layout_matches_reference_and_round_trips():
    """A transaction VO: header, 232-byte records, then bare 32-byte digests."""
    rng = random.Random(909)
    for _ in range(CASES):
        pair_key = (unsigned(rng), unsigned(rng))
        records = tuple(pair_record(rng).to_bytes()
                        for _ in range(rng.choice([0, 1, rng.randrange(6)])))
        proof = tuple(digest(rng)
                      for _ in range(rng.choice([0, 1, rng.randrange(40)])))
        signature = Signature(rng.randbytes(rng.choice([0, 32, 64])), unsigned(rng))
        vo = TransactionInclusionVO(
            pair_key, unsigned(rng), unsigned(rng), records, proof,
            PTTRAttestation(pair_key, unsigned(rng), digest(rng), signature),
        )
        data = vo.to_bytes()
        assert data == ref_transaction_vo(vo)
        assert len(data) == (89 + len(signature.bytes)
                             + 232 * len(records) + 32 * len(proof))
        assert parse_vo(data) == vo


@pytest.mark.parametrize("size", [31, 33])
@pytest.mark.parametrize("name", [
    "payer_prior_commit", "payer_new_commit", "payee_prior_commit",
    "payee_new_commit", "payer_provenance", "payee_provenance",
])
def test_pair_record_rejects_wrong_length_digest(name, size):
    rec = pair_record(random.Random(907))
    with pytest.raises(ValueError, match=name):
        rec._replace(**{name: b"\x05" * size})


@pytest.mark.parametrize("size", [31, 33])
def test_balance_record_rejects_wrong_length_pttr(size):
    rec = balance_record(random.Random(908))
    with pytest.raises(ValueError, match="causing_pttr"):
        rec._replace(causing_pttr=b"\x05" * size)


def test_pair_record_replace_runs_the_constructor_checks():
    rec = pair_record(random.Random(909))
    with pytest.raises(NonPositiveAmount, match="amount must be positive, got 0"):
        rec._replace(amount=0)
    with pytest.raises(ValueError, match="payer and payee must be distinct"):
        rec._replace(payee_id=rec.payer_id)
    with pytest.raises(ValueError, match="payer and payee must be distinct"):
        TransactionPairRecord._make(rec[:3] + (rec.payer_id,) + rec[4:])
    assert rec._replace(amount=rec.amount) == rec
    assert type(rec._replace(amount=1)) is TransactionPairRecord


def test_balance_record_replace_runs_the_constructor_checks():
    rec = balance_record(random.Random(910))
    with pytest.raises(NegativeBalance, match="balance may not go negative, got -1"):
        rec._replace(new_balance=-1)
    with pytest.raises(NegativeBalance):
        BalanceChangeRecord._make(rec[:5] + (-1,) + rec[6:])
    assert type(rec._replace(delta=0)) is BalanceChangeRecord
