"""Data client tests: grants, VO round trips, and the verification triad."""

import dataclasses
import inspect
import math

import pytest

from deltamoney.balance_tree import RangeVO
from deltamoney.client import ClientNode
from deltamoney.data_client import (
    BalanceRangeVO,
    Grant,
    TransactionInclusionVO,
    Verdict,
    authorize,
    parse_vo,
    query_balance_history,
    query_transactions,
    verify_vo,
)
from deltamoney.encoding import u32
from deltamoney.errors import (
    NotRegisteredPeers,
    ScopeViolation,
    UnknownSubject,
    UnknownTransaction,
)
from deltamoney.hashing import KeyStore, Signature
from deltamoney.integrity_manager import PTTRAttestation
from deltamoney.sim import DeliveryPolicy
from worlds import run_transfers, small_world


def build_world(n_transfers=6):
    """Clients 1 and 2 with 5000 each pay each other in turn, 100 + i."""
    sim = small_world(clients=2, fund=5_000)
    run_transfers(sim, (((1, 2) if i % 2 == 0 else (2, 1)) + (100 + i,)
                        for i in range(n_transfers)))
    return sim


def latest_for(im, pair):
    latest = im.latest_validated.get(pair)
    return None if latest is None else latest[1]


def test_authorize_requires_known_subject():
    with pytest.raises(UnknownSubject):
        authorize(50, 9, [(1, 9)], enrolled={1, 2})


def test_empty_scope_refuses_everything():
    grant = authorize(50, 1, [], enrolled={1, 2})
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    with pytest.raises(ScopeViolation):
        query_transactions(grant, (1, 2), 1, 3, a, im.attest_pttr((1, 2)))


def test_out_of_scope_pair_refused():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 3)], enrolled={1, 2, 3})
    with pytest.raises(ScopeViolation):
        query_transactions(grant, (1, 2), 1, 3, a, im.attest_pttr((1, 2)))


def test_unattested_pair_refused():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    with pytest.raises(UnknownTransaction):
        query_transactions(grant, (1, 2), 1, 3, a, None)


def test_honest_transaction_vo_passes_the_triad():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    att = im.attest_pttr((1, 2))
    records, vo = query_transactions(grant, (1, 2), 1, 6, a, att)
    assert [r.pair_seq for r in records] == [1, 2, 3, 4, 5, 6]
    verdict = verify_vo(vo, ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(True, True, True)
    assert bool(verdict)


def test_vo_serialization_round_trips():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 2, 4, a, im.attest_pttr((1, 2))
    )
    blob = vo.to_bytes()
    parsed = parse_vo(blob)
    assert isinstance(parsed, TransactionInclusionVO)
    assert parsed == vo
    assert parsed.to_bytes() == blob
    verdict = verify_vo(parsed, ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(True, True, True)


def test_omitted_record_fails_only_completeness():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 1, 6, a, im.attest_pttr((1, 2)), omit=frozenset({3})
    )
    assert [r.pair_seq for r in records] == [1, 2, 4, 5, 6]
    verdict = verify_vo(vo, ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(True, False, True)


def test_mutated_record_fails_only_correctness():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 1, 6, a, im.attest_pttr((1, 2))
    )
    tampered = bytearray(vo.records[2])
    tampered[40] ^= 0x01  # first byte of the payer's prior commitment
    forged = dataclasses.replace(
        vo, records=vo.records[:2] + (bytes(tampered),) + vo.records[3:]
    )
    verdict = verify_vo(parse_vo(forged.to_bytes()), ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(False, True, True)


@pytest.mark.parametrize("fault", ["zero amount", "payee is payer"])
def test_record_that_cannot_be_built_fails_correctness(fault):
    """A record the constructor refuses reads as a verdict, never an error."""
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 1, 6, a, im.attest_pttr((1, 2))
    )
    broken = bytearray(vo.records[2])
    # payer_id sits at bytes 16-24, payee_id at 24-32, amount at 32-40
    if fault == "zero amount":
        broken[32:40] = bytes(8)
    else:
        broken[24:32] = broken[16:24]
    forged = dataclasses.replace(
        vo, records=vo.records[:2] + (bytes(broken),) + vo.records[3:]
    )
    verdict = verify_vo(parse_vo(forged.to_bytes()), ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(False, False, True)


def test_padded_inclusion_proof_fails_correctness():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 2, 4, a, im.attest_pttr((1, 2))
    )
    assert vo.proof
    for extra in (b"\x00" * 32, vo.proof[0]):
        padded = dataclasses.replace(vo, proof=vo.proof + (extra,))
        verdict = verify_vo(parse_vo(padded.to_bytes()), ks,
                            latest_for(im, (1, 2)))
        assert not verdict.correct and verdict.complete


def test_ragged_proof_digests_do_not_parse():
    """The digest section runs to the end in whole 32-byte digests: one encoding."""
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 2, 4, a, im.attest_pttr((1, 2))
    )
    blob = vo.to_bytes()
    for ragged in (blob[:-1], blob + b"\x00", blob + b"junk"):
        with pytest.raises(ValueError, match="whole number of digests"):
            parse_vo(ragged)
    assert parse_vo(blob) == vo


def test_superseded_attestation_fails_only_freshness():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    att = im.attest_pttr((1, 2))
    records, vo = query_transactions(grant, (1, 2), 1, 6, a, att)
    run_transfers(sim, [(1, 2, 7)])
    verdict = verify_vo(vo, ks, latest_for(im, (1, 2)))
    assert verdict == Verdict(True, True, False)


def test_forged_attestation_signature_fails_correctness():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    att = im.attest_pttr((1, 2))
    forged_att = PTTRAttestation(
        att.pair_key, att.pair_seq, att.root,
        Signature(b"\x00" * 32, att.signature.signer_id),
    )
    records, vo = query_transactions(grant, (1, 2), 1, 6, a, forged_att)
    verdict = verify_vo(vo, ks, latest_for(im, (1, 2)))
    assert not verdict.correct


@pytest.mark.parametrize("lo,hi", [(1, 12), (8, 9), (9, 9), (3, 8), (1, 6),
                                   (11, 20), (9, 8), (-3, 0)])
def test_query_returns_exactly_the_requested_range(lo, hi):
    sim = build_world(n_transfers=10)
    a, im = sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(grant, (1, 2), lo, hi, a,
                                     im.attest_pttr((1, 2)))
    assert a.ptts[(1, 2)].last_seq == 10
    assert [r.pair_seq for r in records] == [s for s in range(1, 11) if lo <= s <= hi]


def test_subject_without_pair_refused():
    sim = build_world()
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    c = ClientNode(3, ks)
    grant = authorize(50, 3, [(1, 2)], enrolled={1, 2, 3})
    att = im.attest_pttr((1, 2))
    with pytest.raises(NotRegisteredPeers):
        query_transactions(grant, (1, 2), 1, 3, c, att)


class TestBalanceVO:
    def setup_world(self):
        sim = build_world()
        return sim.keystore, sim.clients[1], sim.clients[2], sim.cm, sim.now

    def grant_for(self, subject):
        return authorize(51, subject, [], enrolled={1, 2}, balance=True)

    def test_honest_balance_vo_passes(self):
        ks, a, b, cm, tick = self.setup_world()
        grant = self.grant_for(1)
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(grant, (0, 0), (tick, 999), a, att)
        assert len(records) == len(a.mht.records)
        verdict = verify_vo(vo, ks, cm.attest_mhtr(1).mhtr)
        assert verdict == Verdict(True, True, True)
        # byte round trip preserves the verdict
        parsed = parse_vo(vo.to_bytes())
        assert isinstance(parsed, BalanceRangeVO)
        assert parsed.to_bytes() == vo.to_bytes()
        assert verify_vo(parsed, ks, att.mhtr) == Verdict(True, True, True)

    def test_balance_scope_enforced(self):
        ks, a, b, cm, tick = self.setup_world()
        plain = authorize(51, 1, [(1, 2)], enrolled={1, 2})
        with pytest.raises(ScopeViolation):
            query_balance_history(plain, (0, 0), (99, 99), a, cm.attest_mhtr(1))
        wrong_subject = self.grant_for(2)
        with pytest.raises(ScopeViolation):
            query_balance_history(
                wrong_subject, (0, 0), (99, 99), a, cm.attest_mhtr(1)
            )

    def test_tampered_balance_record_fails_correctness(self):
        ks, a, b, cm, tick = self.setup_world()
        grant = self.grant_for(1)
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(grant, (0, 0), (tick, 999), a, att)
        tampered = bytearray(vo.records[1])
        tampered[-1] ^= 0x80
        forged = BalanceRangeVO(
            vo.client_id,
            vo.records[:1] + (bytes(tampered),) + vo.records[2:],
            vo.range_vo, vo.attestation,
        )
        verdict = verify_vo(forged, ks, att.mhtr)
        assert not verdict.correct

    def test_padded_range_vo_fails_correctness(self):
        ks, a, b, cm, tick = self.setup_world()
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(
            self.grant_for(1), (0, 0), (tick, 999), a, att
        )
        padded = BalanceRangeVO(
            vo.client_id, vo.records, vo.range_vo + b"junk", vo.attestation
        )
        verdict = verify_vo(parse_vo(padded.to_bytes()), ks, att.mhtr)
        assert not verdict.correct

    def test_unparsable_balance_record_keeps_freshness(self):
        """A record cut short fails correctness; the attestation is still fresh."""
        ks, a, b, cm, tick = self.setup_world()
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(
            self.grant_for(1), (0, 0), (tick, 999), a, att
        )
        cut = BalanceRangeVO(
            vo.client_id, (vo.records[0][:79],) + vo.records[1:],
            vo.range_vo, vo.attestation,
        )
        assert verify_vo(cut, ks, att.mhtr) == Verdict(False, False, True)

    def test_only_a_refused_decode_reads_as_a_failing_verdict(self, monkeypatch):
        """Damaged bytes read a failing verdict, as for a transaction VO;
        any other error while decoding is a fault of the verifier and
        propagates instead of reading as an incorrect VO."""
        ks, a, b, cm, tick = self.setup_world()
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(
            self.grant_for(1), (0, 0), (tick, 999), a, att
        )
        cut = dataclasses.replace(vo, range_vo=vo.range_vo[:-1])
        assert verify_vo(cut, ks, att.mhtr) == Verdict(False, False, True)

        def broken(data):
            raise TypeError("a fault of the decoder")

        monkeypatch.setattr(RangeVO, "from_bytes", broken)
        with pytest.raises(TypeError, match="a fault of the decoder"):
            verify_vo(vo, ks, att.mhtr)

    def test_stale_balance_attestation_fails_freshness(self):
        ks, a, b, cm, tick = self.setup_world()
        grant = self.grant_for(1)
        att = cm.attest_mhtr(1)
        records, vo = query_balance_history(grant, (0, 0), (tick, 999), a, att)
        verdict = verify_vo(vo, ks, b"\x99" * 32)
        assert verdict.correct and verdict.complete and not verdict.fresh


def test_verify_never_touches_the_subject():
    params = list(inspect.signature(verify_vo).parameters)
    assert params == ["vo", "keystore", "latest"]


def test_parse_vo_rejects_garbage():
    with pytest.raises(ValueError):
        parse_vo(b"")
    with pytest.raises(ValueError):
        parse_vo(b"\x07junk")
    sim = build_world(n_transfers=2)
    ks, a, im = sim.keystore, sim.clients[1], sim.im
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(
        grant, (1, 2), 1, 2, a, im.attest_pttr((1, 2))
    )
    blob = vo.to_bytes()
    with pytest.raises(ValueError):
        parse_vo(blob + b"\x00")


def damaged(blob, offsets):
    """Every strict prefix of ``blob``, ``blob`` plus a byte, and ``blob``
    with the byte at each of ``offsets`` set to 0xFF."""
    yield from (blob[:end] for end in range(len(blob)))
    yield blob + b"\x00"
    for at in offsets:
        yield blob[:at] + b"\xff" + blob[at + 1:]


def test_damaged_vo_bytes_fail_only_with_value_error_or_a_failing_verdict():
    """Cut, padded or with a count or tag blown up, a VO either raises
    ``ValueError`` when parsed or reads short of all-true, never an
    ``IndexError`` or ``struct.error``.  The range VO carries both
    boundary witnesses and a proof within 2 * ceil(log2 n) digests."""
    sim = build_world(n_transfers=60)
    ks, a, im, cm = sim.keystore, sim.clients[1], sim.im, sim.cm

    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    _, txn_vo = query_transactions(grant, (1, 2), 20, 23, a, im.attest_pttr((1, 2)))
    blob = txn_vo.to_bytes()
    signature = txn_vo.attestation.signature.bytes
    # the kind byte, five u64 fields, the attested root and the signer id
    sig_len_at = 1 + 5 * 8 + 32 + 8
    record_count_at = sig_len_at + 4 + len(signature)
    assert blob[sig_len_at:sig_len_at + 4] == u32(len(signature))
    assert blob[record_count_at:record_count_at + 4] == u32(4)
    latest = latest_for(im, (1, 2))
    assert verify_vo(parse_vo(blob), ks, latest) == Verdict(True, True, True)
    for data in damaged(blob, [0, *range(sig_len_at, sig_len_at + 4),
                               *range(record_count_at, record_count_at + 4)]):
        try:
            vo = parse_vo(data)
        except ValueError:
            continue
        assert verify_vo(vo, ks, latest) != Verdict(True, True, True), data.hex()

    att = cm.attest_mhtr(1)
    records = a.mht.records
    key_lo, key_hi = records[20].key, records[30].key
    balance_grant = authorize(51, 1, [], enrolled={1, 2}, balance=True)
    _, balance_vo = query_balance_history(balance_grant, key_lo, key_hi, a, att)
    range_vo = RangeVO.from_bytes(balance_vo.range_vo)
    assert range_vo.to_bytes() == balance_vo.range_vo
    assert len(range_vo.witnesses) == 2 and range_vo.size == len(records)
    assert 0 < len(range_vo.proof) <= 2 * math.ceil(math.log2(range_vo.size))
    assert verify_vo(balance_vo, ks, att.mhtr) == Verdict(True, True, True)
    # the two keys, then the size and the witness count
    size_and_count = range(32, 32 + 8 + 4)
    for data in damaged(balance_vo.range_vo, size_and_count):
        try:
            RangeVO.from_bytes(data)
        except ValueError:
            continue
        vo = dataclasses.replace(balance_vo, range_vo=data)
        assert verify_vo(vo, ks, att.mhtr) != Verdict(True, True, True), data.hex()


def test_delayed_report_does_not_accuse_an_honest_subject():
    """A record the managers have not validated yet is outside the proof.

    The fourth transfer commits, but its reports travel 30 ticks, so the
    attestation still covers seq 3 while the subject's tree holds 4
    leaves.  The VO proves against the attested prefix of 3 leaves, and a
    query running past the attested seq returns only what it covers.
    """
    sim = small_world(clients=2, fund=5_000)
    for _ in range(3):
        sim.transfer(1, 2, 10)
        sim.advance(10)
    sim.policy = DeliveryPolicy("delay", delay=30)
    sim.transfer(1, 2, 10)
    sim.advance(5)
    assert sim.clients[1].ptts[(1, 2)].last_seq == 4
    assert sim.im.attest_pttr((1, 2)).pair_seq == 3
    sim.query(1, (1, 2), 1, 3)
    assert sim.last_verdict == Verdict(True, True, True)
    grant = authorize(50, 1, [(1, 2)], enrolled={1, 2})
    records, vo = query_transactions(grant, (1, 2), 2, 9, sim.clients[1],
                                     sim.im.attest_pttr((1, 2)))
    assert [r.pair_seq for r in records] == [2, 3]
    assert verify_vo(parse_vo(vo.to_bytes()), sim.keystore,
                     latest_for(sim.im, (1, 2))) == Verdict(True, True, True)


def test_a_claimed_range_is_counted_before_it_is_listed():
    """Completeness compares the record count with the claimed range
    first, so a VO claiming seqs 1..2**62 with no record, no proof and an
    unsigned attestation reads incomplete without the range being built
    as a list."""
    attestation = PTTRAttestation((1, 2), 2**62, bytes(32), Signature(bytes(32), 0))
    data = TransactionInclusionVO((1, 2), 1, 2**62, (), (), attestation).to_bytes()
    assert len(data) == 121
    verdict = verify_vo(parse_vo(data), KeyStore("stub"), None)
    assert verdict == Verdict(False, False, False)
