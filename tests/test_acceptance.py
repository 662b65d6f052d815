"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each criterion prints ``criterion NN: PASS/FAIL`` outside pytest's
capture so the gate is visible in any run, then asserts.  Stated runtime
bounds are asserted alongside the functional checks.  Every history runs
through ``Simulation``, the same driver as the CLI and the benchmark.
"""

import hashlib
import math
import random
import time

import pytest

from deltamoney.balance_tree import (
    BalanceChangeRecord,
    BalanceMHT,
    examine_range,
)
from deltamoney.client import pair_of
from deltamoney.currency_manager import MANAGER_ID
from deltamoney.hashing import EMPTY_CELL_DIGEST
from deltamoney.integrity_manager import (
    AlertKind,
    IntegrityManager,
    TransactionReport,
)
from deltamoney.merkle import MerkleTree, verify
from deltamoney.sim import DeliveryPolicy, Simulation
from worlds import run_transfers, small_world


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_gate_output(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(n: int, label: str, ok: bool, started: float, bound: float = None):
    took = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {n:2d}: {verdict}  {label} ({took:.2f}s)"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line
    if bound is not None:
        assert took < bound, f"criterion {n} exceeded {bound}s: took {took:.2f}s"


def random_moves(rng, ids, count, max_amount):
    """``count`` (payer, payee, amount) draws for ``run_transfers``."""
    for _ in range(count):
        payer, payee = rng.sample(ids, 2)
        yield payer, payee, rng.randint(1, max_amount)


# ----------------------------------------------------------------------
# 1. Table 4 reproduction


def test_criterion_01_table4_reproduction():
    started = time.perf_counter()
    sim = Simulation(seed=4)
    sim.enroll(1)
    sim.enroll(2)
    sim.register(1, 2)
    sim.issue(1, 1000)
    sim.issue(2, 2000)
    sim.advance(20)
    sim.transfer(2, 1, 500)
    sim.quiesce()

    rows = sim.cm.table.rows
    open_rows = {(r.client_id, r.valid_balance) for r in rows if r.open}
    ok = open_rows == {(1, 1500), (2, 1500)}

    issued = {r.client_id: r for r in rows
              if r.remarks == "Issued" and not r.open}
    final = {r.client_id: r for r in rows if r.open}
    ok = ok and set(issued) == {1, 2}
    ok = ok and issued[1].valid_balance == 1000
    ok = ok and issued[2].valid_balance == 2000
    # the transfer atomically closes both prior rows where the new ones open
    ok = ok and all(issued[c].valid_to == final[c].valid_from for c in (1, 2))
    ok = ok and len({final[c].valid_from for c in (1, 2)}) == 1

    boundaries = sorted(
        {r.valid_from for r in rows} | {r.valid_to for r in rows if not r.open}
    )
    for t in boundaries:
        verdict = sim.cm.check_conservation(at=t)
        ok = ok and verdict.holds
    last = sim.cm.check_conservation()
    ok = ok and last.holds and last.expected == 3000 and last.actual == 3000
    report(1, "table 4 rows reproduced, conservation 3000 at every event",
           ok, started, bound=1.0)


# ----------------------------------------------------------------------
# 2. Table 5 grid reproduction


def test_criterion_02_table5_grid():
    started = time.perf_counter()
    sim = small_world(seed=2, fund=5_000)
    run_transfers(sim, [(1, 2, 250), (2, 3, 125), (1, 3, 75)])
    grid = sim.capture(0)
    mhtrs = {c: sim.clients[c].mht.root() for c in (1, 2, 3)}
    pttrs = {key: sim.clients[key[0]].ptts[key].root()
             for key in ((1, 2), (1, 3), (2, 3))}

    ok = grid.client_index == (1, 2, 3)
    for i in range(3):
        for j in range(3):
            cell = grid.cells[i][j]
            if i == j:
                ok = ok and cell == mhtrs[i + 1]
            elif i < j:
                ok = ok and cell == pttrs[(i + 1, j + 1)]
                ok = ok and cell != EMPTY_CELL_DIGEST
            else:
                ok = ok and cell == EMPTY_CELL_DIGEST

    # independent concatenate-and-hash oracle
    sha = lambda b: hashlib.sha256(b).digest()
    want_rows = tuple(sha(b"".join(grid.cells[i][j] for j in range(3)))
                      for i in range(3))
    want_cols = tuple(sha(b"".join(grid.cells[i][j] for i in range(3)))
                      for j in range(3))
    want_grid = sha(b"".join(want_rows) + b"".join(want_cols))
    ok = ok and grid.row_hashes == want_rows
    ok = ok and grid.column_hashes == want_cols
    ok = ok and grid.grid_hash == want_grid
    ok = ok and sim.keystore.verify(grid.signature, grid.grid_hash)
    report(2, "3-peer grid matches concatenate-and-hash oracle exactly",
           ok, started, bound=1.0)


# ----------------------------------------------------------------------
# 3. commit symmetry over 500 randomized transactions


def test_criterion_03_commit_symmetry():
    started = time.perf_counter()
    rng = random.Random(33)
    sim = small_world(seed=33, clients=5, fund=50_000)
    ids = [1, 2, 3, 4, 5]
    commits = 0
    symmetric = 0
    for _ in range(500):
        payer, payee = rng.sample(ids, 2)
        spendable = sim.clients[payer].balance
        amount = rng.randint(1, max(1, min(spendable, 900)))
        key = pair_of(payer, payee)
        ptt = sim.clients[payer].ptts[key]
        seq = ptt.next_seq()
        run_transfers(sim, [(payer, payee, amount)])
        if ptt.last_seq != seq:
            continue
        commits += 1
        root = ptt.root()
        if (sim.clients[payee].ptts[key].root() == root
                and sim.im.latest_validated[key] == (seq, root)):
            symmetric += 1
    ok = commits == 500 and symmetric == 500
    ok = ok and sim.alerts == []
    ok = ok and sim.cm.check_conservation().holds
    report(3, f"{symmetric}/{commits} commits symmetric across 5 clients, "
              "zero alerts", ok, started, bound=10.0)


# ----------------------------------------------------------------------
# 4. exhaustive per-leaf tamper detection


def test_criterion_04_exhaustive_tamper_detection():
    started = time.perf_counter()
    rng = random.Random(44)
    sim = small_world(seed=44, clients=5, fund=50_000)
    ids = [1, 2, 3, 4, 5]
    run_transfers(sim, random_moves(rng, ids, 50, 400))

    def fresh_im():
        im = IntegrityManager(sim.keystore, signer_id=9_901)
        for c in ids:
            im.note_client(c)
        for a in ids:
            for b in ids:
                if a < b:
                    im.note_pair(a, b)
        return im

    leaves = detected = false_positives = 0
    pairs = sorted({
        key
        for c in ids
        for key in sim.clients[c].ptts
        if MANAGER_ID not in key
    })
    for key in pairs:
        a, b = key
        ptt = sim.clients[a].ptts[key]
        payloads = [r.to_bytes() for r in ptt.records]
        if not payloads:
            continue
        seq = ptt.last_seq
        honest_root = ptt.root()
        digest = hashlib.sha256(payloads[-1]).digest()
        timestamp = ptt.records[-1].timestamp
        for i in range(len(payloads)):
            leaves += 1
            forged = list(payloads)
            mutated = bytearray(forged[i])
            mutated[(7 * i) % len(mutated)] ^= 0xA5
            forged[i] = bytes(mutated)
            bad_root = MerkleTree.build(forged).root()

            im = fresh_im()
            im.ingest_report(TransactionReport(a, key, seq, bad_root,
                                               digest, timestamp))
            im.ingest_report(TransactionReport(b, key, seq, honest_root,
                                               digest, timestamp))
            if (len(im.alerts) == 1
                    and im.alerts[0].kind is AlertKind.ROOT_MISMATCH
                    and set(im.alerts[0].subjects) == {a, b}):
                detected += 1

            control = fresh_im()
            control.ingest_report(TransactionReport(a, key, seq, honest_root,
                                                    digest, timestamp))
            control.ingest_report(TransactionReport(b, key, seq, honest_root,
                                                    digest, timestamp))
            false_positives += len(control.alerts)

    ok = leaves >= 50 and detected == leaves and false_positives == 0
    report(4, f"tamper detection {detected}/{leaves} leaves, "
              f"{false_positives} false positives", ok, started, bound=60.0)


# ----------------------------------------------------------------------
# 5. double-spend and replay, 100/100 seeded trials each


def test_criterion_05_double_spend_and_replay_trials():
    started = time.perf_counter()

    def trial_world(seed):
        sim = Simulation(seed=seed)
        sim.enroll(1)
        sim.enroll(2)
        sim.register(1, 2)
        rng = random.Random(seed)
        sim.issue(1, rng.randint(500, 2_000))
        sim.issue(2, rng.randint(500, 2_000))
        sim.advance(20)
        sim.transfer(1, 2, rng.randint(10, 400))
        sim.quiesce()
        return sim

    stale = 0
    for seed in range(100):
        sim = trial_world(seed)
        sim.inject("double-spend", 1, 250)
        sim.quiesce()
        if [k for k, _, _ in sim.alerts] == ["StaleProvenance"]:
            stale += 1

    replays = 0
    for seed in range(100, 200):
        sim = trial_world(seed)
        sim.inject("replay-report", (1, 2))
        sim.quiesce()
        if ([k for k, _, _ in sim.alerts] == ["RootMismatch"]
                and "replay" in sim.im.alerts[0].evidence):
            replays += 1

    ok = stale == 100 and replays == 100
    report(5, f"double-spend {stale}/100 StaleProvenance, "
              f"replay {replays}/100 replay alerts", ok, started)


# ----------------------------------------------------------------------
# 6. recovery fidelity


def test_criterion_06_recovery_fidelity():
    started = time.perf_counter()
    rng = random.Random(66)
    sim = small_world(seed=66, clients=5, fund=20_000)
    run_transfers(sim, random_moves(rng, [1, 2, 3, 4, 5], 40, 300))

    victim = sim.clients[3]
    want_mhtr = victim.mht.root()
    want_roots = {k: t.root() for k, t in victim.ptts.items()}
    want_balance = victim.balance

    sim.inject("crash-client", 3)
    assert victim.balance == 0 and victim.ptts == {}
    sim.recover(3)

    ok = victim.mht.root() == want_mhtr
    ok = ok and {k: t.root() for k, t in victim.ptts.items()} == want_roots
    ok = ok and victim.balance == want_balance
    ok = ok and sim.cm.check_conservation().holds
    ok = ok and victim.balance == sim.cm.table.open_row(3).valid_balance
    report(6, "wiped client rebuilt bit-identical, balance matches manager",
           ok, started)


# ----------------------------------------------------------------------
# 7. merkle proof bounds and forged-proof rejection


def test_criterion_07_merkle_proof_bounds():
    started = time.perf_counter()
    rng = random.Random(77)
    trees = {}
    ok = True
    for n in range(1, 65):
        payloads = [b"leaf:%d:%d" % (n, i) for i in range(n)]
        tree = MerkleTree.build(payloads)
        trees[n] = (payloads, tree)
        bound = math.ceil(math.log2(n)) if n > 1 else 0
        for i in range(n):
            proof = tree.prove([i], n)
            ok = ok and verify([payloads[i]], [i], n, proof, tree.root())
            ok = ok and len(proof) <= bound

    rejected = 0
    for _ in range(10_000):
        n = rng.randint(1, 64)
        payloads, tree = trees[n]
        i = rng.randrange(n)
        proof = tree.prove([i], n)
        mode = rng.randrange(5)
        payload, index = payloads[i], i
        if mode == 0 and proof:
            j = rng.randrange(len(proof))
            flipped = bytearray(proof[j])
            flipped[rng.randrange(32)] ^= 1 + rng.randrange(255)
            proof[j] = bytes(flipped)
        elif mode == 1 and n > 1:
            index = (i + 1 + rng.randrange(n - 1)) % n  # another leaf's place
        elif mode == 2:
            payload = payload + b"!"
        elif mode == 3 and proof:
            proof = proof[:-1]
        else:
            proof = proof + [rng.randbytes(32)]
        if not verify([payload], [index], n, proof, tree.root()):
            rejected += 1
    ok = ok and rejected == 10_000
    report(7, f"proofs within ceil(log2 n) for n=1..64, "
              f"{rejected}/10000 forgeries rejected", ok, started)


# ----------------------------------------------------------------------
# 8. balance tree structural oracle


def _rebuild(records):
    """RFC 6962 Merkle Tree Hash of the records' encodings, from scratch."""
    sha = lambda b: hashlib.sha256(b).digest()
    if len(records) == 1:
        return sha(b"\x00" + records[0].to_bytes())
    k = 1 << ((len(records) - 1).bit_length() - 1)
    return sha(b"\x01" + _rebuild(records[:k]) + _rebuild(records[k:]))


def _history(n, seed):
    rng = random.Random(seed)
    balance, out = 0, []
    for i in range(n):
        delta = rng.randint(-balance, 500) if balance else rng.randint(1, 500)
        balance += delta
        out.append(BalanceChangeRecord(
            pair_seq=i + 1, timestamp=i + 1, client_seq=i + 1,
            peer_id=rng.randint(1, 9), delta=delta, new_balance=balance,
            causing_pttr=hashlib.sha256(b"p%d" % i).digest(),
        ))
    return out


def test_criterion_08_balance_tree_oracle():
    started = time.perf_counter()
    ok = True
    for seed in range(3, 9):
        tree = BalanceMHT()
        records = _history(200, seed=seed * 1000)
        for n, rec in enumerate(records, 1):
            tree.insert(rec)
            ok = ok and tree.root() == _rebuild(records[:n])

    records = _history(30, seed=8)
    tree = BalanceMHT()
    for rec in records:
        tree.insert(rec)
    got, vo = tree.range_query((0, 0), (2**64 - 1, 2**64 - 1))
    root = tree.root()
    ok = ok and got == records and examine_range(got, vo, root) == (True, True)
    caught = 0
    for i in range(30):
        if examine_range(got[:i] + got[i + 1:], vo, root) != (True, True):
            caught += 1
        r = got[i]
        mutated = list(got)
        mutated[i] = BalanceChangeRecord(
            r.pair_seq, r.timestamp, r.client_seq, r.peer_id,
            r.delta, r.new_balance + 1, r.causing_pttr,
        )
        correct, _ = examine_range(mutated, vo, root)
        if not correct:
            caught += 1
    ok = ok and caught == 60
    report(8, f"cached roots equal rebuild at every size 1-200, "
              f"{caught}/60 omissions+mutations detected", ok, started)


# ----------------------------------------------------------------------
# 9. eventual consistency across 50 random delivery policies


def _policy_run(policy, sim_seed=9):
    sim = Simulation(seed=sim_seed)
    sim.policy = policy
    for c in (1, 2, 3):
        sim.enroll(c)
    sim.register(1, 2)
    sim.register(2, 3)
    sim.register(1, 3)
    sim.issue(1, 2_000)
    sim.issue(2, 2_000)
    sim.issue(3, 2_000)
    sim.advance(30)
    moves = [(1, 2, 55), (2, 3, 40), (3, 1, 25), (1, 3, 60), (2, 1, 35),
             (3, 2, 15), (1, 2, 5), (2, 3, 90)]
    for payer, payee, amount in moves:
        sim.transfer(payer, payee, amount)
        sim.advance(4)
    sim.quiesce()
    return sim


def test_criterion_09_eventual_consistency():
    started = time.perf_counter()
    base = _policy_run(DeliveryPolicy())
    rng = random.Random(99)
    matched = 0
    for trial in range(50):
        if trial % 2:
            policy = DeliveryPolicy(
                "random",
                p_delay=rng.uniform(0.1, 0.9),
                max_delay=rng.randint(1, 10),
                p_duplicate=rng.uniform(0.0, 0.6),
            )
        else:
            policy = (DeliveryPolicy("delay", delay=rng.randint(1, 12))
                      if trial % 4 == 0 else DeliveryPolicy("duplicate"))
        run = _policy_run(policy, sim_seed=1000 + trial)
        same = all(
            (run.clients[c].persist_snapshot(), run.clients[c].mht.root())
            == (base.clients[c].persist_snapshot(), base.clients[c].mht.root())
            for c in (1, 2, 3)
        )
        same = same and (
            {r.client_id: r.valid_balance for r in run.cm.table.open_rows()}
            == {r.client_id: r.valid_balance for r in base.cm.table.open_rows()}
        )
        same = same and dict(run.im.latest_validated) == dict(base.im.latest_validated)
        same = same and run.alerts == [] and run.cm.check_conservation().holds
        if same:
            matched += 1
    ok = matched == 50
    report(9, f"{matched}/50 policies byte-exact with instant baseline",
           ok, started)


# ----------------------------------------------------------------------
# 10. reparation round trip over 100 random transactions


def test_criterion_10_reparation_round_trip():
    started = time.perf_counter()
    rng = random.Random(10)
    sim = small_world(seed=10, clients=4, fund=25_000)
    ids = [1, 2, 3, 4]

    restored = 0
    for payer, payee, amount in random_moves(rng, ids, 100, 500):
        ptt = sim.clients[payer].ptts[pair_of(payer, payee)]
        before = {c: sim.clients[c].balance for c in ids}
        run_transfers(sim, [(payer, payee, amount)])
        mid_ok = sim.cm.check_conservation().holds
        original = ptt.records[-1]
        # the compensating transfer runs through the normal commit path
        run_transfers(sim, [(payee, payer, amount)])
        reversal = ptt.records[-1]
        after = {c: sim.clients[c].balance for c in ids}
        rows = {r.client_id: r.valid_balance for r in sim.cm.table.open_rows()}
        if (original.amount == reversal.amount == amount and mid_ok
                and reversal.payer_id == original.payee_id
                and reversal.pair_seq == original.pair_seq + 1
                and sim.cm.check_conservation().holds
                and after == before
                and all(rows[c] == before[c] for c in ids)):
            restored += 1
    ok = restored == 100 and sim.alerts == []
    report(10, f"{restored}/100 reparations restored balances, "
               "conservation held throughout", ok, started)
