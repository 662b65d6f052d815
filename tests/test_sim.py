"""Simulator behavior: determinism, fault detection, eventual consistency."""

import ast
import hashlib
import itertools
import re
from pathlib import Path

import pytest

from deltamoney.errors import (
    PeerUnreachable,
    ScenarioParseError,
    StepLimitExceeded,
    UnknownTarget,
)
from deltamoney.currency_manager import BalanceReport, CurrencyManager
from deltamoney.integrity_manager import (
    DEFAULT_REPORTING_DEADLINE,
    AlertKind,
    TransactionReport,
)
from deltamoney import encoding, scenario
from deltamoney.peer_ledger import TransactionProposal
from deltamoney.scenario import STEPS, Step, parse_scenario, run_scenario
from deltamoney.client import (
    CommitMsg,
    RETRY_BASE,
    RETRY_CAP,
    RETRY_MAX_ATTEMPTS,
    retry_delay,
)
from deltamoney.sim import (
    FAULTS,
    POLICIES,
    DeliveryPolicy,
    FaultKind,
    PolicyKind,
    Simulation,
    grid_roots,
)
from worlds import broken_invariants, small_world


def crash_before_commit():
    """The payee crashes before the CommitMsg lands; its report never comes."""
    sim = small_world(seed=26)
    sim.transfer(1, 2, 100)
    sim.advance(3)  # payer has committed; CommitMsg still in flight
    sim.inject("crash-client", 2)
    sim.quiesce()
    sim.advance(30)  # walk past the reporting deadline
    return sim



def test_table4_flow_reaches_published_balances():
    sim = Simulation(seed=4)
    sim.enroll(1)
    sim.enroll(2)
    sim.register(1, 2)
    sim.issue(1, 1000)
    sim.issue(2, 2000)
    sim.advance(20)
    sim.transfer(2, 1, 500)
    sim.quiesce()
    assert sim.clients[1].balance == 1500
    assert sim.clients[2].balance == 1500
    verdict = sim.cm.check_conservation()
    assert verdict.holds and verdict.expected == 3000
    assert sim.alerts == []
    rows = {r.client_id: r.valid_balance for r in sim.cm.table.open_rows()}
    assert rows == {1: 1500, 2: 1500}


def test_same_seed_replays_byte_identical_logs():
    def run():
        sim = small_world(seed=77)
        sim.transfer(1, 2, 40)
        sim.advance(5)
        sim.transfer(3, 1, 60)
        sim.quiesce()
        return sim.log.text()

    assert run() == run()


def test_different_seeds_may_differ_under_random_policy():
    def run(seed):
        sim = Simulation(seed=seed)
        sim.policy = DeliveryPolicy("random", p_delay=0.9, max_delay=9,
                                    p_duplicate=0.5)
        sim.enroll(1)
        sim.issue(1, 100)
        sim.quiesce()
        return sim.log.text()

    assert run(1) != run(2)


def test_no_false_alerts_and_conservation_in_faultfree_traffic():
    sim = small_world(seed=5)
    moves = [(1, 2, 30), (2, 3, 45), (3, 1, 12), (1, 3, 9), (2, 1, 77)]
    for payer, payee, amount in moves:
        sim.transfer(payer, payee, amount)
        sim.advance(4)
    sim.quiesce()
    assert sim.alerts == []
    assert sim.cm.check_conservation().holds
    assert len(sim.im.latest_validated) == 3


def test_busy_payer_is_retried_until_both_transfers_land():
    sim = small_world(seed=8)
    sim.transfer(1, 2, 10)
    sim.transfer(1, 3, 20)  # same payer, same tick: one must wait
    sim.quiesce()
    assert sim.clients[1].balance == 1_000 - 30
    assert sim.clients[2].balance == 2_010
    assert sim.clients[3].balance == 3_020
    assert sim.alerts == []


def test_retry_delay_is_jittered_under_the_doubling_schedule():
    for key in range(1, 200):
        assert retry_delay(key, 0) == RETRY_BASE
        for attempt in range(1, RETRY_MAX_ATTEMPTS + 1):
            span = min(RETRY_BASE * 2**attempt, RETRY_CAP)
            assert span // 2 <= retry_delay(key, attempt) <= span
    # commands that collided on one tick retry on many different ticks
    assert len({retry_delay(key, 3) for key in range(1, 50)}) > 8


def ring(clients, rounds):
    """Each client pays its right-hand neighbour ``rounds`` times, all
    queued on one tick, so each proposal meets a payee busy with its own."""
    sim = Simulation(seed=14)
    for c in range(1, clients + 1):
        sim.enroll(c)
    for c in range(1, clients + 1):
        sim.register(c, c % clients + 1)
    for c in range(1, clients + 1):
        sim.issue(c, 100_000)
    sim.quiesce()
    # at most 50 events per requested transfer: a livelock stops here
    sim.step_limit = sim.steps + 50 * clients * rounds
    for _ in range(rounds):
        for c in range(1, clients + 1):
            sim.transfer(c, c % clients + 1, c)
    sim.quiesce()
    return sim


@pytest.mark.parametrize("clients, rounds",
                         [(3, 1), (8, 10), (50, 80), (50, 100), (2, 80)])
def test_ring_commits_every_transfer(clients, rounds):
    sim = ring(clients, rounds)
    log = sim.log.text()
    assert "|give-up|" not in log
    for c in range(1, clients + 1):
        left = (c - 2) % clients + 1
        assert sim.clients[c].balance == 100_000 + rounds * (left - c)
    assert sim.cm.check_conservation().holds
    assert sim.alerts == []
    assert ring(clients, rounds).log.text() == log


@pytest.mark.parametrize("clients, rounds", [(10, 20), (100, 2)])
def test_reports_never_audit_conservation(monkeypatch, clients, rounds):
    """The audit sums every open row; run per report it would cost
    O(clients) per transfer.  Only an explicit call runs it."""
    calls = []
    real = CurrencyManager.check_conservation

    def counted(self, at=None):
        calls.append(at)
        return real(self, at)

    monkeypatch.setattr(CurrencyManager, "check_conservation", counted)
    sim = ring(clients, rounds)  # 200 transfers, plus the issuances
    assert calls == []
    assert sim.cm.check_conservation().holds
    assert calls == [None]


def test_busy_rejected_head_waits_out_its_retry_delay():
    sim = small_world(seed=17)
    sim.transfer(2, 3, 5)
    sim.transfer(1, 2, 10)  # meets 2 busy with its own proposal
    sim.advance(3)  # rejected on this tick
    sim.transfer(1, 3, 20)  # finds client 1 idle, but queues behind the head
    sim.quiesce()
    proposes = [(int(line.split("|")[0]), line.split("pair=")[1][:6])
                for line in sim.log.lines if "|client:1|propose|" in line]
    assert proposes[:2] == [(31, "(1, 2)"), (33 + RETRY_BASE, "(1, 2)")]
    assert proposes[2][0] > proposes[1][0] and proposes[2][1] == "(1, 3)"
    assert sim.clients[1].balance == 1_000 - 30


def test_crashed_payer_gives_up_each_queued_command_once():
    sim = small_world(seed=15)
    sim.transfer(2, 3, 5)
    for amount in (11, 12, 13):  # the first meets 2 busy; two wait behind it
        sim.transfer(1, 2, amount)
    sim.advance(3)  # the head is backing off from the busy reject
    sim.inject("crash-client", 1)
    sim.transfer(1, 3, 14)  # reaches the payer while it is down
    sim.quiesce()
    give_ups = [line.split("|", 1)[1] for line in sim.log.lines
                if "|give-up|" in line]
    assert give_ups == [f"client:1|give-up|payee={payee} amount={amount} "
                        f"reason=crashed"
                        for payee, amount in ((2, 11), (2, 12), (2, 13), (3, 14))]
    assert "|client:2|reject|pair=(1, 2) reason=busy" in sim.log.text()
    assert (sim.clients[2].balance, sim.clients[3].balance) == (1_995, 3_005)
    assert sim.alerts == [] and not sim.clients[1].queue


def test_proposal_dropped_at_a_crashed_payee_aborts_and_frees_the_payer():
    sim = _shipped("crash.scn")
    assert sim.log.failures == []
    outcomes = [line.split("|", 1)[1] for line in sim.log.lines
                if "|client:1|" in line and "|propose|" not in line
                and ("pair=(1, 2)" in line or "pair=(1, 3)" in line)]
    assert outcomes[0] == "client:1|abort|pair=(1, 2) seq=1 reason=unreachable"
    assert [line.split("|")[1] for line in outcomes[1:]] == ["commit"]
    assert "pair=(1, 3) seq=1" in outcomes[1]
    assert "|give-up|" not in sim.log.text()
    assert sim.clients[1].balance == 1_000 - 50


def test_payer_crash_after_acceptance_rolls_the_payee_back():
    sim = small_world(seed=11)
    sim.transfer(1, 3, 10)
    sim.advance(2)  # client 3 has accepted; its AcceptMsg is on the way
    sim.inject("crash-client", 1)
    sim.advance(1)
    sim.recover(1)
    sim.quiesce()
    assert sim.alerts == []
    assert sim.clients[1].ptts[(1, 3)].root() == sim.clients[3].ptts[(1, 3)].root()
    rows = {r.client_id: r.valid_balance for r in sim.cm.table.open_rows()}
    assert rows == {c: sim.clients[c].balance for c in (1, 2, 3)}
    assert not sim.clients[3].busy
    # the payer never appended, so the payee's rollback files no report
    assert sim.im._pending_aborts == {}


def test_commit_reaching_a_rebuilt_payee_with_no_exchange_is_logged_ignore():
    """Client 1 accepted (1, 3) seq 1, then crashed and was rebuilt before
    the commit landed: the commit finds no exchange and changes nothing,
    so the log does not call it a commit.  The lost record still breaks
    conservation here (ROADMAP item 14)."""
    sim = small_world(seed=11)
    for payer, payee, amount in ((1, 2, 10), (3, 1, 5), (1, 2, 11)):
        sim.transfer(payer, payee, amount)
    sim.advance(1)
    sim.transfer(3, 1, 6)
    sim.advance(7)
    sim.inject("crash-client", 1)
    sim.recover(1)
    sim.quiesce()
    assert "40|client:1|ignore|pair=(1, 3) seq=1 msg=commit" in sim.log.lines
    assert not any("|client:1|commit|pair=(1, 3) seq=1 " in line
                   for line in sim.log.lines)


def assert_settled(sim, pair):
    """``pair`` is registered, and every invariant of
    ``worlds.broken_invariants`` holds, its equal roots among them."""
    assert pair in sim.registered_pairs
    assert broken_invariants(sim) == []


@pytest.mark.parametrize("ticks, recovered_balance", [
    (1, 1_000),  # rebuilt before client 2 accepts
    (2, 990),  # rebuilt after it accepted: the copied record goes again
], ids=["before-acceptance", "after-acceptance"])
def test_acceptance_reaching_a_rebuilt_payer_aborts_stale(ticks, recovered_balance):
    sim = small_world(seed=11)
    sim.transfer(1, 2, 10)
    sim.advance(ticks)
    sim.inject("crash-client", 1)
    sim.recover(1)
    assert f"|client:1|recover|partners=[0, 2, 3] balance={recovered_balance} " in (
        sim.log.lines[-1])
    sim.quiesce()
    assert "33|client:1|abort|pair=(1, 2) seq=1 reason=stale" in sim.log.lines
    assert "34|client:2|abort|pair=(1, 2) seq=1 reason=stale" in sim.log.lines
    assert [sim.clients[c].balance for c in (1, 2, 3)] == [1_000, 2_000, 3_000]
    assert len(sim.clients[1].ptts[(1, 2)]) == 0
    assert len(sim.clients[1].mht) == 1  # the issuance only
    assert_settled(sim, (1, 2))
    sim.transfer(1, 2, 25)
    sim.quiesce()
    assert [sim.clients[c].balance for c in (1, 2)] == [975, 2_025]
    assert_settled(sim, (1, 2))


def test_payer_rebuilt_after_committing_keeps_the_copied_record():
    """The payer committed, then crashed with its commit still on the way:
    no acceptance comes back, so the record copied from the payee stands."""
    sim = small_world(seed=11)
    sim.transfer(1, 2, 10)
    sim.advance(3)
    assert sim.log.lines[-1].startswith("33|client:1|commit|pair=(1, 2) seq=1 ")
    sim.inject("crash-client", 1)
    sim.recover(1)
    sim.quiesce()
    assert [sim.clients[c].balance for c in (1, 2, 3)] == [990, 2_010, 3_000]
    assert_settled(sim, (1, 2))


def test_recovery_accepts_a_history_the_integrity_manager_has_not_caught_up_with():
    """The IM validated seq 1; both replicas hold seq 2, reports in flight."""
    sim = small_world(seed=11)
    sim.transfer(1, 2, 10)
    sim.quiesce()
    sim.transfer(1, 2, 5)
    sim.advance(4)
    assert sim.im.latest_validated[(1, 2)][0] == 1
    sim.inject("crash-client", 1)
    sim.recover(1)
    assert "|client:1|recover|" in sim.log.lines[-1]
    sim.quiesce()
    assert sim.clients[1].balance == sim.cm.table.open_row(1).valid_balance == 985
    assert_settled(sim, (1, 2))


@pytest.mark.parametrize("crash_after", [0, 2, 4, 6])
def test_no_crash_timing_refuses_honest_partners(crash_after):
    """Four transfers 0, 2 or 4 ticks apart, then client 1 crashes and is
    rebuilt: whatever the IM has validated by then, honest partner data
    must not read as a root disagreement."""
    moves = [(1, 2, 10), (3, 1, 5), (1, 2, 11), (3, 1, 6)]
    for gaps in itertools.product((0, 2, 4), repeat=len(moves) - 1):
        sim = small_world(seed=11)
        for (payer, payee, amount), gap in zip(moves, gaps + (crash_after,)):
            sim.transfer(payer, payee, amount)
            sim.advance(gap)
        sim.inject("crash-client", 1)
        sim.recover(1)
        sim.quiesce()


def test_reject_reaching_a_recovered_payer_is_ignored():
    sim = small_world(seed=16)
    sim.transfer(2, 3, 5)
    sim.transfer(1, 2, 10)  # meets client 2 busy with its own proposal
    sim.advance(2)
    sim.inject("crash-client", 1)
    sim.recover(1)  # before the busy reject lands
    sim.quiesce()
    assert "|client:1|give-up|payee=2 amount=10 reason=crashed" in sim.log.text()
    assert [sim.clients[c].balance for c in (1, 2, 3)] == [1_000, 1_995, 3_005]
    assert sim.alerts == [] and sim.cm.check_conservation().holds


class TestFaultDetection:
    def test_tamper_leaf_yields_exactly_one_root_mismatch(self):
        sim = small_world(seed=21)
        sim.transfer(1, 2, 100)
        sim.advance(10)
        sim.inject("tamper-leaf", 2, (1, 2), 0)
        sim.transfer(1, 2, 50)
        sim.quiesce()
        kinds = [k for k, _, _ in sim.alerts]
        assert kinds == ["RootMismatch"]
        assert sim.alerts[0][1] == (1, 2)

    def test_double_spend_yields_stale_provenance(self):
        sim = small_world(seed=22)
        sim.transfer(1, 2, 100)
        sim.advance(10)
        sim.inject("double-spend", 1, 500)
        sim.quiesce()
        assert [k for k, _, _ in sim.alerts] == ["StaleProvenance"]
        assert sim.cm.check_conservation().holds  # the forgery never applied

    def test_replayed_report_yields_replay_alert(self):
        sim = small_world(seed=23)
        sim.transfer(1, 2, 100)
        sim.quiesce()
        sim.inject("replay-report", (1, 2))
        sim.quiesce()
        assert [k for k, _, _ in sim.alerts] == ["RootMismatch"]
        assert "replay" in sim.im.alerts[0].evidence

    def test_forged_manager_row_breaks_conservation(self):
        sim = small_world(seed=24)
        sim.quiesce()
        assert sim.cm.check_conservation().holds
        sim.inject("forge-balance", 2, 999)
        verdict = sim.cm.check_conservation()
        assert not verdict.holds
        assert verdict.actual - verdict.expected == 999

    def test_crash_and_recover_restores_identical_state(self):
        sim = small_world(seed=25)
        sim.transfer(1, 2, 100)
        sim.advance(5)
        sim.transfer(2, 3, 60)
        sim.quiesce()
        want_balance = sim.clients[2].balance
        want_mhtr = sim.clients[2].mht.root()
        want_roots = {k: t.root() for k, t in sim.clients[2].ptts.items()}
        sim.inject("crash-client", 2)
        assert sim.clients[2].balance == 0
        sim.recover(2)
        assert sim.clients[2].balance == want_balance
        assert sim.clients[2].mht.root() == want_mhtr
        assert {k: t.root() for k, t in sim.clients[2].ptts.items()} == want_roots

    def test_recovery_with_a_crashed_partner_is_refused(self):
        # client 2 alone holds pair (1, 2): recovering 1 without it
        # would drop the 100 and break conservation on 1's next transfer
        sim = small_world(seed=25)
        sim.transfer(2, 1, 100)
        sim.quiesce()
        assert sim.clients[1].balance == 1100
        sim.inject("crash-client", 2)
        sim.inject("crash-client", 1)
        logged = list(sim.log.lines)
        with pytest.raises(PeerUnreachable, match=r"partners \[2\] are crashed"):
            sim.recover(1)
        assert sim.crashed == {1, 2}
        assert sim.clients[1].balance == 0 and not sim.clients[1].ptts
        assert sim.log.lines == logged

    def test_recovery_of_a_live_client_is_refused(self):
        # client 2 has accepted and holds the record; its payer has not
        # appended it yet, so a node rebuilt from the payer would lack the
        # record, ignore the commit, and lose the 10 from conservation
        sim = small_world(fund=1000)
        sim.quiesce()
        sim.transfer(1, 2, 10)
        sim.advance(2)
        payee = sim.clients[2]
        assert payee.busy
        ptts, mht, logged = dict(payee.ptts), payee.mht, list(sim.log.lines)
        with pytest.raises(UnknownTarget, match="client 2: it is not crashed"):
            sim.recover(2)
        assert payee.busy and payee.ptts == ptts and payee.mht is mht
        assert sim.log.lines == logged
        sim.quiesce()
        assert (sim.clients[1].balance, sim.clients[2].balance) == (990, 1010)
        verdict = sim.cm.check_conservation()
        assert verdict.holds and verdict.actual == 3000
        assert sim.alerts == []

    def test_crash_before_commit_raises_missing_counterpart(self):
        sim = crash_before_commit()
        kinds = [k for k, _, _ in sim.alerts]
        assert "MissingCounterpartReport" in kinds

    def test_deadline_alerts_land_on_their_exact_ticks(self):
        """One long advance crosses two deadlines; each fires on its tick.

        The clock skips idle ticks, so this pins that it still stops at
        first_seen + reporting_deadline + 1 for every unmatched report.
        """
        sim = small_world(seed=30)
        for payee in (2, 3):
            sim.transfer(1, payee, 100)
            sim.advance(3)  # payer has committed; CommitMsg still in flight
            sim.inject("crash-client", payee)
        sim.advance(60)
        held = {}
        for line in sim.log.lines:
            tick, _, event, details = line.split("|")
            if event == "txn-report" and details.endswith("status=held"):
                held[details.split(" seq=")[0]] = int(tick)
        first_seen = {(2,): held["pair=(1, 2)"], (3,): held["pair=(1, 3)"]}
        assert first_seen[(2,)] != first_seen[(3,)]
        alerts = [a for a in sim.im.alerts
                  if a.kind is AlertKind.MISSING_COUNTERPART_REPORT]
        assert sorted(a.subjects for a in alerts) == [(2,), (3,)]
        for alert in alerts:
            due = first_seen[alert.subjects] + sim.im.reporting_deadline + 1
            assert alert.raised_at == due
            assert any(
                line.startswith(f"{due}|im|alert|kind=MissingCounterpartReport "
                                f"subjects={list(alert.subjects)} ")
                for line in sim.log.lines
            )

    def test_partitioned_managers_hear_reports_eventually(self):
        sim = small_world(seed=27)
        sim.inject("partition-manager", 40)
        sim.transfer(1, 2, 100)
        sim.quiesce()
        assert sim.cm.check_conservation().holds
        assert sim.im.latest_validated[(1, 2)][0] == 1
        assert any("|net|hold|" in line for line in sim.log.lines)
        rows = {r.client_id: r.valid_balance for r in sim.cm.table.open_rows()}
        assert rows[1] == 900 and rows[2] == 2_100
        assert sim.alerts == []

    @pytest.mark.parametrize("ticks, alerts", [
        (DEFAULT_REPORTING_DEADLINE, []),
        (DEFAULT_REPORTING_DEADLINE + 1, [("MissingCounterpartReport", (2,), 45)]),
    ], ids=["at-the-bound", "past-the-deadline"])
    def test_partition_between_the_two_reports_alerts_only_past_the_bound(
            self, ticks, alerts):
        """The payer's reports land at 34, then the partition holds the
        payee's, due at 35, until it ends: ``ticks`` after the first."""
        sim = small_world(seed=11)
        sim.transfer(1, 2, 10)
        sim.advance(4)
        assert "34|im|txn-report|pair=(1, 2) seq=1 reporter=1 status=held" in sim.log.lines
        sim.inject("partition-manager", ticks)
        sim.quiesce()
        sim.advance(DEFAULT_REPORTING_DEADLINE + 2)
        assert f"35|net|hold|target=im until={34 + ticks}" in sim.log.lines
        assert sim.alerts == alerts

    def test_omit_record_in_query_reports_incomplete(self):
        sim = small_world(seed=28)
        for _ in range(3):
            sim.transfer(1, 2, 10)
            sim.advance(5)
        sim.quiesce()
        sim.query(1, (1, 2), 1, 3)
        assert (sim.last_verdict.correct, sim.last_verdict.complete,
                sim.last_verdict.fresh) == (True, True, True)
        sim.inject("omit-record", 1, (1, 2), 2)
        sim.query(1, (1, 2), 1, 3)
        assert sim.last_verdict.correct
        assert not sim.last_verdict.complete

    def test_unknown_fault_kind_is_rejected(self):
        sim = small_world(seed=29)
        with pytest.raises(UnknownTarget):
            sim.inject("melt-coins", 1)

    @pytest.mark.parametrize("client_id", [9, 0])
    def test_forge_balance_on_a_client_without_a_row_is_refused(self, client_id):
        sim = small_world(seed=29)
        logged = list(sim.log.lines)
        with pytest.raises(UnknownTarget, match=f"no client {client_id}"):
            sim.inject("forge-balance", client_id, 5)
        assert sim.log.lines == logged
        assert sim.cm.check_conservation().holds

    @pytest.mark.parametrize("ticks", [0, -3])
    def test_partition_of_less_than_one_tick_is_refused(self, ticks):
        sim = small_world(seed=29)
        logged = list(sim.log.lines)
        with pytest.raises(UnknownTarget, match="at least 1 tick"):
            sim.inject("partition-manager", ticks)
        assert sim.partition_end == 0 and sim.log.lines == logged


@pytest.mark.parametrize("kwargs, fragment", [
    ({"kind": "sideways"}, "unknown delivery policy 'sideways'"),
    ({"kind": "delay", "delay": -5}, "delay must not be negative"),
    ({"kind": "random", "max_delay": -1}, "max_delay must not be negative"),
    ({"kind": "random", "p_delay": 1.5}, r"p_delay must lie in \[0, 1\]"),
    ({"kind": "random", "p_duplicate": -0.1}, r"p_duplicate must lie in \[0, 1\]"),
    ({"kind": "random", "p_delay": float("nan")}, "p_delay must lie in"),
])
def test_delivery_policy_is_checked_when_built(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        DeliveryPolicy(**kwargs)


def policy_grid():
    return [
        DeliveryPolicy(),
        DeliveryPolicy("delay", delay=7),
        DeliveryPolicy("duplicate"),
        DeliveryPolicy("random", p_delay=0.6, max_delay=8, p_duplicate=0.4),
    ]


@pytest.mark.parametrize("policy", policy_grid(), ids=lambda p: p.kind)
def test_eventual_consistency_matches_instant_delivery(policy):
    def run(pol):
        sim = Simulation(seed=61)
        sim.policy = pol
        for c in (1, 2):
            sim.enroll(c)
        sim.register(1, 2)
        sim.issue(1, 800)
        sim.issue(2, 600)
        sim.advance(25)
        for i in range(5):
            sim.transfer(1 + i % 2, 2 - i % 2, 11 + i)
            sim.advance(4)
            if i == 2:  # supply reports travel under the same policy, and
                # on one tick the redemption meets a busy treasury and retries
                sim.issue(2, 70)
                sim.redeem(1, 40)
                sim.advance(4)
        sim.quiesce()
        return sim

    base, run_p = run(DeliveryPolicy()), run(policy)
    for c in (1, 2):
        assert ((run_p.clients[c].persist_snapshot(), run_p.clients[c].mht.root())
                == (base.clients[c].persist_snapshot(), base.clients[c].mht.root()))
    assert ({r.client_id: r.valid_balance for r in run_p.cm.table.open_rows()}
            == {r.client_id: r.valid_balance for r in base.cm.table.open_rows()})
    assert dict(run_p.im.latest_validated) == dict(base.im.latest_validated)
    assert run_p.alerts == [] and run_p.cm.check_conservation().holds


OVERTAKING_REDEMPTION = """
seed 1
clients 2
register 1 2
issue 1 1000
issue 2 1000
advance 20
policy delay 6
transfer 2 1 100
advance 4
policy normal
redeem 1 1050
advance 30
quiesce
assert-balance 1 50
assert-conservation holds
assert-no-alerts
"""


def test_redemption_overtaking_the_transfer_that_funds_it_waits_for_it():
    """The redemption's report lands before the delayed transfer report it
    follows; it parks, then passes its funds check in chain order."""
    sim = run_scenario(parse_scenario(OVERTAKING_REDEMPTION))
    assert sim.log.failures == []
    assert "|cm|redeemed|client=1 amount=1050 status=parked" in sim.log.text()
    assert sim.cm.parked_count() == 0
    assert sim.cm.table.open_row(1).valid_balance == 50


def test_cm_refusal_is_logged_and_acknowledged_not_raised():
    """A redemption the client can afford but its forged manager row
    cannot is refused by the manager; the run goes on."""
    sim = small_world(seed=12, clients=2)
    sim.quiesce()
    sim.inject("forge-balance", 1, -900)
    sim.redeem(1, 500)
    sim.issue(2, 10)
    sim.quiesce()
    refusals = [line for line in sim.log.lines if "|cm|refuse|" in line]
    assert len(refusals) == 1
    assert refusals[0].endswith(
        "|cm|refuse|client=1 reason=redeem 500 exceeds balance 100")
    assert sim.cm.table.open_row(1).valid_balance == 100
    assert sim.cm.table.open_row(2).valid_balance == 2_010


def test_duplicated_delivery_of_a_refused_report_is_a_duplicate():
    """Every report lands twice; the repeat of a refused or stale one
    is dropped by its content, not refused or alerted on again."""
    sim = small_world(seed=12, clients=2)
    sim.quiesce()
    sim.policy = DeliveryPolicy("duplicate")
    sim.inject("forge-balance", 1, -900)
    mark = len(sim.log.lines)
    sim.redeem(1, 500)
    sim.quiesce()
    lines = [line.split("|", 1)[1] for line in sim.log.lines[mark:]
             if "|cm|" in line and "client=1 " in line]
    assert lines == ["cm|refuse|client=1 reason=redeem 500 exceeds balance 100",
                     "cm|redeemed|client=1 amount=500 status=duplicate"]
    sim.inject("double-spend", 2, 500)
    sim.quiesce()
    assert [k for k, _, _ in sim.alerts] == ["StaleProvenance"]
    assert sim.log.text().count("|cm|balance-report|client=2 balance=2500 "
                                "status=duplicate") == 1


def test_duplicated_im_reports_are_dropped_before_and_after_validation():
    """Every report lands twice: the payer's repeat lands while its seq is
    pending and the payee's after the seq validated; both are dropped
    without an alert.  A later replay on the pair still alerts, once."""
    sim = small_world(seed=12, clients=2)
    sim.quiesce()
    sim.policy = DeliveryPolicy("duplicate")
    mark = len(sim.log.lines)
    sim.transfer(1, 2, 10)
    sim.quiesce()
    statuses = [line.rsplit("reporter=", 1)[1] for line in sim.log.lines[mark:]
                if "|im|txn-report|" in line]
    assert statuses == ["1 status=held", "1 status=duplicate",
                        "2 status=validated", "2 status=duplicate"]
    assert sim.alerts == []
    sim.inject("replay-report", (1, 2))
    sim.quiesce()
    assert [kind for kind, _, _ in sim.alerts] == ["RootMismatch"]
    assert sim.log.text().count(
        "evidence=replay: pair (1, 2) seq 1 re-reported by 1") == 1


@pytest.mark.parametrize("command, args", [
    ("transfer", (9, 1, 5)),
    ("transfer", (1, 9, 5)),
    ("issue", (9, 5)),
    ("redeem", (9, 5)),
])
def test_command_for_an_unenrolled_client_is_refused_at_the_call(command, args):
    sim = small_world(seed=13)
    queued, logged = list(sim.queue), list(sim.log.lines)
    with pytest.raises(UnknownTarget, match="client 9 is not enrolled"):
        getattr(sim, command)(*args)
    assert sim.queue == queued and sim.log.lines == logged


def harmless_outage(policy):
    """The longest partition that ``Simulation._deliver`` states cannot alert."""
    return (DEFAULT_REPORTING_DEADLINE + 1
            - POLICIES[policy.kind].latest_first_copy(policy))


@pytest.mark.parametrize("policy", policy_grid(), ids=lambda p: p.kind)
def test_no_partition_within_the_stated_bound_alerts(policy):
    """Partitions of the bound's length, begun at every tick of a transfer
    and its reports, delay the reports but raise nothing."""
    for start in range(12):
        sim = small_world(seed=40 + start)
        sim.policy = policy
        sim.transfer(1, 2, 10)
        sim.transfer(2, 3, 20)
        if start:
            sim.advance(start)
        sim.inject("partition-manager", harmless_outage(policy))
        sim.quiesce()
        sim.advance(DEFAULT_REPORTING_DEADLINE + 2)
        assert sim.alerts == [], (policy.kind, start)
        assert sim.im.latest_validated[(1, 2)][0] == 1
        assert sim.im.latest_validated[(2, 3)][0] == 1


def test_grid_capture_is_deterministic_and_sensitive():
    sim = small_world(seed=31)
    sim.transfer(1, 2, 10)
    sim.quiesce()
    first = sim.capture(0)
    again = sim.capture(0)
    assert first.grid_hash == again.grid_hash
    sim.transfer(2, 3, 10)
    sim.quiesce()
    moved = sim.capture(1)
    assert moved.grid_hash != first.grid_hash


def test_grid_capture_with_the_lower_member_of_a_pair_down():
    """Client 1 is down, so its pair (1, 2) is read from client 2, and the
    roster, which holds only live clients, leaves that cell out."""
    sim = Simulation(seed=5)
    for c in (1, 2, 3):
        sim.enroll(c)
        sim.issue(c, 1000)
    sim.register(1, 2)
    sim.register(2, 3)
    sim.advance(30)
    sim.transfer(1, 2, 10)
    sim.transfer(2, 3, 5)
    sim.quiesce()
    root_12 = sim.clients[1].ptts[(1, 2)].root()
    sim.inject("crash-client", 1)
    grid = sim.capture(0)
    b, c = sim.clients[2], sim.clients[3]
    assert grid.client_index == (2, 3)
    assert grid.cells[0] == (b.mht.root(), c.ptts[(2, 3)].root())
    _, pttrs = grid_roots({2: b, 3: c})
    assert pttrs == {(1, 2): root_12, (2, 3): c.ptts[(2, 3)].root()}
    assert sim.log.lines[-1].startswith(f"{sim.now}|im|capture|epoch=0 clients=[2, 3]")


def test_step_limit_guards_runaway_scenarios():
    sim = Simulation(seed=1, step_limit=40)
    sim.enroll(1)
    sim.enroll(2)
    sim.register(1, 2)
    sim.issue(1, 1000)
    sim.advance(5)
    with pytest.raises(StepLimitExceeded):
        for i in range(50):
            sim.transfer(1, 2, 1)
            sim.advance(4)


def test_a_caught_step_limit_loses_no_event():
    """The limit stops the loop before the event leaves the queue, so a
    caller that raises the limit and goes on finishes the history."""
    sim = small_world(seed=11)
    sim.step_limit = sim.steps + 5
    sim.transfer(1, 2, 10)
    with pytest.raises(StepLimitExceeded):
        sim.quiesce()
    assert sim.steps == sim.step_limit
    queued = list(sim.queue)
    with pytest.raises(StepLimitExceeded):
        sim.step()
    assert sim.steps == sim.step_limit and sim.queue == queued
    sim.step_limit += 100
    sim.quiesce()
    assert [sim.clients[c].balance for c in (1, 2, 3)] == [990, 2_010, 3_000]
    assert broken_invariants(sim) == []


# ----------------------------------------------------------------------
# scenario grammar


TABLE4 = """
seed 4
clients 2
register 1 2
issue 1 1000
issue 2 2000
advance 20
transfer 2 1 500
quiesce
assert-balance 1 1500
assert-balance 2 1500
assert-conservation holds
assert-no-alerts
"""


def test_scenario_text_round_trips_through_parser_and_runner():
    sim = run_scenario(parse_scenario(TABLE4))
    assert sim.log.failures == []
    assert sim.clients[1].balance == 1500


def test_scenario_runner_records_failed_assertions():
    sim = run_scenario(parse_scenario(TABLE4.replace(
        "assert-balance 1 1500", "assert-balance 1 9999")))
    assert len(sim.log.failures) == 1
    assert "want=9999" in sim.log.failures[0]


def test_scenario_comments_and_blank_lines_are_ignored():
    scn = parse_scenario("# heading\n\nclients 1  # inline\n\n")
    assert [s.op for s in scn.steps] == ["clients"]


@pytest.mark.parametrize("line,fragment", [
    ("warp 9", "unknown step"),
    ("seed x", "must be an integer"),
    ("clients", "usage:"),
    ("register 1", "usage:"),
    ("policy sideways", "unknown policy"),
    ("policy delay -5", "delay must not be negative"),
    ("fault melt 1", "unknown fault"),
    ("fault tamper-leaf 1 2 3", "pair must look like A:B"),
    ("fault crash-client", "takes 1 argument"),
    ("fault partition-manager 0", "at least 1 tick"),
    ("fault partition-manager -3", "at least 1 tick"),
    ("advance 0", "must move forward"),
    ("assert-conservation maybe", "holds or violated"),
    ("assert-verdict T T", "usage:"),
    ("query 1 1:2 0", "usage:"),
    ("seed 1\nseed 2", "only appear once"),
])
def test_scenario_parse_errors_cite_line_numbers(line, fragment):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(line)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def _table_usages():
    """The usage of every row of the step table, with each fault and policy KIND."""
    for op, row in STEPS.items():
        if isinstance(row.readers, dict):
            yield from (" ".join((op, name, *kind.args))
                        for name, kind in row.readers.items())
        else:
            yield row.usage


def _grammar_usages():
    """The left column of the grammar in the ``deltamoney.scenario`` docstring."""
    block = scenario.__doc__.split("The grammar:\n\n", 1)[1].split("\n\n", 1)[0]
    for line in block.splitlines():
        line = line.strip()
        if not line.startswith("("):  # a continued description
            yield re.split(r"\s{2,}", line)[0]


def test_step_table_and_docstring_grammar_agree():
    assert sorted(_table_usages()) == sorted(_grammar_usages())


# one line per row of the step table, and the args it parses to
SAMPLES = {
    "seed N": ("seed 3", None),
    "clients N [LIMIT]": ("clients 2 500", (2, 500)),
    "register A B": ("register 1 2", (1, 2)),
    "issue CLIENT AMOUNT": ("issue 1 100", (1, 100)),
    "redeem CLIENT AMOUNT": ("redeem 1 10", (1, 10)),
    "transfer PAYER PAYEE AMOUNT": ("transfer 1 2 5", (1, 2, 5)),
    "policy normal": ("policy normal", (DeliveryPolicy(),)),
    "policy delay N": ("policy delay 3", (DeliveryPolicy("delay", delay=3),)),
    "policy duplicate": ("policy duplicate", (DeliveryPolicy("duplicate"),)),
    "policy random P_DELAY MAX P_DUP": ("policy random 0.3 5 0.2", (DeliveryPolicy(
        "random", p_delay=0.3, max_delay=5, p_duplicate=0.2),)),
    "fault tamper-leaf HOLDER A:B INDEX": ("fault tamper-leaf 2 1:2 0",
                                           ("tamper-leaf", 2, (1, 2), 0)),
    "fault double-spend CLIENT AMOUNT": ("fault double-spend 1 50",
                                         ("double-spend", 1, 50)),
    "fault replay-report A:B": ("fault replay-report 1:2", ("replay-report", (1, 2))),
    "fault forge-balance CLIENT DELTA": ("fault forge-balance 1 -5",
                                         ("forge-balance", 1, -5)),
    "fault crash-client CLIENT": ("fault crash-client 2", ("crash-client", 2)),
    "fault partition-manager TICKS": ("fault partition-manager 4",
                                      ("partition-manager", 4)),
    "fault omit-record SUBJECT A:B SEQ": ("fault omit-record 1 1:2 1",
                                          ("omit-record", 1, (1, 2), 1)),
    "advance N": ("advance 5", (5,)),
    "quiesce": ("quiesce", ()),
    "capture EPOCH": ("capture 0", (0,)),
    "recover CLIENT": ("recover 2", (2,)),
    "query SUBJECT A:B LO HI": ("query 1 1:2 1 2", (1, (1, 2), 1, 2)),
    "assert-balance CLIENT AMOUNT": ("assert-balance 1 90", (1, 90)),
    "assert-conservation holds|violated": ("assert-conservation violated", (False,)),
    "assert-alert KIND COUNT": ("assert-alert RootMismatch 0", ("RootMismatch", 0)),
    "assert-no-alerts": ("assert-no-alerts", ()),
    "assert-verdict T|F T|F T|F": ("assert-verdict T F true", (True, False, True)),
}


def test_every_table_row_has_a_sample():
    assert sorted(SAMPLES) == sorted(_table_usages())


@pytest.mark.parametrize("usage", sorted(SAMPLES))
def test_one_sample_line_per_table_row_parses(usage):
    line, args = SAMPLES[usage]
    scn = parse_scenario(line)
    if args is None:  # seed sets the scenario's seed and adds no step
        assert (scn.seed, scn.steps) == (3, [])
    else:
        assert scn.steps == [Step(1, line.split()[0], args)]


def test_a_new_fault_or_policy_kind_is_one_row(monkeypatch):
    """A row put into ``FAULTS`` and one put into ``POLICIES`` parse and run
    with no other edit; once the rows are gone, so are the kinds."""
    marked = []
    monkeypatch.setitem(FAULTS, "mark-pair", FaultKind(
        ("CLIENT", "A:B"), lambda sim, *args: marked.append(args)))
    monkeypatch.setitem(POLICIES, "late-twice", PolicyKind(
        {"N": "delay"}, lambda policy, rng: [1 + policy.delay] * 2,
        lambda policy: 1 + policy.delay))
    sim = run_scenario(parse_scenario(
        "clients 2\nregister 1 2\npolicy late-twice 3\nissue 1 100\n"
        "fault mark-pair 1 1:2\nquiesce\n"))
    assert marked == [(1, (1, 2))]
    assert sim.policy == DeliveryPolicy("late-twice", delay=3)
    # client 1 commits on tick 4; both copies of its report land 1 + 3 later
    assert sim.log.lines[-3:] == [
        "8|cm|issued|client=1 amount=100",
        "8|cm|issued|client=1 amount=100 status=duplicate",
        "8|sim|quiesce|steps=6",
    ]
    monkeypatch.undo()
    with pytest.raises(UnknownTarget, match="unknown fault kind mark-pair"):
        sim.inject("mark-pair", 1, (1, 2))
    with pytest.raises(ValueError, match="unknown delivery policy 'late-twice'"):
        DeliveryPolicy("late-twice", delay=3)
    for line in ("fault mark-pair 1 1:2", "policy late-twice 3"):
        with pytest.raises(ScenarioParseError, match="unknown"):
            parse_scenario(line)


def _string_literals(tree):
    """Every string constant in ``tree`` but the docstrings."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def test_each_fault_kind_is_named_in_one_string_literal():
    """Only its row in ``FAULTS`` names a fault kind: no second list of the
    kinds can drift from the table.  Policy names are left out, because
    ``delay`` is also a field and ``duplicate`` a manager status."""
    literals = [literal for path in sorted(SOURCES.glob("*.py"))
                for literal in _string_literals(ast.parse(path.read_text()))]
    assert FAULTS
    for kind in FAULTS:
        assert sum(kind in literal for literal in literals) == 1, kind


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SOURCES = Path(__file__).resolve().parent.parent / "src" / "deltamoney"


def _shipped(name):
    return run_scenario(parse_scenario((SCENARIOS / name).read_text()))


def test_shipped_scenarios_pass():
    for path in sorted(SCENARIOS.glob("*.scn")):
        assert _shipped(path.name).log.failures == [], path.name


GOLDEN_RUNS = {
    "table4": lambda: _shipped("table4.scn"),
    "grid3": lambda: _shipped("grid3.scn"),
    "recover": lambda: _shipped("recover.scn"),
    "crash-before-commit": crash_before_commit,
    "reorder": lambda: _shipped("reorder.scn"),
    "faults": lambda: _shipped("faults.scn"),
    "crash": lambda: _shipped("crash.scn"),
    "downgrid": lambda: _shipped("downgrid.scn"),
    "ring": lambda: _shipped("ring.scn"),
    "stale": lambda: _shipped("stale.scn"),
    "supply": lambda: _shipped("supply.scn"),
}


def test_golden_runs_name_every_shipped_scenario():
    shipped = sorted(path.stem for path in SCENARIOS.glob("*.scn"))
    assert shipped and set(shipped) <= set(GOLDEN_RUNS)


# sha256 of the event log; a retry tick that moves changes the timestamp
# of the record committed then, and so every root after it
@pytest.mark.parametrize("name, digest", [
    ("table4", "65ee7665b9239bd16a831edd48feb04d52ad17113cb00d41c91e2595b7957d30"),
    ("grid3", "3b256954ca33e3140b297ed6571ec07a4018fc868ba428028d94f62bf0da425b"),
    ("recover", "ca3333c4ba1109d676bec13bf28d47ddc470c15dc812af4dbce9fdff85c6a24a"),
    ("crash-before-commit",
     "cb25f93bd1c7fdc9d57b2dc969d71c77682c1789158d88579ad6943d1819a011"),
    ("reorder", "a8441a93c6f60fdfba9b6754e80ea04b2a08db61c89db2cb1d3fc5c734743f72"),
    ("faults", "9ec4e778e689f903e8473f943f65b2832d25cea288f0c11ffba170c89c3f3c19"),
    ("crash", "eccd8135de3156e3b761185a51a9cce089b899c501dc5d78299707023035336c"),
    ("downgrid", "7e58790f704ec8f0e12d02f4097c409de0703b20e13610ed2c9d3eaf1c6bffac"),
    ("ring", "bb9193d09b9df9109c4b7228d6a6bc9dda94ba73133d0af614d0d8319eacdfc8"),
    ("stale", "939512aec83bcc99ddd0721b4137dc7c916144eea19535cd078311775e4ac007"),
    ("supply", "0b7949f535e43faea5438d568f8fca0a4fe49dc080e2e97ed40195a268319df1"),
], ids=list(GOLDEN_RUNS))
def test_event_logs_match_golden_digests(name, digest):
    log = GOLDEN_RUNS[name]().log.text()
    assert hashlib.sha256(log.encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# event counts and quiesce ticks


def test_faultfree_transfer_costs_handshake_and_reports_only():
    sim = small_world(seed=11)
    sim.quiesce()
    steps, now = sim.steps, sim.now
    sim.transfer(1, 2, 10)
    sim.quiesce()
    # command, propose, accept, commit; 2 reports per side, each sent once
    assert sim.steps - steps == 8
    # the payee's reports land on the fifth tick, and the clock stops there
    assert sim.now - now == 5
    assert sim.queue == []


def test_faultfree_transfer_hashes_a_fixed_number_of_digests(sha256_calls):
    sim = small_world(seed=11)
    sim.quiesce()
    sha256_calls[0] = 0
    sim.transfer(1, 2, 10)
    sim.quiesce()
    # 4 balance commitments (2 in the proposal, 2 in the acceptance), the
    # first leaf of each replica's pair tree (also each IM report's record
    # digest), and a record digest and a leaf rehash in each balance tree;
    # the managers drop repeats by content and hash no report
    assert sha256_calls[0] == 10


@pytest.mark.parametrize("name, ticks", [
    ("table4", [25]),
    ("grid3", [65]),
    ("recover", [75, 80]),
    ("crash-before-commit", [34]),
    ("reorder", [11, 64]),
    ("faults", [42, 48, 50, 52, 58]),
    ("crash", [40]),
    ("downgrid", [55]),
    ("ring", [11, 77]),
    ("stale", [34, 39]),
    ("supply", [53]),
], ids=list(GOLDEN_RUNS))
def test_quiesce_ends_on_the_tick_of_the_last_timer(name, ticks):
    """The last thing due is a report landing or a busy head's retry: no
    resend timer outlives its report and carries the clock further."""
    lines = GOLDEN_RUNS[name]().log.lines
    assert [int(line.split("|")[0]) for line in lines
            if "|sim|quiesce|" in line] == ticks


def test_held_reports_land_when_the_partition_ends():
    sim = small_world(seed=27)
    sim.inject("partition-manager", 40)  # ticks 30 to 69
    sim.transfer(1, 2, 100)
    sim.quiesce()

    def ticks(fragment):
        return [int(line.split("|")[0]) for line in sim.log.lines
                if fragment in line]

    # each report is held once, on the tick it falls due, and no one resends
    assert ticks("|net|hold|target=im until=70") == [34, 35]
    assert ticks("|net|hold|target=cm until=70") == [34, 35]
    assert ticks("|im|txn-report|") == [70, 70]
    assert ticks("|cm|balance-report|") == [70, 70]
    assert sim.now == 70
    assert sim.alerts == []


def test_a_partition_is_dropped_once_it_has_ended():
    """Only the latest end injected so far is kept: a shorter partition
    inside a longer one changes nothing, and once the clock reaches that
    end, manager deliveries are no longer held."""
    sim = small_world(seed=27)
    sim.inject("partition-manager", 40)  # ticks 30 to 69
    sim.inject("partition-manager", 5)  # ticks 30 to 34
    assert sim.partition_end == 70
    sim.transfer(1, 2, 100)
    sim.advance(5)  # the payee's reports are held at 35, past the short one
    assert "35|net|hold|target=im until=70" in sim.log.lines
    assert sim.partition_end == 70
    sim.quiesce()  # they land at 70, when the long one has ended too
    assert sim.now == 70 and sim.partition_end == 70
    assert "70|im|txn-report|pair=(1, 2) seq=1 reporter=2 status=validated" \
        in sim.log.lines
    held = sum("|net|hold|" in line for line in sim.log.lines)
    sim.transfer(1, 2, 10)
    sim.quiesce()
    assert sum("|net|hold|" in line for line in sim.log.lines) == held
    assert sim.im.latest_validated[(1, 2)][0] == 2


def test_reports_sent_before_a_crash_still_land():
    sim = small_world(seed=12)
    sim.quiesce()
    sim.transfer(1, 2, 10)
    sim.advance(3)  # client 1 committed at tick 33 and sent its reports
    sim.inject("crash-client", 1)
    steps = sim.steps
    sim.quiesce()
    # nothing is sent back to a reporter, so nothing reaches the crashed one
    assert not any("|net|drop|" in line for line in sim.log.lines)
    # the CommitMsg to client 2, and both clients' 2 reports each
    assert sim.steps - steps == 5
    assert sim.now == 35
    assert sim.im.latest_validated[(1, 2)][0] == 1
    rows = {r.client_id: r.valid_balance for r in sim.cm.table.open_rows()}
    assert rows == {1: 990, 2: 2_010, 3: 3_000}
    assert sim.alerts == []


def test_delivery_to_an_unknown_client_actor_is_rejected():
    sim = small_world(seed=13)
    sim.send("client:99", "sim", object())
    with pytest.raises(UnknownTarget):
        sim.quiesce()


@pytest.mark.parametrize("target, message", [
    ("cm", TransactionReport(1, (1, 2), 1, b"r" * 32, b"d" * 32, 31)),
    ("im", BalanceReport(1, 10, b"m" * 32, b"p" * 32, b"q" * 32, 31)),
])
def test_a_manager_rejects_a_message_of_another_type(target, message):
    sim = small_world(seed=13)
    sim.send(target, 1, message)
    with pytest.raises(UnknownTarget,
                       match=f"{target} cannot handle {type(message).__name__}"):
        sim.quiesce()


@pytest.mark.parametrize("reporter, pair, reason", [
    (3, (1, 2), "client 3 is not a member of (1, 2)"),
    (9, (1, 2), "client 9 is not enrolled"),
    (1, (1, 4), "pair (1, 4) is not registered"),
], ids=["non-member", "unenrolled", "unregistered-pair"])
def test_a_report_the_im_refuses_is_logged_and_the_run_goes_on(
        reporter, pair, reason):
    """A report the Integrity Manager refuses logs one ``im|refuse`` line
    and raises nothing, and a later transfer on its pair validates."""
    sim = small_world(seed=14)
    sim.enroll(4)
    tick = sim.now + 1
    sim.send("im", reporter,
             TransactionReport(reporter, pair, 1, b"r" * 32, b"d" * 32, sim.now))
    sim.quiesce()
    assert [line for line in sim.log.lines if "|im|refuse|" in line] == [
        f"{tick}|im|refuse|pair={pair} seq=1 reporter={reporter} reason={reason}"]
    if pair not in sim.registered_pairs:
        sim.register(*pair)
    sim.transfer(*pair, 10)
    sim.quiesce()
    assert sim.im.latest_validated[pair][0] == 1
    assert sim.alerts == []


def test_pairs_read_from_messages_are_not_kept_as_log_text():
    """Only a registered pair's log text is kept.  A refused report, a
    refused proposal and a stray commit on an unregistered pair print the
    same text, but add nothing to the cache."""
    sim = small_world(seed=14)
    kept = dict(encoding.PAIR_TEXTS)
    digest = b"d" * 32
    for other in range(10_000, 10_100):
        pair = (1, other)
        sim.send("im", 1, TransactionReport(1, pair, 1, digest, digest, sim.now))
        sim.send(1, 3, TransactionProposal(1, sim.now, other, 1, 5,
                                           digest, digest, digest))
        sim.send(2, 1, CommitMsg(pair, 1, digest))
        sim.quiesce()
    assert encoding.PAIR_TEXTS == kept
    tick = sim.now - 1  # the reject lands at client 3 a tick later
    assert sim.log.lines[-5:-1] == [
        f"{tick}|im|refuse|pair=(1, 10099) seq=1 reporter=1 "
        f"reason=pair (1, 10099) is not registered",
        f"{tick}|client:1|refuse|pair=(1, 10099) reason=pair (1, 10099) is not registered",
        f"{tick}|client:1|reject|pair=(1, 10099) reason=NotRegisteredPeers",
        f"{tick}|client:2|ignore|pair=(1, 10099) seq=1 msg=commit",
    ]


def test_scenario_fault_steps_drive_detection():
    scn = """
    seed 9
    clients 2
    register 1 2
    issue 1 1000
    issue 2 1000
    advance 20
    transfer 1 2 100
    advance 10
    fault tamper-leaf 2 1:2 0
    transfer 1 2 50
    quiesce
    assert-alert RootMismatch 1
    assert-conservation holds
    """
    sim = run_scenario(parse_scenario(scn))
    assert sim.log.failures == []


def test_scenario_query_and_verdict_steps():
    scn = """
    clients 2
    register 1 2
    issue 1 500
    issue 2 500
    advance 20
    transfer 1 2 50
    advance 5
    transfer 2 1 20
    quiesce
    query 1 1:2 1 2
    assert-verdict T T T
    fault omit-record 1 1:2 1
    query 1 1:2 1 2
    assert-verdict T F T
    """
    sim = run_scenario(parse_scenario(scn))
    assert sim.log.failures == []


# ----------------------------------------------------------------------
# wire and verdict types


def _wire_values():
    """One value of each message, report and verdict type that is a NamedTuple."""
    from deltamoney import client, currency_manager, integrity_manager, peer_ledger

    digest = b"\x01" * 32
    proposal = peer_ledger.TransactionProposal(1, 0, 1, 2, 5, digest, digest, digest)
    return [
        client.AcceptMsg(None, digest),
        client.CommitMsg((1, 2), 1, digest),
        client.AbortMsg((1, 2), 1, "stale"),
        client.RejectMsg((1, 2), 1, "busy"),
        currency_manager.BalanceReport(1, 10, digest, digest, digest, 0),
        proposal,
        peer_ledger.AccountView(1, 10, 100, digest),
        integrity_manager.TransactionReport(1, (1, 2), 1, digest, digest, 0),
        integrity_manager.ValidationOutcome("held"),
        peer_ledger.PairReplica((1, 2), (), digest),
        currency_manager.ConservationVerdict(True, 10, 10),
    ]


@pytest.mark.parametrize("value", _wire_values(),
                         ids=lambda value: type(value).__name__)
def test_wire_and_verdict_types_reject_attribute_assignment(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
