"""Every crash point of a small world, driven one event at a time.

Four transfers are queued at once on ``small_world(seed=11)``; they take
62 events.  For each n from 0 to 62, each victim and each downtime of
0-3 ticks, the run delivers n events through ``Simulation.step``,
crashes the victim, keeps it down that long (0: it is rebuilt before
the next event), rebuilds it, drains the queue, runs past the last IM
reporting deadline and 12 ticks more, then reads
``worlds.broken_invariants``.  That is bounded black-box crash testing:
a small workload and every crash point (Mohan et al., OSDI 2018).

A rebuilt client does not yet finish the exchange it held, nor report
the records it copied (ROADMAP item 14), so some points break the
invariants.  Their counts are pinned as known failures: a fix moves
them, and so does a regression.
"""

from collections import Counter

from worlds import broken_invariants, small_world

MOVES = [(1, 2, 10), (2, 1, 5), (1, 3, 7), (3, 2, 4)]
EVENTS = 62

# the sorted names of the invariants broken -> the number of crash points
KNOWN_FAILURES = {
    (): 708,
    # the rebuilt payee copied its payer's committed record from it, but
    # reported it to neither manager
    ("alert", "cm-row", "conservation"): 41,
    # the payee, rebuilt before its payer's commit landed, lost the record
    ("alert", "conservation", "roots"): 7,
}


def queued_world():
    sim = small_world(seed=11)
    for move in MOVES:
        sim.transfer(*move)
    return sim


def crash_at(n, victim, downtime):
    sim = queued_world()
    for _ in range(n):
        sim.step()
    sim.inject("crash-client", victim)
    if downtime:
        sim.advance(downtime)
    sim.recover(victim)
    sim.quiesce()
    deadline = sim.im.next_deadline()
    if deadline is not None:
        sim.run_until(deadline + 1)
    sim.advance(12)
    return broken_invariants(sim)


def test_the_queued_transfers_take_62_events_and_settle():
    sim = queued_world()
    steps = sim.steps
    sim.quiesce()
    assert sim.steps - steps == EVENTS
    assert broken_invariants(sim) == []


def test_every_crash_point_ends_in_a_known_state():
    outcomes = Counter()
    for n in range(EVENTS + 1):
        for victim in (1, 2, 3):
            for downtime in range(4):
                broken = crash_at(n, victim, downtime)
                names = tuple(sorted({line.split(":")[0] for line in broken}))
                # a broken point is never silent: the IM raises an alert
                assert not names or "alert" in names, (n, victim, downtime)
                outcomes[names] += 1
    assert dict(outcomes) == KNOWN_FAILURES
