"""The funded world every test history starts from.

Histories run through ``Simulation``, the driver the CLI and the
benchmark use, so each test exercises the same transport (reports sent
once, held across a partition), busy retry, manager dedup and deadline
code.  ``broken_invariants`` is the one check of how a history ends.
"""

from deltamoney.sim import Simulation


def small_world(seed=11, clients=3, fund=None, limit=None):
    """``clients`` enrolled clients, every pair registered, all funded.

    Client c is issued ``fund``, or 1000 * c when ``fund`` is None; the
    issuances have settled when this returns.  ``limit`` is each
    client's transaction limit (the simulation's default when None).
    """
    sim = Simulation(seed=seed)
    for c in range(1, clients + 1):
        sim.enroll(c, limit)
    for a in range(1, clients + 1):
        for b in range(a + 1, clients + 1):
            sim.register(a, b)
    for c in range(1, clients + 1):
        sim.issue(c, 1_000 * c if fund is None else fund)
    sim.advance(10 * clients)
    return sim


def run_transfers(sim, moves):
    """Run each (payer, payee, amount) in turn, to its end, reports included."""
    for payer, payee, amount in moves:
        sim.transfer(payer, payee, amount)
        sim.quiesce()


def broken_invariants(sim):
    """Each invariant a settled run keeps that ``sim`` breaks, as
    ``"name: details"``; empty when every one holds.

    The names: ``conservation`` (the CM's audit), ``cm-row`` (a live
    client's CM open row unequal to its balance), ``roots`` (a registered
    pair whose two live members hold unequal roots), ``alert`` (one per
    alert raised), ``busy`` (a live node still in an exchange) and
    ``pending-abort`` (an abort report the IM still waits to match).
    """
    up = {cid: node for cid, node in sim.clients.items()
          if cid not in sim.crashed}
    broken = []
    verdict = sim.cm.check_conservation()
    if not verdict.holds:
        broken.append(f"conservation: expected={verdict.expected} "
                      f"actual={verdict.actual}")
    for row in sim.cm.table.open_rows():
        node = up.get(row.client_id)
        if node is not None and row.valid_balance != node.balance:
            broken.append(f"cm-row: client={row.client_id} "
                          f"row={row.valid_balance} balance={node.balance}")
    for a, b in sorted(sim.registered_pairs):
        if a in up and b in up and (
                up[a].ptts[(a, b)].root() != up[b].ptts[(a, b)].root()):
            broken.append(f"roots: pair={(a, b)}")
    for kind, subjects, tick in sim.alerts:
        broken.append(f"alert: {kind} subjects={list(subjects)} tick={tick}")
    broken += [f"busy: client={cid}" for cid, node in up.items() if node.busy]
    broken += [f"pending-abort: {key}" for key in sim.im._pending_aborts]
    return broken
