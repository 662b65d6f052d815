"""The funded world every test history starts from.

Histories run through ``Simulation``, the driver the CLI and the
benchmark use, so each test exercises the same transport (reports sent
once, held across a partition), busy retry, manager dedup and deadline
code.
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
