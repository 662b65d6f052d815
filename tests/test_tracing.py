"""The benchmark tracer patches names in ``src/``; a renamed one fails here.

``perfbench/tracing.py`` is loaded as a file, without writing bytecode
beside it, and only read: each boundary it lists must resolve, a traced
run must record its spans and leave the run's log unchanged, and
``uninstall`` must put back every attribute it replaced.
"""

import hashlib
import importlib.util
import inspect
import sys
from pathlib import Path

from worlds import run_transfers, small_world

from deltamoney import client, sim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = load_tracing()

# every owner the tracer patches: its boundaries and its observers
OWNERS = {owner for owner, _, _ in tracing.BOUNDARIES} | {
    hashlib, client.ClientNode, sim.Simulation}


def attributes():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def transfers(world):
    run_transfers(world, [(1, 2, 10), (2, 3, 7), (3, 1, 4)])
    return world


def test_every_boundary_resolves_to_a_callable():
    for owner, attr, name in tracing.BOUNDARIES:
        raw = inspect.getattr_static(owner, attr)
        assert callable(getattr(raw, "__func__", raw)), (owner, attr)
        assert name.split(".", 1)[0] in tracing.LAYERS, name


def test_install_wraps_every_boundary_and_uninstall_restores_each_original():
    before = attributes()
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, _ in tracing.BOUNDARIES:
            assert inspect.getattr_static(owner, attr) is not before[owner][attr]
        traced = transfers(small_world(seed=3))
    after = attributes()
    for owner in OWNERS:
        assert after[owner].keys() == before[owner].keys(), owner
        for attr, value in before[owner].items():
            assert after[owner][attr] is value, (owner, attr)
    assert traced.log.lines == transfers(small_world(seed=3)).log.lines
    calls, _, layer_calls, _ = tracer.totals()
    assert calls["merkle.append"] and calls["merkle.root"]
    assert layer_calls["client"] and tracer.counts["sha256"]
