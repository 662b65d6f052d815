"""Spans around the public boundaries of every deltamoney layer.

The tracer patches attributes from outside the program: class methods on
their class, module-level functions at the name their caller looks them
up by, and ``hashlib.sha256`` as a counter (one span per digest would
cost more than the digest).  Nothing inside ``src/`` changes, and
``uninstall`` restores every original.

Each span is a name, a start, an end and the index of the span that was
open when it began; every span also carries the id of the benchmark
operation (a transfer, a query, a recovery or a mesh tick) that caused
it.  Spans stay in compact arrays until ``write`` dumps them.  A layer's
self time is the sum over its spans of duration minus the duration of
their direct children, so ``sim`` covers ``client``, which covers
``peer_ledger``, which covers ``merkle``, without double counting.
"""

from __future__ import annotations

import hashlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from deltamoney import (
    balance_tree,
    client,
    currency_manager,
    data_client,
    hashing,
    integrity_manager,
    merkle,
    peer_ledger,
    sim,
)

# (owner, attribute, span name); the span name's first component is the
# layer, named after the module that implements it.
BOUNDARIES = [
    (merkle.MerkleTree, "append", "merkle.append"),
    (merkle.MerkleTree, "root", "merkle.root"),
    (merkle.MerkleTree, "prove", "merkle.prove"),
    (merkle.MerkleTree, "build", "merkle.build"),
    (data_client, "verify_inclusion", "merkle.verify"),
    (hashing.KeyStore, "sign", "hashing.sign"),
    (hashing.KeyStore, "verify", "hashing.verify"),
    (peer_ledger.PeerTransactionTree, "append_record", "peer_ledger.append_record"),
    (peer_ledger.PeerTransactionTree, "root", "peer_ledger.root"),
    (peer_ledger.PeerTransactionTree, "rollback_last", "peer_ledger.rollback_last"),
    (client, "propose", "peer_ledger.propose"),
    (client, "accept", "peer_ledger.accept"),
    (client, "local_view", "peer_ledger.local_view"),
    (balance_tree.BalanceMHT, "insert", "balance_tree.insert"),
    (balance_tree.BalanceMHT, "range_query", "balance_tree.range_query"),
    (data_client, "examine_range", "balance_tree.examine_range"),
    (currency_manager.CurrencyManager, "report_balance", "currency_manager.report_balance"),
    (currency_manager.CurrencyManager, "issue", "currency_manager.issue"),
    (currency_manager.CurrencyManager, "redeem", "currency_manager.redeem"),
    (currency_manager.CurrencyManager, "check_conservation",
     "currency_manager.check_conservation"),
    (currency_manager.CurrencyManager, "attest_mhtr", "currency_manager.attest_mhtr"),
    (currency_manager.CurrencyManager, "parked_count", "currency_manager.parked_count"),
    (integrity_manager.IntegrityManager, "ingest_report",
     "integrity_manager.ingest_report"),
    (integrity_manager.IntegrityManager, "check_deadlines",
     "integrity_manager.check_deadlines"),
    (integrity_manager.IntegrityManager, "attest_pttr", "integrity_manager.attest_pttr"),
    (integrity_manager.IntegrityManager, "capture_grid",
     "integrity_manager.capture_grid"),
    (client.ClientNode, "start_transfer", "client.start_transfer"),
    (client.ClientNode, "receive_propose", "client.receive_propose"),
    (client.ClientNode, "receive_accept", "client.receive_accept"),
    (client.ClientNode, "receive_commit", "client.receive_commit"),
    (client.ClientNode, "receive_abort", "client.receive_abort"),
    (client.ClientNode, "receive_reject", "client.receive_reject"),
    (client.ClientNode, "recover_transactions", "client.recover"),
    (sim.Simulation, "run_until", "sim.run_until"),
    (data_client, "query_transactions", "data_client.query"),
    (data_client, "query_balance_history", "data_client.query"),
    (data_client, "verify_vo", "data_client.verify"),
    (peer_ledger.TransactionPairRecord, "to_bytes", "encoding.to_bytes"),
    (balance_tree.BalanceChangeRecord, "to_bytes", "encoding.to_bytes"),
]

LAYERS = [
    "merkle", "hashing", "peer_ledger", "balance_tree", "currency_manager",
    "integrity_manager", "client", "sim", "data_client", "encoding",
]

# per-layer metric name -> unit, in report order
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_ms"] = "ms"
METRICS.update({
    "merkle.root.calls": "count",
    "merkle.root.ms": "ms",
    "merkle.append.ms": "ms",
    "merkle.prove.ms": "ms",
    "merkle.verify.ms": "ms",
    "hashing.sha256_per_commit": "count",
    "hashing.sha256_bytes": "bytes",
    "hashing.sign.calls": "count",
    "hashing.verify.calls": "count",
    "balance_tree.insert.ms": "ms",
    "balance_tree.range_query.ms": "ms",
    "balance_tree.examine_range.ms": "ms",
    "currency_manager.check_conservation.calls": "count",
    "currency_manager.check_conservation.ms": "ms",
    "currency_manager.parked.max": "count",
    "currency_manager.rows": "count",
    "integrity_manager.ingest_report.calls": "count",
    "integrity_manager.duplicates": "count",
    "integrity_manager.check_deadlines.ms": "ms",
    "client.proposals_per_commit": "ratio",
    "client.busy_rejects": "count",
    "client.recover.ms": "ms",
    "sim.events": "count",
    "sim.queue_depth.max": "count",
    "data_client.query.ms": "ms",
    "data_client.verify.ms": "ms",
    "data_client.vo_bytes": "bytes",
    "encoding.record_encodes_per_commit": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
})


class Tracer:
    """Span recorder; ``install`` patches the boundaries, ``uninstall`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._op_id = 0
        self.counts: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self._undo: list = []
        self._parked_count = currency_manager.CurrencyManager.parked_count

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; inner spans share its id."""
        self._op_id += 1
        index = self._open(self._name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(index)

    def sample(self, simulation) -> None:
        """Fold the event-queue and parked-report depths into their maxima."""
        for name, value in (("queue", len(simulation.queue)),
                            ("parked", self._parked_count(simulation.cm))):
            self.gauges[name] = max(self.gauges.get(name, 0), value)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(owner, attr, self._wrap(raw, name))
        self._patch_observers()

    def _patch_observers(self) -> None:
        counts = self.counts
        real_sha256 = hashlib.sha256

        def sha256(*args, **kwargs):
            counts["sha256"] += 1
            data = args[0] if args else kwargs.get("string", b"")
            counts["sha256_bytes"] += len(data)
            return real_sha256(*args, **kwargs)

        self._patch(hashlib, "sha256", sha256)

        start_transfer = client.ClientNode.start_transfer
        receive_propose = client.ClientNode.receive_propose

        def counted_start(node, *args, **kwargs):
            msg = start_transfer(node, *args, **kwargs)
            counts["proposals" if msg is not None else "busy_rejects"] += 1
            return msg

        def counted_propose(node, *args, **kwargs):
            reply = receive_propose(node, *args, **kwargs)
            if isinstance(reply, client.RejectMsg) and reply.reason == "busy":
                counts["busy_rejects"] += 1
            return reply

        self._patch(client.ClientNode, "start_transfer", counted_start)
        self._patch(client.ClientNode, "receive_propose", counted_propose)

        send = sim.Simulation.send

        def counted_send(simulation, target, sender, message, *args, **kwargs):
            # the IM acknowledges every envelope it is handed, new or not
            if sender == "im" and isinstance(message, sim.ReportAck):
                counts["im_deliveries"] += 1
            return send(simulation, target, sender, message, *args, **kwargs)

        self._patch(sim.Simulation, "send", counted_send)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive ns; per layer: calls, self ns."""
        n = len(self.start)
        child_ns = [0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += durations[i]
        calls, inclusive = Counter(), Counter()
        layer_calls, layer_self = Counter(), Counter()
        names, name, parent = self.names, self.name, self.parent
        for i in range(n):
            nm = names[name[i]]
            calls[nm] += 1
            p = parent[i]
            if p < 0 or name[p] != name[i]:
                inclusive[nm] += durations[i]
            layer = nm.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += durations[i] - child_ns[i]
        return calls, inclusive, layer_calls, layer_self

    def metrics(self, episode) -> dict:
        """Per-layer metrics of the traced episode, except the overhead."""
        commits = episode.committed
        calls, inclusive, layer_calls, layer_self = self.totals()
        ms = lambda name: inclusive[name] / 1e6  # noqa: E731
        per_commit = lambda count: count / commits if commits else 0.0  # noqa: E731
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
        out.update({
            "merkle.root.calls": calls["merkle.root"],
            "merkle.root.ms": ms("merkle.root"),
            "merkle.append.ms": ms("merkle.append"),
            "merkle.prove.ms": ms("merkle.prove"),
            "merkle.verify.ms": ms("merkle.verify"),
            "hashing.sha256_per_commit": per_commit(self.counts["sha256"]),
            "hashing.sha256_bytes": self.counts["sha256_bytes"],
            "hashing.sign.calls": calls["hashing.sign"],
            "hashing.verify.calls": calls["hashing.verify"],
            "balance_tree.insert.ms": ms("balance_tree.insert"),
            "balance_tree.range_query.ms": ms("balance_tree.range_query"),
            "balance_tree.examine_range.ms": ms("balance_tree.examine_range"),
            "currency_manager.check_conservation.calls":
                calls["currency_manager.check_conservation"],
            "currency_manager.check_conservation.ms":
                ms("currency_manager.check_conservation"),
            "currency_manager.parked.max": self.gauges.get("parked", 0),
            "currency_manager.rows": episode.cm_rows,
            "integrity_manager.ingest_report.calls":
                calls["integrity_manager.ingest_report"],
            "integrity_manager.duplicates":
                self.counts["im_deliveries"] - calls["integrity_manager.ingest_report"],
            "integrity_manager.check_deadlines.ms":
                ms("integrity_manager.check_deadlines"),
            "client.proposals_per_commit": per_commit(self.counts["proposals"]),
            "client.busy_rejects": self.counts["busy_rejects"],
            "client.recover.ms": ms("client.recover"),
            "sim.events": episode.sim_events,
            "sim.queue_depth.max": self.gauges.get("queue", 0),
            "data_client.query.ms": ms("data_client.query"),
            "data_client.verify.ms": ms("data_client.verify"),
            "data_client.vo_bytes": episode.vo_bytes,
            "encoding.record_encodes_per_commit": per_commit(calls["encoding.to_bytes"]),
        })
        return out

    def write(self, path) -> None:
        """One span per line: op id, name, start ns, end ns, parent index."""
        with open(path, "w") as out:
            out.write("op\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{self.op[i]}\t{names[self.name[i]]}\t{self.start[i]}"
                    f"\t{self.end[i]}\t{self.parent[i]}\n"
                )
