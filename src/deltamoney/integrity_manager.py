"""Integrity Manager: root cross-validation and system-state grids.

Every committed transaction produces one report from each peer carrying
the new pair-tree root.  A report is held until its counterpart arrives;
matching roots validate the transaction, differing roots raise an alert
naming both peers, and a counterpart that stays silent past the
reporting deadline is alerted too.  The latest validated root of each
pair can be attested to data clients.  Aborted exchanges send a separate
report flavor: their roots are compared the same way but never
validated, so a retried sequence number stays clean.  A repeated report
is dropped by its content, kept until its seq validates and then folded,
with its counterpart, into one entry of their pttr, digest and timestamp.

``handle`` takes one report and returns an outbox, as a client node's
does: the report's status line and any alert.  A report ``ingest_report``
refuses is logged, not raised, so a malformed report cannot end a run.

The manager also snapshots the whole system as a Merkle Hash Grid:
client balance-tree roots on the diagonal, pair-tree roots above it,
row and column hashes over the cells, and a signed hash over both hash
lists.  Because every cell feeds exactly one row hash and one column
hash, a single changed cell is localized by intersecting the mismatched
row with the mismatched column.

No balance ever enters this module: it sees digests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import NamedTuple, Optional

from .encoding import FOREVER, pair_of, pair_text, u64
from .errors import (
    BadSignature, DeltaMoneyError, UnknownReporter, UnknownTarget, UnregisteredPair,
)
from .hashing import (
    DIGEST_SIZE, EMPTY_CELL_DIGEST, Digest, KeyStore, Signature, digest,
)

DEFAULT_REPORTING_DEADLINE = 10


class AlertKind(Enum):
    ROOT_MISMATCH = "RootMismatch"
    MISSING_COUNTERPART_REPORT = "MissingCounterpartReport"
    STALE_PROVENANCE = "StaleProvenance"  # raised by the Currency Manager


class Alert(NamedTuple):
    kind: AlertKind
    subjects: tuple[int, ...]
    evidence: str
    raised_at: int


class TransactionReport(NamedTuple):
    """One party's report of an exchange it committed or aborted.

    ``pttr`` is the reporter's pair-tree root after the exchange and
    ``record_digest`` the record's pair-tree leaf; a seq validates only
    when both reports agree on both.  Both kinds of report read the leaf
    the reporter's tree stored on append, an abort report before the
    rollback drops it (``PeerTransactionTree.leaf_digest``).
    """

    reporter: int
    pair_key: tuple[int, int]
    pair_seq: int
    pttr: Digest
    record_digest: Digest
    timestamp: int
    aborted: bool = False


class ValidationOutcome(NamedTuple):
    status: str  # held | validated | mismatch | replay | duplicate | aborted
    alert: Optional[Alert] = None


# the outcomes that carry no alert, shared by every report that gets one
_HELD = ValidationOutcome("held")
_VALIDATED = ValidationOutcome("validated")
_DUPLICATE = ValidationOutcome("duplicate")


@dataclass(frozen=True)
class MerkleHashGrid:
    epoch: int
    client_index: tuple[int, ...]
    cells: tuple[tuple[Digest, ...], ...]
    row_hashes: tuple[Digest, ...]
    column_hashes: tuple[Digest, ...]
    grid_hash: Digest
    signature: Signature


@dataclass(frozen=True)
class GridVerdict:
    matches: bool
    mismatched_cells: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class PTTRAttestation:
    """A signed statement: this root is the validated one for (pair, seq)."""

    pair_key: tuple[int, int]
    pair_seq: int
    root: Digest
    signature: Signature

    def message(self) -> bytes:
        return (
            u64(self.pair_key[0])
            + u64(self.pair_key[1])
            + u64(self.pair_seq)
            + self.root
        )


@dataclass(slots=True)
class _PendingPair:
    first_seen: int
    reports: dict[int, TransactionReport] = field(default_factory=dict)


def _compact(report: TransactionReport) -> Optional[bytes]:
    """What ``_validated`` keeps of a seq whose two reports differ only in
    reporter: their pttr, record digest and timestamp joined in one new
    object, which keeps none of a client's digests alive.  The join is
    exact only for a 32-byte pttr and a u64 timestamp; for any other report
    it is None, so such a seq keeps its reports in the repeat set and such
    a report matches no entry.
    """
    if len(report.pttr) != DIGEST_SIZE or not 0 <= report.timestamp <= FOREVER:
        return None
    return report.pttr + report.record_digest + u64(report.timestamp)


def _grid_cells(mhtrs: dict, pttrs: dict) -> tuple:
    """The client index and the cells of a grid over these roots."""
    if not mhtrs:
        raise ValueError("a grid needs at least one client")
    index = tuple(sorted(mhtrs))  # ids are assigned in enrollment order
    n = len(index)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(mhtrs[index[i]])
            elif i < j:
                row.append(pttrs.get((index[i], index[j]), EMPTY_CELL_DIGEST))
            else:
                row.append(EMPTY_CELL_DIGEST)
        cells.append(tuple(row))
    return index, tuple(cells)


def _grid_hashes(cells):
    n = len(cells)
    rows = tuple(digest(b"".join(cells[i][j] for j in range(n))) for i in range(n))
    cols = tuple(digest(b"".join(cells[i][j] for i in range(n))) for j in range(n))
    grid = digest(b"".join(rows) + b"".join(cols))
    return rows, cols, grid


class IntegrityManager:
    """Single logical actor ingesting reports and capturing grids."""

    def __init__(self, keystore: KeyStore, signer_id: int,
                 reporting_deadline: int = DEFAULT_REPORTING_DEADLINE) -> None:
        self.keystore = keystore
        self.signer_id = signer_id
        keystore.generate(signer_id)
        self.reporting_deadline = reporting_deadline
        self.known_clients: set[int] = set()
        self.known_pairs: set[tuple[int, int]] = set()
        self.alerts: list[Alert] = []
        # the reports received, less the two of each seq that _validated
        # holds a compact entry for
        self._seen_reports: set[TransactionReport] = set()
        self._pending: dict[tuple, _PendingPair] = {}
        # heap of (first_seen, creation number, key, entry) over the pending
        # entries not yet alerted; the creation number is the entry's place
        # in _pending's order.  An entry whose counterpart arrived stays in
        # the heap until popped, so readers skip entries not in _pending.
        self._due: list[tuple] = []
        self._created = 0
        self._pending_aborts: dict[tuple, dict[int, TransactionReport]] = {}
        self._validated: dict[tuple, Optional[bytes]] = {}
        self.latest_validated: dict[tuple[int, int], tuple[int, Digest]] = {}

    # ------------------------------------------------------------------
    # roster

    def note_client(self, client_id: int) -> None:
        self.known_clients.add(client_id)

    def note_pair(self, a: int, b: int) -> None:
        self.known_pairs.add(pair_of(a, b))

    # ------------------------------------------------------------------
    # report ingestion

    def _raise_alert(self, kind: AlertKind, subjects, evidence: str,
                     at: int) -> Alert:
        alert = Alert(kind, tuple(subjects), evidence, at)
        self.alerts.append(alert)
        return alert

    def handle(self, sender, report, now: int) -> list:
        """Take one report at tick ``now``; return its ``txn-report`` line
        and any alert, or a ``refuse`` line if ``ingest_report`` raises."""
        if type(report) is not TransactionReport:
            raise UnknownTarget(f"im cannot handle {type(report).__name__}")
        head = (f"pair={pair_text(report.pair_key)} seq={report.pair_seq} "
                f"reporter={report.reporter}")
        try:
            outcome = self.ingest_report(report, now)
        except DeltaMoneyError as exc:
            return [("refuse", f"{head} reason={exc}")]
        line = ("txn-report", f"{head} status={outcome.status}")
        return [line] if outcome.alert is None else [line, outcome.alert]

    def ingest_report(self, report: TransactionReport,
                      now: Optional[int] = None) -> ValidationOutcome:
        now = report.timestamp if now is None else now
        if report.reporter not in self.known_clients:
            raise UnknownReporter(f"client {report.reporter} is not enrolled")
        if report.pair_key not in self.known_pairs:
            raise UnregisteredPair(f"pair {report.pair_key} is not registered")
        if report.reporter not in report.pair_key:
            raise UnknownReporter(
                f"client {report.reporter} is not a member of {report.pair_key}"
            )
        if report in self._seen_reports:
            return _DUPLICATE
        key = (report.pair_key, report.pair_seq)
        if not report.aborted and key in self._validated:
            entry = self._validated[key]
            if entry is not None and entry == _compact(report):
                return _DUPLICATE
            self._seen_reports.add(report)
            alert = self._raise_alert(
                AlertKind.ROOT_MISMATCH,
                report.pair_key,
                f"replay: pair {report.pair_key} seq {report.pair_seq} "
                f"re-reported by {report.reporter} after validation",
                now,
            )
            return ValidationOutcome("replay", alert)
        self._seen_reports.add(report)
        if report.aborted:
            return self._ingest_abort(key, report, now)

        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _PendingPair(now)
            heappush(self._due, (now, self._created, key, pending))
            self._created += 1
        pending.reports[report.reporter] = report
        if len(pending.reports) < 2:
            return _HELD

        a, b = report.pair_key
        left, right = pending.reports[a], pending.reports[b]
        del self._pending[key]
        if len(self._due) > 2 * len(self._pending) + 16:
            self._due = [entry for entry in self._due if self._live(entry)]
            heapify(self._due)
        if left.pttr == right.pttr and left.record_digest == right.record_digest:
            entry = _compact(left) if left.timestamp == right.timestamp else None
            if entry is not None:
                self._seen_reports.difference_update((left, right))
            self._validated[key] = entry
            # reports may cross on the wire: keep the highest sequence, not
            # the most recently validated one
            current = self.latest_validated.get(report.pair_key)
            if current is None or report.pair_seq > current[0]:
                self.latest_validated[report.pair_key] = (
                    report.pair_seq, report.pttr,
                )
            return _VALIDATED
        alert = self._raise_alert(
            AlertKind.ROOT_MISMATCH,
            report.pair_key,
            f"pair {report.pair_key} seq {report.pair_seq}: "
            f"{a} says {left.pttr[:8].hex()}, {b} says {right.pttr[:8].hex()}",
            now,
        )
        return ValidationOutcome("mismatch", alert)

    def _ingest_abort(self, key, report: TransactionReport,
                      now: int) -> ValidationOutcome:
        """Compare the divergent roots of an aborted exchange.

        Nothing is ever validated here: the peers rolled the leaf back,
        so a later retry of the same sequence number must still be able
        to validate normally.  Matching roots mean the abort was a
        transport artifact and the reports are simply discarded.
        """
        held = self._pending_aborts.setdefault(key, {})
        held[report.reporter] = report
        if len(held) < 2:
            return _HELD
        a, b = report.pair_key
        left, right = held[a], held[b]
        del self._pending_aborts[key]
        if left.pttr == right.pttr:
            return ValidationOutcome("aborted")
        alert = self._raise_alert(
            AlertKind.ROOT_MISMATCH,
            report.pair_key,
            f"aborted exchange for pair {report.pair_key} seq "
            f"{report.pair_seq}: {a} says {left.pttr[:8].hex()}, "
            f"{b} says {right.pttr[:8].hex()}",
            now,
        )
        return ValidationOutcome("mismatch", alert)

    def _live(self, entry: tuple) -> bool:
        return self._pending.get(entry[2]) is entry[3]

    def check_deadlines(self, now: int) -> list[Alert]:
        """Alert every pending report whose counterpart is past due.

        Due entries leave the deadline heap, so each is alerted once and
        the cost is O(log n) per entry that falls due; the entry itself
        stays pending for a late counterpart.  Alerts follow the order of
        the entries in ``_pending``.
        """
        heap, due = self._due, []
        while heap and now - heap[0][0] > self.reporting_deadline:
            entry = heappop(heap)
            if self._live(entry):
                due.append(entry)
        due.sort(key=itemgetter(1))
        raised = []
        for _, _, (pair_key, pair_seq), pending in due:
            silent = [c for c in pair_key if c not in pending.reports]
            raised.append(self._raise_alert(
                AlertKind.MISSING_COUNTERPART_REPORT,
                silent or pair_key,
                f"pair {pair_key} seq {pair_seq}: no counterpart report "
                f"within {self.reporting_deadline} ticks",
                now,
            ))
        return raised

    def next_deadline(self) -> Optional[int]:
        """Earliest tick at which ``check_deadlines`` can raise, or None.

        A pending report not yet alerted falls due the first tick past
        its reporting deadline; between such ticks ``check_deadlines``
        raises nothing, so a caller may skip them.
        """
        heap = self._due
        while heap and not self._live(heap[0]):
            heappop(heap)
        return heap[0][0] + self.reporting_deadline + 1 if heap else None

    # ------------------------------------------------------------------
    # attestation

    def attest_pttr(self, pair_key: tuple[int, int]) -> Optional[PTTRAttestation]:
        """Sign the latest validated root for a pair, for data clients."""
        latest = self.latest_validated.get(pair_key)
        if latest is None:
            return None
        seq, root = latest
        unsigned = PTTRAttestation(pair_key, seq, root, None)
        return PTTRAttestation(
            pair_key, seq, root,
            self.keystore.sign(self.signer_id, unsigned.message()),
        )

    # ------------------------------------------------------------------
    # merkle hash grid

    def capture_grid(self, epoch: int, mhtrs: dict[int, Digest],
                     pttrs: dict[tuple[int, int], Digest]) -> MerkleHashGrid:
        index, cells = _grid_cells(mhtrs, pttrs)
        rows, cols, grid_hash = _grid_hashes(cells)
        return MerkleHashGrid(
            epoch, index, cells, rows, cols, grid_hash,
            self.keystore.sign(self.signer_id, grid_hash),
        )

    def verify_grid(self, grid: MerkleHashGrid, mhtrs: dict[int, Digest],
                    pttrs: dict[tuple[int, int], Digest]) -> GridVerdict:
        rows, cols, grid_hash = _grid_hashes(grid.cells)
        if (rows, cols, grid_hash) != (grid.row_hashes, grid.column_hashes,
                                       grid.grid_hash):
            raise BadSignature("grid hashes do not recompute from its cells")
        if not self.keystore.verify(grid.signature, grid.grid_hash):
            raise BadSignature("grid signature does not verify")
        index, cells = _grid_cells(mhtrs, pttrs)
        if index != grid.client_index:
            raise ValueError("grid covers a different client roster")
        rows, cols, grid_hash = _grid_hashes(cells)
        if grid_hash == grid.grid_hash:
            return GridVerdict(True)
        bad_rows = [i for i, h in enumerate(rows) if h != grid.row_hashes[i]]
        bad_cols = [j for j, h in enumerate(cols) if h != grid.column_hashes[j]]
        return GridVerdict(False, tuple(
            (i, j)
            for i in bad_rows
            for j in bad_cols
            if cells[i][j] != grid.cells[i][j]
        ))


# ----------------------------------------------------------------------
# textual grid format


def export_grid(grid: MerkleHashGrid) -> str:
    def cell(d: Digest) -> str:
        return "-" if d == EMPTY_CELL_DIGEST else d.hex()

    lines = [
        f"epoch|{grid.epoch}",
        "clients|" + ",".join(str(c) for c in grid.client_index),
    ]
    for row in grid.cells:
        lines.append("cell|" + "|".join(cell(d) for d in row))
    lines.append("rowhash|" + "|".join(h.hex() for h in grid.row_hashes))
    lines.append("colhash|" + "|".join(h.hex() for h in grid.column_hashes))
    lines.append(f"gridhash|{grid.grid_hash.hex()}")
    lines.append(
        f"signature|{grid.signature.signer_id}|{grid.signature.bytes.hex()}"
    )
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> MerkleHashGrid:
    epoch = None
    clients: tuple[int, ...] = ()
    cells = []
    rows = cols = ()
    grid_hash = b""
    signature = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        tag = parts[0]
        if tag == "epoch":
            epoch = int(parts[1])
        elif tag == "clients":
            clients = tuple(int(c) for c in parts[1].split(",") if c)
        elif tag == "cell":
            cells.append(tuple(
                EMPTY_CELL_DIGEST if p == "-" else bytes.fromhex(p)
                for p in parts[1:]
            ))
        elif tag == "rowhash":
            rows = tuple(bytes.fromhex(p) for p in parts[1:])
        elif tag == "colhash":
            cols = tuple(bytes.fromhex(p) for p in parts[1:])
        elif tag == "gridhash":
            grid_hash = bytes.fromhex(parts[1])
        elif tag == "signature":
            signature = Signature(bytes.fromhex(parts[2]), int(parts[1]))
        else:
            raise ValueError(f"unknown grid line tag {tag!r}")
    if epoch is None or signature is None or not cells:
        raise ValueError("incomplete grid file")
    return MerkleHashGrid(
        epoch, clients, tuple(cells), rows, cols, grid_hash, signature
    )
