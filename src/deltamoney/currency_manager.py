"""Currency Manager: enrollment, issuance, and conservation.

The manager never stores transaction records.  It keeps the set of
enrolled client ids, a temporal table of plaintext balances (one
open row per client, closed rows kept forever), the provenance root each
balance claims to descend from, and the running totals of issued and
redeemed currency.  Registering a pair only checks that both members are
enrolled.  Double spends surface here: a balance report whose prior root
matches an already closed row is spending from a state that was spent
from before.  The manager detects and refuses; it takes no remedial
action against a client.

Every change to a client's row arrives as a ``BalanceReport``, defined
here as the Integrity Manager defines its ``TransactionReport``: the
client builds it and the transport hands it over unchanged.
``report_balance`` is the one path that advances a row: a peer transfer,
an issuance and a redemption differ only in the report's signed supply
amount (0, +amount, -amount).  A repeat is dropped by the report's
content, its first six fields.  Reports arrive independently and
possibly out of order, so one whose prior root is not yet the open
row's is parked until the chain catches up; issuances and redemptions
chain and park exactly like transfers, which puts a redemption's funds
check on the row it actually follows.  ``handle`` returns an outbox, as
a client node's does: the line that logs what became of a report, or a
``StaleProvenance`` alert.  A report it refuses is logged, not raised.

Conservation is a property of a settled system, not of each report in
flight: while one leg of a transfer has landed and the other has not,
the open rows rightly disagree with the supply.  So no report triggers
an audit.  ``check_conservation`` sums the rows when it is called, at
the end of a run or at a past tick (``at=``), and a row edited in place
shows there as a discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .encoding import FOREVER, u64
from .errors import (
    DeltaMoneyError,
    InsufficientBalance,
    NegativeBalance,
    NonPositiveAmount,
    StaleProvenance,
    UnknownClient,
    UnknownTarget,
)
from .hashing import EMPTY_TREE_DIGEST, Digest, KeyStore, Signature
from .integrity_manager import Alert, AlertKind

MANAGER_ID = 0


class BalanceReport(NamedTuple):
    """A client's report of its new balance, the one the manager chains."""

    client_id: int
    new_balance: int
    mhtr: Digest
    prior_mhtr: Digest
    peer_provenance: Digest
    timestamp: int
    # 0 for a transfer, +amount issued, -amount redeemed; left out of what
    # the manager remembers, as mhtr already commits to the record's delta
    supply: int = 0


@dataclass(slots=True)
class BalanceRow:
    """One row of the temporal balance table; the table keeps every row
    forever, so a row carries no ``__dict__``."""

    txn_timestamp: int
    client_id: int
    valid_balance: int
    valid_from: int
    valid_to: int
    provenance_mhtr: Digest
    remarks: str = ""

    @property
    def open(self) -> bool:
        return self.valid_to == FOREVER


class TemporalBalanceTable:
    """Valid-time balance history: closed rows are immutable facts.

    Besides the full history in write order, the table indexes each
    client's rows, the last of which is its one open row, so per-client
    lookups and the conservation audit never scan other clients' history.
    """

    def __init__(self) -> None:
        self.rows: list[BalanceRow] = []
        self._by_client: dict[int, list[BalanceRow]] = {}

    def open_row(self, client_id: int) -> BalanceRow:
        return self._by_client[client_id][-1]

    def start(self, client_id: int, timestamp: int, remarks: str = "") -> BalanceRow:
        row = BalanceRow(
            timestamp, client_id, 0, timestamp, FOREVER, EMPTY_TREE_DIGEST, remarks
        )
        self._add(row)
        return row

    def advance(
        self,
        client_id: int,
        timestamp: int,
        new_balance: int,
        mhtr: Digest,
        remarks: str = "",
    ) -> BalanceRow:
        prev = self._by_client[client_id][-1]
        prev.valid_to = timestamp
        prev.txn_timestamp = timestamp  # closed rows are re-stamped, as updates
        row = BalanceRow(
            timestamp, client_id, new_balance, timestamp, FOREVER, mhtr, remarks
        )
        self._add(row)
        return row

    def _add(self, row: BalanceRow) -> None:
        self.rows.append(row)
        self._by_client.setdefault(row.client_id, []).append(row)

    def row_at(self, client_id: int, at: int) -> Optional[BalanceRow]:
        """The client's row valid at tick ``at``, if any."""
        for row in self._by_client.get(client_id, ()):
            if row.valid_from <= at < row.valid_to:
                return row
        return None

    def open_rows(self) -> list[BalanceRow]:
        return [rows[-1] for rows in self._by_client.values()]

    def closed_provenances(self, client_id: int) -> set[Digest]:
        return {
            row.provenance_mhtr
            for row in self._by_client.get(client_id, ())
            if not row.open
        }


@dataclass
class SupplyLedger:
    total_issued: int = 0
    total_redeemed: int = 0
    events: list[tuple[int, int]] = field(default_factory=list)  # (tick, +/- amount)

    def issue(self, amount: int, timestamp: int) -> None:
        self.total_issued += amount
        self.events.append((timestamp, amount))

    def redeem(self, amount: int, timestamp: int) -> None:
        self.total_redeemed += amount
        self.events.append((timestamp, -amount))

    def net_at(self, at: int) -> int:
        return sum(amount for tick, amount in self.events if tick <= at)

    @property
    def net(self) -> int:
        return self.total_issued - self.total_redeemed


class ConservationVerdict(NamedTuple):
    holds: bool
    expected: int
    actual: int
    at: Optional[int] = None

    @property
    def discrepancy(self) -> int:
        return self.actual - self.expected


@dataclass(frozen=True)
class MHTRAttestation:
    """A signed statement: this is the client's latest reported root."""

    client_id: int
    mhtr: Digest
    signature: Signature

    def message(self) -> bytes:
        return u64(self.client_id) + self.mhtr


class CurrencyManager:
    """Single logical actor owning enrollment, supply, and balances."""

    def __init__(self, keystore: Optional[KeyStore] = None) -> None:
        self.keystore = keystore if keystore is not None else KeyStore()
        self.keystore.generate(MANAGER_ID)
        self.registry: set[int] = set()
        self.table = TemporalBalanceTable()
        self.supply = SupplyLedger()
        self._next_id = 1
        # the first six fields of every report past the sign check
        self._seen_reports: set[tuple] = set()
        self._parked: dict[int, list[BalanceReport]] = {}

    # ------------------------------------------------------------------
    # enrollment and registration

    def enroll(self, timestamp: int = 0) -> int:
        client_id = self._next_id
        self._next_id += 1
        self.registry.add(client_id)
        self.table.start(client_id, timestamp, remarks="Initial Balance")
        return client_id

    def _require(self, client_id: int) -> None:
        if client_id not in self.registry:
            raise UnknownClient(f"client {client_id} is not enrolled")

    def register_pair(self, a: int, b: int) -> None:
        """Check that both members of a new pair are enrolled."""
        self._require(a)
        self._require(b)

    # ------------------------------------------------------------------
    # supply

    def issue(self, client_id: int, amount: int, timestamp: int) -> None:
        """Check an issuance and book it on the supply ledger."""
        self._require(client_id)
        if amount <= 0:
            raise NonPositiveAmount(f"issue amount must be positive, got {amount}")
        self.supply.issue(amount, timestamp)

    def redeem(self, client_id: int, amount: int, timestamp: int) -> None:
        """Check a redemption against the open row and book it."""
        self._require(client_id)
        if amount <= 0:
            raise NonPositiveAmount(f"redeem amount must be positive, got {amount}")
        balance = self.table.open_row(client_id).valid_balance
        if amount > balance:
            raise InsufficientBalance(f"redeem {amount} exceeds balance {balance}")
        self.supply.redeem(amount, timestamp)

    # ------------------------------------------------------------------
    # balance reports

    def handle(self, sender, report, now: int) -> list:
        """Take one report at tick ``now``; return the line that logs it.

        A supply report logs ``issued`` or ``redeemed`` with its amount,
        plus ``status=`` when it did not apply at once; a transfer's
        report logs ``balance-report`` with its status.  One that
        ``report_balance`` refuses logs ``refuse``, or from a spent state
        gives a ``StaleProvenance`` alert instead.
        """
        if type(report) is not BalanceReport:
            raise UnknownTarget(f"cm cannot handle {type(report).__name__}")
        client_id = report.client_id
        try:
            status = self.report_balance(report)
        except StaleProvenance as exc:
            return [Alert(AlertKind.STALE_PROVENANCE, (client_id,), str(exc), now)]
        except DeltaMoneyError as exc:
            return [("refuse", f"client={client_id} reason={exc}")]
        if not report.supply:
            return [("balance-report", f"client={client_id} "
                     f"balance={report.new_balance} status={status}")]
        details = f"client={client_id} amount={abs(report.supply)}"
        if status != "applied":
            details += f" status={status}"
        return [("issued" if report.supply > 0 else "redeemed", details)]

    def report_balance(self, report: BalanceReport) -> str:
        """Apply a report that follows the open row, or park it until it does.

        Returns ``"applied"``, ``"parked"`` or ``"duplicate"``.

        A report citing a closed row raises ``StaleProvenance``; a negative
        balance, a client that is not enrolled or a failed supply check
        raises too, leaving the row alone.  A repeat is told by its first
        six fields, and they are kept before any check past the balance's
        sign can raise, so a repeat of a refused report is a duplicate, not
        a second refusal.
        """
        client_id = report.client_id
        if report.new_balance < 0:
            raise NegativeBalance(
                f"client {client_id} reported balance {report.new_balance}")
        seen = report[:6]
        if seen in self._seen_reports:
            return "duplicate"
        self._seen_reports.add(seen)
        self._require(client_id)
        prior_mhtr = report.prior_mhtr
        if prior_mhtr != self.table.open_row(client_id).provenance_mhtr:
            if prior_mhtr in self.table.closed_provenances(client_id):
                raise StaleProvenance(
                    f"client {client_id} reported from an already spent state"
                )
            self._parked.setdefault(client_id, []).append(report)
            return "parked"
        self._apply(report)
        if client_id in self._parked:
            self._drain_parked(client_id)
        return "applied"

    def _apply(self, report: BalanceReport) -> None:
        supply = report.supply
        remarks = "Transaction"
        if supply > 0:
            self.issue(report.client_id, supply, report.timestamp)
            remarks = "Issued"
        elif supply < 0:
            self.redeem(report.client_id, -supply, report.timestamp)
            remarks = "Redeemed"
        self.table.advance(
            report.client_id,
            report.timestamp,
            report.new_balance,
            report.mhtr,
            remarks=remarks,
        )

    def _drain_parked(self, client_id: int) -> None:
        """Apply the parked reports the client's chain has now reached.

        A parked report the supply checks refuse stays parked: the row it
        would follow cannot move past it, so it stalls only its own chain.
        """
        queue = self._parked.get(client_id)
        while queue:
            open_mhtr = self.table.open_row(client_id).provenance_mhtr
            ready = next((r for r in queue if r.prior_mhtr == open_mhtr), None)
            if ready is None:
                break
            try:
                self._apply(ready)
            except DeltaMoneyError:
                break
            queue.remove(ready)
        if not queue:
            self._parked.pop(client_id, None)

    def parked_count(self, client_id: Optional[int] = None) -> int:
        if client_id is None:
            return sum(len(q) for q in self._parked.values())
        return len(self._parked.get(client_id, []))

    def attest_mhtr(self, client_id: int) -> MHTRAttestation:
        """Sign the latest provenance root on file, for data clients."""
        row = self.table.open_row(client_id)
        unsigned = MHTRAttestation(client_id, row.provenance_mhtr, None)
        return MHTRAttestation(
            client_id, row.provenance_mhtr,
            self.keystore.sign(MANAGER_ID, unsigned.message()),
        )

    # ------------------------------------------------------------------
    # conservation

    def check_conservation(self, at: Optional[int] = None) -> ConservationVerdict:
        # re-summed from the rows on every audit, so a row edited in place
        # (a forged balance) shows up as a discrepancy
        if at is None:
            actual = sum(row.valid_balance for row in self.table.open_rows())
            expected = self.supply.net
        else:
            actual = 0
            for client_id in self.registry:
                row = self.table.row_at(client_id, at)
                if row is not None:
                    actual += row.valid_balance
            expected = self.supply.net_at(at)
        return ConservationVerdict(actual == expected, expected, actual, at)
