"""Exception types raised across the engine.

Every protocol-level refusal has its own class so callers (and the fault
matrix in the simulator) can match on the exact condition.
"""


class DeltaMoneyError(Exception):
    """Base class for all engine errors."""


# hashing / signatures

class EmptyPayload(DeltaMoneyError):
    pass


class NegativeBalance(DeltaMoneyError):
    pass


class UnknownKey(DeltaMoneyError):
    pass


class BadSignature(DeltaMoneyError):
    pass


# merkle trees

class EmptyTree(DeltaMoneyError):
    pass


class IndexOutOfRange(DeltaMoneyError):
    pass


# peer ledger

class NonPositiveAmount(DeltaMoneyError):
    pass


class InsufficientBalance(DeltaMoneyError):
    pass


class LimitExceeded(DeltaMoneyError):
    pass


class NotRegisteredPeers(DeltaMoneyError):
    pass


class WrongAddressee(DeltaMoneyError):
    pass


class NonMonotonicSequence(DeltaMoneyError):
    pass


class CommitmentMismatch(DeltaMoneyError, ValueError):
    """A party's plaintext balance does not open its commitment in a record."""


class MalformedRecord(DeltaMoneyError, ValueError):
    """A field or balance its encoding cannot hold, or one client on both sides."""


# balance tree

class NonMonotonicKey(DeltaMoneyError):
    pass


class InvertedRange(DeltaMoneyError):
    pass


# currency manager

class UnknownClient(DeltaMoneyError):
    pass


class StaleProvenance(DeltaMoneyError):
    """Reported prior balance provenance belongs to an already-spent state."""


class UnknownTransaction(DeltaMoneyError):
    pass


# integrity manager

class UnknownReporter(DeltaMoneyError):
    pass


class UnregisteredPair(DeltaMoneyError):
    pass


class NotQuiescent(DeltaMoneyError):
    pass


# client node

class PeerUnreachable(DeltaMoneyError):
    pass


class PartnerRootDisagreement(DeltaMoneyError):
    pass


class CorruptSnapshot(DeltaMoneyError):
    pass


# data client

class UnknownSubject(DeltaMoneyError):
    pass


class ScopeViolation(DeltaMoneyError):
    pass


# simulation harness

class ScenarioParseError(DeltaMoneyError):
    pass


class StepLimitExceeded(DeltaMoneyError):
    pass


class UnknownTarget(DeltaMoneyError):
    pass
