"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy mirrors the layers of the
engine: schema/catalog problems, storage problems, constraint violations
and trigger aborts.
"""

from __future__ import annotations

from typing import ClassVar


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A table schema or column definition is invalid or inconsistent."""


class CatalogError(ReproError):
    """A catalog operation referenced a missing or duplicate object."""


class StorageError(ReproError):
    """A low-level storage operation failed (bad rid, arity mismatch...)."""


class IndexError_(ReproError):
    """An index operation failed (named with a trailing underscore so we
    do not shadow the :class:`IndexError` builtin)."""


class QueryError(ReproError):
    """A query could not be planned or executed."""


class TransactionError(ReproError):
    """A transaction operation was used incorrectly (e.g. nested begin)."""


class TransactionStateError(TransactionError):
    """A new transaction was requested while one is already active on the
    same session; the message names the open transaction."""


class ConcurrencyError(ReproError):
    """Base class for multi-session locking failures."""


class DeadlockError(ConcurrencyError):
    """This transaction was chosen as the victim of a lock cycle.

    The waits-for deadlock detector aborts the youngest transaction in
    the cycle; the victim must roll back (releasing its locks) and may
    retry.  Retryable by design, like MySQL error 1213.
    """


class LockTimeoutError(ConcurrencyError):
    """A lock request exceeded its timeout.

    Raised instead of waiting forever when contention (or an undetected
    external cycle, e.g. through application-level resources) starves a
    request.  Retryable after rolling back, like MySQL error 1205.
    """


class SessionError(ConcurrencyError):
    """A session was used incorrectly (closed, wrong thread, ...)."""


class SerializationError(ConcurrencyError):
    """A foreign-key witness kept vanishing under its pin.

    Raised by the witness pin
    (:func:`repro.concurrency.hooks.verify_parent_exists`) when every
    parent it found was gone once its S-lock was granted, as many times
    as it may look again.  Retryable, like PostgreSQL error 40001; the
    server rolls the transaction back before it answers.
    """


class AnalysisError(ReproError):
    """A correctness-tooling check failed: the lockdep sanitizer found a
    potential deadlock or a locking-discipline violation
    (:func:`repro.analysis.lockdep.assert_clean`), or an analysis API was
    misused."""


class WalError(ReproError):
    """A write-ahead-log operation was used incorrectly (unknown
    transaction, recovery without a checkpoint...)."""


class TransientFault(ReproError):
    """An injected transient failure (the fault-injection analogue of a
    lock timeout or lost page write).  Retryable: callers are expected to
    roll back and retry under :func:`repro.testing.faults.retry_transient`."""


class SimulatedCrash(BaseException):
    """An injected crash: the process 'dies' at a fault point.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    that ``except Exception`` cleanup handlers along the unwind path do
    not run — a real crash gives in-memory state no chance to tidy up.
    Only the crash harness catches this; recovery then proceeds from the
    write-ahead log.
    """


class IntegrityError(ReproError):
    """Base class for integrity-constraint violations."""


class KeyViolation(IntegrityError):
    """A candidate/primary key would be violated by the attempted write."""


class ReferentialIntegrityViolation(IntegrityError):
    """A foreign key would be violated by the attempted write.

    Mirrors the SQL-state ``'02000'`` signal raised by the paper's
    generated triggers ("No reference is found, enter a valid value").
    """

    sqlstate: ClassVar[str] = "02000"


class RestrictViolation(IntegrityError):
    """A delete/update was rejected by a RESTRICT / NO ACTION referential
    action because referencing children exist."""


class TriggerAbort(ReproError):
    """A BEFORE trigger vetoed the triggering statement."""
