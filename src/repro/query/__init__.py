"""Query layer: predicates, planning, execution, DML, transactions."""

from .explain import explain, explain_path
from .planner import AccessPath, plan
from .predicate import (
    ALWAYS,
    And,
    Cmp,
    Eq,
    IsNotNull,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
    equalities,
)
from .transaction import Savepoint, Transaction

__all__ = [
    "explain",
    "explain_path",
    "AccessPath",
    "plan",
    "ALWAYS",
    "And",
    "Cmp",
    "Eq",
    "IsNotNull",
    "IsNull",
    "Not",
    "Or",
    "Predicate",
    "TruePredicate",
    "equalities",
    "Savepoint",
    "Transaction",
]
