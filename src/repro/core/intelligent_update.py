"""The intelligent update service (paper §4).

Partial semantics is exploited as an imputation technique:

* **Intelligent insertion** (§4.1) — when a new child tuple carries null
  markers, every parent subsuming it yields a candidate completed tuple;
  the user picks the original or one of the completions.
* **Intelligent deletion** (§4.2) — when a parent is deleted, each of its
  partial children may have alternative parents; the service proposes
  updates that re-home those children, ranked by how many children each
  choice affects.  Two methods are implemented, following Algorithms 1
  and 2 of the paper; they differ in whether alternative parents are
  enumerated for *all* states up front (Method 1) or lazily per most-
  populated state (Method 2).

Both services are interactive in the paper (sqlkeys.info screenshots,
Figures 1–3); here the interaction is a *chooser* callback so the flow
can be driven by a console UI, a policy, or a test.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..constraints.foreign_key import ForeignKey
from ..nulls import NULL, impute, is_total
from ..query import dml, enforcement, executor
from ..query.predicate import equalities
from ..triggers.partial_ri import _suspended_parent_triggers
from .states import State, substates

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database
    from .imputation_log import ImputationLog


# ----------------------------------------------------------------------
# Intelligent insertion (§4.1)


@dataclass(frozen=True)
class InsertionSuggestion:
    """One completed alternative for a partial insert."""

    row: tuple[Any, ...]
    parent_key: tuple[Any, ...]
    imputed_columns: tuple[str, ...]

    def describe(self) -> str:
        cols = ", ".join(self.imputed_columns)
        return f"impute [{cols}] from parent {self.parent_key!r} -> {self.row!r}"


def insertion_alternatives(
    db: "Database",
    fk: ForeignKey,
    values: Sequence[Any],
    limit: int | None = None,
) -> list[InsertionSuggestion]:
    """All completed tuples a partial insert could become (§4.1).

    For each parent subsuming the new tuple's foreign-key value, the
    null components are replaced by the parent's key values.  A total
    tuple yields no suggestions (nothing to impute); ``limit`` caps the
    number of choices presented, one of the customisations §4.3 names.
    """
    table = db.table(fk.child_table)
    row = table.schema.validate_row(values)
    child_fk = fk.child_values(row)
    if is_total(child_fk) or all(v is NULL for v in child_fk):
        return []
    suggestions: list[InsertionSuggestion] = []
    imputed_cols = tuple(
        fk.fk_columns[i] for i, v in enumerate(child_fk) if v is NULL
    )
    predicate = fk.parent_match_predicate(child_fk)
    for __, parent_row in executor.iter_matching(db.table(fk.parent_table), predicate):
        parent_key = fk.parent_values(parent_row)
        completed_fk = impute(child_fk, parent_key)
        new_row = list(row)
        for position, value in zip(fk.fk_positions, completed_fk):
            new_row[position] = value
        suggestions.append(
            InsertionSuggestion(tuple(new_row), parent_key, imputed_cols)
        )
        if limit is not None and len(suggestions) >= limit:
            break
    return suggestions


def intelligent_insert(
    db: "Database",
    fk: ForeignKey,
    values: Sequence[Any],
    chooser: Callable[[list[InsertionSuggestion]], InsertionSuggestion | None] | None = None,
    limit: int | None = None,
    log: "ImputationLog | None" = None,
) -> int:
    """Insert *values*, offering imputation choices first (Figure 1).

    ``chooser`` receives the suggestions and returns one (to insert the
    completed tuple) or None (to keep the original partial tuple).  With
    no chooser the original tuple is inserted unchanged.
    """
    suggestions = insertion_alternatives(db, fk, values, limit)
    chosen = chooser(suggestions) if (chooser and suggestions) else None
    row = chosen.row if chosen is not None else tuple(values)
    rid = dml.insert(db, fk.child_table, row)
    if log is not None and chosen is not None:
        table = db.table(fk.child_table)
        original = table.schema.validate_row(values)
        log.record_imputed_row(
            fk, rid, original, chosen.row, chosen.parent_key,
            reason="intelligent insertion",
        )
    return rid


# ----------------------------------------------------------------------
# Intelligent deletion (§4.2): shared pieces


@dataclass
class DeletionOutcome:
    """What the intelligent deletion did, for logging/inspection (§4.3)."""

    parent_key: tuple[Any, ...]
    exact_children_actioned: int = 0
    imputed_children: int = 0
    actioned_children: int = 0
    #: Children whose imputation was skipped because the completed tuple
    #: would violate one of the child table's own keys (possible when the
    #: foreign-key columns overlap the child's candidate key, as with
    #: TPC-C's ORDERS).  They keep their partial value, which the chosen
    #: alternative parent still subsumes.
    skipped_children: int = 0
    choices: list[tuple[State, tuple[Any, ...] | None]] = field(default_factory=list)


#: A chooser: given the state and its alternative parents, return the
#: chosen parent key, or None to fall back to the referential action.
ParentChooser = Callable[[State, list[tuple[Any, ...]]], "tuple[Any, ...] | None"]


def choose_first(state: State, alternatives: list[tuple[Any, ...]]):
    """Policy: always impute from the first alternative parent."""
    return alternatives[0] if alternatives else None


def choose_none(state: State, alternatives: list[tuple[Any, ...]]):
    """Policy: never impute — behave like the plain enforcement trigger."""
    return None


def _children(
    db: "Database", fk: ForeignKey, parent_key: Sequence[Any], state: State
) -> list[int]:
    """Full read: the rids of the deleted key's children in *state*."""
    return executor.select_rids(
        db, fk.child_table, fk.child_state_predicate(parent_key, state)
    )


def _alternatives(
    db: "Database", fk: ForeignKey, state: State, values: Sequence[Any]
) -> list[tuple[Any, ...]]:
    """Full read: every parent key with *values* on *state*'s total columns."""
    columns = [fk.key_columns[i] for i in range(fk.n_columns) if i not in state]
    return [
        fk.parent_values(row)
        for __, row in executor.iter_matching(
            db.table(fk.parent_table), equalities(columns, values)
        )
    ]


def _settle(
    db: "Database",
    fk: ForeignKey,
    parent_key: Sequence[Any],
    state: State,
    alternatives: list[tuple[Any, ...]],
    chooser: ParentChooser,
    outcome: DeletionOutcome,
    log: "ImputationLog | None",
) -> None:
    """Settle one populated state: the chosen alternative subsumes its
    children; with none, or when the chooser declines, they receive the
    ON DELETE action (under RESTRICT / NO ACTION: a veto)."""
    chosen = chooser(state, alternatives) if alternatives else None
    outcome.choices.append((state, chosen))
    if chosen is None:
        outcome.actioned_children += enforcement.apply_action(
            db, fk, fk.child_state_predicate(parent_key, state), fk.on_delete
        )
    else:
        outcome.imputed_children += _subsume_children(
            db, fk, parent_key, state, chosen, outcome, log
        )


def _subsume_children(
    db: "Database",
    fk: ForeignKey,
    parent_key: Sequence[Any],
    state: State,
    chosen: Sequence[Any],
    outcome: "DeletionOutcome | None" = None,
    log: "ImputationLog | None" = None,
) -> int:
    """Impute the state's children (and compatible substates) from the
    chosen parent — the "Subsume all c = S_uj and c = S_m by p'" step.

    A completed tuple may violate one of the child table's own keys when
    the foreign-key columns overlap them; such children are skipped and
    keep their partial value (still subsumed by the chosen parent).
    """
    from ..errors import KeyViolation

    affected = 0
    child = db.table(fk.child_table)
    targets = [state] + [
        s for s in substates(state, fk.n_columns) if len(s) < fk.n_columns
    ]
    for target in targets:
        predicate = fk.child_state_predicate(parent_key, target)
        for rid, row in list(executor.iter_matching(child, predicate)):
            new_row = list(row)
            for i, position in enumerate(fk.fk_positions):
                if new_row[position] is NULL:
                    new_row[position] = chosen[i]
            try:
                dml.update_rid(db, fk.child_table, rid, new_row, row)
            except KeyViolation:
                if outcome is not None:
                    outcome.skipped_children += 1
                continue
            if log is not None:
                log.record_imputed_row(
                    fk, rid, row, new_row, chosen,
                    reason=f"deletion of parent {tuple(parent_key)!r}",
                )
            affected += 1
    return affected


# ----------------------------------------------------------------------
# Method 1 (Algorithm 1): enumerate alternatives for all states first.


def intelligent_delete_method1(
    db: "Database",
    fk: ForeignKey,
    parent_key: Sequence[Any],
    chooser: ParentChooser = choose_first,
    log: "ImputationLog | None" = None,
) -> DeletionOutcome:
    """Delete the parent with key *parent_key* using Method 1 (Figure 2).

    Algorithm 1: the referential action is applied to exact-match
    children; then alternative-parent sets Q[S] and affected-children
    counts are computed for *every* populated state; states are visited
    by descending affected count, the user (chooser) picks an
    alternative parent per state, and chosen parents subsume the state's
    children.  States without alternatives receive the referential
    action.  The whole deletion is one nested scope: a veto (RESTRICT /
    NO ACTION) or any failure brings the parent and its children back.
    """
    outcome = DeletionOutcome(parent_key=tuple(parent_key))
    with db.begin_nested():
        outcome.exact_children_actioned = _remove_parent(db, fk, parent_key)
        groups: list[tuple[int, State, list[tuple[Any, ...]]]] = []
        for state, values, alternative in enforcement.iter_populated_states(
            db, fk, parent_key
        ):
            alternatives = _alternatives(db, fk, state, values) if alternative else []
            count = len(_children(db, fk, parent_key, state))
            if alternatives:
                groups.append((-count, state, alternatives))
            else:
                _settle(db, fk, parent_key, state, [], chooser, outcome, log)

        # Rank by number of affected children, most first (the L / Max(l) loop).
        groups.sort(key=lambda group: group[:2])
        for __, state, alternatives in groups:
            # Re-collect: subsumption of a superstate may have absorbed rows.
            if _children(db, fk, parent_key, state):
                _settle(db, fk, parent_key, state, alternatives, chooser, outcome, log)
    return outcome


# ----------------------------------------------------------------------
# Method 2 (Algorithm 2): find children first, alternatives lazily.


def intelligent_delete_method2(
    db: "Database",
    fk: ForeignKey,
    parent_key: Sequence[Any],
    chooser: ParentChooser = choose_first,
    log: "ImputationLog | None" = None,
) -> DeletionOutcome:
    """Delete the parent with key *parent_key* using Method 2 (Figure 3).

    Algorithm 2: first count the deleted parent's children per state;
    repeatedly take the most-populated state, look up its alternative
    parents *then*, and either impute (user choice) or apply the
    referential action when no alternative exists.  One nested scope,
    as in Method 1.
    """
    outcome = DeletionOutcome(parent_key=tuple(parent_key))
    with db.begin_nested():
        outcome.exact_children_actioned = _remove_parent(db, fk, parent_key)
        found = {
            state: (len(_children(db, fk, parent_key, state)), values, alternative)
            for state, values, alternative in enforcement.iter_populated_states(
                db, fk, parent_key
            )
        }
        while found:
            state = max(found, key=lambda s: (found[s][0], tuple(-i for i in s)))
            __, values, alternative = found.pop(state)
            if not _children(db, fk, parent_key, state):
                continue  # absorbed by an earlier subsumption
            alternatives = _alternatives(db, fk, state, values) if alternative else []
            _settle(db, fk, parent_key, state, alternatives, chooser, outcome, log)
    return outcome


def _remove_parent(db: "Database", fk: ForeignKey, parent_key: Sequence[Any]) -> int:
    """Physically remove the parent row, bypassing the AFTER DELETE
    enforcement trigger — the intelligent service replaces it — and
    apply the action to its exact-match children; returns how many."""
    predicate = equalities(fk.key_columns, parent_key)
    rids = executor.select_rids(db, fk.parent_table, predicate, limit=1)
    if not rids:
        raise LookupError(f"no parent with key {parent_key!r}")
    with _suspended_parent_triggers(db, fk):
        dml.delete_rid(db, fk.parent_table, rids[0])
    return enforcement.apply_action(
        db, fk, fk.exact_child_predicate(parent_key), fk.on_delete
    )


