"""Unit tests for the intelligent update service (§4, Algorithms 1 & 2)."""

import pytest

from repro import (
    EnforcedForeignKey,
    IndexStructure,
    ReferentialAction,
    RestrictViolation,
    check_database,
)
from repro.core.intelligent_update import (
    choose_first,
    choose_none,
    insertion_alternatives,
    intelligent_delete_method1,
    intelligent_delete_method2,
    intelligent_insert,
)
from repro.nulls import NULL
from repro.query.predicate import Eq

from .conftest import make_tourism_db


def enforced(on_delete=ReferentialAction.SET_NULL):
    db, fk = make_tourism_db()
    fk.on_delete = on_delete
    efk = EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    return db, fk, efk


class TestInsertionAlternatives:
    def test_paper_example(self):
        """§4.1: (1011, RF, null) completes to (RF, BB) and (RF, OR)."""
        db, fk, __ = enforced()
        suggestions = insertion_alternatives(db, fk, (1011, "RF", NULL, "Oct 5"))
        completed = sorted(s.row for s in suggestions)
        assert completed == [
            (1011, "RF", "BB", "Oct 5"),
            (1011, "RF", "OR", "Oct 5"),
        ]
        assert all(s.imputed_columns == ("site_code",) for s in suggestions)

    def test_total_tuple_yields_nothing(self):
        db, fk, __ = enforced()
        assert insertion_alternatives(db, fk, (1, "BRT", "OR", "x")) == []

    def test_fully_null_yields_nothing(self):
        db, fk, __ = enforced()
        assert insertion_alternatives(db, fk, (1, NULL, NULL, "x")) == []

    def test_orphan_yields_nothing(self):
        db, fk, __ = enforced()
        assert insertion_alternatives(db, fk, (1, "BRF", NULL, "x")) == []

    def test_limit_caps_choices(self):
        db, fk, __ = enforced()
        suggestions = insertion_alternatives(db, fk, (1, "RF", NULL, "x"), limit=1)
        assert len(suggestions) == 1

    def test_describe(self):
        db, fk, __ = enforced()
        s = insertion_alternatives(db, fk, (1, "RF", NULL, "x"))[0]
        assert "impute" in s.describe()


class TestIntelligentInsert:
    def test_chooser_picks_completion(self):
        db, fk, __ = enforced()
        rid = intelligent_insert(
            db, fk, (1011, "RF", NULL, "Oct 5"),
            chooser=lambda suggestions: suggestions[0],
        )
        row = db.table("booking").get_row(rid)
        assert row[2] in ("BB", "OR")

    def test_chooser_declines(self):
        db, fk, __ = enforced()
        rid = intelligent_insert(
            db, fk, (1011, "RF", NULL, "Oct 5"),
            chooser=lambda suggestions: None,
        )
        assert db.table("booking").get_row(rid) == (1011, "RF", NULL, "Oct 5")

    def test_no_chooser_inserts_original(self):
        db, fk, __ = enforced()
        rid = intelligent_insert(db, fk, (1011, "RF", NULL, "Oct 5"))
        assert db.table("booking").get_row(rid)[2] is NULL


class TestIntelligentDeletion:
    def setup_case(self):
        """The §4.2 example: deleting (RF, OR) re-homes (1011, RF, null)."""
        db, fk, efk = enforced()
        db.insert("booking", (1011, "RF", NULL, "Oct 5"))
        return db, fk

    @pytest.mark.parametrize("method", [intelligent_delete_method1,
                                        intelligent_delete_method2])
    def test_paper_example_imputation(self, method):
        db, fk = self.setup_case()
        outcome = method(db, fk, ("RF", "OR"), chooser=choose_first)
        assert outcome.imputed_children == 1
        assert db.select("booking", Eq("visitor_id", 1011)) == [
            (1011, "RF", "BB", "Oct 5")
        ]
        assert check_database(db) == []

    @pytest.mark.parametrize("method", [intelligent_delete_method1,
                                        intelligent_delete_method2])
    def test_choose_none_falls_back_to_action(self, method):
        db, fk = self.setup_case()
        outcome = method(db, fk, ("RF", "OR"), chooser=choose_none)
        assert outcome.imputed_children == 0
        # the child keeps its value: an alternative parent still exists,
        # so partial semantics holds and the action is not forced
        assert check_database(db) == []

    @pytest.mark.parametrize("method", [intelligent_delete_method1,
                                        intelligent_delete_method2])
    def test_declined_state_under_restrict_vetoes(self, method):
        """Declining the alternative falls back to the action; under
        RESTRICT that vetoes, and the parent comes back."""
        db, fk, __ = enforced(on_delete=ReferentialAction.RESTRICT)
        db.insert("booking", (1011, "RF", NULL, "Oct 5"))
        parents, children = db.select("tour"), db.select("booking")
        with pytest.raises(RestrictViolation):
            method(db, fk, ("RF", "OR"), chooser=choose_none)
        assert db.select("tour") == parents
        assert db.select("booking") == children
        assert check_database(db) == []

    @pytest.mark.parametrize("method", [intelligent_delete_method1,
                                        intelligent_delete_method2])
    def test_no_alternative_applies_action(self, method):
        db, fk = self.setup_case()
        # remove the alternative parent first
        from repro.query.predicate import And

        db.delete_where("tour", And(Eq("tour_id", "RF"), Eq("site_code", "BB")))
        outcome = method(db, fk, ("RF", "OR"), chooser=choose_first)
        assert outcome.actioned_children == 1
        assert db.select("booking", Eq("visitor_id", 1011)) == [
            (1011, NULL, NULL, "Oct 5")
        ]

    @pytest.mark.parametrize("method", [intelligent_delete_method1,
                                        intelligent_delete_method2])
    def test_total_children_always_actioned(self, method):
        db, fk = self.setup_case()
        db.insert("booking", (1001, "RF", "OR", "Nov 1"))
        outcome = method(db, fk, ("RF", "OR"), chooser=choose_first)
        assert outcome.exact_children_actioned == 1
        rows = db.select("booking", Eq("visitor_id", 1001))
        assert rows == [(1001, NULL, NULL, "Nov 1")]

    def test_missing_parent_raises(self):
        db, fk = self.setup_case()
        with pytest.raises(LookupError):
            intelligent_delete_method1(db, fk, ("ZZ", "ZZ"))

    def test_chooser_receives_alternatives(self):
        db, fk = self.setup_case()
        seen = {}

        def chooser(state, alternatives):
            seen[state] = sorted(alternatives)
            return None

        intelligent_delete_method1(db, fk, ("RF", "OR"), chooser=chooser)
        assert seen == {(1,): [("RF", "BB")]}

    def test_method2_processes_largest_state_first(self):
        db, fk = self.setup_case()
        # two children in state (1,), one in state (0,): (null, OR)
        db.insert("booking", (1012, "RF", NULL, "Oct 6"))
        db.insert("booking", (1013, NULL, "OR", "Oct 7"))
        order = []

        def chooser(state, alternatives):
            order.append(state)
            return alternatives[0]

        intelligent_delete_method2(db, fk, ("RF", "OR"), chooser=chooser)
        assert order[0] == (1,)  # two affected children beats one
        assert check_database(db) == []

    def test_outcome_choices_recorded(self):
        db, fk = self.setup_case()
        outcome = intelligent_delete_method1(db, fk, ("RF", "OR"),
                                             chooser=choose_first)
        assert outcome.choices == [((1,), ("RF", "BB"))]
        assert outcome.parent_key == ("RF", "OR")
