"""Property-based tests: enforcement equals the declarative definition.

The oracle is :func:`repro.constraints.checker.satisfies_partial_semantics`
— a direct, planner-free implementation of the paper's §3 definition.
Whatever random update sequence runs through the enforced engine, under
any index structure, the database must satisfy partial semantics at every
point, and the engine must accept/veto exactly what the definition says.
RESTRICT is checked against SET NULL on the same database: it vetoes
exactly the parent writes that SET NULL would answer by rewriting a child.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    ReferentialAction,
    ReferentialIntegrityViolation,
    RestrictViolation,
)
from repro.constraints import check_database, satisfies_partial_semantics
from repro.constraints.foreign_key import EnforcementMode
from repro.nulls import NULL, is_subsumed_by
from repro.query import dml
from repro.query.predicate import equalities
from repro.triggers import partial_ri

N = 3
VALUES = st.one_of(st.integers(0, 3), st.just(NULL))
CHILD_FK = st.tuples(VALUES, VALUES, VALUES)
PARENT_KEY = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))

STRUCTURES = st.sampled_from([
    IndexStructure.NO_INDEX,
    IndexStructure.FULL,
    IndexStructure.HYBRID,
    IndexStructure.BOUNDED,
    IndexStructure.POWERSET,
])


def build(structure, parent_keys, action=ReferentialAction.SET_NULL,
          native=False):
    """A MATCH PARTIAL key with *action* on delete and on update,
    enforced by the §6.1 triggers, or by the DML path when *native*."""
    db = Database()
    db.create_table("p", [Column(f"k{i}", nullable=False) for i in range(N)])
    db.create_table("c", [Column(f"f{i}") for i in range(N)])
    fk = ForeignKey("fk", "c", tuple(f"f{i}" for i in range(N)),
                    "p", tuple(f"k{i}" for i in range(N)),
                    match=MatchSemantics.PARTIAL,
                    on_delete=action, on_update=action)
    EnforcedForeignKey.create(db, fk, structure)
    if native:
        partial_ri.uninstall(db, fk)
        fk.enforcement = EnforcementMode.NATIVE
    for key in parent_keys:
        dml.insert(db, "p", key)
    return db, fk


@given(
    structure=STRUCTURES,
    parent_keys=st.lists(PARENT_KEY, min_size=1, max_size=8, unique=True),
    child_fks=st.lists(CHILD_FK, max_size=10),
)
@settings(max_examples=50, deadline=None)
def test_insert_accepts_iff_subsumed(structure, parent_keys, child_fks):
    db, fk = build(structure, parent_keys)
    for child in child_fks:
        should_accept = (
            all(v is NULL for v in child)
            or any(is_subsumed_by(child, p) for p in parent_keys)
        )
        try:
            dml.insert(db, "c", child)
            accepted = True
        except ReferentialIntegrityViolation:
            accepted = False
        assert accepted == should_accept, (child, parent_keys)
    assert satisfies_partial_semantics(db, fk)


@given(
    structure=STRUCTURES,
    parent_keys=st.lists(PARENT_KEY, min_size=2, max_size=8, unique=True),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_random_update_sequence_preserves_partial_semantics(
    structure, parent_keys, data
):
    db, fk = build(structure, parent_keys)
    # load children subsumed by random parents
    n_children = data.draw(st.integers(0, 8))
    for __ in range(n_children):
        parent = data.draw(st.sampled_from(parent_keys))
        mask = data.draw(st.tuples(*[st.booleans()] * N))
        child = tuple(NULL if m else v for m, v in zip(mask, parent))
        dml.insert(db, "c", child)
    assert satisfies_partial_semantics(db, fk)

    # random parent deletions; enforcement must repair or re-home
    n_deletes = data.draw(st.integers(0, len(parent_keys)))
    doomed = data.draw(
        st.lists(st.sampled_from(parent_keys), min_size=n_deletes,
                 max_size=n_deletes, unique=True)
    )
    for key in doomed:
        dml.delete_where(db, "p", equalities(fk.key_columns, key))
        assert satisfies_partial_semantics(db, fk)
    assert check_database(db) == []


@given(
    parent_keys=st.lists(PARENT_KEY, min_size=2, max_size=6, unique=True),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_structures_agree_on_final_state(parent_keys, data):
    """Index structures are a physical choice: every structure must leave
    byte-identical table contents after the same update sequence."""
    n_children = data.draw(st.integers(0, 6))
    children = []
    for __ in range(n_children):
        parent = data.draw(st.sampled_from(parent_keys))
        mask = data.draw(st.tuples(*[st.booleans()] * N))
        children.append(tuple(NULL if m else v for m, v in zip(mask, parent)))
    doomed = data.draw(
        st.lists(st.sampled_from(parent_keys), max_size=len(parent_keys),
                 unique=True)
    )

    outcomes = []
    for structure in (IndexStructure.NO_INDEX, IndexStructure.BOUNDED,
                      IndexStructure.HYBRID):
        db, fk = build(structure, parent_keys)
        for child in children:
            dml.insert(db, "c", child)
        for key in doomed:
            dml.delete_where(db, "p", equalities(fk.key_columns, key))
        outcomes.append((sorted(db.table("p").rows()),
                         sorted(db.table("c").rows(), key=repr)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def contents(db):
    return (sorted(db.table("p").rows()),
            sorted(db.table("c").rows(), key=repr))


@given(
    structure=STRUCTURES,
    native=st.booleans(),
    parent_keys=st.lists(PARENT_KEY, min_size=2, max_size=8, unique=True),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_restrict_vetoes_iff_set_null_would_act(
    structure, native, parent_keys, data
):
    """RESTRICT rejects a parent delete or key update exactly when SET
    NULL would change a child, and a rejected write changes nothing."""
    restrict, fk = build(structure, parent_keys, ReferentialAction.RESTRICT,
                         native)
    set_null, set_null_fk = build(structure, parent_keys,
                                  ReferentialAction.SET_NULL, native)
    for __ in range(data.draw(st.integers(0, 8))):
        parent = data.draw(st.sampled_from(parent_keys))
        mask = data.draw(st.tuples(*[st.booleans()] * N))
        child = tuple(NULL if m else v for m, v in zip(mask, parent))
        dml.insert(restrict, "c", child)
        dml.insert(set_null, "c", child)

    live = list(parent_keys)
    for __ in range(data.draw(st.integers(1, 4))):
        if not live:
            break
        key = data.draw(st.sampled_from(live))
        where = equalities(fk.key_columns, key)
        new_key = None
        if data.draw(st.booleans()):
            new_key = data.draw(PARENT_KEY.filter(lambda k: k not in live))

        def write(db):
            if new_key is None:
                dml.delete_where(db, "p", where)
            else:
                dml.update_where(db, "p", dict(zip(fk.key_columns, new_key)),
                                 where)

        before = contents(set_null)
        # SET NULL runs in a transaction, kept only when it did not act,
        # so that both databases stay equal.
        txn = set_null.begin()
        write(set_null)
        acted = contents(set_null)[1] != before[1]
        if acted:
            txn.rollback()
        else:
            txn.commit()
        try:
            write(restrict)
            vetoed = False
        except RestrictViolation:
            vetoed = True
        assert vetoed == acted, (key, new_key, before)
        assert contents(restrict) == contents(set_null)
        if vetoed:
            assert contents(restrict) == before
        else:
            live.remove(key)
            if new_key is not None:
                live.append(new_key)
    assert satisfies_partial_semantics(restrict, fk)
    assert satisfies_partial_semantics(set_null, set_null_fk)
