"""The paper's core contribution: index structures, enforcement, services."""

from .batch import batch_delete_parents, batch_insert_rows
from .engine_level import (
    EngineLevelEnforcement,
    StatePartitionedChildIndex,
    SubsetCountingParentIndex,
)
from .imputation_log import ImputationLog, ImputationRecord, ImputationReversalError

from .enforcement import EnforcedForeignKey
from .intelligent_query import AnswerRow, augmented_select, incompleteness_ratio, render_answer
from .intelligent_update import (
    DeletionOutcome,
    InsertionSuggestion,
    choose_first,
    choose_none,
    insertion_alternatives,
    intelligent_delete_method1,
    intelligent_delete_method2,
    intelligent_insert,
)
from .states import (
    State,
    apply_state,
    count_states,
    iter_null_states,
    is_substate,
    sargable_states_with_prefix_indexes,
    state_of,
    substates,
    total_state_count,
)
from .strategies import (
    ABLATION_STRUCTURES,
    PRIMARY_STRUCTURES,
    IndexStructure,
    apply_structure,
    index_count,
    index_definitions,
    remove_structure,
)

__all__ = [
    "batch_delete_parents",
    "batch_insert_rows",
    "EngineLevelEnforcement",
    "StatePartitionedChildIndex",
    "SubsetCountingParentIndex",
    "ImputationLog",
    "ImputationRecord",
    "ImputationReversalError",
    "EnforcedForeignKey",
    "AnswerRow",
    "augmented_select",
    "incompleteness_ratio",
    "render_answer",
    "DeletionOutcome",
    "InsertionSuggestion",
    "choose_first",
    "choose_none",
    "insertion_alternatives",
    "intelligent_delete_method1",
    "intelligent_delete_method2",
    "intelligent_insert",
    "State",
    "apply_state",
    "count_states",
    "iter_null_states",
    "is_substate",
    "sargable_states_with_prefix_indexes",
    "state_of",
    "substates",
    "total_state_count",
    "ABLATION_STRUCTURES",
    "PRIMARY_STRUCTURES",
    "IndexStructure",
    "apply_structure",
    "index_count",
    "index_definitions",
    "remove_structure",
]
