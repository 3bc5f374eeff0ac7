"""Exact analyses of finite games in product form.

Models couple a finite Nature set with finitely many agents, each holding
a partition of the full configuration space as its information.  On top of
that the package decides playability, checks perfect recall and partial
causality of orderings, transforms mixed strategies into behavioral ones
with the same closed-loop law, and certifies when a recall violation makes
such a transform impossible.  All arithmetic is exact.
"""

from .corpus import (
    alice_bob_nature,
    alice_bob_ordered,
    alice_bob_simultaneous,
    corpus_model,
    corpus_names,
    principal_agent_hidden_action,
    principal_agent_hidden_type,
    sequential_model,
    stackelberg,
    witsenhausen_noncausal,
)
from .fields import (
    Configuration,
    ConfigurationSpace,
    CoordinateSet,
    FiniteSet,
    Partition,
    SpaceMismatch,
    SpaceTooLarge,
    atom_of,
    build_space,
    complete_partition,
    cylinder_partition,
    iter_bits,
    partition_from_key,
    partition_join,
    partition_refines,
    subset_in_field,
    trace_partition,
    trivial_partition,
)
from .io import (
    AnalysisReport,
    ModelFormatError,
    emit_report,
    model_digest,
    parse_belief,
    parse_model,
    parse_ordering,
    parse_report,
    parse_strategy,
    serialize_belief,
    serialize_model,
    serialize_ordering,
    serialize_strategy,
)
from .kuhn import (
    ConditionalKernel,
    PushforwardDistribution,
    behavioral_pushforward,
    conditional_kernel,
    distributions_equal,
    expected_utility,
    kuhn_transform,
    pushforward,
    transform_preserves_law,
    validate_belief,
)
from .model import WModel
from .necessity import (
    NoWitness,
    NonEquivalenceCertificate,
    RecallViolation,
    build_witness,
    certify_nonequivalence,
    find_recall_violation,
    forced_support,
    verify_certificate,
)
from .playability import (
    PlayabilityError,
    PlayabilityReport,
    PlayabilityWitness,
    SolutionMapTable,
    check_playability,
    closed_loop_solutions,
    has_self_information,
    partial_solution_map,
    solution_map,
)
from .recall import (
    ConfigurationOrdering,
    FieldMembershipViolation,
    Ordering,
    OrderingSearch,
    RecallReport,
    SearchBudgetExhausted,
    causality_ground,
    check_partial_causality,
    check_perfect_recall,
    choice_partition,
    constant_ordering,
    enumerate_orderings,
    iter_causal_orderings,
    ordering_cell,
    prefix_cells,
    restrict_ordering,
    search_recall_ordering,
)
from .strategies import (
    BehavioralStrategy,
    MixedStrategy,
    PureStrategy,
    PureStrategyProfile,
    RationalDistribution,
    behavioral_to_mixed,
    constant_profile,
    deterministic_mixed,
    pure_profile,
    restrict_profile,
    validate_behavioral,
    validate_mixed,
)

__version__ = "0.1.0"
