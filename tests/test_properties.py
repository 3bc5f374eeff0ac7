"""Randomized invariants over generated models.

Every property draws a plain integer seed and rebuilds its inputs from a
local ``Random``, so a failure shrinks to one reproducible number.  The
per-test example counts are module constants so the acceptance suite can
total them.
"""

from fractions import Fraction
from itertools import islice, product
from random import Random

from hypothesis import given, settings, strategies as st

from wgames import (
    PureStrategyProfile,
    SearchBudgetExhausted,
    atom_of,
    behavioral_to_mixed,
    causality_ground,
    check_partial_causality,
    check_perfect_recall,
    check_playability,
    complete_partition,
    constant_ordering,
    deterministic_mixed,
    distributions_equal,
    enumerate_orderings,
    has_self_information,
    iter_causal_orderings,
    kuhn_transform,
    ordering_cell,
    parse_belief,
    parse_model,
    parse_ordering,
    parse_strategy,
    partial_solution_map,
    partition_join,
    partition_refines,
    pushforward,
    restrict_profile,
    search_recall_ordering,
    serialize_belief,
    serialize_model,
    serialize_ordering,
    serialize_strategy,
    solution_map,
    trivial_partition,
)

from generators import (
    config_tuple,
    oracle_mixed,
    random_behavioral,
    random_belief,
    random_causal_model,
    random_mixed,
    random_partition,
    random_partition_model,
    random_profile,
    to_oracle,
)
from oracles import behavioral_plans as definitional_plans
from oracles import pushforward as definitional_pushforward

LATTICE_EXAMPLES = 1000
SELF_INFORMATION_EXAMPLES = 1000
RECALL_CAUSALITY_EXAMPLES = 1000
PROJECTION_EXAMPLES = 1000
INVARIANCE_EXAMPLES = 1000
CELL_ANCHOR_EXAMPLES = 1000
SUBSTITUTION_EXAMPLES = 1000
KERNEL_EXPANSION_EXAMPLES = 1000

SOLVABLE_EXAMPLES = 150
POINT_MASS_EXAMPLES = 150
LAW_PRESERVATION_EXAMPLES = 60
ROUND_TRIP_EXAMPLES = 150
RESTRICT_MERGE_EXAMPLES = 150
MASS_EXAMPLES = 100
RECALL_SEARCH_EXAMPLES = 300

STRUCTURAL_SUITES = {
    "test_partition_join_is_a_lattice_operation": LATTICE_EXAMPLES,
    "test_playable_models_never_observe_their_own_action": SELF_INFORMATION_EXAMPLES,
    "test_perfect_recall_implies_partial_causality": RECALL_CAUSALITY_EXAMPLES,
    "test_solutions_project_back_through_their_strategies": PROJECTION_EXAMPLES,
    "test_bystanders_see_the_same_atom_after_a_deviation": INVARIANCE_EXAMPLES,
    "test_causal_cells_are_unions_of_anchored_ground_atoms": CELL_ANCHOR_EXAMPLES,
    "test_resampling_the_last_action_from_its_kernel_is_invisible": SUBSTITUTION_EXAMPLES,
    "test_kernel_expansion_matches_the_definitional_law": KERNEL_EXPANSION_EXAMPLES,
}

TOTAL_EXAMPLES = sum(STRUCTURAL_SUITES.values()) + (
    SOLVABLE_EXAMPLES
    + POINT_MASS_EXAMPLES
    + LAW_PRESERVATION_EXAMPLES
    + ROUND_TRIP_EXAMPLES
    + RESTRICT_MERGE_EXAMPLES
    + MASS_EXAMPLES
    + RECALL_SEARCH_EXAMPLES
)

seeds = st.integers(min_value=0, max_value=2**30)


def deterministic_split(model, profile):
    """One point-mass mixed strategy per player, covering the profile."""
    return [
        deterministic_mixed(name, restrict_profile(profile, members))
        for name, members in model.players
    ]


@settings(max_examples=LATTICE_EXAMPLES, deadline=None)
@given(seeds)
def test_partition_join_is_a_lattice_operation(seed):
    rng = Random(seed)
    space = random_partition_model(rng).space
    p = random_partition(rng, space, 4)
    q = random_partition(rng, space, 4)
    r = random_partition(rng, space, 4)

    assert partition_join(p, q).atoms == partition_join(q, p).atoms
    assert (
        partition_join(partition_join(p, q), r).atoms
        == partition_join(p, partition_join(q, r)).atoms
    )
    assert partition_join(p, p).atoms == p.atoms

    joined = partition_join(p, q)
    assert partition_refines(joined, p)
    assert partition_refines(joined, q)

    assert partition_refines(p, trivial_partition(space))
    assert partition_refines(complete_partition(space), p)
    if partition_refines(p, q) and partition_refines(q, p):
        assert p.atoms == q.atoms


@settings(max_examples=SOLVABLE_EXAMPLES, deadline=None)
@given(seeds)
def test_causal_construction_is_solvable_everywhere(seed):
    rng = Random(seed)
    model = random_causal_model(rng)
    assert has_self_information(model) is None

    table = solution_map(model, random_profile(rng, model))
    seen = set()
    for omega in model.nature.labels:
        solution = table.solution(omega)
        assert solution.nature == omega
        seen.add(solution)
    assert len(seen) == len(model.nature.labels)


@settings(max_examples=SELF_INFORMATION_EXAMPLES, deadline=None)
@given(seeds)
def test_playable_models_never_observe_their_own_action(seed):
    rng = Random(seed)
    model = random_partition_model(rng)
    if check_playability(model).playable:
        assert has_self_information(model) is None


@settings(max_examples=POINT_MASS_EXAMPLES, deadline=None)
@given(seeds)
def test_deterministic_pushforward_is_the_solution_point_mass(seed):
    rng = Random(seed)
    model = random_causal_model(rng)
    profile = random_profile(rng, model)
    nu = random_belief(rng, model)

    law = pushforward(model, nu, deterministic_split(model, profile))
    table = solution_map(model, profile)

    for omega in model.nature.labels:
        assert law.weight(table.solution(omega)) == nu.weight(omega)
    expected_support = {
        table.solution(omega)
        for omega in model.nature.labels
        if nu.weight(omega) > 0
    }
    assert set(law.support) == expected_support
    assert sum(law.weight(h) for h in law.support) == Fraction(1)


@settings(max_examples=RECALL_CAUSALITY_EXAMPLES, deadline=None)
@given(seeds)
def test_perfect_recall_implies_partial_causality(seed):
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
    search = search_recall_ordering(model, "P")
    if search.outcome != "found":
        return
    assert check_partial_causality(model, "P", search.ordering).holds


@settings(max_examples=RECALL_SEARCH_EXAMPLES, deadline=None)
@given(seeds)
def test_recall_search_yields_the_causal_sweeps_recall_orderings_in_order(seed):
    """The search for causal orderings with perfect recall claims whole
    information atoms where the causal sweep claims ground atoms, yet it
    meets the same orderings in the same order: a cell's splits come out in
    the lexicographic order of their configuration-to-agent map."""
    rng = Random(seed)
    if seed % 2:
        model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
    else:
        model = random_partition_model(rng)
    try:
        causal = list(iter_causal_orderings(model, "P", 20_000))
    except SearchBudgetExhausted:
        return
    found = list(iter_causal_orderings(model, "P", 20_000, recall=True))
    assert found == [phi for phi in causal if check_perfect_recall(model, "P", phi).holds]
    assert all(check_partial_causality(model, "P", phi).holds for phi in found)


@settings(max_examples=LAW_PRESERVATION_EXAMPLES, deadline=None)
@given(seeds)
def test_behavioral_substitution_preserves_the_law(seed):
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
    search = search_recall_ordering(model, "P")
    if search.outcome != "found":
        return

    nu = random_belief(rng, model)
    mixed_all = [random_mixed(rng, model, name) for name, _ in model.players]
    beta = kuhn_transform(model, "P", search.ordering, nu, mixed_all)

    substituted = [
        behavioral_to_mixed(model, beta) if mixed.player == "P" else mixed
        for mixed in mixed_all
    ]
    before = pushforward(model, nu, mixed_all)
    after = pushforward(model, nu, substituted)
    assert distributions_equal(before, after)


@settings(max_examples=PROJECTION_EXAMPLES, deadline=None)
@given(seeds)
def test_solutions_project_back_through_their_strategies(seed):
    """Pinning a subset of agents to their realized actions changes nothing.

    Each pinned coordinate must equal the strategy's choice at the atom the
    solution reaches, and re-solving with those coordinates held constant
    must reproduce the same configuration.  Two profiles that agree outside
    the subset and reach the same pinned coordinates solve identically.
    """
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
    profile = random_profile(rng, model)
    ids = [agent for agent, _ in model.agents]
    chosen = rng.sample(ids, rng.randint(1, len(ids)))
    rest = [agent for agent in ids if agent not in chosen]
    rest_profile = (
        restrict_profile(profile, rest) if rest else PureStrategyProfile(())
    )
    table = solution_map(model, profile)
    sibling = solution_map(
        model, random_profile(rng, model, chosen).merged_with(rest_profile)
    )

    for omega in model.nature.labels:
        solution = table.solution(omega)
        for agent in chosen:
            atom = atom_of(model.info_of(agent), solution)
            assert profile.strategy_of(agent).choice[atom] == solution.action(agent)

        pinned = {agent: solution.action(agent) for agent in chosen}
        assert partial_solution_map(model, pinned, rest_profile, omega) == solution

        other = sibling.solution(omega)
        if all(other.action(agent) == solution.action(agent) for agent in chosen):
            assert other == solution


@settings(max_examples=INVARIANCE_EXAMPLES, deadline=None)
@given(seeds)
def test_bystanders_see_the_same_atom_after_a_deviation(seed):
    """An agent's information atom is immune to its own strategy change.

    Swapping one agent's strategy moves the solution, but never across that
    agent's own information boundary: anything measurable in its partition
    reads the same on both solutions, at every Nature state.
    """
    rng = Random(seed)
    if seed % 2:
        model = random_partition_model(rng)
        if not check_playability(model).playable:
            return
    else:
        model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)

    ids = [agent for agent, _ in model.agents]
    agent = rng.choice(ids)
    others = [a for a in ids if a != agent]
    base = random_profile(rng, model)
    kept = restrict_profile(base, others) if others else PureStrategyProfile(())
    deviated = kept.merged_with(random_profile(rng, model, [agent]))

    info = model.info_of(agent)
    before = solution_map(model, base)
    after = solution_map(model, deviated)
    for omega in model.nature.labels:
        assert atom_of(info, before.solution(omega)) == atom_of(
            info, after.solution(omega)
        )


@settings(max_examples=CELL_ANCHOR_EXAMPLES, deadline=None)
@given(seeds)
def test_causal_cells_are_unions_of_anchored_ground_atoms(seed):
    """Under a causal ordering, cells decompose over the ground field.

    Fix a causal ordering and any sequence of the player's agents.  The
    set of configurations ordered along that sequence must be a union of
    ground atoms (Nature, opponents, and the earlier agents of the
    sequence), and each such atom must sit inside a single information
    atom of the sequence's last agent.  So a configuration that agrees
    with a member of the cell on everything the ground field sees is
    itself in the cell, and is seen identically by the last agent.
    """
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
    members = model.agents_of("P")
    try:
        orderings = list(islice(iter_causal_orderings(model, "P"), 2))
    except SearchBudgetExhausted:
        return
    for phi in orderings:
        for k in range(1, len(members) + 1):
            for kappa in enumerate_orderings(model, "P", k):
                cell = ordering_cell(model, phi, kappa)
                if cell == 0:
                    continue
                ground = causality_ground(model, "P", kappa.sequence[:-1])
                info = model.info_of(kappa.last)
                for g in ground.atoms:
                    piece = cell & g
                    if piece == 0:
                        continue
                    assert piece == g
                    member = piece.bit_length() - 1
                    watched = info.atoms[info.atom_index(member)]
                    assert g & ~watched == 0


@settings(max_examples=SUBSTITUTION_EXAMPLES, deadline=None)
@given(seeds)
def test_resampling_the_last_action_from_its_kernel_is_invisible(seed):
    """On its cell, the last agent's action may be redrawn from its kernel.

    Exact finite-sum form, per Nature state: restrict the closed-loop law
    to the configurations ordered along a sequence of the focus player's
    agents, and record the actions along that sequence.  Replacing the
    last record with an independent draw from the realization-equivalent
    kernel at the reached atom leaves the weighted action counts unchanged.
    Requires an ordering with perfect recall.
    """
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
    search = search_recall_ordering(model, "P")
    if search.outcome != "found":
        return
    phi = search.ordering
    nu = random_belief(rng, model)
    mixed_all = [random_mixed(rng, model, name) for name, _ in model.players]
    beta = kuhn_transform(model, "P", phi, nu, mixed_all)

    tables = []
    for draws in product(*(m.support for m in mixed_all)):
        weight = Fraction(1)
        merged = PureStrategyProfile(())
        for sub, w in draws:
            weight *= w
            merged = merged.merged_with(sub)
        tables.append((solution_map(model, merged), weight))

    members = model.agents_of("P")
    for k in range(1, len(members) + 1):
        for kappa in enumerate_orderings(model, "P", k):
            cell = ordering_cell(model, phi, kappa)
            info = model.info_of(kappa.last)
            direct: dict = {}
            resampled: dict = {}
            for omega in model.nature.labels:
                base = nu.weight(omega)
                if base == 0:
                    continue
                for table, w in tables:
                    solution = table.solution(omega)
                    if not (cell >> solution.index) & 1:
                        continue
                    mass = base * w
                    record = tuple(solution.action(a) for a in kappa.sequence)
                    key = (omega, record)
                    direct[key] = direct.get(key, Fraction(0)) + mass
                    kernel = beta.kernel(kappa.last, atom_of(info, solution))
                    for action, p in kernel.as_map().items():
                        key = (omega, record[:-1] + (action,))
                        resampled[key] = resampled.get(key, Fraction(0)) + mass * p
            assert {k: v for k, v in direct.items() if v} == {
                k: v for k, v in resampled.items() if v
            }


@settings(max_examples=KERNEL_EXPANSION_EXAMPLES, deadline=None)
@given(seeds)
def test_kernel_expansion_matches_the_definitional_law(seed):
    """behavioral_to_mixed agrees with expanding the kernels by hand."""
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
    nu = random_belief(rng, model)
    beta = random_behavioral(rng, model, "P")
    mixed_by_name = {
        name: (
            behavioral_to_mixed(model, beta)
            if name == "P"
            else random_mixed(rng, model, name)
        )
        for name, _ in model.players
    }
    law = pushforward(model, nu, list(mixed_by_name.values()))

    oracle = to_oracle(model)
    spread = {
        agent: {
            atom: dict(beta.kernel(agent, k).as_map())
            for k, atom in enumerate(oracle["info"][agent])
        }
        for agent in model.agents_of("P")
    }
    expanded = {
        name: (
            list(definitional_plans(oracle, list(members), spread))
            if name == "P"
            else oracle_mixed(model, oracle, mixed_by_name[name])
        )
        for name, members in model.players
    }
    want = definitional_pushforward(
        oracle, {w: nu.weight(w) for w in model.nature.labels}, expanded
    )
    got = {config_tuple(model, h.index): law.weight(h) for h in law.support}
    assert got == want


@settings(max_examples=ROUND_TRIP_EXAMPLES, deadline=None)
@given(seeds)
def test_wire_formats_round_trip(seed):
    rng = Random(seed)
    model = random_causal_model(rng)

    text = serialize_model(model)
    assert serialize_model(parse_model(text)) == text

    mixed = random_mixed(rng, model, "P")
    blob = serialize_strategy(mixed)
    assert serialize_strategy(parse_strategy(blob, model)) == blob

    nu = random_belief(rng, model)
    blob = serialize_belief(nu)
    assert serialize_belief(parse_belief(blob, model)) == blob

    members = model.agents_of("P")
    phi = constant_ordering(model, "P", tuple(rng.sample(members, len(members))))
    blob = serialize_ordering(phi, model)
    assert serialize_ordering(parse_ordering(blob, model), model) == blob


@settings(max_examples=RESTRICT_MERGE_EXAMPLES, deadline=None)
@given(seeds)
def test_restricting_then_merging_recovers_the_profile(seed):
    rng = Random(seed)
    model = random_causal_model(rng)
    profile = random_profile(rng, model)
    ids = [agent for agent, _ in model.agents]
    if len(ids) < 2:
        return
    cut = rng.randint(1, len(ids) - 1)
    rng.shuffle(ids)
    left = restrict_profile(profile, ids[:cut])
    right = restrict_profile(profile, ids[cut:])
    assert left.merged_with(right).strategies == profile.strategies


@settings(max_examples=MASS_EXAMPLES, deadline=None)
@given(seeds)
def test_pushforward_is_a_probability_on_reachable_outcomes(seed):
    rng = Random(seed)
    model = random_causal_model(rng)
    nu = random_belief(rng, model)
    mixed_all = [random_mixed(rng, model, name) for name, _ in model.players]

    law = pushforward(model, nu, mixed_all)
    total = Fraction(0)
    for h in law.support:
        weight = law.weight(h)
        assert weight > 0
        assert nu.weight(h.nature) > 0
        total += weight
    assert total == Fraction(1)
