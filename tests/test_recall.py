"""Perfect recall and partial causality, checked and searched.

The two-agent fixtures pin down the published behavior: with no
observations at all no ordering gives the team perfect recall, while the
ordered and coin-toss variants both recall perfectly along the constant
(bob, alice) ordering.
"""

import gc
import hashlib
import time
import weakref
from itertools import islice, permutations
from random import Random

import pytest

from wgames import (
    ConfigurationOrdering,
    Ordering,
    SearchBudgetExhausted,
    causality_ground,
    check_partial_causality,
    check_perfect_recall,
    choice_partition,
    corpus_names,
    complete_partition,
    constant_ordering,
    corpus_model,
    enumerate_orderings,
    find_recall_violation,
    iter_bits,
    iter_causal_orderings,
    ordering_cell,
    prefix_cells,
    restrict_ordering,
    search_recall_ordering,
    sequential_model,
)
from wgames import cli
from wgames.io import model_digest, parse_model, serialize_model
from wgames.necessity import CASE_ACTION, CASE_INFORMATION
from wgames.recall import NodeBudget

from clirunner import CliRunner
from generators import (
    blind_last_model,
    config_tuple,
    deep_recall_model,
    forgetful_model,
    oracle_phi,
    random_causal_model,
    random_partition,
    random_partition_model,
    to_oracle,
    without_generators,
)
import oracles


def _mask_to_set(model, mask):
    return frozenset(
        config_tuple(model, i) for i in range(model.space.size) if (mask >> i) & 1
    )


def test_ordering_shapes():
    rho = Ordering("team", ("bob", "alice"))
    assert rho.first == "bob"
    assert rho.last == "alice"
    assert restrict_ordering(rho, 1).sequence == ("bob",)
    with pytest.raises(ValueError):
        Ordering("team", ())
    with pytest.raises(ValueError):
        Ordering("team", ("bob", "bob"))


def test_shared_ordering_objects_do_not_hide_a_bad_last_entry():
    # builders reuse one Ordering object per sequence; the distinct last
    # object must still be checked
    n = corpus_model("alice-bob-nature").space.size
    shared = Ordering("team", ("bob", "alice"))
    for last in (
        Ordering("team", ("bob",)),
        Ordering("team", ("bob", "carol")),
        Ordering("other", ("bob", "alice")),
    ):
        with pytest.raises(ValueError):
            ConfigurationOrdering.from_table("team", (shared,) * (n - 1) + (last,))
    equal = tuple(Ordering("team", ("bob", "alice")) for _ in range(n))
    assert ConfigurationOrdering.from_table("team", equal).is_constant
    mixed = (shared,) * (n - 1) + (Ordering("team", ("alice", "bob")),)
    assert not ConfigurationOrdering.from_table("team", mixed).is_constant


def test_configuration_ordering_cells_are_canonical():
    model = corpus_model("alice-bob-nature")
    ab = Ordering("team", ("alice", "bob"))
    ba = Ordering("team", ("bob", "alice"))
    full = model.space.full_mask
    # cells given in any order are held sorted by lowest configuration
    assert ConfigurationOrdering("team", ((ba, full & ~1), (ab, 1))) == ConfigurationOrdering(
        "team", ((ab, 1), (ba, full & ~1))
    )
    for cells in (
        ((ba, 0b11), (ba, full & ~0b11)),  # one ordering in two cells
        ((ab, 0b11), (ba, full & ~0b1)),  # overlapping cells
        ((ab, 0), (ba, full)),  # an empty cell
    ):
        with pytest.raises(ValueError):
            ConfigurationOrdering("team", cells)
    with pytest.raises(IndexError):
        constant_ordering(model, "team", ("bob", "alice")).at(model.space.size)


def test_enumerate_orderings_is_canonical():
    model = corpus_model("witsenhausen-noncausal")
    seqs = [k.sequence for k in enumerate_orderings(model, "system", 2)]
    assert seqs == [
        ("a", "b"),
        ("a", "c"),
        ("b", "a"),
        ("b", "c"),
        ("c", "a"),
        ("c", "b"),
    ]


def test_ordered_model_recalls_with_bob_first():
    model = corpus_model("alice-bob-ordered")
    phi = constant_ordering(model, "team", ("bob", "alice"))
    assert check_perfect_recall(model, "team", phi).holds
    # alice first cannot work: the (alice) cell is everything but alice
    # distinguishes nothing
    reversed_phi = constant_ordering(model, "team", ("alice", "bob"))
    report = check_perfect_recall(model, "team", reversed_phi)
    assert not report.holds
    assert report.violation.kappa.sequence in (("alice",), ("alice", "bob"), ("bob",))


def test_nature_model_recalls_with_bob_first():
    model = corpus_model("alice-bob-nature")
    phi = constant_ordering(model, "team", ("bob", "alice"))
    assert check_perfect_recall(model, "team", phi).holds


def test_simultaneous_model_has_no_recall_ordering():
    model = corpus_model("alice-bob-simultaneous")
    result = search_recall_ordering(model, "team")
    assert result.outcome == "none"
    assert result.ordering is None

    # the oracle agrees: every one of the 16 ordering maps fails
    oracle = to_oracle(model)
    for phi in oracles.all_orderings_maps(oracle, ["alice", "bob"]):
        assert oracles.recall_fails(oracle, ["alice", "bob"], phi) is not None


def test_search_finds_the_published_orderings():
    for name in ("alice-bob-ordered", "alice-bob-nature"):
        model = corpus_model(name)
        result = search_recall_ordering(model, "team")
        assert result.outcome == "found"
        assert result.ordering.is_constant
        assert result.ordering.at(0).sequence == ("bob", "alice")


def test_search_budget_exhaustion_is_unknown():
    model = corpus_model("alice-bob-simultaneous")
    result = search_recall_ordering(model, "team", budget=1)
    assert result.outcome == "unknown"
    assert result.ordering is None


def test_deep_recall_search_node_counts():
    """The general search's node counts on the model no constant ordering
    serves: found in 6,935 nodes with three silent agents, and out of the
    default 200,000 with four."""
    found = search_recall_ordering(deep_recall_model(3), "P")
    assert (found.outcome, found.nodes) == ("found", 6935)
    assert not found.ordering.is_constant
    assert check_perfect_recall(deep_recall_model(3), "P", found.ordering).holds
    unknown = search_recall_ordering(deep_recall_model(4), "P")
    assert (unknown.outcome, unknown.nodes) == ("unknown", 200_000)


def _first_orderings(model, player, recall, count=3):
    """Cells of the first ``count`` orderings of one causal sweep, then the
    nodes it spent (or "unknown" when the budget ran out)."""
    budget, found = NodeBudget(20_000), []
    try:
        for phi in islice(iter_causal_orderings(model, player, budget, recall=recall), count):
            found.append(repr(phi.cells))
    except SearchBudgetExhausted:
        return found, "unknown"
    return found, budget.spent


# sha256 over random_partition_model seeds 0-299, every player: the recall
# search's (outcome, nodes) and the first three orderings of the causal
# sweep without and with recall
SEARCH_DIGEST = "48627c6e21833d8004a24a2fea7d416f93eab0cc6d655d98068b55fdde4b4c22"


def test_searches_are_pinned_on_random_partition_models():
    """Node counts and the orderings met, in order, of all three search
    modes; a change to the search that keeps every report must keep this."""
    h = hashlib.sha256()
    for seed in range(300):
        model = random_partition_model(Random(seed))
        for player in model.player_names:
            r = search_recall_ordering(model, player, 20_000)
            sweeps = [_first_orderings(model, player, recall) for recall in (False, True)]
            h.update(repr((seed, player, r.outcome, r.nodes, sweeps)).encode())
    assert h.hexdigest() == SEARCH_DIGEST


def test_violation_subset_fails_oracle_membership():
    model = corpus_model("alice-bob-ordered")
    phi = constant_ordering(model, "team", ("alice", "bob"))
    report = check_perfect_recall(model, "team", phi)
    assert not report.holds
    v = report.violation
    oracle = to_oracle(model)
    subset = _mask_to_set(model, v.subset)
    last_atoms = oracle["info"][v.kappa.last]
    assert not oracles.in_field(subset, last_atoms)


def test_cells_match_oracle():
    model = corpus_model("alice-bob-nature")
    phi = constant_ordering(model, "team", ("bob", "alice"))
    oracle = to_oracle(model)
    omap = oracle_phi(model, phi)
    for k in (1, 2):
        for kappa in enumerate_orderings(model, "team", k):
            mine = _mask_to_set(model, ordering_cell(model, phi, kappa))
            ref = oracles.cell(oracle, omap, kappa.sequence)
            assert mine == ref


def test_choice_partition_matches_oracle():
    model = corpus_model("alice-bob-nature")
    oracle = to_oracle(model)
    for agents in (("alice",), ("bob",), ("alice", "bob")):
        mine = {
            _mask_to_set(model, atom)
            for atom in choice_partition(model, agents).atoms
        }
        ref = set(oracles.choice_field_atoms(oracle, list(agents)))
        assert mine == ref


def test_fields_are_built_once_per_model():
    model = sequential_model(4)
    first = choice_partition(model, ("t3", "t1", "t2"))
    assert choice_partition(model, ("t1", "t2", "t3")) is first
    assert choice_partition(model, ["t2", "t3", "t1"]) is first
    ground = causality_ground(model, "dm", ("t2", "t1"))
    assert causality_ground(model, "dm", ("t1", "t2")) is ground
    assert causality_ground(model, "dm", ["t2", "t1"]) is ground

    twin = sequential_model(4)  # equal, but a model of its own
    assert twin == model and twin is not model
    for build in (
        lambda m: choice_partition(m, ("t1", "t2")),
        lambda m: causality_ground(m, "dm", ("t1",)),
    ):
        mine, theirs = build(model), build(twin)
        assert mine == theirs and mine is not theirs


def test_grounds_along_the_identity_are_the_information_fields():
    """In ``sequential-6`` agent t(k+1) observes Nature and t1..tk, so the
    ground of the prefix t1..tk and the choice field of t1..tk are the
    cylinder t(k+1) already holds: the model's table hands out that field."""
    model = sequential_model(6)
    ids = model.agents_of("dm")
    for k, agent in enumerate(ids):
        assert causality_ground(model, "dm", ids[:k]) is model.info_of(agent)
        if k:
            assert choice_partition(model, ids[:k]) is model.info_of(agent)


def test_analysed_model_is_freed_with_its_fields():
    model = sequential_model(4)
    player = "dm"
    assert search_recall_ordering(model, player).outcome == "found"
    phi = constant_ordering(model, player, model.agents_of(player))
    assert check_partial_causality(model, player, phi).holds
    assert len(list(iter_causal_orderings(model, player))) == 1
    assert find_recall_violation(model, player, phi) is None
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_causality_of_constant_orderings():
    model = corpus_model("alice-bob-ordered")
    bob_first = constant_ordering(model, "team", ("bob", "alice"))
    assert check_partial_causality(model, "team", bob_first).holds
    alice_first = constant_ordering(model, "team", ("alice", "bob"))
    report = check_partial_causality(model, "team", alice_first)
    # alice moves first but reacts to bob: not causal
    assert not report.holds


def test_noncausal_model_has_no_causal_ordering():
    model = corpus_model("witsenhausen-noncausal")
    assert list(iter_causal_orderings(model, "system")) == []


def test_iter_causal_orderings_budget():
    model = corpus_model("witsenhausen-noncausal")
    with pytest.raises(SearchBudgetExhausted):
        list(iter_causal_orderings(model, "system", budget=1))


def test_recall_and_causality_match_oracle_on_random_micro_models():
    rng = Random(20260816)
    checked = 0
    for _ in range(90):
        model = random_partition_model(rng, max_nature=2, max_agents=2, max_actions=2)
        player = model.player_names[0]
        own = model.agents_of(player)
        oracle = to_oracle(model)
        for kappa in enumerate_orderings(model, player, len(own)):
            phi = constant_ordering(model, player, kappa.sequence)
            omap = oracle_phi(model, phi)
            mine_recall = check_perfect_recall(model, player, phi).holds
            ref_recall = oracles.recall_fails(oracle, list(own), omap) is None
            assert mine_recall == ref_recall
            mine_causal = check_partial_causality(model, player, phi).holds
            ref_causal = oracles.causality_fails(oracle, list(own), omap) is None
            assert mine_causal == ref_causal
            checked += 1
    assert checked >= 100


def test_nonconstant_ordering_cells():
    # a two-agent model where the assigned ordering depends on the configuration
    model = corpus_model("alice-bob-simultaneous")
    ab = Ordering("team", ("alice", "bob"))
    ba = Ordering("team", ("bob", "alice"))
    table = tuple(ab if i < 2 else ba for i in range(model.space.size))
    phi = ConfigurationOrdering.from_table("team", table)
    assert not phi.is_constant
    cell_a = ordering_cell(model, phi, Ordering("team", ("alice",)))
    assert cell_a == 0b0011
    cell_b = ordering_cell(model, phi, Ordering("team", ("bob",)))
    assert cell_b == 0b1100


# ── every prefix against the shared scan, on non-constant orderings ─────


def _every_nonempty_prefix(model, player, phi, start):
    """Reference walk: every injective sequence, cells by a scan of H."""
    for k in range(start, len(model.agents_of(player)) + 1):
        for kappa in enumerate_orderings(model, player, k):
            cell = ordering_cell(model, phi, kappa)
            if cell:
                yield kappa, cell


def _first_cut(kappa, cell, blocks, field):
    for block in blocks:
        piece = cell & block
        for atom in field.atoms:
            if piece and atom & piece not in (0, atom):
                return (kappa, block, piece, atom)
    return None


def _reference_recall(model, player, phi):
    for kappa, cell in _every_nonempty_prefix(model, player, phi, 1):
        if len(kappa) == 1:
            blocks = (model.space.full_mask,)
        else:
            blocks = choice_partition(model, kappa.sequence[:-1]).atoms
        cut = _first_cut(kappa, cell, blocks, model.info_of(kappa.last))
        if cut:
            return cut
    return None


def _reference_causality(model, player, phi):
    for kappa, cell in _every_nonempty_prefix(model, player, phi, 1):
        ground = causality_ground(model, player, kappa.sequence[:-1])
        cut = _first_cut(kappa, cell, model.info_of(kappa.last).atoms, ground)
        if cut:
            return cut
    return None


def _reference_violation(model, player, phi):
    """First differing pair per prefix; an action difference anywhere in
    the cell beats the first information-only pair."""

    def record(preds, i):
        h = model.space.config(i)
        return [(model.info_of(a).atom_index(i), h.action(a)) for a in preds]

    for kappa, cell in _every_nonempty_prefix(model, player, phi, 2):
        preds = kappa.sequence[:-1]
        pairs = []
        for atom in model.info_of(kappa.last).atoms:
            members = list(iter_bits(cell & atom))
            for x, i in enumerate(members):
                for j in members[x + 1 :]:
                    ri, rj = record(preds, i), record(preds, j)
                    if ri != rj:
                        differ = any(p[1] != q[1] for p, q in zip(ri, rj))
                        pairs.append((differ, i, j))
        for differ, i, j in pairs:
            if differ:
                return (kappa, i, j, CASE_ACTION)
        if pairs:
            return (kappa, pairs[0][1], pairs[0][2], CASE_INFORMATION)
    return None


def _field_report(report):
    v = report.violation
    assert report.holds == (v is None)
    return None if v is None else (v.kappa, v.conditioning_atom, v.subset, v.offending_atom)


def _nonconstant_cases(rng, count):
    """(model, player, phi) with two or more agents in the player and a
    non-constant ordering, from three sources in turn: one random order
    per atom of a random partition; the same where the player's agents see
    the whole configuration, so recall holds; and the non-constant
    partially causal orderings of random causal models."""
    cases = []
    while len(cases) < count:
        source = len(cases) % 3
        if source == 2:
            model = random_causal_model(rng)
        else:
            model = random_partition_model(rng, max_agents=4, max_atoms=3)
        player = model.player_names[0]
        own = model.agents_of(player)
        if len(own) < 2:
            continue
        if source == 2:
            try:
                found = list(islice(iter_causal_orderings(model, player, 20_000), 4))
            except SearchBudgetExhausted:
                continue
        else:
            if source == 1:
                sees_all = complete_partition(model.space)
                info = tuple(
                    (a, sees_all if a in own else part) for a, part in model.information
                )
                model = model.replace(information=info)
            table = [None] * model.space.size
            for atom in random_partition(rng, model.space, 4).atoms:
                rho = Ordering(player, tuple(rng.sample(own, len(own))))
                for i in iter_bits(atom):
                    table[i] = rho
            found = [ConfigurationOrdering.from_table(player, tuple(table))]
        cases += [(model, player, phi) for phi in found if not phi.is_constant][:1]
    return cases


def test_prefix_checks_match_every_prefix_walk_on_nonconstant_orderings():
    failures = {"recall": 0, "causality": 0, "violation": 0}
    tags = set()
    for model, player, phi in _nonconstant_cases(Random(7), 300):
        for start in (1, 2):
            assert list(prefix_cells(model, player, phi, start)) == list(
                _every_nonempty_prefix(model, player, phi, start)
            )

        recall = _field_report(check_perfect_recall(model, player, phi))
        assert recall == _reference_recall(model, player, phi)
        causal = _field_report(check_partial_causality(model, player, phi))
        assert causal == _reference_causality(model, player, phi)
        v = find_recall_violation(model, player, phi)
        mine = None if v is None else (v.ordering, v.h_plus.index, v.h_minus.index, v.case)
        assert mine == _reference_violation(model, player, phi)

        failures["recall"] += recall is not None
        failures["causality"] += causal is not None
        failures["violation"] += v is not None
        tags.add(None if v is None else v.case)
    # the sample exercises both verdicts of every check and both case tags
    assert all(20 <= n <= 280 for n in failures.values()), failures
    assert tags == {None, CASE_ACTION, CASE_INFORMATION}


def test_sequential_12_search_finds_the_declared_order_within_budget():
    model = sequential_model(12)
    start = time.perf_counter()
    result = search_recall_ordering(model, "dm")
    elapsed = time.perf_counter() - start
    assert result.outcome == "found" and result.nodes == 1
    assert result.ordering == constant_ordering(model, "dm", model.agents_of("dm"))
    assert elapsed < 3.0, f"sequential-12 search took {elapsed:.2f}s"


def test_recall_paths_build_no_information_atom_masks(tmp_path, monkeypatch):
    """A partition is its atom-id column: the digest, the three prefix
    checks along the identity and ``recall --search`` on the exported
    sequential-7 model pass without building one information atom mask."""
    text = CliRunner().invoke(cli.main, ["examples", "export", "sequential-7"]).stdout
    model = parse_model(text)
    model_digest(model)
    phi = constant_ordering(model, "dm", model.agents_of("dm"))
    assert check_perfect_recall(model, "dm", phi).holds
    assert check_partial_causality(model, "dm", phi).holds
    assert find_recall_violation(model, "dm", phi) is None
    parsed = [model]
    monkeypatch.setattr(cli, "parse_model", lambda text: parsed.append(parse_model(text)) or parsed[-1])
    path = tmp_path / "sequential-7.json"
    path.write_text(text)
    result = CliRunner().invoke(cli.main, ["recall", str(path), "--player", "dm", "--search"])
    assert result.exit_code == 0 and len(parsed) == 2
    for m in parsed:
        assert [a for a, part in m.information if "_atoms" in vars(part)] == []
    assert model.info_of("t1").atoms  # the masks are still there to read
    assert "_atoms" in vars(model.info_of("t1"))


def _first_causal_orderings(model, player, recall):
    try:
        return list(islice(iter_causal_orderings(model, player, 20_000, recall=recall), 3))
    except SearchBudgetExhausted:
        return "unknown"


def _recall_answers(model):
    """Every check along every constant ordering, the recall search and the
    first causal orderings, for every player of ``model``."""
    answers = []
    for player in model.player_names:
        for sequence in permutations(model.agents_of(player)):
            phi = constant_ordering(model, player, sequence)
            answers += [check_perfect_recall(model, player, phi), check_partial_causality(model, player, phi)]
            answers.append(find_recall_violation(model, player, phi))
        found = search_recall_ordering(model, player, 20_000)
        answers += [(found.outcome, found.nodes, found.ordering)]
        answers += [_first_causal_orderings(model, player, recall) for recall in (False, True)]
    return answers


@pytest.mark.parametrize("seeds", [range(0, 150), range(150, 300)])
def test_coordinate_sets_and_counting_give_the_same_answers_on_random_models(seeds):
    """Fields with generators decide refinement from coordinate sets; the
    same model with its fields rebuilt from labels counts.  Every check,
    search and sweep answers the same, node counts included."""
    for seed in seeds:
        model = random_causal_model(Random(seed))
        stripped = without_generators(model)
        assert all(p.generators is not None for _, p in model.information)
        assert all(p.generators is None for _, p in stripped.information)
        assert _recall_answers(model) == _recall_answers(stripped), seed


def test_coordinate_sets_and_counting_give_the_same_answers_on_the_corpus():
    for name in corpus_names():
        model = corpus_model(name)
        assert _recall_answers(model) == _recall_answers(without_generators(model)), name


# ── what whole-space prefixes give, kept per model ──────────────────────


def _orderings_to_check(model, player):
    """The declared constant ordering, the same with its last two agents
    swapped and with its first two swapped (whose prefixes of length three
    and more have the agents and last agent of the declared one's), and
    the first multi-cell partially causal ordering, if any."""
    own = model.agents_of(player)
    orderings = [constant_ordering(model, player, own)]
    if len(own) >= 2:
        orderings.append(constant_ordering(model, player, own[:-2] + (own[-1], own[-2])))
    if len(own) >= 3:
        orderings.append(constant_ordering(model, player, (own[1], own[0]) + own[2:]))
    try:
        for phi in islice(iter_causal_orderings(model, player, 2_000), 8):
            if not phi.is_constant:
                orderings.append(phi)
                break
    except SearchBudgetExhausted:
        pass
    return orderings


def _call(model, call, copy=False):
    name, player, phi = call
    if name == "search_recall_ordering":
        found = search_recall_ordering(model, player, 2_000)
        return repr((found.outcome, found.ordering, found.nodes))
    check = {
        "check_perfect_recall": check_perfect_recall,
        "check_partial_causality": check_partial_causality,
        "find_recall_violation": find_recall_violation,
    }[name]
    if copy:  # an ordering object of its own
        phi = ConfigurationOrdering(phi.player, phi.cells)
    return repr(check(model, player, phi))


def _fresh(model):
    return parse_model(serialize_model(model))


def test_answers_do_not_depend_on_the_order_of_calls_on_one_model():
    """The checks and the search answer alike whatever ran before them on
    the same model and ordering objects: each answer equals the one a
    freshly parsed copy of the model gives to that call alone, with an
    ordering object of its own, in three call orders."""
    rng = Random(28)
    multi_cell = 0
    for seed in range(300):
        for model in (random_causal_model(Random(seed)), random_partition_model(Random(seed))):
            calls = []
            for player in model.player_names:
                orderings = _orderings_to_check(model, player)
                multi_cell += not orderings[-1].is_constant
                for phi in orderings:
                    for name in ("check_perfect_recall", "check_partial_causality", "find_recall_violation"):
                        calls.append((name, player, phi))
                calls.append(("search_recall_ordering", player, None))
            want = {call_id: _call(_fresh(model), call, copy=True) for call_id, call in enumerate(calls)}
            shared = _fresh(model)
            for _ in range(3):
                order = list(range(len(calls)))
                rng.shuffle(order)
                for call_id in order:
                    assert _call(shared, calls[call_id]) == want[call_id], (seed, calls[call_id])
    assert multi_cell >= 50, multi_cell


def test_forgetful_search_sweeps_every_ordering_and_finds_none():
    """Node counts of the search on a decision maker with no recall
    ordering: every constant ordering, then the general backtracking."""
    assert repr(search_recall_ordering(forgetful_model(6), "dm")) == (
        "OrderingSearch(outcome='none', ordering=None, nodes=792)"
    )
    found = search_recall_ordering(forgetful_model(7), "dm")
    assert (found.outcome, found.ordering, found.nodes) == ("none", None, 5138)


def test_kept_verdicts_give_each_constant_ordering_a_fresh_models_report():
    """One forgetful model checks all 120 constant orderings in turn, so
    later ones read verdicts the earlier ones left; each report equals the
    one a new model gives, kept masks included."""
    model = forgetful_model(5)
    for sequence in permutations(model.agents_of("dm")):
        phi = constant_ordering(model, "dm", sequence)
        fresh = forgetful_model(5)
        want = check_perfect_recall(fresh, "dm", constant_ordering(fresh, "dm", sequence))
        assert repr(check_perfect_recall(model, "dm", phi)) == repr(want)


def test_kept_faults_stay_one_per_agent_subset_and_last_agent():
    """The tables of what whole-space prefixes give are keyed by the
    prefix's set of agents and its last agent, whatever order the checks
    meet them in.  The search's 5,040 constant orderings of seven agents,
    each of which fails only where the blind agent acts or, when it acts
    first, at the second agent, leave at most 7 * 2^6
    entries in each table, where their walks meet 3,919 distinct prefixes;
    a prefix met again in another order gets a fault that names it."""
    model = blind_last_model(7)
    found = search_recall_ordering(model, "dm", 6_000)
    assert (found.outcome, found.nodes) == ("unknown", 6_000)
    tables = [table for key, table in model._derived.items() if callable(key)]
    assert tables and all(len(table) <= 7 * 2**6 for table in tables)
    ids = model.agents_of("dm")
    for sequence in (ids, (ids[1], ids[0]) + ids[2:], ids[::-1]):
        phi = constant_ordering(model, "dm", sequence)
        fresh = blind_last_model(7)
        report = check_perfect_recall(model, "dm", phi)
        assert report.violation.kappa.sequence == (sequence[:2] if sequence[0] == "t7" else sequence)
        assert repr(report) == repr(check_perfect_recall(fresh, "dm", constant_ordering(fresh, "dm", sequence)))
