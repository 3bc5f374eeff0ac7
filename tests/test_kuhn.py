"""Pushforward laws and the mixed-to-behavioral transform."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from wgames import (
    BehavioralStrategy,
    MixedStrategy,
    PlayabilityError,
    PureStrategy,
    PureStrategyProfile,
    PushforwardDistribution,
    RationalDistribution,
    behavioral_pushforward,
    behavioral_to_mixed,
    conditional_kernel,
    constant_ordering,
    corpus_model,
    deterministic_mixed,
    distributions_equal,
    expected_utility,
    kuhn_transform,
    parse_model,
    prefix_cells,
    pushforward,
    search_recall_ordering,
    serialize_model,
    transform_preserves_law,
    validate_belief,
)
import wgames.kuhn
from wgames.cli import main
from wgames.io import strategy_payload
from wgames.kuhn import _first_pair

from clirunner import CliRunner
from generators import (
    config_tuple,
    oracle_mixed,
    random_behavioral,
    random_belief,
    random_causal_model,
    random_mixed,
    random_partition_model,
    random_state_ordered_model,
    to_oracle,
)
import oracles


def team_half_half(model, alice_choices, bob_choices):
    pa = PureStrategyProfile(
        (PureStrategy("alice", alice_choices[0]), PureStrategy("bob", bob_choices[0]))
    )
    pb = PureStrategyProfile(
        (PureStrategy("alice", alice_choices[1]), PureStrategy("bob", bob_choices[1]))
    )
    return MixedStrategy("P", ((pa, Fraction(1, 2)), (pb, Fraction(1, 2))))


def point_belief(model):
    return RationalDistribution.point(model.nature.labels, model.nature.labels[0])


def test_validate_belief():
    model = corpus_model("alice-bob-nature")
    good = RationalDistribution(("heads", "tails"), (Fraction(1, 3), Fraction(2, 3)))
    assert validate_belief(model, good)
    bad = RationalDistribution(("heads", "sideways"), (Fraction(1, 2), Fraction(1, 2)))
    assert not validate_belief(model, bad)


def test_pushforward_correlated_pair():
    model = corpus_model("alice-bob-simultaneous")
    mixed = MixedStrategy(
        "team",
        (
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("T",)), PureStrategy("bob", ("L",)))
                ),
                Fraction(1, 2),
            ),
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("B",)), PureStrategy("bob", ("R",)))
                ),
                Fraction(1, 2),
            ),
        ),
    )
    nu = RationalDistribution.point(("*",), "*")
    q = pushforward(model, nu, [mixed])
    assert len(q.support) == 2
    tl, br = q.support
    assert tl.as_dict() == {"nature": "*", "alice": "T", "bob": "L"}
    assert br.as_dict() == {"nature": "*", "alice": "B", "bob": "R"}
    assert q.weight(tl) == Fraction(1, 2)
    assert q.weight(br) == Fraction(1, 2)


def test_pushforward_distribution_invariants():
    space = corpus_model("alice-bob-simultaneous").space  # 4 configurations
    half = Fraction(1, 2)
    q = PushforwardDistribution(space, (0, 3), (half, half))
    assert [h.index for h in q.support] == [0, 3]
    assert q.weight(space.config(3)) == half
    assert q.weight(space.config(1)) == 0  # off the support
    foreign = corpus_model("alice-bob-nature").space
    assert q.weight(foreign.config(3)) == 0  # index 3 carries mass on ``space``
    bad = [
        ((3, 0), (half, half)),  # unsorted
        ((1, 1), (half, half)),  # repeated
        ((0, 4), (half, half)),  # past the space
        ((-1, 0), (half, half)),  # negative
        ((0, 1, 2), (half, half, Fraction(0))),  # zero weight
        ((0, 1), (Fraction(1),)),  # lengths differ
    ]
    for indices, weights in bad:
        with pytest.raises(ValueError):
            PushforwardDistribution(space, indices, weights)


def test_pushforward_matches_oracle_on_random_models():
    rng = Random(909)
    hits = 0
    for _ in range(40):
        model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
        nu = random_belief(rng, model)
        mixed = [random_mixed(rng, model, p) for p in model.player_names]
        q = pushforward(model, nu, mixed)
        oracle = to_oracle(model)
        ref = oracles.pushforward(
            oracle,
            {w: nu.weight(w) for w in model.nature.labels},
            {m.player: oracle_mixed(model, oracle, m) for m in mixed},
        )
        mine = {
            (h.nature,) + tuple(h.action(a) for a in model.space.agents): q.weight(h)
            for h in q.support
        }
        assert mine == ref
        hits += 1
    assert hits == 40


def test_pushforward_thread_count_is_invisible():
    rng = Random(910)
    for _ in range(10):
        model = random_causal_model(rng, max_nature=3, max_focus=3, max_actions=3)
        nu = random_belief(rng, model)
        mixed = [random_mixed(rng, model, p) for p in model.player_names]
        base = pushforward(model, nu, mixed)
        for threads in (2, 3, 7):
            again = pushforward(model, nu, mixed, threads=threads)
            assert distributions_equal(base, again)
            assert [h.index for h in again.support] == [
                h.index for h in base.support
            ]


def test_expected_utility_is_exact():
    model = corpus_model("alice-bob-simultaneous")
    mixed = team_half_half(model, (("T",), ("B",)), (("L",), ("R",)))
    mixed = MixedStrategy("team", mixed.support)
    nu = RationalDistribution.point(("*",), "*")

    def score(h):
        return Fraction(1) if h.action("alice") == "T" else Fraction(-1, 3)

    value = expected_utility(model, nu, [mixed], score)
    assert value == Fraction(1, 2) - Fraction(1, 6)


def preserves_law(model, player, beta, nu, strategies):
    """Whether ``beta`` for ``player`` keeps the law of ``strategies``."""
    others = [s for s in strategies if s.player != player]
    return transform_preserves_law(model, beta, nu, others, pushforward(model, nu, strategies))


def test_transform_reacts_to_observed_action():
    model = corpus_model("alice-bob-ordered")
    mixed = MixedStrategy(
        "team",
        (
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("T", "T")), PureStrategy("bob", ("L",)))
                ),
                Fraction(1, 2),
            ),
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("B", "B")), PureStrategy("bob", ("R",)))
                ),
                Fraction(1, 2),
            ),
        ),
    )
    nu = RationalDistribution.point(("*",), "*")
    phi = constant_ordering(model, "team", ("bob", "alice"))
    beta = kuhn_transform(model, "team", phi, nu, [mixed])
    assert beta.kernel("bob", 0).weight("L") == Fraction(1, 2)
    # alice's atoms are (bob=L, bob=R) in canonical order; she copies the
    # plan that bob's visible action reveals
    assert beta.kernel("alice", 0).weight("T") == 1
    assert beta.kernel("alice", 1).weight("B") == 1
    assert preserves_law(model, "team", beta, nu, [mixed])


def test_transform_requires_recall():
    model = corpus_model("alice-bob-ordered")
    mixed = deterministic_mixed(
        "team",
        PureStrategyProfile(
            (PureStrategy("alice", ("T", "T")), PureStrategy("bob", ("L",)))
        ),
    )
    nu = RationalDistribution.point(("*",), "*")
    alice_first = constant_ordering(model, "team", ("alice", "bob"))
    with pytest.raises(ValueError):
        kuhn_transform(model, "team", alice_first, nu, [mixed])


def test_unreached_atoms_become_uniform():
    model = corpus_model("alice-bob-nature")
    # bob always plays L, alice never sees (·, R) atoms
    mixed = deterministic_mixed(
        "team",
        PureStrategyProfile(
            (PureStrategy("alice", ("T", "T", "B", "B")), PureStrategy("bob", ("L", "L")))
        ),
    )
    nu = RationalDistribution(("heads", "tails"), (Fraction(1, 2), Fraction(1, 2)))
    phi = constant_ordering(model, "team", ("bob", "alice"))
    beta = kuhn_transform(model, "team", phi, nu, [mixed])
    # atom order for alice: (heads,L),(heads,R),(tails,L),(tails,R)
    assert beta.kernel("alice", 0).weight("T") == 1
    assert beta.kernel("alice", 1).weight("T") == Fraction(1, 2)
    assert beta.kernel("alice", 3).weight("B") == Fraction(1, 2)
    assert preserves_law(model, "team", beta, nu, [mixed])


def test_transform_preserves_law_on_random_models():
    rng = Random(911)
    done = 0
    attempts = 0
    while done < 25 and attempts < 200:
        attempts += 1
        model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
        found = search_recall_ordering(model, "P")
        if found.outcome != "found":
            continue
        nu = random_belief(rng, model)
        mixed = [random_mixed(rng, model, p) for p in model.player_names]
        focus = next(m for m in mixed if m.player == "P")
        beta = kuhn_transform(model, "P", found.ordering, nu, mixed)
        assert preserves_law(model, "P", beta, nu, mixed)
        done += 1
    assert done == 25
    # orderings that depend on the Nature state
    for _ in range(25):
        model, phi = random_state_ordered_model(rng)
        nu = random_belief(rng, model)
        mixed = [random_mixed(rng, model, p) for p in model.player_names]
        beta = kuhn_transform(model, "P", phi, nu, mixed)
        assert preserves_law(model, "P", beta, nu, mixed)


def sha256_json(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (behavioral strategy, conditional kernels of every prefix that occurs) of
# the seeded state-ordered inputs below, as sha256 of their JSON
GOLDEN_STATE_ORDERED = [
    ("f5d5454a96974ea496280ab21729439d4dd5a89ddec35903c192ef053fcfa5c1", "28028859e6e8aed6bbcc56686e65dbf26fa627591659a335e6eb19c51728bf6f"),
    ("b86d684bfe7d85545fd8a76a9d8d0649647a303b5b7182e9cdc9ec0883e76c15", "703700cc788a8003d183fb218275a54f9ece223c726511d1c5746efcff1a3676"),
    ("f4c1de358a159b25bbe9e254e834ab6767f160938470f83829511acdb172b65a", "eec5e0f353b936fcb71842bc0ba69fb171d6e0c20b73b2b8dbfbc5a4d785ec09"),
    ("8c66838b81881c5d194eb91776c7c6dfdeb73b187ea5dc000205f2a64e274128", "f76e83767a3480c1170359ff2bcddd0a23535af0538ea3d390964212dd21d32e"),
    ("ed13c333451e3887bb7b5038c759705546c717566407733910ee631371b00446", "1c6eb72ddb4483523fd92f06a5e79205be92a60227f05353503e4a5a7378de59"),
    ("23c7082b86d8248daa55fe997def663bd8864da88c28a82e581e7a063e96bb87", "3494e99ee4d16efb97cbcdb0bfc335e7e6cb54aba5e022d1a26aaf25a38e475e"),
    ("79a7457ae3f3fc59860f9b2588f3ec627de6aac345458171f18fd0cb07f8bcf3", "367019e47c0de468c4e2f4f975bfd620348239481274ea2bbbcb003a86bceedb"),
    ("6f76ff325b0492d8fce19048a6b049f7c1ce7d9a96211139510d9e251fe07432", "171e16f5448c83bb6cbda48b3888cd74edbdb47e5403dc8a971a0793c39ba656"),
]


def test_transform_and_kernels_on_state_ordered_models_are_golden():
    rng = Random(914)
    digests = []
    for _ in range(8):
        model, phi = random_state_ordered_model(rng)
        nu = random_belief(rng, model)
        mixed = [random_mixed(rng, model, p) for p in model.player_names]
        beta = kuhn_transform(model, "P", phi, nu, mixed)
        kernels = []
        for kappa, _ in prefix_cells(model, "P", phi):
            kernel = conditional_kernel(model, "P", phi, kappa, nu, mixed)
            assert kernel.kappa == kappa
            for aid, law, reached in kernel.entries:
                weights = [str(w) for w in law.weights]
                kernels.append([kappa.sequence, aid, law.carrier, weights, reached])
        digests.append((sha256_json(strategy_payload(beta)), sha256_json(kernels)))
    assert digests == GOLDEN_STATE_ORDERED


def test_behavioral_to_mixed_pushforward_consistency():
    rng = Random(912)
    model = corpus_model("alice-bob-nature")
    nu = random_belief(rng, model)
    mixed = random_mixed(rng, model, "team")
    phi = constant_ordering(model, "team", ("bob", "alice"))
    beta = kuhn_transform(model, "team", phi, nu, [mixed])
    # both routes to the law of the behavioral strategy agree: expanding
    # to a mixed strategy, or replacing inside transform_preserves_law
    expanded = behavioral_to_mixed(model, beta)
    q1 = pushforward(model, nu, [expanded])
    q2 = pushforward(model, nu, [mixed])
    assert distributions_equal(q1, q2)


def test_factorized_behavioral_law_equals_plan_expansion():
    rng = Random(913)
    for _ in range(40):
        model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
        nu = random_belief(rng, model)
        beta = random_behavioral(rng, model, "P")
        others = [
            random_mixed(rng, model, p) for p in model.player_names if p != "P"
        ]
        factored = behavioral_pushforward(model, nu, beta, others)
        expanded = pushforward(model, nu, [behavioral_to_mixed(model, beta), *others])
        assert distributions_equal(factored, expanded)


MUTUAL = """{"nature": {"states": ["*"]},
    "agents": [{"id": "a", "actions": ["0", "1"]}, {"id": "b", "actions": ["0", "1"]}],
    "players": {"A": ["a"], "B": ["b"]},
    "information": {"a": {"observes": ["b"]}, "b": {"observes": ["a"]}}}"""


def half_half(player, agent, first, second):
    """Mixed strategy of a one-agent player over two plans, half and half."""
    return MixedStrategy(
        player,
        tuple(
            (PureStrategyProfile((PureStrategy(agent, plan),)), Fraction(1, 2))
            for plan in (first, second)
        ),
    )


def test_behavioral_pushforward_rejects_several_solutions():
    # a and b each observe the other; A copies b and B copies a, so the
    # closed loop has two solutions and the block mass is twice the belief
    model = parse_model(MUTUAL)
    labels = ("0", "1")
    copy_b = BehavioralStrategy(
        "A",
        (("a", (RationalDistribution.point(labels, "0"), RationalDistribution.point(labels, "1"))),),
    )
    copy_a = deterministic_mixed("B", PureStrategyProfile((PureStrategy("b", labels),)))
    with pytest.raises(PlayabilityError) as err:
        behavioral_pushforward(model, point_belief(model), copy_b, [copy_a])
    assert err.value.omega == "*"
    assert [h.as_dict() for h in err.value.solutions] == [
        {"nature": "*", "a": "0", "b": "0"},
        {"nature": "*", "a": "1", "b": "1"},
    ]


def test_behavioral_pushforward_rejects_cancelling_solution_counts():
    # A mixes the constants and B mixes copy and anti-copy: every sampled
    # pair solves uniquely.  A's behavioral form plays "not b" or "copy b",
    # which against B's copy have 0 and 2 solutions; the block mass is still
    # the belief's, but (0, 0) and (1, 1) solve one sampled profile together
    model = parse_model(MUTUAL)
    nu = point_belief(model)
    mix_a = half_half("A", "a", ("0", "0"), ("1", "1"))
    mix_b = half_half("B", "b", ("0", "1"), ("1", "0"))
    beta = kuhn_transform(model, "A", constant_ordering(model, "A", ("a",)), nu, [mix_a, mix_b])
    with pytest.raises(PlayabilityError) as err:
        behavioral_pushforward(model, nu, beta, [mix_b])
    assert err.value.omega == "*"
    assert [h.as_dict() for h in err.value.solutions] == [
        {"nature": "*", "a": "0", "b": "0"},
        {"nature": "*", "a": "1", "b": "1"},
    ]


def test_transform_fails_like_pushforward_on_unsolvable_support():
    # A mixes in "a = copy b" and B copies a: that sample has two solutions
    model = parse_model(MUTUAL)
    nu = point_belief(model)
    mixed = [
        half_half("A", "a", ("0", "0"), ("0", "1")),
        deterministic_mixed("B", PureStrategyProfile((PureStrategy("b", ("0", "1")),))),
    ]
    with pytest.raises(PlayabilityError) as direct:
        pushforward(model, nu, mixed)
    with pytest.raises(PlayabilityError) as transformed:
        kuhn_transform(model, "A", constant_ordering(model, "A", ("a",)), nu, mixed)
    assert str(transformed.value) == str(direct.value)


def test_pair_sharing_a_kernel_atom_with_two_actions_is_never_solved_together():
    # a observes b; b observes whether a and b agree.  A mixes "copy b" and
    # "not b", B's kernel depends on agreement: every drawn profile solves
    # uniquely, although (0,0) and (1,1) both carry mass, A's "copy b" plan
    # agrees with both, and no agent has one atom on the whole block
    def config(a, b):
        return {"nature": "*", "a": a, "b": b}

    model = parse_model(json.dumps({
        "nature": {"states": ["*"]},
        "agents": [{"id": "a", "actions": ["0", "1"]}, {"id": "b", "actions": ["0", "1"]}],
        "players": {"A": ["a"], "B": ["b"]},
        "information": {
            "a": {"observes": ["b"]},
            "b": {"atoms": [[config("0", "0"), config("1", "1")], [config("0", "1"), config("1", "0")]]},
        },
    }))
    nu = point_belief(model)
    mix_a = MixedStrategy(
        "A",
        (
            (PureStrategyProfile((PureStrategy("a", ("0", "1")),)), Fraction(5, 6)),
            (PureStrategyProfile((PureStrategy("a", ("1", "0")),)), Fraction(1, 6)),
        ),
    )
    labels = ("0", "1")
    beta = BehavioralStrategy(
        "B",
        (("b", (
            RationalDistribution(labels, (Fraction(5, 6), Fraction(1, 6))),
            RationalDistribution(labels, (Fraction(1, 6), Fraction(5, 6))),
        )),),
    )
    q = behavioral_pushforward(model, nu, beta, [mix_a])
    assert [(h.action("a"), h.action("b"), w) for h, w in zip(q.support, q.weights)] == [
        ("0", "0", Fraction(25, 36)),
        ("0", "1", Fraction(5, 36)),
        ("1", "0", Fraction(1, 36)),
        ("1", "1", Fraction(5, 36)),
    ]


LAW_EXAMPLES = 300


@settings(max_examples=LAW_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_law_is_the_definitional_law_or_raises(seed):
    # each player is mixed or behavioral (point kernels put weight 0 on the
    # other actions); partition models need not be playable
    rng = Random(seed)
    if rng.random() < 0.5:
        model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
    else:
        model = random_partition_model(rng, max_atoms=3)
    nu = random_belief(rng, model)
    strategies = [
        random_behavioral(rng, model, p) if rng.random() < 0.5 else random_mixed(rng, model, p)
        for p in model.player_names
    ]

    oracle = to_oracle(model)
    expanded = {}
    for s in strategies:
        if isinstance(s, MixedStrategy):
            expanded[s.player] = oracle_mixed(model, oracle, s)
            continue
        spread = {
            a: {atom: s.kernel(a, k).as_map() for k, atom in enumerate(oracle["info"][a])}
            for a in model.agents_of(s.player)
        }
        expanded[s.player] = list(oracles.behavioral_plans(oracle, list(model.agents_of(s.player)), spread))
    # every pair of configurations that one drawn profile solves at together
    solved = {w: set() for w in model.nature.labels}
    together = {w: set() for w in model.nature.labels}
    for omega in model.nature.labels:
        if nu.weight(omega) == 0:
            continue
        for combo in product(*expanded.values()):
            plans = {a: plan for sub, _ in combo for a, plan in sub.items()}
            sols = oracles.solutions(oracle, plans, omega)
            solved[omega].update(sols)
            together[omega].update((h, g) for h in sols for g in sols if h != g)
    try:
        want = oracles.pushforward(oracle, {w: nu.weight(w) for w in model.nature.labels}, expanded)
    except ValueError:
        want = None

    behavioral = [s for s in strategies if isinstance(s, BehavioralStrategy)]
    if behavioral:
        others = [s for s in strategies if s is not behavioral[0]]
        law = lambda: behavioral_pushforward(model, nu, behavioral[0], others)
    else:
        law = lambda: pushforward(model, nu, strategies)
    if want is None:
        with pytest.raises(PlayabilityError) as err:
            law()
        assert err.value.profile is None
    else:
        q = law()
        assert {config_tuple(model, h.index): w for h, w in zip(q.support, q.weights)} == want

    # splitting a block before the pairwise search loses no pair
    index = {config_tuple(model, i): i for i in range(model.space.size)}
    for omega in model.nature.labels:
        block = sorted(index[h] for h in solved[omega])
        pairs = {(index[h], index[g]) for h, g in together[omega]}
        found = _first_pair(model, block, lambda i, j: (i, j) in pairs)
        assert found == min((p for p in pairs if p[0] < p[1]), default=None)


def test_kuhn_verify_searches_each_block_once(tmp_path, monkeypatch):
    """With no mixed player, the second law of ``kuhn --verify`` takes each
    Nature block's pair verdict from the first law's search."""
    model = corpus_model("sequential-3")
    agents = model.agents_of("dm")
    rows = {a: [{"0": "1/3", "1": "2/3"}] * len(model.info_of(a)) for a in agents}
    files = {
        "model": serialize_model(model),
        "nu": json.dumps({"w0": "1/4", "w1": "3/4"}),
        "beta": json.dumps({"kind": "behavioral", "player": "dm", "kernels": rows}),
        "order": json.dumps({"kind": "ordering", "player": "dm", "sequence": list(agents)}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    calls = Counter()
    search = wgames.kuhn._first_pair

    def counted(model, block, together):
        calls[tuple(block)] += 1
        return search(model, block, together)

    monkeypatch.setattr(wgames.kuhn, "_first_pair", counted)
    argv = ["--format", "structured", "kuhn", str(tmp_path / "model"), "--player", "dm", "--nu", str(tmp_path / "nu"),
            "--strategy", str(tmp_path / "beta"), "--ordering", str(tmp_path / "order"), "--verify"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["details"]["verified"] is True
    assert len(calls) == len(model.nature.labels)
    assert set(calls.values()) == {1}


def test_kept_pair_verdicts_raise_as_a_fresh_search():
    """Behavioral laws on seeded partition models, many of them unplayable:
    a second law on the same model, which reads the pair verdicts the first
    one kept, gives the law or PlayabilityError text of the same law on a
    fresh copy of the model, and of its mixed expansion, whose plans make
    every law search again."""

    def outcome(model, nu, strategies):
        try:
            if isinstance(strategies[0], MixedStrategy):
                return pushforward(model, nu, strategies)
            return behavioral_pushforward(model, nu, strategies[0], strategies[1:])
        except PlayabilityError as err:
            return str(err)

    kinds = Counter()
    for seed in range(300):
        rng = Random(f"kept-pair-verdicts/{seed}")
        model = random_partition_model(rng, max_atoms=3)
        nu = random_belief(rng, model)
        first, second = ([random_behavioral(rng, model, p) for p in model.player_names] for _ in range(2))
        outcome(model, nu, first)
        kept = outcome(model, nu, second)
        fresh = outcome(parse_model(serialize_model(model)), nu, second)
        fresh_model = parse_model(serialize_model(model))
        expanded = outcome(fresh_model, nu, [behavioral_to_mixed(fresh_model, s) for s in second])
        assert kept == fresh == expanded, seed
        kinds[isinstance(kept, str)] += 1
    assert kinds[True] > 20 and kinds[False] > 20, kinds
