"""Pushforward laws and the mixed-to-behavioral transform."""

from fractions import Fraction
from random import Random

import pytest

from wgames import (
    BehavioralStrategy,
    MixedStrategy,
    PlayabilityError,
    PureStrategy,
    PureStrategyProfile,
    RationalDistribution,
    behavioral_pushforward,
    behavioral_to_mixed,
    constant_ordering,
    corpus_model,
    deterministic_mixed,
    distributions_equal,
    expected_utility,
    kuhn_transform,
    parse_model,
    pushforward,
    search_recall_ordering,
    transform_preserves_law,
    validate_belief,
)

from generators import (
    oracle_mixed,
    random_behavioral,
    random_belief,
    random_causal_model,
    random_mixed,
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
    assert transform_preserves_law(model, "team", beta, nu, [mixed])


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
    assert transform_preserves_law(model, "team", beta, nu, [mixed])


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
        assert transform_preserves_law(model, "P", beta, nu, mixed)
        done += 1
    assert done == 25


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


def test_behavioral_pushforward_rejects_several_solutions():
    # a and b each observe the other; A copies b and B copies a, so the
    # closed loop has two solutions and the block mass is twice the belief
    model = parse_model(
        """{"nature": {"states": ["*"]},
            "agents": [{"id": "a", "actions": ["0", "1"]}, {"id": "b", "actions": ["0", "1"]}],
            "players": {"A": ["a"], "B": ["b"]},
            "information": {"a": {"observes": ["b"]}, "b": {"observes": ["a"]}}}"""
    )
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
