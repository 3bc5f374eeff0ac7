"""Exact distributions and the three strategy kinds."""

from fractions import Fraction

import pytest

from wgames import (
    BehavioralStrategy,
    MixedStrategy,
    PureStrategy,
    PureStrategyProfile,
    RationalDistribution,
    behavioral_to_mixed,
    constant_profile,
    corpus_model,
    deterministic_mixed,
    pure_profile,
    restrict_profile,
    validate_behavioral,
    validate_mixed,
)


def test_distribution_normalization():
    d = RationalDistribution(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
    assert d.weight("a") == Fraction(1, 3)
    assert d.weight("missing") == 0
    with pytest.raises(ValueError):
        RationalDistribution(("a", "b"), (Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(ValueError):
        RationalDistribution(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        RationalDistribution(("a", "b"), (Fraction(-1, 3), Fraction(4, 3)))


def test_point_and_uniform():
    point = RationalDistribution.point(("x", "y", "z"), "y")
    assert point.weight("y") == 1
    assert point.weight("x") == 0
    assert point.as_map() == {"y": Fraction(1)}
    uniform = RationalDistribution.uniform(("x", "y", "z"))
    assert uniform.weight("z") == Fraction(1, 3)


def test_same_law_ignores_zero_entries():
    a = RationalDistribution(("x", "y"), (Fraction(1), Fraction(0)))
    b = RationalDistribution(("x",), (Fraction(1),))
    assert a.same_law(b)


def test_profile_sorts_and_merges():
    p = PureStrategyProfile(
        (PureStrategy("b", ("0",)), PureStrategy("a", ("1",)))
    )
    assert [s.agent for s in p.strategies] == ["a", "b"]
    q = PureStrategyProfile((PureStrategy("c", ("0",)),))
    merged = p.merged_with(q)
    assert merged.agents == frozenset(("a", "b", "c"))
    with pytest.raises(ValueError):
        merged.merged_with(q)
    shrunk = restrict_profile(merged, ("a", "c"))
    assert shrunk.agents == frozenset(("a", "c"))
    with pytest.raises(ValueError):
        restrict_profile(merged, ("a", "zz"))


def test_mixed_strategy_validation():
    pa = PureStrategyProfile((PureStrategy("a", ("0",)),))
    pb = PureStrategyProfile((PureStrategy("a", ("1",)),))
    MixedStrategy("P", ((pa, Fraction(1, 2)), (pb, Fraction(1, 2))))
    with pytest.raises(ValueError):
        MixedStrategy("P", ((pa, Fraction(1, 2)), (pb, Fraction(1, 3))))
    with pytest.raises(ValueError):
        MixedStrategy("P", ((pa, Fraction(1)), (pb, Fraction(0))))
    with pytest.raises(ValueError):
        MixedStrategy("P", ())
    point = deterministic_mixed("P", pa)
    assert point.support == ((pa, Fraction(1)),)


def test_validate_against_model():
    model = corpus_model("alice-bob-ordered")
    good = MixedStrategy(
        "team",
        (
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("T", "B")), PureStrategy("bob", ("L",)))
                ),
                Fraction(1),
            ),
        ),
    )
    assert validate_mixed(model, good)
    wrong_atoms = MixedStrategy(
        "team",
        (
            (
                PureStrategyProfile(
                    (PureStrategy("alice", ("T",)), PureStrategy("bob", ("L",)))
                ),
                Fraction(1),
            ),
        ),
    )
    assert not validate_mixed(model, wrong_atoms)


def test_constant_profile_spans_atoms():
    model = corpus_model("alice-bob-ordered")
    const = constant_profile(model, {"alice": "T", "bob": "R"})
    assert const.strategy_of("alice").choice == ("T", "T")
    assert const.strategy_of("bob").choice == ("R",)
    with pytest.raises(ValueError):
        constant_profile(model, {"alice": "nope"})


def test_pure_profile_overrides_only_the_named_atoms():
    model = corpus_model("alice-bob-ordered")
    assert len(model.info_of("alice")) == 2 and len(model.info_of("bob")) == 1
    profile = pure_profile(model, {"bob": "R", "alice": "T"}, {("alice", 1): "B", ("carol", 0): "X"})
    assert [s.agent for s in profile.strategies] == ["alice", "bob"]
    assert profile.strategy_of("alice").choice == ("T", "B")
    assert profile.strategy_of("bob").choice == ("R",)
    assert pure_profile(model, {"alice": "T", "bob": "R"}, {}) == constant_profile(model, {"bob": "R", "alice": "T"})
    assert pure_profile(model, {"bob": "L"}, {("bob", 0): "R"}).strategies == (PureStrategy("bob", ("R",)),)
    with pytest.raises(ValueError, match="unknown action 'nope' for 'alice'"):
        constant_profile(model, {"alice": "nope"})


def test_behavioral_expansion_weights():
    model = corpus_model("alice-bob-ordered")
    half = Fraction(1, 2)
    beta = BehavioralStrategy(
        "team",
        (
            (
                "alice",
                (
                    RationalDistribution(("T", "B"), (half, half)),
                    RationalDistribution.point(("T", "B"), "B"),
                ),
            ),
            ("bob", (RationalDistribution(("L", "R"), (half, half)),)),
        ),
    )
    assert validate_behavioral(model, beta)
    mixed = behavioral_to_mixed(model, beta)
    assert mixed.player == "team"
    # alice's first atom splits, her second is pinned: 2 plans for alice
    # times 2 for bob, each with weight 1/4
    assert len(mixed.support) == 4
    assert all(w == Fraction(1, 4) for _, w in mixed.support)
    total = sum(w for _, w in mixed.support)
    assert total == 1
