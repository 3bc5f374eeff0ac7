"""Closed-loop solutions and the playability decision.

The three-agent cyclic-observation model is the key fixture here: no agent
moves first, yet every one of its eight signal-reaction profiles has a
unique closed-loop solution.  Four of the eight rows below are the
published solution-map values; the other four follow from the cyclic
symmetry of the construction and were checked by hand against the
fixed-point equations before being frozen.  The oracle re-derives all
eight from scratch.
"""

from random import Random

import pytest

from wgames import (
    PlayabilityError,
    PureStrategy,
    PureStrategyProfile,
    check_playability,
    closed_loop_solutions,
    corpus_model,
    corpus_names,
    has_self_information,
    partial_solution_map,
    solution_map,
)

from generators import config_tuple, oracle_plans, random_partition_model, to_oracle
from micro import enumerate_micro_models
import oracles

# reaction to the binary signal: play it, or play its complement
ID = ("0", "1")
FLIP = ("1", "0")

WITSENHAUSEN_ROWS = [
    ((ID, ID, ID), ("0", "0", "0")),
    ((FLIP, ID, ID), ("1", "0", "1")),
    ((FLIP, FLIP, ID), ("0", "1", "0")),
    ((FLIP, FLIP, FLIP), ("1", "1", "1")),
    ((ID, FLIP, ID), ("1", "1", "0")),
    ((ID, ID, FLIP), ("0", "1", "1")),
    ((ID, FLIP, FLIP), ("0", "0", "1")),
    ((FLIP, ID, FLIP), ("1", "0", "0")),
]


def witsenhausen_profile(reactions):
    return PureStrategyProfile(
        tuple(
            PureStrategy(agent, choice)
            for agent, choice in zip(("a", "b", "c"), reactions)
        )
    )


def test_witsenhausen_is_playable():
    model = corpus_model("witsenhausen-noncausal")
    assert check_playability(model).playable
    assert has_self_information(model) is None


@pytest.mark.parametrize("reactions,expected", WITSENHAUSEN_ROWS)
def test_witsenhausen_solution_rows(reactions, expected):
    model = corpus_model("witsenhausen-noncausal")
    profile = witsenhausen_profile(reactions)
    sols = closed_loop_solutions(model, profile, "*")
    assert len(sols) == 1
    h = sols[0]
    assert tuple(h.action(a) for a in ("a", "b", "c")) == expected


@pytest.mark.parametrize("reactions,expected", WITSENHAUSEN_ROWS)
def test_witsenhausen_rows_match_oracle(reactions, expected):
    model = corpus_model("witsenhausen-noncausal")
    oracle = to_oracle(model)
    plans = oracle_plans(model, oracle, witsenhausen_profile(reactions))
    sols = oracles.solutions(oracle, plans, "*")
    assert sols == [("*",) + expected]


def test_playability_decision_matches_oracle_on_corpus():
    for name in corpus_names():
        model = corpus_model(name)
        mine = check_playability(model).playable
        ref = oracles.is_playable(to_oracle(model))
        assert mine == ref, name
        assert mine  # the whole corpus is playable


def test_self_information_breaks_playability():
    # one agent observing its own action: "agree with the observation"
    # has two fixed points and "disagree" has none
    from wgames import (
        ConfigurationSpace,
        CoordinateSet,
        FiniteSet,
        WModel,
        cylinder_partition,
    )

    nature = FiniteSet("nature", ("*",))
    actions = FiniteSet("a", ("0", "1"))
    space = ConfigurationSpace(nature=nature, agents=("a",), actions=(actions,))
    model = WModel(
        nature=nature,
        agents=(("a", actions),),
        players=(("P", ("a",)),),
        information=(("a", cylinder_partition(space, CoordinateSet.of(False, ["a"]))),),
    )
    assert has_self_information(model) == "a"
    report = check_playability(model)
    assert not report.playable
    assert report.witness.count in (0, 2)
    assert not oracles.is_playable(to_oracle(model))


def test_solution_map_raises_on_unsolvable():
    from wgames import (
        ConfigurationSpace,
        CoordinateSet,
        FiniteSet,
        WModel,
        cylinder_partition,
    )

    nature = FiniteSet("nature", ("*",))
    actions = FiniteSet("a", ("0", "1"))
    space = ConfigurationSpace(nature=nature, agents=("a",), actions=(actions,))
    model = WModel(
        nature=nature,
        agents=(("a", actions),),
        players=(("P", ("a",)),),
        information=(("a", cylinder_partition(space, CoordinateSet.of(False, ["a"]))),),
    )
    agree = PureStrategyProfile((PureStrategy("a", ("0", "1")),))
    with pytest.raises(PlayabilityError):
        solution_map(model, agree)


def test_solution_map_rows_cover_nature():
    model = corpus_model("alice-bob-nature")
    profile = PureStrategyProfile(
        (
            PureStrategy("alice", ("T", "B", "B", "T")),
            PureStrategy("bob", ("L", "R")),
        )
    )
    table = solution_map(model, profile)
    assert [w for w, _ in table.rows] == ["heads", "tails"]
    heads = table.solution("heads")
    assert heads.action("bob") == "L"
    assert heads.action("alice") == "T"
    tails = table.solution("tails")
    assert tails.action("bob") == "R"
    assert tails.action("alice") == "T"


def test_partial_solution_map_pins_agents():
    model = corpus_model("alice-bob-ordered")
    rest = PureStrategyProfile((PureStrategy("alice", ("T", "B")),))
    h = partial_solution_map(model, {"bob": "R"}, rest, "*")
    assert h.action("bob") == "R"
    assert h.action("alice") == "B"


def _least_pair(oracle):
    """First Nature state, in order, with two configurations one pure
    profile solves together, and the least such pair: every agent has
    different atoms at the two, or plays the same action at both."""
    configs = oracles.space(oracle)
    columns = [(oracle["info"][a], oracles.agent_index(oracle, a)) for a, _ in oracle["agents"]]
    for omega in oracle["omega"]:
        block = [h for h in configs if h[0] == omega]
        for x, h in enumerate(block):
            for g in block[x + 1 :]:
                if all(
                    oracles.atom_containing(atoms, h) != oracles.atom_containing(atoms, g)
                    or h[k] == g[k]
                    for atoms, k in columns
                ):
                    return omega, (h, g)
    return None


def test_pair_search_matches_the_oracle_and_its_witness_solves_the_least_pair():
    draws = enumerate_micro_models() + [random_partition_model(Random(s)) for s in range(2000)]
    failures = 0
    for model in draws:
        oracle = to_oracle(model)
        report = check_playability(model)
        assert report.playable == oracles.is_playable(oracle)
        first = _least_pair(oracle)
        assert (first is None) == report.playable
        if report.playable:
            continue
        failures += 1
        omega, pair = first
        witness = report.witness
        assert witness.omega == omega and witness.count >= 2
        assert set(pair) <= {config_tuple(model, h.index) for h in witness.solutions}
        plans = oracle_plans(model, oracle, witness.profile)
        assert set(pair) <= set(oracles.solutions(oracle, plans, omega))
    assert failures > 1000
