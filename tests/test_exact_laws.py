"""Laws in integers against the definitional oracle, and fuzzed weight files.

A closed-loop law multiplies the integer numerators and denominators of
the rows each configuration uses and reduces the product once.  The
property test compares that law with ``tests/oracles.py``'s expansion over
every drawn profile, on mixed-only, behavioral-only and mixed-plus-
behavioral inputs whose rows have large coprime denominators; checks the
kernels read off the law against conditional laws summed in fractions; and
checks that rows written over inflated denominators give the same rows and
the same law.  The fuzz test feeds mutated belief, mixed and behavioral
files to the parsers and to ``wgames pushforward``.  Both are seeded:
hypothesis runs derandomized, with no example database.
"""

import json
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from wgames import (
    BehavioralStrategy,
    MixedStrategy,
    ModelFormatError,
    RationalDistribution,
    behavioral_pushforward,
    corpus_model,
    distributions_equal,
    parse_belief,
    parse_strategy,
    pushforward,
    serialize_belief,
    serialize_model,
    serialize_strategy,
)
from wgames.cli import main
from wgames.kuhn import behavioral_from_law

from clirunner import CliRunner
from generators import MUTATIONS, config_tuple, mutated_json, oracle_mixed, random_causal_model, random_profile, to_oracle
from oracles import behavioral_plans as definitional_plans
from oracles import pushforward as definitional_pushforward

LAW_EXAMPLES = 150
FUZZ_EXAMPLES = 300

# pairwise coprime, so a row over several of them has a huge lcm
PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 10**9 + 7, 10**9 + 9, 998_244_353, 10**18 + 9)
# drawn profiles the oracle may expand per behavioral player
PLAN_BUDGET = 64

seeds = st.integers(min_value=0, max_value=2**30)


def coprime_row(rng: Random, n: int) -> list[Fraction]:
    """n positive weights summing to 1; all but the last over distinct
    large primes, so the last has their product as denominator."""
    weights = [Fraction(rng.randrange(1, q // n), q) for q in rng.sample(PRIMES, n - 1)]
    return weights + [1 - sum(weights)]


def row(rng: Random, labels: tuple, spread: bool) -> RationalDistribution:
    if not spread:
        return RationalDistribution.point(labels, rng.choice(labels))
    if rng.random() < 0.5:
        return RationalDistribution(labels, coprime_row(rng, len(labels)))
    return RationalDistribution(labels, [Fraction(1, len(labels))] * len(labels))


def behavioral(rng: Random, model, player: str) -> BehavioralStrategy:
    """Kernels with point, uniform and coprime rows; rows with more than
    one action stop spreading once the plan count would pass the budget."""
    plans, kernels = 1, []
    for agent in model.agents_of(player):
        labels = model.actions_of(agent).labels
        rows = []
        for _ in range(len(model.info_of(agent))):
            spread = len(labels) > 1 and plans * len(labels) <= PLAN_BUDGET and rng.random() < 0.7
            plans *= len(labels) if spread else 1
            rows.append(row(rng, labels, spread))
        kernels.append((agent, tuple(rows)))
    return BehavioralStrategy(player, tuple(kernels))


def mixed(rng: Random, model, player: str) -> MixedStrategy:
    profiles = []
    for _ in range(rng.randint(1, 3)):
        profile = random_profile(rng, model, model.agents_of(player))
        if profile not in profiles:
            profiles.append(profile)
    weights = coprime_row(rng, len(profiles)) if len(profiles) > 1 else [Fraction(1)]
    return MixedStrategy(player, tuple(zip(profiles, weights)))


def law_of(model, nu, strategies):
    beta = next((s for s in strategies if isinstance(s, BehavioralStrategy)), None)
    if beta is None:
        return pushforward(model, nu, strategies)
    return behavioral_pushforward(model, nu, beta, [s for s in strategies if s is not beta])


def oracle_law(model, nu, strategies):
    oracle = to_oracle(model)
    expanded = {}
    for s in strategies:
        if isinstance(s, MixedStrategy):
            expanded[s.player] = oracle_mixed(model, oracle, s)
        else:
            spread = {
                agent: {atom: s.kernel(agent, k).as_map() for k, atom in enumerate(oracle["info"][agent])}
                for agent in model.agents_of(s.player)
            }
            expanded[s.player] = list(definitional_plans(oracle, list(model.agents_of(s.player)), spread))
    return definitional_pushforward(oracle, {w: nu.weight(w) for w in model.nature.labels}, expanded)


def inflated(text: str, k: int) -> str:
    """A wire text with every "p/q" weight written as "pk/qk"."""
    return re.sub(r'"(-?\d+)/(\d+)"', lambda m: f'"{int(m[1]) * k}/{int(m[2]) * k}"', text)


@settings(max_examples=LAW_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(seeds, st.sampled_from(["mixed", "behavioral", "both"]))
def test_integer_law_is_the_definitional_law(seed, kinds):
    rng = Random(seed)
    model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
    labels = model.nature.labels
    nu = RationalDistribution(labels, coprime_row(rng, len(labels)) if len(labels) > 1 else [1])
    strategies = []
    for name in model.player_names:  # "both": P behavioral, the opponent (when drawn) mixed
        use_mixed = kinds == "mixed" or (kinds == "both" and name != "P")
        strategies.append(mixed(rng, model, name) if use_mixed else behavioral(rng, model, name))
    law = law_of(model, nu, strategies)

    got = {config_tuple(model, i): w for i, w in zip(law.indices, law.weights)}
    assert got == oracle_law(model, nu, strategies)

    # the kernels read off the law are its conditional laws, summed in fractions
    player = model.player_names[0]
    read = behavioral_from_law(model, player, law)
    for agent in model.agents_of(player):
        atom_ids, pos = model.info_of(agent).atom_ids, model.space.agent_pos(agent) + 1
        labels = model.actions_of(agent).labels
        for k in range(len(model.info_of(agent))):
            masses = dict.fromkeys(labels, Fraction(0))
            for i, w in zip(law.indices, law.weights):
                if atom_ids[i] == k:
                    masses[labels[model.space.digit(i, pos)]] += w
            total = sum(masses.values())
            want = [m / total for m in masses.values()] if total else [Fraction(1, len(labels))] * len(labels)
            assert read.kernel(agent, k) == RationalDistribution(labels, want)

    # the same rows written over inflated denominators give the same rows and law
    k = rng.choice((6, 10**30 + 57, PRIMES[rng.randrange(len(PRIMES))]))
    nu_again = parse_belief(inflated(serialize_belief(nu), k), model)
    assert (nu_again.nums, nu_again.den) == (nu.nums, nu.den)
    again = [parse_strategy(inflated(serialize_strategy(s), k), model) for s in strategies]
    assert again == strategies
    for s, t in zip(strategies, again):
        for (_, rows), (_, rows_again) in zip(getattr(s, "kernels", ()), getattr(t, "kernels", ())):
            assert [(r.nums, r.den) for r in rows] == [(r.nums, r.den) for r in rows_again]
    same = law_of(model, nu_again, again)
    assert distributions_equal(law, same) and same == law
    scaled = RationalDistribution.of_ratios(nu.carrier, tuple(n * k for n in nu.nums), nu.den * k)
    assert scaled == nu and (scaled.nums, scaled.den) == (nu.nums, nu.den)


# ── mutated weight files ────────────────────────────────────────────────

FUZZ_MODEL = corpus_model("alice-bob-nature")  # one player, "team"
VALID = {
    "nu": {"heads": "1/3", "tails": "2/3"},
    "mixed": {
        "kind": "mixed",
        "player": "team",
        "support": [
            {"weight": "1/4", "profile": {"alice": ["T", "B", "T", "B"], "bob": ["L", "R"]}},
            {"weight": "3/4", "profile": {"alice": ["B", "B", "T", "T"], "bob": ["R", "R"]}},
        ],
    },
    "behavioral": {
        "kind": "behavioral",
        "player": "team",
        "kernels": {
            "alice": [{"T": "1/2", "B": "1/2"}, {"T": "1"}, {"B": "2/7", "T": "5/7"}, {"T": "0", "B": "1"}],
            "bob": [{"L": "1/3", "R": "2/3"}, {"R": "1"}],
        },
    },
}
JUNK = (
    "1/0", "0/0", "-1/2", "-0", "3/2", "1/2", "2/4", "1", "0", "", " 1/2", "1/2 ", "1e3", "0.5",
    "+1/2", "1//2", "1/-2", "1/02", "１/２", "٣/٤", "1/" + "3" * 5000, "1/" + "7" * 4000,
    "9" * 4400, "nan", "inf", 0.5, 1, -1, True, None, [], {}, ["1/2"], {"T": "1"},
    "T", "B", "L", "heads", "team", "mixed", "behavioral", "kind",
)
RENAMES = ("x", "T", "B", "R", "heads", "tails", "weight", "profile", "kind", "")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "model.json").write_text(serialize_model(FUZZ_MODEL))
    for name, doc in VALID.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


@settings(max_examples=FUZZ_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(VALID)),
    at=st.integers(min_value=0, max_value=10**6),
    how=st.sampled_from(MUTATIONS),
    junk=st.one_of(st.sampled_from(JUNK), st.text(max_size=6), st.integers(), st.floats()),
)
@example(name="nu", at=0, how="rewrite", junk="1/0")
@example(name="nu", at=1, how="rewrite", junk="-1/2")
@example(name="nu", at=0, how="rewrite", junk="1/" + "3" * 5000)
@example(name="nu", at=1, how="delete", junk=None)
@example(name="behavioral", at=5, how="rewrite", junk="3/2")
@example(name="behavioral", at=6, how="rewrite", junk="٣/٤")
@example(name="behavioral", at=3, how="append", junk=None)
@example(name="behavioral", at=12, how="rename", junk=None)
@example(name="mixed", at=3, how="rewrite", junk="1/2")
@example(name="mixed", at=2, how="append", junk=None)
@example(name="mixed", at=0, how="rewrite", junk=[])
@example(name="mixed", at=40, how="text", junk="")
@example(name="behavioral", at=17, how="text", junk=0)
@example(name="nu", at=9, how="text", junk="9" * 4400)  # a JSON number past the digit limit
def test_mutated_weight_files_fail_only_as_format_errors(fuzz_files, name, at, how, junk):
    """The parsers raise ModelFormatError and nothing else; ``pushforward``
    exits 2 on what they reject and 0 on what they accept, never prints a
    traceback and prints the same stdout twice."""
    text = mutated_json(VALID[name], at, how, junk, RENAMES)
    try:
        (parse_belief if name == "nu" else parse_strategy)(text, FUZZ_MODEL)
        codes = (0,)  # still well formed
    except ModelFormatError:
        codes = (2,)
    (fuzz_files / "case.json").write_text(text)
    files = {"nu": "nu.json", "strategy": "mixed.json" if name == "mixed" else "behavioral.json"}
    files["nu" if name == "nu" else "strategy"] = "case.json"
    args = ["--format", "structured", "pushforward", str(fuzz_files / "model.json")]
    args += ["--nu", str(fuzz_files / files["nu"]), "--strategy", str(fuzz_files / files["strategy"])]
    runs = [CliRunner().invoke(main, args) for _ in range(2)]
    for run in runs:
        assert run.exit_code in codes, (text, run.output)
        assert run.exception is None or isinstance(run.exception, SystemExit), (text, repr(run.exception))
        assert "Traceback" not in run.stderr, (text, run.stderr)
    assert runs[0].stdout == runs[1].stdout, text
