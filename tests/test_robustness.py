"""The exit-code contract at size and on mutated input files, and one
recall verdict for ``necessity``.

The searches hold their state on explicit stacks, so a cell with thousands
of blocks ends in a verdict, not in a ``RecursionError``.  Playability is a
pair search, so a sequential model is decided at any size, and a block no
agent's information splits is scanned with one mask operation per member
and agent, with no cap.  ``necessity`` reports ``no-violation`` only on an
ordering along which perfect recall holds: the pair scan compares
configurations inside one cell, and a recall failure across a cell
boundary has no such pair.
"""

import copy
import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from wgames import (
    BehavioralStrategy,
    ConfigurationOrdering,
    CoordinateSet,
    FiniteSet,
    Ordering,
    RationalDistribution,
    WModel,
    build_space,
    check_partial_causality,
    check_perfect_recall,
    check_playability,
    closed_loop_solutions,
    constant_ordering,
    corpus_model,
    cylinder_partition,
    find_recall_violation,
    iter_causal_orderings,
    parse_ordering,
    partition_from_key,
    search_recall_ordering,
    sequential_model,
    serialize_belief,
    serialize_model,
    serialize_ordering,
    serialize_strategy,
)
from wgames.cli import main
from wgames.io import strategy_payload
from wgames.playability import _first_pair

from clirunner import CliRunner
from generators import deep_recall_model, random_behavioral, random_belief, random_partition_model


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, *args):
    """Invoke the CLI and check the contract: an exit code in 0..3 and no
    exception other than the exit itself."""
    result = runner.invoke(main, ["--format", "structured", *args])
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    return result.exit_code, json.loads(result.stdout) if result.stdout else None


# ── size axis ───────────────────────────────────────────────────────────


def test_causal_sweep_on_sequential_12_yields_the_declared_order():
    model = sequential_model(12)
    phi = next(iter_causal_orderings(model, "dm"))
    assert phi == constant_ordering(model, "dm", model.agents_of("dm"))


def test_necessity_search_on_exported_sequential_10(runner, tmp_path):
    export = runner.invoke(main, ["examples", "export", "sequential-10"])
    assert export.exit_code == 0
    path = tmp_path / "seq10.json"
    path.write_text(export.stdout)
    code, report = _run(runner, "necessity", str(path), "--player", "dm", "--search")
    assert (code, report["outcome"]) == (0, "no-violation")


def test_recall_search_on_a_deep_cell_runs_out_of_budget(runner, tmp_path):
    # 8,192 configurations: the general search claims at least 2,048
    # blocks in its first cell
    path = tmp_path / "deep.json"
    path.write_text(serialize_model(deep_recall_model(10)))
    args = ["recall", str(path), "--player", "P", "--search", "--budget", "20000"]
    code, report = _run(runner, *args)
    assert (code, report["outcome"]) == (3, "unknown")
    assert report["details"]["nodes"] == 20_000


@pytest.fixture(scope="module")
def sequential_12(tmp_path_factory):
    export = CliRunner().invoke(main, ["examples", "export", "sequential-12"])
    assert export.exit_code == 0
    path = tmp_path_factory.mktemp("seq12") / "seq12.json"
    path.write_text(export.stdout)
    return path


def test_playability_on_exported_sequential_12(runner, sequential_12):
    code, report = _run(runner, "playability", str(sequential_12))
    assert (code, report["outcome"]) == (0, "playable")


def test_causality_along_the_declared_order_on_exported_sequential_12(runner, sequential_12):
    model = sequential_model(12)
    path = sequential_12.parent / "declared.json"
    path.write_text(serialize_ordering(constant_ordering(model, "dm", model.agents_of("dm")), model))
    code, report = _run(runner, "causality", str(sequential_12), "--player", "dm", "--ordering", str(path))
    assert (code, report["outcome"]) == (0, "holds")


def _full_support_behavioral(rng, model, player):
    kernels = []
    for agent in model.agents_of(player):
        labels = model.actions_of(agent).labels
        dists = []
        for _ in range(len(model.info_of(agent))):
            p = Fraction(rng.randint(1, 6), 7)
            dists.append(RationalDistribution(labels, (p, 1 - p)))
        kernels.append((agent, tuple(dists)))
    return BehavioralStrategy(player, tuple(kernels))


def test_kuhn_search_verify_on_exported_sequential_10(runner, tmp_path):
    model = sequential_model(10)
    export = runner.invoke(main, ["examples", "export", "sequential-10"])
    assert export.exit_code == 0
    path = tmp_path / "seq10.json"
    path.write_text(export.stdout)
    beta = _full_support_behavioral(Random(10), model, "dm")
    (tmp_path / "beta.json").write_text(serialize_strategy(beta))
    nu = RationalDistribution(model.nature.labels, (Fraction(1, 3), Fraction(2, 3)))
    (tmp_path / "nu.json").write_text(serialize_belief(nu))
    code, report = _run(
        runner, "kuhn", str(path), "--player", "dm", "--nu", str(tmp_path / "nu.json"),
        "--strategy", str(tmp_path / "beta.json"), "--search", "--verify",
    )
    assert (code, report["outcome"]) == (0, "transformed")
    assert report["details"]["verified"] is True
    # every atom is reached, so the kernels come back unchanged
    assert report["details"]["behavioral"] == strategy_payload(beta)


def test_pushforward_over_4096_nature_states(runner, tmp_path):
    # one binary agent that observes Nature: the law is read block by block
    states = tuple(f"w{k}" for k in range(4096))
    agents = (("a", FiniteSet("a", ("0", "1"))),)
    space = build_space(FiniteSet("nature", states), agents)
    info = cylinder_partition(space, CoordinateSet.of(True, []))
    model = WModel(space.nature, agents, (("P", ("a",)),), (("a", info),))
    path = tmp_path / "wide.json"
    path.write_text(serialize_model(model))
    uniform = (RationalDistribution.uniform(("0", "1")),) * len(info)
    (tmp_path / "beta.json").write_text(serialize_strategy(BehavioralStrategy("P", (("a", uniform),))))
    (tmp_path / "nu.json").write_text(serialize_belief(RationalDistribution.uniform(states)))
    code, report = _run(
        runner, "pushforward", str(path), "--nu", str(tmp_path / "nu.json"),
        "--strategy", str(tmp_path / "beta.json"),
    )
    assert (code, report["outcome"]) == (0, "computed")
    law = report["details"]["law"]
    assert len(law) == 8192 and {entry["weight"] for entry in law} == {"1/8192"}


def test_kuhn_checks_perfect_recall_once(runner, tmp_path, monkeypatch):
    import wgames.cli
    import wgames.kuhn
    import wgames.recall

    model = sequential_model(3)
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    (tmp_path / "beta.json").write_text(serialize_strategy(_full_support_behavioral(Random(3), model, "dm")))
    nu = RationalDistribution(model.nature.labels, (Fraction(1, 2), Fraction(1, 2)))
    (tmp_path / "nu.json").write_text(serialize_belief(nu))
    declared = constant_ordering(model, "dm", model.agents_of("dm"))
    (tmp_path / "phi.json").write_text(serialize_ordering(declared, model))
    calls = {"outside": 0, "search": 0}
    searching = []
    check, search = wgames.recall.check_perfect_recall, wgames.recall.search_recall_ordering

    def counted_check(*args):
        calls["search" if searching else "outside"] += 1
        return check(*args)

    def counted_search(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    for module in (wgames.cli, wgames.kuhn, wgames.recall):
        monkeypatch.setattr(module, "check_perfect_recall", counted_check)
    monkeypatch.setattr(wgames.cli, "search_recall_ordering", counted_search)
    common = [
        "kuhn", str(path), "--player", "dm", "--nu", str(tmp_path / "nu.json"),
        "--strategy", str(tmp_path / "beta.json"), "--verify",
    ]
    assert _run(runner, *common, "--ordering", str(tmp_path / "phi.json"))[0] == 0
    assert calls == {"outside": 1, "search": 0}
    calls["outside"] = 0
    assert _run(runner, *common, "--search")[0] == 0
    assert calls["outside"] == 0 and calls["search"] >= 1


def witsenhausen_with_dummies(k: int) -> WModel:
    """The Witsenhausen cycle a, b, c and binary dummies d1..dk, each of
    which observes a, b, c and the earlier dummies.  No agent has a single
    atom on the Nature block, so the pair search cannot split it."""
    cycle = ("a", "b", "c")
    dummies = tuple(f"d{m}" for m in range(1, k + 1))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in cycle + dummies)
    space = build_space(FiniteSet("nature", ("*",)), agents)

    def signal(watched: str, inverted: str):
        def key(index: int) -> bool:
            h = space.config(index)
            return h.action(watched) == "1" and h.action(inverted) == "0"

        return partition_from_key(space, key)

    information = [("a", signal("b", "c")), ("b", signal("c", "a")), ("c", signal("a", "b"))]
    for m, d in enumerate(dummies):
        seen = CoordinateSet.of(False, cycle + dummies[:m])
        information.append((d, cylinder_partition(space, seen)))
    return WModel(
        nature=space.nature,
        agents=agents,
        players=(("system", cycle + dummies),),
        information=tuple(information),
    )


def test_playability_of_an_unsplittable_block(runner, tmp_path):
    path = tmp_path / "dummies.json"
    path.write_text(serialize_model(witsenhausen_with_dummies(5)))
    assert _run(runner, "playability", str(path))[0] == 0
    # 8,192 configurations in one group: over 33 million pairs
    path.write_text(serialize_model(witsenhausen_with_dummies(10)))
    code, report = _run(runner, "playability", str(path))
    assert (code, report["outcome"]) == (0, "playable")


def mutual_with_dummies(k: int) -> WModel:
    """``a`` observes ``b`` and ``b`` observes ``a``, plus binary dummies
    d1..dk as in :func:`witsenhausen_with_dummies`.  Copying each other
    solves at 00 and at 11, so the model is not playable, and no agent has
    a single atom on the Nature block."""
    pair = ("a", "b")
    dummies = tuple(f"d{m}" for m in range(1, k + 1))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in pair + dummies)
    space = build_space(FiniteSet("nature", ("*",)), agents)
    information = [
        ("a", cylinder_partition(space, CoordinateSet.of(False, ["b"]))),
        ("b", cylinder_partition(space, CoordinateSet.of(False, ["a"]))),
    ]
    for m, d in enumerate(dummies):
        information.append((d, cylinder_partition(space, CoordinateSet.of(False, pair + dummies[:m]))))
    return WModel(
        nature=space.nature,
        agents=agents,
        players=(("system", pair + dummies),),
        information=tuple(information),
    )


def _unseparated_pairs(model: WModel) -> list[tuple[int, int]]:
    """Every pair i < j of the space, in ascending order, on which no agent
    has one atom and two actions: the definition, pair by pair."""
    space = model.space
    records = [
        [(model.info_of(a).atom_index(i), space.config(i).action(a)) for a in model.agent_ids]
        for i in range(space.size)
    ]
    return [
        (i, j)
        for i in range(space.size)
        for j in range(i + 1, space.size)
        if all(zi != zj or ui == uj for (zi, ui), (zj, uj) in zip(records[i], records[j]))
    ]


@pytest.mark.parametrize("build", [witsenhausen_with_dummies, mutual_with_dummies])
def test_pair_search_in_one_group_matches_the_definition(build):
    for k in range(7):
        model = build(k)
        block = range(model.space.size)  # one Nature state
        pairs = _unseparated_pairs(model)
        assert bool(pairs) == (build is mutual_with_dummies)
        assert _first_pair(model, block, lambda i, j: True) == min(pairs, default=None)
        # reject the least pair and a seeded half of the rest: the search
        # skips a rejected j and keeps scanning
        rng = Random(k)
        kept = {p for p in pairs[1:] if rng.random() < 0.5}
        found = _first_pair(model, block, lambda i, j: (i, j) in kept)
        assert found == min(kept, default=None)


def test_witness_of_one_unsplittable_group_solves_the_least_pair():
    for k in range(7):
        model = mutual_with_dummies(k)
        report = check_playability(model)
        assert not report.playable
        witness = report.witness
        least = min(_unseparated_pairs(model))
        solved = closed_loop_solutions(model, witness.profile, witness.omega)
        assert {h.index for h in solved} >= set(least)
        assert witness.count == len(solved) >= 2


def test_uniform_behavioral_law_on_one_unsplittable_group(runner, tmp_path):
    model = witsenhausen_with_dummies(9)
    path = tmp_path / "dummies.json"
    path.write_text(serialize_model(model))
    kernels = tuple(
        (a, (RationalDistribution.uniform(model.actions_of(a).labels),) * len(model.info_of(a)))
        for a in model.agent_ids
    )
    (tmp_path / "beta.json").write_text(serialize_strategy(BehavioralStrategy("system", kernels)))
    (tmp_path / "nu.json").write_text(serialize_belief(RationalDistribution.point(("*",), "*")))
    code, report = _run(
        runner, "pushforward", str(path), "--nu", str(tmp_path / "nu.json"),
        "--strategy", str(tmp_path / "beta.json"),
    )
    assert (code, report["outcome"]) == (0, "computed")
    law = report["details"]["law"]
    assert len(law) == 4096 and {entry["weight"] for entry in law} == {"1/4096"}


# ── one recall verdict ──────────────────────────────────────────────────


def test_necessity_does_not_pass_an_ordering_without_recall(runner, tmp_path):
    # a1 has two actions and sees nothing; a2 has one action and sees whether
    # (w0, a1 = 0) holds.  Playing a1 first on w0 and a2 first on w1 is
    # partially causal and has no pair inside a cell, but an atom of a2
    # straddles the cell boundary, so recall fails.
    model = random_partition_model(Random(173))
    space = model.space
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    code, report = _run(runner, "necessity", str(path), "--player", "P", "--search")
    assert report["outcome"] != "no-violation" and code != 0

    split = ConfigurationOrdering.from_table(
        "P",
        [
            Ordering("P", ("a1", "a2") if space.config(i).nature == "w0" else ("a2", "a1"))
            for i in range(space.size)
        ],
    )
    assert check_partial_causality(model, "P", split).holds
    assert find_recall_violation(model, "P", split) is None
    assert not check_perfect_recall(model, "P", split).holds
    ordering = tmp_path / "ordering.json"
    ordering.write_text(serialize_ordering(split, model))
    code, report = _run(runner, "necessity", str(path), "--player", "P", "--ordering", str(ordering))
    assert (code, report["outcome"]) == (3, "undecided")


def test_no_violation_orderings_have_recall_and_are_causal(runner, tmp_path):
    path = tmp_path / "model.json"
    outcomes = set()
    for seed in range(1000):
        model = random_partition_model(Random(seed))
        if not check_playability(model).playable:
            continue
        path.write_text(serialize_model(model))
        for player, _ in model.players:
            code, report = _run(runner, "necessity", str(path), "--player", player, "--search")
            outcomes.add(report["outcome"])
            if report["outcome"] != "no-violation":
                continue
            phi = parse_ordering(json.dumps(report["details"]["ordering"]), model)
            assert check_perfect_recall(model, player, phi).holds, (seed, player)
            assert check_partial_causality(model, player, phi).holds, (seed, player)
    assert {"no-violation", "certified", "undecided"} <= outcomes


# ── mutated input files ─────────────────────────────────────────────────

MUTATION_CASES = 300
# values written over a field: wrong types, malformed or out-of-range
# fractions, labels of the wrong kind, and plausible but wrong entries
_JUNK = (
    None, True, 0, -1, 2, 0.5, "", "x", "0", "1", "2", "-1/2", "1/0", "3/2", "1e3", "w0", "t1", "t4",
    "dm", "1" + "0" * 60, [], {}, ["t1"], {"0": "1"}, {"0": "1/2", "1": "1/2"},
)


def _positions(node, path=()):
    """Paths to every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutate(rng: Random, doc):
    """``doc`` with one field rewritten, renamed, swapped or deleted."""
    doc = copy.deepcopy(doc)
    *steps, key = rng.choice(list(_positions(doc)))
    parent = doc
    for step in steps:
        parent = parent[step]
    how = rng.choice(("rewrite", "rewrite", "delete", "rename"))
    if how == "delete":
        del parent[key]
    elif how == "rename" and isinstance(parent, dict):
        parent[rng.choice(("x", "w0", "t1", "0", "kind", ""))] = parent.pop(key)
    elif how == "rename" and len(parent) > 1:  # a list: swap two entries
        other = rng.choice([i for i in range(len(parent)) if i != key])
        parent[key], parent[other] = parent[other], parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(_JUNK))
    return doc


def test_mutated_kuhn_inputs_keep_the_exit_code_contract(runner, tmp_path):
    """Each case damages one field of the belief, behavioral-strategy or
    ordering file of ``sequential-3`` and runs ``kuhn --ordering --verify``
    twice: the exit code stays in 0..3, nothing escapes as an exception and
    both runs print the same stdout."""
    model = corpus_model("sequential-3")
    rng = Random("mutated-kuhn-inputs")
    docs = {
        "nu": {w: str(p) for w, p in random_belief(rng, model).as_map().items()},
        "strategy": json.loads(serialize_strategy(random_behavioral(rng, model, "dm"))),
        "ordering": json.loads(serialize_ordering(search_recall_ordering(model, "dm").ordering, model)),
    }
    model_file = tmp_path / "model.json"
    model_file.write_text(serialize_model(model))
    args = ["--format", "structured", "kuhn", str(model_file), "--player", "dm", "--verify"]
    for name in docs:
        args += [f"--{name}", str(tmp_path / f"{name}.json")]
    codes = Counter()
    for case in range(MUTATION_CASES):
        target = rng.choice(sorted(docs))
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(_mutate(rng, doc) if name == target else doc))
        runs = [runner.invoke(main, args) for _ in range(2)]
        for run in runs:
            assert run.exit_code in (0, 1, 2, 3), (case, run.output)
            assert run.exception is None or isinstance(run.exception, SystemExit), (case, repr(run.exception))
            assert "Traceback" not in run.stderr, (case, run.stderr)
        assert runs[0].stdout == runs[1].stdout, case
        codes[runs[0].exit_code] += 1
    assert {0, 1, 2} <= set(codes), codes
