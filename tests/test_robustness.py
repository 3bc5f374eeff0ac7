"""The exit-code contract at size, and one recall verdict for ``necessity``.

The searches hold their state on explicit stacks, so a cell with thousands
of blocks ends in a verdict, not in a ``RecursionError``.  Playability is a
pair search, so a sequential model is decided at any size, and a block no
agent's information splits is refused by its pair count before any pair
is compared.  ``necessity``
reports ``no-violation`` only on an ordering along which perfect recall
holds: the pair scan compares configurations inside one cell, and a
recall failure across a cell boundary has no such pair.
"""

import json
from random import Random

import pytest
from click.testing import CliRunner

from wgames import (
    ConfigurationOrdering,
    CoordinateSet,
    FiniteSet,
    Ordering,
    WModel,
    build_space,
    check_partial_causality,
    check_perfect_recall,
    check_playability,
    constant_ordering,
    cylinder_partition,
    find_recall_violation,
    iter_causal_orderings,
    parse_ordering,
    partition_from_key,
    sequential_model,
    serialize_model,
    serialize_ordering,
)
from wgames.cli import main

from generators import deep_recall_model, random_partition_model


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


def test_playability_on_exported_sequential_12(runner, tmp_path):
    export = runner.invoke(main, ["examples", "export", "sequential-12"])
    assert export.exit_code == 0
    path = tmp_path / "seq12.json"
    path.write_text(export.stdout)
    code, report = _run(runner, "playability", str(path))
    assert (code, report["outcome"]) == (0, "playable")


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
    assert (code, report["outcome"]) == (3, "unknown")
    assert "pairs" in report["details"]["reason"]


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
