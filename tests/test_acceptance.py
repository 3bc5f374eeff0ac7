"""End-to-end shipping gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every test asserts its own wall-clock budget on top of
the functional claim, so a slow regression fails the same gate as a
wrong answer.  All comparisons are exact; there are no tolerances.
"""

import json
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from wgames import (
    PureStrategy,
    PureStrategyProfile,
    SearchBudgetExhausted,
    build_witness,
    certify_nonequivalence,
    check_partial_causality,
    corpus_model,
    corpus_names,
    find_recall_violation,
    iter_causal_orderings,
    parse_model,
    serialize_belief,
    serialize_model,
    serialize_strategy,
    verify_certificate,
)
from wgames.cli import main

from clirunner import CliRunner
import oracles
import test_properties
from generators import (
    oracle_phi,
    oracle_plans,
    random_belief,
    random_causal_model,
    random_mixed,
    to_oracle,
)
from micro import AGENTS, PLAYER, all_orderings_of, enumerate_micro_models

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ── criterion 1: the cyclic three-agent model ───────────────────────────

# reaction to the binary signal: play it, or play its complement
ID = ("0", "1")
FLIP = ("1", "0")

# the four solution-map rows published for this model; the other four
# reaction profiles are checked against the fixed-point oracle only
PUBLISHED_ROWS = [
    ((ID, ID, ID), ("0", "0", "0")),
    ((FLIP, ID, ID), ("1", "0", "1")),
    ((FLIP, FLIP, ID), ("0", "1", "0")),
    ((FLIP, FLIP, FLIP), ("1", "1", "1")),
]

REMAINING_REACTIONS = [
    (ID, FLIP, ID),
    (ID, ID, FLIP),
    (ID, FLIP, FLIP),
    (FLIP, ID, FLIP),
]


def test_criterion_1_cyclic_model_is_playable_with_published_solutions(
    runner, tmp_path
):
    start = time.perf_counter()
    model = corpus_model("witsenhausen-noncausal")
    model_file = write(tmp_path, "cyclic.json", serialize_model(model))
    assert runner.invoke(main, ["playability", model_file]).exit_code == 0

    oracle = to_oracle(model)
    rows = PUBLISHED_ROWS + [(r, None) for r in REMAINING_REACTIONS]
    for reactions, expected in rows:
        profile_file = write(
            tmp_path,
            "profile.json",
            json.dumps(
                {
                    "kind": "pure-profile",
                    "strategies": {
                        agent: list(choice)
                        for agent, choice in zip(("a", "b", "c"), reactions)
                    },
                }
            ),
        )
        result = runner.invoke(
            main,
            ["--format", "structured", "solve", model_file, "--profile", profile_file],
        )
        assert result.exit_code == 0, result.output
        [row] = json.loads(result.stdout)["details"]["solutions"]
        got = row["configuration"]

        profile = PureStrategyProfile(
            tuple(
                PureStrategy(agent, choice)
                for agent, choice in zip(("a", "b", "c"), reactions)
            )
        )
        [sol] = oracles.solutions(oracle, oracle_plans(model, oracle, profile), "*")
        assert got == {"nature": "*", "a": sol[1], "b": sol[2], "c": sol[3]}
        if expected is not None:
            assert (got["a"], got["b"], got["c"]) == expected

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


# ── criterion 2: the two-agent recall suite ─────────────────────────────


def test_criterion_2_two_agent_recall_suite(runner, tmp_path):
    simultaneous = write(
        tmp_path,
        "simultaneous.json",
        serialize_model(corpus_model("alice-bob-simultaneous")),
    )
    start = time.perf_counter()
    result = runner.invoke(
        main,
        ["--format", "structured", "recall", simultaneous, "--player", "team", "--search"],
    )
    assert result.exit_code == 1
    assert json.loads(result.stdout)["outcome"] == "no-ordering"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"simultaneous variant took {elapsed:.2f}s"

    ordering_file = write(
        tmp_path,
        "bob-first.json",
        json.dumps({"kind": "ordering", "player": "team", "sequence": ["bob", "alice"]}),
    )
    for name in ("alice-bob-ordered", "alice-bob-nature"):
        model_file = write(tmp_path, f"{name}.json", serialize_model(corpus_model(name)))
        start = time.perf_counter()
        held = runner.invoke(
            main,
            ["recall", model_file, "--player", "team", "--ordering", ordering_file],
        )
        assert held.exit_code == 0, held.output
        found = runner.invoke(
            main,
            ["--format", "structured", "recall", model_file, "--player", "team", "--search"],
        )
        assert found.exit_code == 0, found.output
        details = json.loads(found.stdout)["details"]
        assert details["ordering"]["sequence"] == ["bob", "alice"]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


# ── criterion 3: transform and verify on random models ──────────────────


def test_criterion_3_transform_verifies_on_500_random_models(runner, tmp_path):
    start = time.perf_counter()
    rng = Random(3500)
    verified = 0
    draws = 0
    while verified < 500:
        draws += 1
        assert draws < 5000, f"only {verified} verified after {draws} draws"
        model = random_causal_model(rng)
        model_file = write(tmp_path, "model.json", serialize_model(model))
        nu_file = write(
            tmp_path, "nu.json", serialize_belief(random_belief(rng, model))
        )
        args = [
            "--format", "structured", "kuhn", model_file,
            "--player", "P", "--nu", nu_file,
        ]
        for k, name in enumerate(model.player_names):
            strategy_file = write(
                tmp_path,
                f"strategy-{k}.json",
                serialize_strategy(random_mixed(rng, model, name)),
            )
            args += ["--strategy", strategy_file]
        result = runner.invoke(main, args + ["--search", "--verify"])
        if result.exit_code in (1, 3):
            # models with no recall-compatible ordering do not count;
            # a failed verification would be outcome law-changed instead
            assert json.loads(result.stdout)["outcome"] in ("no-ordering", "unknown")
            continue
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["details"]["verified"] is True
        verified += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"


# ── criterion 4: certificates on random models ──────────────────────────


def test_criterion_4_certificates_machine_check_on_200_random_models():
    start = time.perf_counter()
    rng = Random(4200)
    certified = 0
    attempts = 0
    while certified < 200:
        attempts += 1
        assert attempts < 5000, f"only {certified} certified after {attempts} attempts"
        model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
        assert all(len(acts.labels) >= 2 for _, acts in model.agents)
        violation = None
        try:
            for phi in iter_causal_orderings(model, "P"):
                violation = find_recall_violation(model, "P", phi)
                if violation is not None:
                    break
        except SearchBudgetExhausted:
            continue
        if violation is None:
            continue
        nu, focus, opponents = build_witness(model, "P", violation)
        certificate = certify_nonequivalence(model, "P", nu, focus, opponents)
        assert certificate is not None, (model, violation)
        assert verify_certificate(model, "P", certificate)
        certified += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


# ── criterion 5: structural property suites ─────────────────────────────


def test_criterion_5_structural_property_suites_within_budget():
    for suite, count in test_properties.STRUCTURAL_SUITES.items():
        assert count >= 1000, f"{suite} runs only {count} cases"

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-v"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for suite in test_properties.STRUCTURAL_SUITES:
        assert f"{suite} PASSED" in proc.stdout
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"


# ── criterion 6: exhaustive micro-scale cross-check ─────────────────────


def test_criterion_6_exhaustive_micro_recall_cross_check():
    start = time.perf_counter()
    models = enumerate_micro_models(2000)
    assert len(models) == 2000

    checked = 0
    for model in models:
        oracle = to_oracle(model)
        for phi in all_orderings_of(model):
            checked += 1
            violation = find_recall_violation(model, PLAYER, phi)
            if violation is not None:
                # sound on every ordering: a reported violation is a
                # genuine recall failure per the brute-force checker
                assert oracles.recall_fails(
                    oracle, AGENTS, oracle_phi(model, phi), include_len1=True
                )
            elif check_partial_causality(model, PLAYER, phi).holds:
                # complete on partially causal orderings: no violation
                # found means recall genuinely holds
                assert not oracles.recall_fails(
                    oracle, AGENTS, oracle_phi(model, phi), include_len1=True
                )
    assert checked == 499_520

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"


# ── criterion 7: i/o determinism ────────────────────────────────────────


def test_criterion_7_round_trips_and_deterministic_cli(runner, tmp_path):
    for name in corpus_names():
        text = serialize_model(corpus_model(name))
        assert serialize_model(parse_model(text)) == text

    model_file = write(
        tmp_path, "ordered.json", serialize_model(corpus_model("alice-bob-ordered"))
    )
    nu_file = write(tmp_path, "nu.json", json.dumps({"*": "1"}))
    mixed_file = write(
        tmp_path,
        "mixed.json",
        json.dumps(
            {
                "kind": "mixed",
                "player": "team",
                "support": [
                    {"weight": "1/2", "profile": {"alice": ["T", "T"], "bob": ["L"]}},
                    {"weight": "1/2", "profile": {"alice": ["B", "B"], "bob": ["R"]}},
                ],
            }
        ),
    )
    commands = [
        ["--format", "structured", "playability", model_file],
        ["--format", "structured", "pushforward", model_file,
         "--nu", nu_file, "--strategy", mixed_file],
        ["--format", "structured", "kuhn", model_file, "--player", "team",
         "--nu", nu_file, "--strategy", mixed_file, "--search", "--verify"],
        ["--format", "structured", "necessity", model_file,
         "--player", "team", "--search"],
    ]
    for args in commands:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code

    base = ["--format", "structured", "pushforward", model_file,
            "--nu", nu_file, "--strategy", mixed_file]
    reference = runner.invoke(main, base)
    for threads in ("2", "3", "7"):
        again = runner.invoke(main, ["--threads", threads] + base)
        assert again.exit_code == reference.exit_code
        assert again.stdout == reference.stdout
