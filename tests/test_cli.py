"""Exit codes, report shapes, and byte-level determinism of the CLI."""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from wgames import (
    behavioral_to_mixed,
    corpus_model,
    corpus_names,
    search_recall_ordering,
    serialize_model,
    serialize_ordering,
    serialize_strategy,
)
from wgames.cli import _TOP, main

from clirunner import CliRunner
from generators import (
    MUTATIONS,
    mutated_json,
    observes_document,
    random_behavioral,
    random_belief,
    random_causal_model,
    random_mixed,
    random_partition_model,
)


@pytest.fixture()
def runner():
    return CliRunner()


def write_model(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_model(corpus_model(name)))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def self_info_model(tmp_path):
    payload = {
        "nature": {"states": ["*"]},
        "agents": [{"id": "a", "actions": ["0", "1"]}],
        "players": {"P": ["a"]},
        "information": {"a": {"observes": ["a"]}},
    }
    return write_json(tmp_path, "selfinfo.json", payload)


def test_validate_ok(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    result = runner.invoke(main, ["validate", model])
    assert result.exit_code == 0
    assert "valid" in result.stdout


def test_validate_bad_input_is_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 2
    assert "invalid JSON" in result.stderr


def test_missing_file_is_exit_2(runner):
    result = runner.invoke(main, ["validate", "/nonexistent/model.json"])
    assert result.exit_code == 2


def test_solve_roundtrip(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    profile = write_json(
        tmp_path,
        "profile.json",
        {
            "kind": "pure-profile",
            "strategies": {"alice": ["T", "B"], "bob": ["R"]},
        },
    )
    result = runner.invoke(main, ["--format", "structured", "solve", model, "--profile", profile])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["outcome"] == "solved"
    [row] = report["details"]["solutions"]
    assert row["configuration"] == {"nature": "*", "alice": "B", "bob": "R"}


def test_solve_unsolvable_is_exit_1(runner, tmp_path):
    model = self_info_model(tmp_path)
    agree = write_json(
        tmp_path,
        "agree.json",
        {"kind": "pure-profile", "strategies": {"a": ["0", "1"]}},
    )
    result = runner.invoke(main, ["solve", model, "--profile", agree])
    assert result.exit_code == 1
    assert "unsolvable" in result.stdout


def test_playability_exit_codes(runner, tmp_path):
    good = write_model(tmp_path, "witsenhausen-noncausal")
    result = runner.invoke(main, ["playability", good])
    assert result.exit_code == 0

    bad = self_info_model(tmp_path)
    plain = runner.invoke(main, ["--format", "structured", "playability", bad])
    assert plain.exit_code == 1
    assert "witness" not in json.loads(plain.stdout)["details"]

    with_witness = runner.invoke(
        main, ["--format", "structured", "playability", bad, "--witness"]
    )
    assert with_witness.exit_code == 1
    witness = json.loads(with_witness.stdout)["details"]["witness"]
    assert witness["solution-count"] in (0, 2)


def test_recall_with_ordering(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    good = write_json(
        tmp_path,
        "ba.json",
        {"kind": "ordering", "player": "team", "sequence": ["bob", "alice"]},
    )
    result = runner.invoke(main, ["recall", model, "--player", "team", "--ordering", good])
    assert result.exit_code == 0

    bad = write_json(
        tmp_path,
        "ab.json",
        {"kind": "ordering", "player": "team", "sequence": ["alice", "bob"]},
    )
    result = runner.invoke(main, ["recall", model, "--player", "team", "--ordering", bad])
    assert result.exit_code == 1


def test_recall_search_outcomes(runner, tmp_path):
    simultaneous = write_model(tmp_path, "alice-bob-simultaneous")
    none = runner.invoke(main, ["recall", simultaneous, "--player", "team", "--search"])
    assert none.exit_code == 1

    strangled = runner.invoke(
        main,
        ["recall", simultaneous, "--player", "team", "--search", "--budget", "1"],
    )
    assert strangled.exit_code == 3

    ordered = write_model(tmp_path, "alice-bob-ordered")
    found = runner.invoke(
        main, ["--format", "structured", "recall", ordered, "--player", "team", "--search"]
    )
    assert found.exit_code == 0
    assert json.loads(found.stdout)["details"]["ordering"]["sequence"] == ["bob", "alice"]


def test_recall_needs_exactly_one_mode(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    neither = runner.invoke(main, ["recall", model, "--player", "team"])
    assert neither.exit_code == 2
    unknown_player = runner.invoke(main, ["recall", model, "--player", "zz", "--search"])
    assert unknown_player.exit_code == 2


def test_causality_exit_codes(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    causal = write_json(
        tmp_path,
        "ba.json",
        {"kind": "ordering", "player": "team", "sequence": ["bob", "alice"]},
    )
    assert runner.invoke(main, ["causality", model, "--player", "team", "--ordering", causal]).exit_code == 0
    acausal = write_json(
        tmp_path,
        "ab.json",
        {"kind": "ordering", "player": "team", "sequence": ["alice", "bob"]},
    )
    assert runner.invoke(main, ["causality", model, "--player", "team", "--ordering", acausal]).exit_code == 1


CORRELATED = {
    "kind": "mixed",
    "player": "team",
    "support": [
        {"weight": "1/2", "profile": {"alice": ["T", "T"], "bob": ["L"]}},
        {"weight": "1/2", "profile": {"alice": ["B", "B"], "bob": ["R"]}},
    ],
}


def test_pushforward_and_threads_determinism(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    nu = write_json(tmp_path, "nu.json", {"*": "1"})
    mix = write_json(tmp_path, "mix.json", CORRELATED)
    args = ["--format", "structured", "pushforward", model, "--nu", nu, "--strategy", mix]
    one = runner.invoke(main, args)
    assert one.exit_code == 0
    law = json.loads(one.stdout)["details"]["law"]
    assert law == [
        {"configuration": {"nature": "*", "alice": "T", "bob": "L"}, "weight": "1/2"},
        {"configuration": {"nature": "*", "alice": "B", "bob": "R"}, "weight": "1/2"},
    ]
    for threads in ("2", "5"):
        again = runner.invoke(main, ["--threads", threads] + args)
        assert again.exit_code == 0
        assert again.stdout == one.stdout


def test_pushforward_requires_full_player_coverage(runner, tmp_path):
    model = write_model(tmp_path, "stackelberg")
    nu = write_json(tmp_path, "nu.json", {"*": "1"})
    only_leader = write_json(
        tmp_path,
        "leader.json",
        {"kind": "pure-profile", "strategies": {"L": ["hi"]}},
    )
    result = runner.invoke(
        main, ["pushforward", model, "--nu", nu, "--strategy", only_leader]
    )
    assert result.exit_code == 2


def test_kuhn_transform_and_verify(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    nu = write_json(tmp_path, "nu.json", {"*": "1"})
    mix = write_json(tmp_path, "mix.json", CORRELATED)
    result = runner.invoke(
        main,
        [
            "--format",
            "structured",
            "kuhn",
            model,
            "--player",
            "team",
            "--nu",
            nu,
            "--strategy",
            mix,
            "--search",
            "--verify",
        ],
    )
    assert result.exit_code == 0
    details = json.loads(result.stdout)["details"]
    assert details["verified"] is True
    assert details["behavioral"]["kind"] == "behavioral"
    assert details["ordering"]["sequence"] == ["bob", "alice"]


def test_kuhn_without_recall_is_exit_1(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-simultaneous")
    nu = write_json(tmp_path, "nu.json", {"*": "1"})
    mix = write_json(
        tmp_path,
        "mix.json",
        {
            "kind": "mixed",
            "player": "team",
            "support": [
                {"weight": "1/2", "profile": {"alice": ["T"], "bob": ["L"]}},
                {"weight": "1/2", "profile": {"alice": ["B"], "bob": ["R"]}},
            ],
        },
    )
    result = runner.invoke(
        main,
        ["kuhn", model, "--player", "team", "--nu", nu, "--strategy", mix, "--search"],
    )
    assert result.exit_code == 1

    strangled = runner.invoke(
        main,
        [
            "kuhn",
            model,
            "--player",
            "team",
            "--nu",
            nu,
            "--strategy",
            mix,
            "--search",
            "--budget",
            "1",
        ],
    )
    assert strangled.exit_code == 3


def test_necessity_certifies_simultaneous_team(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-simultaneous")
    result = runner.invoke(
        main,
        ["--format", "structured", "necessity", model, "--player", "team", "--search"],
    )
    assert result.exit_code == 1
    report = json.loads(result.stdout)
    assert report["outcome"] == "certified"
    cert = report["details"]["certificate"]
    assert cert["exhibited"] == {"nature": "*", "alice": "T", "bob": "R"}


def test_necessity_passes_recall_compatible_ordering(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-ordered")
    good = write_json(
        tmp_path,
        "ba.json",
        {"kind": "ordering", "player": "team", "sequence": ["bob", "alice"]},
    )
    result = runner.invoke(
        main, ["necessity", model, "--player", "team", "--ordering", good]
    )
    assert result.exit_code == 0

    acausal = write_json(
        tmp_path,
        "ab.json",
        {"kind": "ordering", "player": "team", "sequence": ["alice", "bob"]},
    )
    rejected = runner.invoke(
        main, ["necessity", model, "--player", "team", "--ordering", acausal]
    )
    assert rejected.exit_code == 2


def test_necessity_without_causal_ordering_is_exit_3(runner, tmp_path):
    model = write_model(tmp_path, "witsenhausen-noncausal")
    result = runner.invoke(main, ["necessity", model, "--player", "system", "--search"])
    assert result.exit_code == 3
    assert "no-causal-ordering" in result.stdout


def test_examples_subcommands(runner, tmp_path):
    listing = runner.invoke(main, ["examples", "list"])
    assert listing.exit_code == 0
    assert "witsenhausen-noncausal" in listing.stdout

    export = runner.invoke(main, ["examples", "export", "alice-bob-nature"])
    assert export.exit_code == 0
    assert export.stdout == serialize_model(corpus_model("alice-bob-nature"))

    unknown = runner.invoke(main, ["examples", "export", "zz"])
    assert unknown.exit_code == 2


def test_reports_are_stable_across_runs(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-nature")
    args = ["--format", "structured", "recall", model, "--player", "team", "--search"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.stdout == second.stdout


def test_timing_goes_to_stderr_only(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-nature")
    args = ["recall", model, "--player", "team", "--search"]
    silent = runner.invoke(main, args)
    timed = runner.invoke(main, ["--timing"] + args)
    assert timed.stdout == silent.stdout
    assert "elapsed:" in timed.stderr
    assert "elapsed:" not in timed.stdout


@pytest.mark.parametrize("args", [["examples", "list"], ["examples", "export", "sequential-3"]])
def test_timing_covers_the_examples_commands(runner, args):
    silent = runner.invoke(main, args)
    timed = runner.invoke(main, ["--timing"] + args)
    assert timed.exit_code == silent.exit_code == 0
    assert timed.stdout == silent.stdout
    assert timed.stderr.startswith("elapsed: ") and timed.stderr.count("\n") == 1


def mutual_observation_inputs(tmp_path):
    """Two single-agent players, each observing the other.  A mixes the
    constants 0 and 1 half and half and B copies a: every sampled plan pair
    solves uniquely, but A's behavioral form (copy b) with B's copy has two
    closed-loop solutions."""
    model = write_json(
        tmp_path,
        "mutual.json",
        {
            "nature": {"states": ["*"]},
            "agents": [{"id": "a", "actions": ["0", "1"]}, {"id": "b", "actions": ["0", "1"]}],
            "players": {"A": ["a"], "B": ["b"]},
            "information": {"a": {"observes": ["b"]}, "b": {"observes": ["a"]}},
        },
    )
    nu = write_json(tmp_path, "nu.json", {"*": "1"})
    mix_a = write_json(
        tmp_path,
        "a.json",
        {
            "kind": "mixed",
            "player": "A",
            "support": [
                {"weight": "1/2", "profile": {"a": ["0", "0"]}},
                {"weight": "1/2", "profile": {"a": ["1", "1"]}},
            ],
        },
    )
    copy_b = write_json(
        tmp_path, "b.json", {"kind": "pure-profile", "strategies": {"b": ["0", "1"]}}
    )
    return model, nu, mix_a, copy_b


def test_kuhn_verify_on_unplayable_model_is_exit_2(runner, tmp_path):
    model, nu, mix_a, copy_b = mutual_observation_inputs(tmp_path)
    args = ["kuhn", model, "--player", "A", "--nu", nu]
    args += ["--strategy", mix_a, "--strategy", copy_b, "--search", "--verify"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert "not solvable" in result.stderr


def test_validate_space_over_the_cap_is_exit_2(runner, tmp_path):
    agents = [f"a{i}" for i in range(24)]
    model = write_json(
        tmp_path,
        "huge.json",
        {
            "nature": {"states": ["*"]},
            "agents": [{"id": a, "actions": ["0", "1"]} for a in agents],
            "players": {"P": agents},
            "information": {a: {"observes": []} for a in agents},
        },
    )
    result = runner.invoke(main, ["validate", model])
    assert result.exit_code == 2
    assert "$.agents" in result.stderr


# (exit code, sha256 of stdout) of ``--format structured`` reports, with the
# first player of each model and, for causality, the constant ordering of
# its agents in declared order.  ``pushforward`` and ``kuhn --search
# --verify`` take the uniform belief and the profile that plays every
# agent's first action at every atom; ``export`` is ``examples export``.
GOLDEN_REPORTS = {
    ("alice-bob-simultaneous", "recall"): (1, "40a650f9fe1ba071ede46cb79c74e8dbc845bbf6e25873c530c0372cda02f899"),
    ("alice-bob-simultaneous", "necessity"): (1, "ed8f980ebb5b4b601526e39945af4e4612db8f7b181b061c9822733a0db532fc"),
    ("alice-bob-simultaneous", "causality"): (0, "84ff9b29e5f38d241ffc477ce4f697cce33416d48d2f58e5cd76e5b02fb973e5"),
    ("alice-bob-ordered", "recall"): (0, "5ad0bf1c059ccf4d137a749285552fab7c2483256489bb5912671e3324da7ab4"),
    ("alice-bob-ordered", "necessity"): (0, "2f624d52a0d9a275c2e073ae5543a21d5daf83cd9ebd785c2a01ffb8c2688d34"),
    ("alice-bob-ordered", "causality"): (1, "63a82588ffea59cfd5f280dbd5e806f3bd053bf086dd6de0e693626a3f73c5ec"),
    ("alice-bob-nature", "recall"): (0, "1ae8487e5a96cdd53e7bffea9b55fe008edb4350d4d6eab2bb0a994fa677e021"),
    ("alice-bob-nature", "necessity"): (0, "84cc96a45f743beb21a9ac0cd108ca2d319de5f555d8b8ac47c145579e2edb44"),
    ("alice-bob-nature", "causality"): (1, "249c71525228e05664f7a8bb0fe4e3ed0041a12688af0d7a43ac0cd3a6d8c955"),
    ("sequential-3", "recall"): (0, "0d50dc7afd4394a13810fd6d1aaf97e7352d6a1b4caef427022375051669a641"),
    ("sequential-3", "necessity"): (0, "566a84f89cf68ac04304f8da208809c7e27a78b3d56c921c24e513560b377f30"),
    ("sequential-3", "causality"): (0, "9fcf53735ccf094af5fed8c417e0e2e18cbf3c6b69d4825f788e3f9eac30cad1"),
    ("principal-agent-hidden-type", "recall"): (0, "12c947240bd43adcee9806c232a8fe5569876652cc5eee6d6883dc95a2c6450e"),
    ("principal-agent-hidden-type", "necessity"): (0, "ddc50379dabe684f814b76eb398a6aa7fcaea23e71ce1c89c19bf9c8619d2833"),
    ("principal-agent-hidden-type", "causality"): (0, "d878b962caaf972899acf608d08962bbec9542dd3706a7108e217cc9727e8cf2"),
    ("principal-agent-hidden-action", "recall"): (0, "8af062882a8ff6ea79b9011e6b1d4ccef582e0db890e99bc06ad0f947142f1d2"),
    ("principal-agent-hidden-action", "necessity"): (0, "8717dde6907d3542b16940861336fe19ebd243a6dabacea1e9b7b145f555d7cd"),
    ("principal-agent-hidden-action", "causality"): (0, "a08ccdede4f7ae42d6256c3249545ff94a6bce84e80b5b25088d18b7116062c9"),
    ("stackelberg", "recall"): (0, "b8eb917e133daeb2cb82a74e2d8c95869a0b951f56df26b20ec3dc026ed009e8"),
    ("stackelberg", "necessity"): (0, "a792ff0322d8e0e37aa5272af2f5978a352e449bf52ac007ff7a9996f2c21ead"),
    ("stackelberg", "causality"): (0, "5fdc516f6668f2f8dc69904ace51a2529942d2cbc95f29ca399ad9ab34800bca"),
    ("witsenhausen-noncausal", "recall"): (1, "8e692ba3a89881e7d526910c0319b81b88e0d76f80d19b3e5a3762145f70d990"),
    ("witsenhausen-noncausal", "necessity"): (3, "b3d1e88e8eb0eceaaf64de09ea223a30662e81fa796f5e8f2c313f7bece4cca5"),
    ("witsenhausen-noncausal", "causality"): (1, "1db767d200350bf17d40bf2e6641f76a4ca4954b4fbabc608e49035aae9c1a4b"),
    ("alice-bob-simultaneous", "validate"): (0, "07afc9e02ff62fe0617908af5d45e4f73835e603046baa1cefb41d8eec301fa1"),
    ("alice-bob-simultaneous", "playability"): (0, "aa9587238c6bc7c966dd48620355947e4c75310f97304a62b8842428c64dd740"),
    ("alice-bob-simultaneous", "pushforward"): (0, "49264b47fcf581029fad55cebd458defbd48dfa6d6bdf474e2f086ec4d5b162a"),
    ("alice-bob-simultaneous", "kuhn"): (1, "94df6f05c99c0d563d7333ac92c932d1cc10c133dd14d0b6e565322da45c8a95"),
    ("alice-bob-simultaneous", "export"): (0, "58458575ec56917922b79af90805ca959ce6b8c3a6eab01fdcce44b103b07d35"),
    ("alice-bob-ordered", "validate"): (0, "6f3e9d83daa425c8abd4884a33c34e5471da6596100f45dd386e0ecb02d3ea23"),
    ("alice-bob-ordered", "playability"): (0, "ee15b1e363ea4cb8d02ca692ae0cfe851cae5291d71b27b8f51de04bc6e46a60"),
    ("alice-bob-ordered", "pushforward"): (0, "b1db98e8286b1928ea8daaa52d99f89a086579e632bfbf95168bff6ca267c9e3"),
    ("alice-bob-ordered", "kuhn"): (0, "07b30689a4ebf4f8cba3072b62f2e59d13728f7df6403f761789f798b4afc192"),
    ("alice-bob-ordered", "export"): (0, "55f328cb1b65c5dada3454aa2b98b280911f0f9827fba4b826003635b1d88863"),
    ("alice-bob-nature", "validate"): (0, "f5c1717900dba9da8e96158ed12fe23d18c93925ebdcbfd1328b02478ee8d9c6"),
    ("alice-bob-nature", "playability"): (0, "eda94c21a7a41cfedd4c607e6fc08b813bedbd353ed4e7f47ea4a053bf9364d9"),
    ("alice-bob-nature", "pushforward"): (0, "793dfa2ece7a50dbf4fd7879324c2ae6920ec7038aa90605c5f75f4e537c3f48"),
    ("alice-bob-nature", "kuhn"): (0, "ae2a063f8356d99c750ce758477692df7ba7b5e0a3dae4e0af7abd773de05010"),
    ("alice-bob-nature", "export"): (0, "0ac045a5938b349b62bcb48107dcb62f17d66fc4182c5e3cad1ca6814e9f711e"),
    ("sequential-3", "validate"): (0, "a20526bca094f0e692a7e9d7c07f191449a1a5983ac0e453b96f9770d0533763"),
    ("sequential-3", "playability"): (0, "2d5352917bde469e3a7a51a5d1ccd3d27b468e3c3b45c7030428bb69b5550945"),
    ("sequential-3", "pushforward"): (0, "4e095421895999fe6534048ab3f929771e4400d5cb79079154a66378bab5023e"),
    ("sequential-3", "kuhn"): (0, "6f92e0a73d2aaa17686c2b5102ebf6a115d40e8dc10d3773a5860b04ac35b997"),
    ("sequential-3", "export"): (0, "f53439e10f4cbdba4abdd1aaf24063d11e4bb524ff6e8880da3a9cb932c538ea"),
    ("principal-agent-hidden-type", "validate"): (0, "6a3700193378eeb8405bd9f69404a33ae2cc07289c9a54b44d3645013fa05780"),
    ("principal-agent-hidden-type", "playability"): (0, "1a3893815651c5b901a1f7e75c451670fe821f7bc3d2216a984eb14b11be2bc9"),
    ("principal-agent-hidden-type", "pushforward"): (0, "58a7ca553b01b776688b94086de5356b34d79f044f8e8c900cc7e6bfca311cff"),
    ("principal-agent-hidden-type", "kuhn"): (0, "7d3c3a9ee39e760ef46c225f09916046d9d1967b2cad3c940ecd73a0a8dce9d1"),
    ("principal-agent-hidden-type", "export"): (0, "2e227e3c20c2ef2ca56be0fac46f3c9d721743f089f68b16330de9ab0442026f"),
    ("principal-agent-hidden-action", "validate"): (0, "ea900b24bd0f5fd053e91b53346a4aa2cd2eaaf820ac57321b26868b1a1dbfc4"),
    ("principal-agent-hidden-action", "playability"): (0, "e2be472295316c4d9e39edbe8c74795dadd89e59efc7765a87ce96820650f7a6"),
    ("principal-agent-hidden-action", "pushforward"): (0, "7ea418d6ce9b82636c34f38f074583e8bb56e285f533124e252b851262ba85d3"),
    ("principal-agent-hidden-action", "kuhn"): (0, "2acae33c9c9775cd04b14c32e5b3038c59b1d13c024a59441a5c84fb0e9ace14"),
    ("principal-agent-hidden-action", "export"): (0, "37c3998d892fb09c65b2e632bcd885c444db086e50e981608a85ce9b331289ec"),
    ("stackelberg", "validate"): (0, "81e7062c0402d53241a9b0b7f484cb5937fb5747de04736b4d0bd600528d9f1a"),
    ("stackelberg", "playability"): (0, "903c1bb3a2318f12387762b8abd271502fa75ef4ffbc51ac71ba2eb3751a6027"),
    ("stackelberg", "pushforward"): (0, "e1a3dfd7411aa9bbaab9a7720366b8c4ec8c0c776225251283de6f8b47e4a938"),
    ("stackelberg", "kuhn"): (0, "fa902cef24fae0cca48cc2be201807ae5e710c932e3e2dfcf8b135fa4532ca2e"),
    ("stackelberg", "export"): (0, "ca00128d899741e938e9d7e99155014077789debbba1a9f53d84dab53abeecf9"),
    ("witsenhausen-noncausal", "validate"): (0, "dc76f42d6cc6e28c1e7c27fbe5e39251a202573ccbb8820c9ff239c49501a20b"),
    ("witsenhausen-noncausal", "playability"): (0, "6aa5b9dec584d465148cf1d12ba75f3e72c0d20f07336067e46999b9ce36102b"),
    ("witsenhausen-noncausal", "pushforward"): (0, "362d3f9461fb6dd4fac0ee0bb705e4f3ee0cee9ff408df2dc3d86d17635dd68e"),
    ("witsenhausen-noncausal", "kuhn"): (1, "1564b2f1770f693e0fbb76bff7fdb92283294392779c1dc7ec4d19f4dd887732"),
    ("witsenhausen-noncausal", "export"): (0, "d77ef21ec3ed280941ad04d0a488a3db7352e3028f2f1cf8b9a439bd4d4f987f"),
}


def golden_args(tmp_path, name, command):
    """CLI arguments of one golden run on the corpus model ``name``."""
    if command == "export":
        return ["examples", "export", name]
    model = corpus_model(name)
    path = write_model(tmp_path, name)
    player = model.player_names[0]
    if command == "validate":
        return ["--format", "structured", "validate", path]
    if command == "playability":
        return ["--format", "structured", "playability", path, "--witness"]
    if command in ("recall", "necessity"):
        return ["--format", "structured", command, path, "--player", player, "--search"]
    if command == "causality":
        sequence = list(model.agents_of(player))
        order = write_json(
            tmp_path, "order.json", {"kind": "ordering", "player": player, "sequence": sequence}
        )
        return ["--format", "structured", command, path, "--player", player, "--ordering", order]
    states = model.nature.labels
    nu = write_json(tmp_path, "nu.json", {w: str(Fraction(1, len(states))) for w in states})
    first = {
        a: [model.actions_of(a).labels[0]] * len(model.info_of(a)) for a in model.agent_ids
    }
    profile = write_json(
        tmp_path, "profile.json", {"kind": "pure-profile", "strategies": first}
    )
    args = ["--format", "structured", command, path, "--nu", nu, "--strategy", profile]
    if command == "kuhn":
        args += ["--player", player, "--search", "--verify"]
    return args


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize(
    "command",
    [
        "recall",
        "necessity",
        "causality",
        "validate",
        "playability",
        "pushforward",
        "kuhn",
        "export",
    ],
)
def test_corpus_reports_are_golden(runner, tmp_path, name, command):
    result = runner.invoke(main, golden_args(tmp_path, name, command))
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == GOLDEN_REPORTS[(name, command)]


@pytest.mark.parametrize("name", [*corpus_names(), "sequential-5"])
def test_observes_and_exported_models_give_the_same_reports(runner, tmp_path, name):
    """The same model given with ``observes`` lists and as its ``examples
    export`` atoms: every report is the same text, digest included, though
    only the first form hands the analyses cylinder fields."""
    model = corpus_model(name)
    doc = observes_document(model)
    observes = write_json(tmp_path, "observes.json", doc)
    if name != "witsenhausen-noncausal":  # no agent there observes coordinates
        assert any("observes" in spec for spec in doc["information"].values())
    for command in ("recall", "causality", "necessity", "kuhn"):
        args = golden_args(tmp_path, name, command)
        exported = runner.invoke(main, args)
        given_by_coordinates = runner.invoke(main, [observes if a.endswith(f"{name}.json") else a for a in args])
        assert exported.exception is None or isinstance(exported.exception, SystemExit)
        assert (given_by_coordinates.exit_code, given_by_coordinates.stdout) == (exported.exit_code, exported.stdout)


FUZZ_COMMANDS = (
    ("recall", "--ordering"),
    ("recall", "--search"),
    ("causality", "--ordering"),
    ("necessity", "--ordering"),
    ("necessity", "--search"),
)
FUZZ_RENAMES = ("sequence", "assignments", "kind", "player", "configuration", "x")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    builder=st.sampled_from(["causal", "partition"]),
    form=st.sampled_from(["observes", "atoms"]),
    command=st.sampled_from(FUZZ_COMMANDS),
    budget=st.sampled_from([None, 1, 7, 60]),
    at=st.integers(min_value=0, max_value=10**6),
    how=st.sampled_from([None, *MUTATIONS]),
    junk=st.one_of(st.sampled_from(["P", "O", "p1", "a1", "nature", "ordering", [], {}]), st.text(max_size=4), st.integers()),
)
@example(seed=0, builder="causal", form="observes", command=("recall", "--search"), budget=None, at=0, how=None, junk="P")
@example(seed=1, builder="causal", form="atoms", command=("necessity", "--search"), budget=7, at=0, how=None, junk="P")
@example(seed=2, builder="partition", form="observes", command=("causality", "--ordering"), budget=None, at=3, how="rewrite", junk="p1")
@example(seed=3, builder="partition", form="atoms", command=("necessity", "--ordering"), budget=1, at=1, how="delete", junk=0)
@example(seed=4, builder="causal", form="observes", command=("recall", "--ordering"), budget=60, at=5, how="text", junk="]")
def test_fuzzed_analyses_keep_the_exit_code_contract(fuzz_dir, seed, builder, form, command, budget, at, how, junk):
    """``recall``, ``causality`` and ``necessity`` on a small generated
    model, written in either form, with an ordering file that may carry one
    edit: the exit code is one of the contract's, nothing raises past the
    command line, and a second run prints the same report."""
    rng = Random(seed)
    if builder == "causal":
        model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
    else:
        model = random_partition_model(rng)
    own = list(model.agents_of("P"))
    if rng.random() < 0.5:
        rng.shuffle(own)
        doc = {"kind": "ordering", "player": "P", "sequence": own}
    else:
        assignments = [
            {"configuration": h.as_dict(), "sequence": rng.sample(own, len(own))} for h in model.space.configs()
        ]
        doc = {"kind": "ordering", "player": "P", "assignments": assignments}
    text = serialize_model(model) if form == "atoms" else json.dumps(observes_document(model))
    (fuzz_dir / "model.json").write_text(text)
    (fuzz_dir / "order.json").write_text(json.dumps(doc) if how is None else mutated_json(doc, at, how, junk, FUZZ_RENAMES))
    name, flag = command
    args = ["--format", "structured", name, str(fuzz_dir / "model.json"), "--player", "P"]
    args += ["--ordering", str(fuzz_dir / "order.json")] if flag == "--ordering" else ["--search"]
    if budget is not None and name != "causality":
        args += ["--budget", str(budget)]
    first, second = CliRunner().invoke(main, args), CliRunner().invoke(main, args)
    assert first.exception is None or isinstance(first.exception, SystemExit), first.exception
    assert first.exit_code in (0, 1, 2, 3) and "Traceback" not in first.stderr
    assert (second.exit_code, second.stdout) == (first.exit_code, first.stdout)


# (exit code, sha256 of stdout) of ``--format structured`` laws whose weights
# are not all 1/|Omega|: a full-support behavioral strategy on sequential-3
# and a two-plan mixed strategy on alice-bob-nature (see ``golden_law_args``).
GOLDEN_LAWS = {
    ("sequential-3", "pushforward"): (0, "178c8b5ce3ca0799fbf5cde5e83a4dd4bd81a81946bd4f59d96cd39b57e61390"),
    ("sequential-3", "kuhn"): (0, "fd699a1329822a3e264f6eb6cb986e50392eaa6587b34173804f94774df931a5"),
    ("alice-bob-nature", "pushforward"): (0, "ee50014fad62bf5c9267110e6e387e957e7723d2dee724022f547f263c7584ae"),
}


def golden_law_args(tmp_path, name, command):
    """CLI arguments of one golden law run on the corpus model ``name``."""
    path = write_model(tmp_path, name)
    if name == "sequential-3":
        nu = write_json(tmp_path, "nu.json", {"w0": "1/3", "w1": "2/3"})
        # t_k at atom z plays "0" with weight (k + z + 1) / (k + z + 3)
        kernels = {
            f"t{k}": [
                {"0": f"{k + z + 1}/{k + z + 3}", "1": f"2/{k + z + 3}"} for z in range(2**k)
            ]
            for k in (1, 2, 3)
        }
        strategy = {"kind": "behavioral", "player": "dm", "kernels": kernels}
    else:
        nu = write_json(tmp_path, "nu.json", {"heads": "1/4", "tails": "3/4"})
        strategy = {
            "kind": "mixed",
            "player": "team",
            "support": [
                {"weight": "1/3", "profile": {"alice": ["T", "B", "T", "B"], "bob": ["L", "R"]}},
                {"weight": "2/3", "profile": {"alice": ["B", "B", "T", "T"], "bob": ["R", "R"]}},
            ],
        }
    args = ["--format", "structured", command, path, "--nu", nu]
    args += ["--strategy", write_json(tmp_path, "strategy.json", strategy)]
    if command == "kuhn":
        order = write_json(
            tmp_path, "order.json", {"kind": "ordering", "player": "dm", "sequence": ["t1", "t2", "t3"]}
        )
        args += ["--player", "dm", "--ordering", order, "--verify"]
    return args


@pytest.mark.parametrize("name, command", list(GOLDEN_LAWS))
def test_non_point_laws_are_golden(runner, tmp_path, name, command):
    result = runner.invoke(main, golden_law_args(tmp_path, name, command))
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == GOLDEN_LAWS[(name, command)]


def test_negative_weights_are_exit_2(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-nature")
    profile = write_json(
        tmp_path,
        "profile.json",
        {"kind": "pure-profile", "strategies": {"alice": ["T"] * 4, "bob": ["L"] * 2}},
    )
    kernels = write_json(
        tmp_path,
        "kernels.json",
        {
            "kind": "behavioral",
            "player": "team",
            "kernels": {
                "alice": [{"T": "3/2", "B": "-1/2"}, {"T": "1"}, {"T": "1"}, {"T": "1"}],
                "bob": [{"L": "1"}, {"L": "1"}],
            },
        },
    )
    uniform = write_json(tmp_path, "nu.json", {"heads": "1/2", "tails": "1/2"})
    negative = write_json(tmp_path, "neg-nu.json", {"heads": "3/2", "tails": "-1/2"})
    for nu, strategy, path in (
        (negative, profile, "$.tails"),
        (uniform, kernels, "$.kernels.alice[0].B"),
    ):
        result = runner.invoke(main, ["pushforward", model, "--nu", nu, "--strategy", strategy])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert f"{path}: negative weight -1/2" in result.stderr


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", ["recall", "kuhn", "necessity"])
def test_nonpositive_search_budget_is_exit_2(runner, tmp_path, command, budget):
    model = write_model(tmp_path, "alice-bob-ordered")
    args = [command, model, "--player", "team", "--search", "--budget", budget]
    if command == "kuhn":
        nu = write_json(tmp_path, "nu.json", {"*": "1"})
        args += ["--nu", nu, "--strategy", write_json(tmp_path, "mixed.json", CORRELATED)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["recall", "kuhn", "necessity"])
def test_huge_search_budget_reports_as_the_default(runner, tmp_path, command):
    """A budget far past what the search needs changes nothing: the search
    ends on its own, and the report is the default budget's."""
    name = "alice-bob-ordered" if command == "kuhn" else "alice-bob-simultaneous"
    args = ["--format", "structured", command, write_model(tmp_path, name), "--player", "team", "--search"]
    if command == "kuhn":
        nu = write_json(tmp_path, "nu.json", {"*": "1"})
        args += ["--nu", nu, "--strategy", write_json(tmp_path, "mixed.json", CORRELATED)]
    default = runner.invoke(main, args)
    huge = runner.invoke(main, args + ["--budget", "1000000000000000000000000000000"])
    assert default.exit_code in (0, 1)
    assert (huge.exit_code, huge.stdout) == (default.exit_code, default.stdout)


def test_kuhn_verify_with_cancelling_solution_counts_is_exit_2(runner, tmp_path):
    # B mixes copy and anti-copy: every sampled plan pair solves uniquely,
    # but A's behavioral form has 0 or 2 solutions against either
    model, nu, mix_a, _ = mutual_observation_inputs(tmp_path)
    mix_b = write_json(
        tmp_path,
        "b-mixed.json",
        {
            "kind": "mixed",
            "player": "B",
            "support": [
                {"weight": "1/2", "profile": {"b": ["0", "1"]}},
                {"weight": "1/2", "profile": {"b": ["1", "0"]}},
            ],
        },
    )
    args = ["kuhn", model, "--player", "A", "--nu", nu]
    args += ["--strategy", mix_a, "--strategy", mix_b, "--search", "--verify"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert "not solvable" in result.stderr


def test_kuhn_on_unsolvable_support_is_exit_2(runner, tmp_path):
    # A mixes in "a = copy b" and B copies a: that sample has two solutions
    model, nu, _, copy_b = mutual_observation_inputs(tmp_path)
    mix_a = write_json(
        tmp_path,
        "a-copy.json",
        {
            "kind": "mixed",
            "player": "A",
            "support": [
                {"weight": "1/2", "profile": {"a": ["0", "0"]}},
                {"weight": "1/2", "profile": {"a": ["0", "1"]}},
            ],
        },
    )
    order = write_json(tmp_path, "order.json", {"kind": "ordering", "player": "A", "sequence": ["a"]})
    args = ["kuhn", model, "--player", "A", "--nu", nu]
    args += ["--strategy", mix_a, "--strategy", copy_b, "--ordering", order]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    assert "not solvable" in result.stderr


def test_full_support_behavioral_on_sequential_6_is_not_expanded(runner, tmp_path):
    # t_j sees Nature and t_1 .. t_(j-1); with every kernel weight positive
    # the mixed form would hold 2^126 plans
    model = corpus_model("sequential-6")
    agents = model.agents_of("dm")
    rng = Random(6)
    kernels = {}
    for a in agents:
        rows = []
        for _ in model.info_of(a).atoms:
            k = rng.randint(1, 15)
            rows.append({"0": Fraction(k, 16), "1": Fraction(16 - k, 16)})
        kernels[a] = rows
    payload = {a: [{u: str(w) for u, w in row.items()} for row in rows] for a, rows in kernels.items()}
    beta = write_json(tmp_path, "beta.json", {"kind": "behavioral", "player": "dm", "kernels": payload})
    nu = write_json(tmp_path, "nu.json", {"w0": "1/3", "w1": "2/3"})
    order = write_json(tmp_path, "order.json", {"kind": "ordering", "player": "dm", "sequence": list(agents)})
    model_file = write_model(tmp_path, "sequential-6")

    result = runner.invoke(
        main, ["--format", "structured", "pushforward", model_file, "--nu", nu, "--strategy", beta]
    )
    assert result.exit_code == 0
    law = {
        tuple(row["configuration"].values()): Fraction(row["weight"])
        for row in json.loads(result.stdout)["details"]["law"]
    }
    want = {}
    for h in model.space.configs():
        w = {"w0": Fraction(1, 3), "w1": Fraction(2, 3)}[h.nature]
        for a in agents:
            w *= kernels[a][model.info_of(a).atom_index(h.index)][h.action(a)]
        want[tuple(h.as_dict().values())] = w
    assert law == want

    result = runner.invoke(
        main,
        ["--format", "structured", "kuhn", model_file, "--player", "dm", "--nu", nu,
         "--strategy", beta, "--ordering", order, "--verify"],
    )
    assert result.exit_code == 0
    details = json.loads(result.stdout)["details"]
    assert details["verified"] is True
    got = {
        a: [{u: Fraction(w) for u, w in row.items()} for row in rows]
        for a, rows in details["behavioral"]["kernels"].items()
    }
    assert got == kernels


@pytest.mark.parametrize("name", corpus_names())
def test_behavioral_file_reports_like_its_mixed_expansion(runner, tmp_path, name):
    model = corpus_model(name)
    player = model.player_names[0]
    rng = Random(f"behavioral-file/{name}")
    beta = random_behavioral(rng, model, player)
    nu = {w: str(p) for w, p in random_belief(rng, model).as_map().items()}
    others = []
    for p in model.player_names[1:]:
        (tmp_path / f"{p}.json").write_text(serialize_strategy(random_mixed(rng, model, p)))
        others += ["--strategy", str(tmp_path / f"{p}.json")]
    found = search_recall_ordering(model, player)
    order = str(tmp_path / "order.json")
    if found.outcome == "found":
        (tmp_path / "order.json").write_text(serialize_ordering(found.ordering, model))
    else:
        sequence = list(model.agents_of(player))
        write_json(tmp_path, "order.json", {"kind": "ordering", "player": player, "sequence": sequence})
    model_file = write_model(tmp_path, name)
    nu_file = write_json(tmp_path, "nu.json", nu)
    forms = {
        "behavioral": (tmp_path / "beta.json", serialize_strategy(beta)),
        "expanded": (tmp_path / "mixed.json", serialize_strategy(behavioral_to_mixed(model, beta))),
    }
    for path, text in forms.values():
        path.write_text(text)
    for fmt in ("human", "structured"):
        for command in (
            ["pushforward", model_file, "--nu", nu_file],
            ["kuhn", model_file, "--player", player, "--nu", nu_file, "--ordering", order, "--verify"],
        ):
            runs = [
                runner.invoke(main, ["--format", fmt, *command, "--strategy", str(path), *others])
                for path, _ in forms.values()
            ]
            assert "Traceback" not in runs[0].output
            assert runs[0].exit_code == runs[1].exit_code
            assert runs[0].stdout == runs[1].stdout


def test_deeply_nested_file_is_exit_2(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    result = runner.invoke(main, ["validate", str(deep)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "nested too deeply" in result.stderr


PURE_AB_NATURE = {"kind": "pure-profile", "strategies": {"alice": ["T"] * 4, "bob": ["L"] * 2}}


def test_non_utf8_file_is_exit_2(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-nature")
    profile = write_json(tmp_path, "profile.json", PURE_AB_NATURE)
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    pushforward = ["pushforward", model, "--nu", str(bad), "--strategy", profile]
    for args in (["validate", str(bad)], pushforward):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert f"{bad}: not UTF-8 text" in result.stderr


def test_weight_with_too_many_digits_is_exit_2(runner, tmp_path):
    model = write_model(tmp_path, "alice-bob-nature")
    nu = write_json(tmp_path, "nu.json", {"heads": "1/" + "3" * 5000, "tails": "1/2"})
    profile = write_json(tmp_path, "profile.json", PURE_AB_NATURE)
    result = runner.invoke(main, ["pushforward", model, "--nu", nu, "--strategy", profile])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "$.heads: rational of 5002 characters has too many digits" in result.stderr


@contextmanager
def unlimited_int_digits():
    """Let ``str`` write ints of any length, for building expected texts."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_belief_sum_past_the_digit_limit_is_exit_2(runner, tmp_path):
    # both weights parse, but their sum has an 8,001-digit denominator
    heads, tails = "1/1" + "0" * 3999 + "1", "1/1" + "0" * 3999 + "3"
    model = write_model(tmp_path, "alice-bob-nature")
    nu = write_json(tmp_path, "nu.json", {"heads": heads, "tails": tails})
    profile = write_json(tmp_path, "profile.json", PURE_AB_NATURE)
    result = runner.invoke(main, ["pushforward", model, "--nu", nu, "--strategy", profile])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    total = 1 / Fraction(10**4000 + 1) + 1 / Fraction(10**4000 + 3)
    with unlimited_int_digits():
        assert f"$: weights sum to {total}" in result.stderr


def test_pushforward_with_huge_kernel_denominators_is_exact(runner, tmp_path):
    model = corpus_model("alice-bob-nature")
    labels = {"alice": ("T", "B"), "bob": ("L", "R")}
    kernels = {}  # a different 4,000-digit denominator in every row
    for a, first in (("alice", 1), ("bob", 11)):
        rows = []
        for z in range(len(model.info_of(a))):
            p = Fraction(1, 10**3999 + first + z)
            rows.append(dict(zip(labels[a], (p, 1 - p))))
        kernels[a] = rows
    with unlimited_int_digits():
        wire = {a: [{u: str(w) for u, w in row.items()} for row in rows] for a, rows in kernels.items()}
    beta = write_json(tmp_path, "beta.json", {"kind": "behavioral", "player": "team", "kernels": wire})
    nu = write_json(tmp_path, "nu.json", {"heads": "1/3", "tails": "2/3"})
    args = ["--format", "structured", "pushforward", write_model(tmp_path, "alice-bob-nature")]
    result = runner.invoke(main, args + ["--nu", nu, "--strategy", beta])
    assert result.exit_code == 0, result.output
    law = json.loads(result.stdout)["details"]["law"]
    assert len(law) == model.space.size
    belief = {"heads": Fraction(1, 3), "tails": Fraction(2, 3)}
    for entry in law:
        h = entry["configuration"]
        i = model.space.index_of(h["nature"], h)
        mass = belief[h["nature"]]
        for a in ("alice", "bob"):
            mass *= kernels[a][model.info_of(a).atom_index(i)][h[a]]
        with unlimited_int_digits():
            assert entry["weight"] == str(mass)
    assert max(len(e["weight"]) for e in law) > 8000


# A single-action agent plays the same under mixed and behavioral
# strategies, so a violation that needs it to move has no witness.
SINGLE_ACTION_MODELS = {
    "last-agent": (
        [("a", ["0", "1"], ["nature"]), ("b", ["0"], [])],
        ["a", "b"],
    ),
    "informed-predecessor": (
        [("b", ["0"], ["nature"]), ("c", ["0", "1"], [])],
        ["b", "c"],
    ),
}


@pytest.mark.parametrize("name", sorted(SINGLE_ACTION_MODELS))
def test_necessity_with_single_action_agent_is_undecided(runner, tmp_path, name):
    agents, sequence = SINGLE_ACTION_MODELS[name]
    model = write_json(
        tmp_path,
        "model.json",
        {
            "nature": {"states": ["x", "y"]},
            "agents": [{"id": a, "actions": acts} for a, acts, _ in agents],
            "players": {"P": [a for a, _, _ in agents]},
            "information": {a: {"observes": seen} for a, _, seen in agents},
        },
    )
    ordering = write_json(
        tmp_path, "ordering.json", {"kind": "ordering", "player": "P", "sequence": sequence}
    )
    args = ["--format", "structured", "necessity", model, "--player", "P", "--ordering", ordering]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    report = json.loads(result.stdout)
    assert report["outcome"] == "undecided"
    assert sorted(report["details"]) == ["ordering", "player", "violation"]
    assert report["details"]["violation"]["prefix"] == sequence


def test_export_of_sequential_past_the_cap_is_exit_2(runner):
    over = runner.invoke(main, ["examples", "export", "sequential-23"])
    assert over.exit_code == 2
    assert isinstance(over.exception, SystemExit)
    assert "configuration space has more than 10000000 elements" in over.stderr

    digits = "1" * 4400  # more digits than int() converts
    unknown = runner.invoke(main, ["examples", "export", f"sequential-{digits}"])
    assert unknown.exit_code == 2
    assert isinstance(unknown.exception, SystemExit)
    assert "unknown example" in unknown.stderr


def contract_args(tmp_path):
    """Command lines of three subcommands on alice-bob-ordered."""
    model = write_model(tmp_path, "alice-bob-ordered")
    order = write_json(
        tmp_path, "order.json", {"kind": "ordering", "player": "team", "sequence": ["alice", "bob"]}
    )
    return {
        "recall": ["recall", model, "--player", "team", "--search"],
        "causality": ["causality", model, "--player", "team", "--ordering", order],
        "validate": ["validate", model],
    }


@pytest.mark.parametrize(
    "args",
    [
        ["kuhn", "{model}", "--player", "team", "--nu", "{nu}", "--strategy", "{mixed}", "--search", "--verif"],
        ["recall", "{model}", "--player", "team", "--searc"],
        ["recall", "{model}", "--play", "team", "--search"],
        ["--form", "structured", "validate", "{model}"],
    ],
)
def test_abbreviated_options_are_exit_2(runner, tmp_path, args):
    files = {
        "model": write_model(tmp_path, "alice-bob-ordered"),
        "nu": write_json(tmp_path, "nu.json", {"*": "1"}),
        "mixed": write_json(tmp_path, "mixed.json", CORRELATED),
    }
    result = runner.invoke(main, [a.format(**files) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "case",
    [
        "budget-0", "threads-0", "missing-file", "long-file-name", "nul-in-file-name", "directory",
        "unknown-command", "missing-option", "short-help",
    ],
)
def test_usage_errors_are_exit_2_without_traceback(runner, tmp_path, case):
    args = contract_args(tmp_path)
    argv = {
        "budget-0": args["recall"] + ["--budget", "0"],
        "threads-0": ["--threads", "0"] + args["validate"],
        "missing-file": ["validate", str(tmp_path / "missing.json")],
        "long-file-name": ["validate", "m" * 5000],
        "nul-in-file-name": ["validate", "model\0.json"],
        "directory": ["causality", args["validate"][1], "--player", "team", "--ordering", str(tmp_path)],
        "unknown-command": ["analyse", args["validate"][1]],
        "missing-option": args["causality"][:-2],
        "short-help": ["-h"],
    }[case]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr
    assert "Traceback" not in result.output


# (argv, exit code, text that stderr must hold) of command lines on
# alice-bob-ordered, one player "team"; {model} is its file, {nu} a belief,
# {profile} a pure profile of every agent, {dir} a directory and {missing}
# a path that does not exist.
GRAMMAR_CASES = {
    "globals-before-command": (["--format", "structured", "--timing", "--threads", "2", "validate", "{model}"], 0, "elapsed:"),
    "global-after-command": (["validate", "{model}", "--format", "structured"], 2, "unrecognized arguments: --format structured"),
    "examples-list": (["examples", "list"], 0, ""),
    "examples-export": (["examples", "export", "sequential-3"], 0, ""),
    "equals-value": (["--format=structured", "recall", "{model}", "--player=team", "--search", "--budget=9"], 0, ""),
    "empty-equals-value": (["recall", "{model}", "--player=", "--search"], 2, "unknown player ''"),
    "flag-given-value": (["recall", "{model}", "--player", "team", "--search=yes"], 2, "argument --search: ignored explicit argument 'yes'"),
    "global-flag-given-value": (["--timing=1", "validate", "{model}"], 2, "argument --timing: ignored explicit argument '1'"),
    "help-given-value": (["validate", "--help=1"], 2, "argument --help: ignored explicit argument '1'"),
    "short-help": (["-h"], 2, "the following arguments are required: COMMAND"),
    "short-help-in-command": (["validate", "{model}", "-h"], 2, "unrecognized arguments: -h"),
    "abbreviation": (["recall", "{model}", "--player", "team", "--searc"], 2, "unrecognized arguments: --searc"),
    "global-abbreviation": (["--form", "structured", "validate", "{model}"], 2, "invalid choice: 'structured'"),
    "repeated-option-keeps-last": (["recall", "{model}", "--player", "nobody", "--player", "team", "--search"], 0, ""),
    "repeated-option-last-is-checked": (["recall", "{model}", "--player", "team", "--player", "nobody", "--search"], 2, "unknown player 'nobody'"),
    "negative-budget": (["recall", "{model}", "--player", "team", "--search", "--budget", "-3"], 2, "argument --budget: must be at least 1"),
    "negative-decimal-value": (["recall", "{model}", "--player", "-0.5", "--search"], 2, "unknown player '-0.5'"),
    "option-as-value": (["recall", "{model}", "--player", "--search"], 2, "argument --player: expected one argument"),
    "double-dash-as-value": (["recall", "{model}", "--player", "--", "--search"], 2, "argument --player: expected one argument"),
    "double-dash-before-positional": (["validate", "--", "{model}"], 0, ""),
    "double-dash-ends-options": (["recall", "{model}", "--player", "team", "--", "--search"], 2, "unrecognized arguments: --search"),
    "missing-together": (["kuhn", "--search"], 2, "the following arguments are required: MODEL, --player, --nu, --strategy"),
    "missing-option": (["causality", "{model}", "--player", "team"], 2, "the following arguments are required: --ordering"),
    "unknown-option": (["recall", "{model}", "--player", "team", "--search", "--witness"], 2, "unrecognized arguments: --witness"),
    "unknown-command": (["analyse", "{model}"], 2, "argument COMMAND: invalid choice: 'analyse'"),
    "unknown-example-command": (["examples", "show"], 2, "argument COMMAND: invalid choice: 'show'"),
    "missing-file": (["validate", "{missing}"], 2, "argument MODEL: file '{missing}' does not exist"),
    "directory": (["solve", "{model}", "--profile", "{dir}"], 2, "argument --profile: file '{dir}' is a directory"),
    "zero-threads": (["--threads", "0", "validate", "{model}"], 2, "argument --threads: must be at least 1"),
    "text-budget": (["recall", "{model}", "--player", "team", "--search", "--budget", "many"], 2, "argument --budget: 'many' is not an integer"),
    "long-budget": (["recall", "{model}", "--player", "team", "--search", "--budget", "9" * 5000], 2, "argument --budget: integer of 5000 digits has too many digits"),
    "long-threads": (["--threads", "1_" + "0" * 4400, "validate", "{model}"], 2, "argument --threads: integer of 4401 digits has too many digits"),
    "bad-choice": (["--format", "xml", "validate", "{model}"], 2, "argument --format: invalid choice: 'xml' (choose from 'human', 'structured')"),
    "command-usage-error": (["examples", "export", "zz"], 2, "wgames examples export: error: unknown example 'zz'"),
    "command-mode-error": (["recall", "{model}", "--player", "team"], 2, "wgames recall: error: give exactly one of --ordering or --search"),
    "no-command": ([], 2, "wgames: error: the following arguments are required: COMMAND"),
    "examples-without-command": (["examples"], 2, "wgames examples: error: the following arguments are required: COMMAND"),
    "extra-positional": (["examples", "export", "sequential-3", "sequential-4"], 2, "unrecognized arguments: sequential-4"),
    "value-missing-at-end": (["recall", "{model}", "--search", "--player"], 2, "argument --player: expected one argument"),
    "global-value-missing-at-end": (["--threads"], 2, "argument --threads: expected one argument"),
    "strategies-in-order": (["pushforward", "{model}", "--nu", "{nu}", "--strategy", "{nu}", "--strategy", "{model}"], 2, "error: {nu}: "),
    "help": (["kuhn", "--help", "--verif"], 0, ""),
}


# Cases of integers longer than ``int`` reads from a string (4,300 digits by
# default); a Python without that limit reads them.
DIGIT_LIMIT_CASES = {"long-budget", "long-threads"}


@pytest.mark.parametrize("case", list(GRAMMAR_CASES))
def test_command_line_grammar(runner, tmp_path, case):
    if case in DIGIT_LIMIT_CASES and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    argv, code, message = GRAMMAR_CASES[case]
    model = corpus_model("alice-bob-ordered")
    first = {a: [model.actions_of(a).labels[0]] * len(model.info_of(a)) for a in model.agent_ids}
    files = {
        "model": write_model(tmp_path, "alice-bob-ordered"),
        "nu": write_json(tmp_path, "nu.json", {"*": "1"}),
        "profile": write_json(tmp_path, "profile.json", {"kind": "pure-profile", "strategies": first}),
        "dir": str(tmp_path),
        "missing": str(tmp_path / "missing.json"),
    }
    result = runner.invoke(main, [a.format(**files) for a in argv])
    assert result.exit_code == code, result.output
    assert message.format(**files) in result.stderr
    assert "Traceback" not in result.output
    assert not [a for a in argv if len(a) > 1000 and a in result.stderr]  # long values are not echoed
    if code == 2:
        assert result.stdout == ""
        usage, error = result.stderr.splitlines()
        assert usage.startswith("usage: wgames")
        prog = usage[len("usage: ") : usage.index(" [--help]")]
        assert error.startswith(f"{prog}: error: ")


# Every option, argument and subcommand that ``--help`` must name.
HELP_NAMES = {
    (): ["--help", "--format", "--timing", "--threads", "validate", "solve", "playability",
         "recall", "causality", "pushforward", "kuhn", "necessity", "examples"],
    ("validate",): ["--help", "MODEL"],
    ("solve",): ["--help", "MODEL", "--profile"],
    ("playability",): ["--help", "MODEL", "--witness"],
    ("recall",): ["--help", "MODEL", "--player", "--ordering", "--search", "--budget"],
    ("causality",): ["--help", "MODEL", "--player", "--ordering"],
    ("pushforward",): ["--help", "MODEL", "--nu", "--strategy"],
    ("kuhn",): ["--help", "MODEL", "--player", "--nu", "--strategy", "--ordering", "--search",
                "--budget", "--verify"],
    ("necessity",): ["--help", "MODEL", "--player", "--ordering", "--search", "--budget"],
    ("examples",): ["--help", "list", "export"],
    ("examples", "list"): ["--help"],
    ("examples", "export"): ["--help", "NAME"],
}


@pytest.mark.parametrize("command", list(HELP_NAMES))
def test_help_names_every_option(runner, command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    table = _TOP
    for name in command:
        table = table.commands[name]
    helps = [entry.help for entry in table.entries.values()]
    helps += [sub.help.partition("\n")[0] for sub in (table.commands or {}).values()]
    for name in HELP_NAMES[command] + helps:
        assert name in result.stdout, name


def test_mutated_command_lines_keep_the_exit_code_contract(runner, tmp_path):
    """Seeded command lines on corpus models with one token dropped,
    duplicated or swapped: the exit code stays in 0..3, nothing escapes
    as an exception and a second run prints the same stdout."""
    bases = []
    for name in ("alice-bob-ordered", "alice-bob-nature", "sequential-3", "witsenhausen-noncausal"):
        (tmp_path / name).mkdir()
        for command in ("recall", "necessity", "causality", "validate", "playability", "kuhn", "export"):
            bases.append(golden_args(tmp_path / name, name, command))
    rng = Random("mutated-command-lines")
    codes = Counter()
    for case in range(200):
        argv = list(rng.choice(bases))
        i, j = rng.randrange(len(argv)), rng.randrange(len(argv))
        how = rng.choice(("drop", "duplicate", "swap"))
        if how == "drop":
            del argv[i]
        elif how == "duplicate":
            argv.insert(j, argv[i])
        else:
            argv[i], argv[j] = argv[j], argv[i]
        runs = [runner.invoke(main, argv) for _ in range(2)]
        for run in runs:
            assert run.exit_code in (0, 1, 2, 3), (argv, run.output)
            assert run.exception is None or isinstance(run.exception, SystemExit), (argv, repr(run.exception))
            assert "Traceback" not in run.stderr, (argv, run.stderr)
        assert runs[0].stdout == runs[1].stdout, argv
        codes[runs[0].exit_code] += 1
    assert {0, 1, 2} <= set(codes), codes


def test_importing_the_cli_loads_no_code_generator():
    """The CLI's import graph stays off click, dataclasses, inspect and ast,
    and off argparse with the gettext and locale it loads (``-S``: no site
    hooks of the environment load anything first)."""
    banned = "{'click', 'dataclasses', 'inspect', 'ast', 'argparse', 'gettext', 'locale'}"
    code = f"import sys, wgames.cli; print(sorted({banned} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Tokens of fuzzed command lines: every option name of the table, some
# ``=``-joined forms, ``--``, negative numbers, values and the paths of
# corpus files; the braced names are the files of ``token_dir``.  A fuzzed
# line is one of FUZZ_BASES, which run to a report, with tokens inserted,
# dropped or replaced.
FUZZ_TOKENS = (
    "--help", "--format", "--timing", "--threads", "--profile", "--witness", "--player", "--ordering",
    "--search", "--budget", "--nu", "--strategy", "--verify",
    "--format=structured", "--format=xml", "--player=team", "--player=", "--budget=3", "--budget=-2",
    "--search=1", "--threads=2", "--strategy={profile}", "--ordering={order}",
    "--", "-", "-h", "-1", "-0.5", "-3", "0", "2", "team", "structured", "sequential-3", "list", "export",
    "{model}", "{nu}", "{profile}", "{order}", "{dir}", "{missing}",
)
FUZZ_BASES = (
    ("--format", "structured", "validate", "{model}"),
    ("solve", "{model}", "--profile", "{profile}"),
    ("playability", "{model}", "--witness"),
    ("recall", "{model}", "--player", "team", "--search"),
    ("causality", "{model}", "--player", "team", "--ordering", "{order}"),
    ("pushforward", "{model}", "--nu", "{nu}", "--strategy", "{profile}"),
    ("kuhn", "{model}", "--player", "team", "--nu", "{nu}", "--strategy", "{profile}", "--search", "--verify"),
    ("necessity", "{model}", "--player", "team", "--search", "--budget", "1"),
    ("--timing", "examples", "list"),
    ("examples", "export", "sequential-3"),
)


@pytest.fixture(scope="module")
def token_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tokens")
    model = corpus_model("alice-bob-ordered")
    first = {a: [model.actions_of(a).labels[0]] * len(model.info_of(a)) for a in model.agent_ids}
    order = {"kind": "ordering", "player": "team", "sequence": ["alice", "bob"]}
    return {
        "model": write_model(path, "alice-bob-ordered"),
        "nu": write_json(path, "nu.json", {"*": "1"}),
        "profile": write_json(path, "profile.json", {"kind": "pure-profile", "strategies": first}),
        "order": write_json(path, "order.json", order),
        "dir": str(path),
        "missing": str(path / "missing.json"),
    }


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    edits=st.lists(
        st.tuples(st.sampled_from(["insert", "drop", "replace"]), st.integers(0, 12), st.sampled_from(FUZZ_TOKENS)),
        max_size=3,
    ),
)
def test_fuzzed_command_lines_keep_the_exit_code_contract(token_dir, base, edits):
    """Command lines drawn from the table's option names and corpus files:
    the exit code is one of the contract's, nothing raises past the
    command line, and a second run prints the same stdout."""
    argv = list(base)
    for how, at, token in edits:
        at %= len(argv) + 1
        if how == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            argv[at : at + 1] = [] if how == "drop" else [token]
    argv = [token.format(**token_dir) for token in argv]
    first, second = CliRunner().invoke(main, argv), CliRunner().invoke(main, argv)
    assert first.exception is None or isinstance(first.exception, SystemExit), (argv, first.exception)
    assert first.exit_code in (0, 1, 2, 3), (argv, first.output)
    assert "Traceback" not in first.stderr
    assert (second.exit_code, second.stdout) == (first.exit_code, first.stdout), argv
