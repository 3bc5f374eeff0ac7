"""Exit codes, report shapes, and byte-level determinism of the CLI."""

import json

import pytest
from click.testing import CliRunner

from wgames import corpus_model, serialize_model
from wgames.cli import main


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
