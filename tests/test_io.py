"""Wire formats: parse/serialize round-trips and addressed diagnostics."""

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from wgames import (
    AnalysisReport,
    CoordinateSet,
    ModelFormatError,
    build_space,
    constant_ordering,
    corpus_model,
    corpus_names,
    cylinder_partition,
    emit_report,
    model_digest,
    parse_belief,
    parse_model,
    parse_ordering,
    parse_report,
    parse_strategy,
    sequential_model,
    serialize_belief,
    serialize_model,
    serialize_ordering,
    serialize_strategy,
    trace_partition,
    trivial_partition,
)
from wgames.io import _dumps, config_payload, mask_payload
from wgames.recall import ConfigurationOrdering, Ordering

from generators import (
    MUTATIONS,
    mutated_json,
    observes_document,
    random_belief,
    random_causal_model,
    random_mixed,
    random_partition_model,
    random_profile,
    random_state_ordered_model,
)


def reference_serialize_model(model):
    """The canonical model text as one ``json.dumps`` of the full payload."""
    payload = {
        "nature": {"states": list(model.nature.labels)},
        "agents": [
            {"id": a, "actions": list(acts.labels)} for a, acts in model.agents
        ],
        "players": {name: list(members) for name, members in model.players},
        "information": {
            agent: {
                "atoms": [mask_payload(model.space, atom) for atom in part.atoms]
            }
            for agent, part in model.information
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def odd_label_model():
    """Labels holding a quote, a backslash, non-ASCII and astral-plane
    text, and the empty string."""
    payload = {
        "nature": {"states": ['say "hi"', "back\\slash", ""]},
        "agents": [
            {"id": "\u00e9t\u00e9", "actions": ["", "\U0001F600"]},
            {"id": 'q"\\', "actions": ["\u65e5\u672c", "x", "\U0001D11E"]},
        ],
        "players": {"P\u00e9": ["\u00e9t\u00e9"], "\U0001D11E": ['q"\\']},
        "information": {
            "\u00e9t\u00e9": {"observes": ["nature"]},
            'q"\\': {"observes": ["\u00e9t\u00e9"]},
        },
    }
    return parse_model(json.dumps(payload))


def _serializer_models():
    yield from (corpus_model(name) for name in corpus_names())
    yield from (sequential_model(k) for k in range(1, 10))
    rng = Random(2104)
    for _ in range(100):
        yield random_causal_model(rng)
        yield random_state_ordered_model(rng)[0]
    yield odd_label_model()


def test_serialize_model_matches_one_json_dump():
    count = 0
    for model in _serializer_models():
        text = serialize_model(model)
        assert text == reference_serialize_model(model)
        assert model_digest(model) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        count += 1
    assert count == 218


def test_odd_labels_round_trip():
    model = odd_label_model()
    text = serialize_model(model)
    assert "\\ud83d\\ude00" in text and '\\"' in text
    assert parse_model(text) == model


def test_sequential_12_digest_is_pinned():
    assert model_digest(sequential_model(12)) == "66c3dd1123ec097f"


def test_corpus_round_trips_to_identity():
    for name in corpus_names():
        model = corpus_model(name)
        text = serialize_model(model)
        again = parse_model(text)
        assert again == model, name
        assert serialize_model(again) == text, name
        assert model_digest(again) == model_digest(model)


def test_random_models_round_trip():
    rng = Random(31)
    for _ in range(25):
        model = random_causal_model(rng)
        assert parse_model(serialize_model(model)) == model


def test_digest_is_content_addressed():
    a = corpus_model("alice-bob-ordered")
    b = corpus_model("alice-bob-nature")
    assert model_digest(a) != model_digest(b)
    assert len(model_digest(a)) == 16


@pytest.mark.parametrize(
    "name,digest",
    [
        ("alice-bob-simultaneous", "58458575ec569179"),
        ("alice-bob-ordered", "55f328cb1b65c5da"),
        ("alice-bob-nature", "0ac045a5938b349b"),
        ("sequential-3", "f53439e10f4cbdba"),
        ("principal-agent-hidden-type", "2e227e3c20c2ef2c"),
        ("principal-agent-hidden-action", "37c3998d892fb09c"),
        ("stackelberg", "ca00128d899741e9"),
        ("witsenhausen-noncausal", "d77ef21ec3ed2809"),
    ],
)
def test_corpus_digests_are_pinned(name, digest):
    # every report header carries the digest, so it must never drift
    assert model_digest(corpus_model(name)) == digest


@pytest.mark.parametrize(
    "steps,digest",
    [
        (1, "503e87ac6a4a1a39"),
        (2, "bb7974be6cbed308"),
        (3, "f53439e10f4cbdba"),
        (4, "ac29b6c6e42a824f"),
        (5, "8b243dca9b693813"),
        (6, "008d2ccd667a6e04"),
    ],
)
def test_sequential_digests_are_pinned(steps, digest):
    assert model_digest(corpus_model(f"sequential-{steps}")) == digest


# What each agent of the cylinder examples observes, in agent order:
# (sees Nature, watched agents).
CORPUS_OBSERVES = {
    "alice-bob-simultaneous": {"alice": (False, ()), "bob": (False, ())},
    "alice-bob-ordered": {"alice": (False, ("bob",)), "bob": (False, ())},
    "alice-bob-nature": {"alice": (True, ("bob",)), "bob": (True, ())},
    "principal-agent-hidden-type": {"P": (False, ("A",)), "A": (True, ())},
    "principal-agent-hidden-action": {"P": (False, ()), "A": (True, ("P",))},
    "stackelberg": {"L": (True, ()), "F": (True, ("L",))},
}
for _steps in range(1, 7):  # t_k sees Nature and t_1 .. t_(k-1)
    CORPUS_OBSERVES[f"sequential-{_steps}"] = {
        f"t{k}": (True, tuple(f"t{j}" for j in range(1, k))) for k in range(1, _steps + 1)
    }


@pytest.mark.parametrize("name", list(CORPUS_OBSERVES))
def test_examples_keep_their_generators(name):
    """Digests ignore ``generators``, but the coordinate-set shortcuts
    (``cylinder_refines``) read them: each cylinder example's fields carry
    their observes table."""
    fields = [(a, p.generators) for a, p in corpus_model(name).information]
    table = CORPUS_OBSERVES[name]
    assert fields == [(a, CoordinateSet.of(*observed)) for a, observed in table.items()]


def test_noncausal_example_has_no_generators():
    """Its fields are not cylinders, so none claims coordinates."""
    fields = corpus_model("witsenhausen-noncausal").information
    assert [p.generators for _, p in fields] == [None, None, None]


def test_space_over_the_cap_fails_fast():
    # 2**24 configurations exceed the 10**7 cap before anything is built
    agents = [f"a{i}" for i in range(24)]
    payload = {
        "nature": {"states": ["*"]},
        "agents": [{"id": a, "actions": ["0", "1"]} for a in agents],
        "players": {"P": agents},
        "information": {a: {"observes": []} for a in agents},
    }
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert err.value.path == "$.agents"


def test_parsed_model_builds_its_space_once(monkeypatch):
    """The model reuses the space its partitions were built on."""
    import wgames.io
    import wgames.model

    calls = []

    def counted(nature, agents):
        calls.append(nature)
        return build_space(nature, agents)

    monkeypatch.setattr(wgames.io, "build_space", counted)
    monkeypatch.setattr(wgames.model, "build_space", counted)
    model = parse_model(serialize_model(corpus_model("alice-bob-nature")))
    assert len(calls) == 1
    assert all(part.space is model.space for _, part in model.information)


def test_parse_model_decodes_each_configuration_once(monkeypatch):
    """Every agent's atoms list all of H; a configuration is decoded once,
    whatever order its keys come in."""
    import wgames.io

    model = sequential_model(3)
    text = serialize_model(model)
    calls = []
    decode = wgames.io._config_index

    def counted(value, path, space):
        calls.append(path)
        return decode(value, path, space)

    monkeypatch.setattr(wgames.io, "_config_index", counted)
    assert parse_model(text) == model
    assert len(calls) == model.space.size
    payload = json.loads(text)
    for spec in payload["information"].values():
        spec["atoms"] = [[dict(reversed(h.items())) for h in atom] for atom in spec["atoms"]]
    assert parse_model(json.dumps(payload)) == model


def test_model_checks_the_space_of_every_partition():
    model = corpus_model("alice-bob-nature")
    (alice, part), (bob, _) = model.information
    foreign = corpus_model("alice-bob-simultaneous").info_of("bob")
    for information in (((alice, foreign), (bob, part)), ((alice, part), (bob, foreign))):
        with pytest.raises(ValueError, match="built on a foreign space"):
            model.replace(information=information)
    partial = trace_partition(trivial_partition(model.space), 0b1111)
    with pytest.raises(ValueError, match="does not cover the space"):
        model.replace(information=((alice, partial), (bob, part)))
    # an equal space built apart is this model's space
    again = build_space(model.nature, model.agents)
    rebuilt = model.replace(information=((alice, cylinder_partition(again, CoordinateSet.of(True, ()))), (bob, part)))
    assert rebuilt.space == model.space


def test_parse_rejects_non_json():
    with pytest.raises(ModelFormatError) as err:
        parse_model("not json {")
    assert str(err.value).startswith("$: invalid JSON")


def _minimal_model_payload():
    return {
        "nature": {"states": ["*"]},
        "agents": [{"id": "a", "actions": ["0", "1"]}],
        "players": {"P": ["a"]},
        "information": {"a": {"observes": []}},
    }


def test_parse_minimal_observes_model():
    model = parse_model(json.dumps(_minimal_model_payload()))
    assert model.agent_ids == ("a",)
    assert len(model.info_of("a")) == 1


@pytest.mark.parametrize(
    "mutate,path_prefix",
    [
        (lambda p: p.pop("players"), "$: missing key 'players'"),
        (lambda p: p.update(extra=1), "$: unknown key 'extra'"),
        (lambda p: p["nature"].update(states=[]), "$.nature.states: must not be empty"),
        (
            lambda p: p["nature"].update(states=["w", "w"]),
            "$.nature.states[1]: duplicate label",
        ),
        (
            lambda p: p["agents"].append({"id": "a", "actions": ["0"]}),
            "$.agents[1].id: duplicate agent id",
        ),
        (
            lambda p: p["agents"].append({"id": "nature", "actions": ["0"]}),
            "$.agents[1].id: 'nature' is reserved",
        ),
        (lambda p: p["players"].update(Q=["zz"]), "$.players.Q[0]: unknown agent"),
        (lambda p: p["players"].update(Q=["a"]), "$.players.Q[0]: agent 'a' belongs to two players"),
        (lambda p: p["players"].update(P=[]), "$.players.P: must not be empty"),
        (
            lambda p: p["information"].update(zz={"observes": []}),
            "$.information: unknown agent 'zz'",
        ),
        (lambda p: p["information"].pop("a"), "$.information: missing agent 'a'"),
        (
            lambda p: p["information"].update(a={"observes": ["zz"]}),
            "$.information.a.observes[0]: unknown coordinate 'zz'",
        ),
        (
            lambda p: p["information"].update(a={"watch": []}),
            "$.information.a: expected exactly one of 'observes', 'atoms'",
        ),
    ],
)
def test_parse_model_error_paths(mutate, path_prefix):
    payload = _minimal_model_payload()
    mutate(payload)
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert str(err.value).startswith(path_prefix)


def test_atoms_must_cover_everything():
    payload = _minimal_model_payload()
    payload["information"]["a"] = {
        "atoms": [[{"nature": "*", "a": "0"}]]
    }
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert str(err.value) == "$.information.a.atoms: atoms do not cover H"


def test_atoms_must_not_overlap():
    payload = _minimal_model_payload()
    payload["information"]["a"] = {
        "atoms": [
            [{"nature": "*", "a": "0"}, {"nature": "*", "a": "1"}],
            [{"nature": "*", "a": "1"}],
        ]
    }
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert "atoms overlap" in str(err.value)


def test_atom_configuration_coordinates_are_checked():
    payload = _minimal_model_payload()
    payload["information"]["a"] = {"atoms": [[{"nature": "*"}]]}
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert "missing key 'a'" in str(err.value)


def test_strategy_round_trips():
    rng = Random(77)
    model = corpus_model("alice-bob-nature")
    profile = random_profile(rng, model)
    text = serialize_strategy(profile)
    assert parse_strategy(text, model) == profile

    mixed = random_mixed(rng, model, "team")
    text = serialize_strategy(mixed)
    assert parse_strategy(text, model) == mixed

    from wgames import constant_ordering, kuhn_transform

    nu = random_belief(rng, model)
    phi = constant_ordering(model, "team", ("bob", "alice"))
    beta = kuhn_transform(model, "team", phi, nu, [mixed])
    text = serialize_strategy(beta)
    assert parse_strategy(text, model) == beta


def test_strategy_errors_are_addressed():
    model = corpus_model("alice-bob-nature")
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps({"strategies": {}}), model)
    assert str(err.value).startswith("$: missing key 'kind'")

    bad_weights = {
        "kind": "mixed",
        "player": "team",
        "support": [
            {
                "weight": "1/3",
                "profile": {"alice": ["T", "T", "T", "T"], "bob": ["L", "L"]},
            }
        ],
    }
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps(bad_weights), model)
    assert str(err.value) == "$.support: weights sum to 1/3"

    wrong_agent_count = {
        "kind": "pure-profile",
        "strategies": {"alice": ["T", "T"]},
    }
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps(wrong_agent_count), model)
    assert "one action per atom" in str(err.value)


def test_behavioral_kernel_rows_must_normalize():
    model = corpus_model("alice-bob-ordered")
    payload = {
        "kind": "behavioral",
        "player": "team",
        "kernels": {
            "alice": [{"T": "1"}, {"T": "1/2"}],
            "bob": [{"L": "1"}],
        },
    }
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps(payload), model)
    assert str(err.value) == "$.kernels.alice[1]: weights sum to 1/2"


def test_negative_weights_are_addressed():
    model = corpus_model("alice-bob-nature")
    with pytest.raises(ModelFormatError) as err:
        parse_belief('{"heads": "3/2", "tails": "-1/2"}', model)
    assert str(err.value) == "$.tails: negative weight -1/2"

    payload = {
        "kind": "behavioral",
        "player": "team",
        "kernels": {
            "alice": [{"T": "1"}, {"T": "3/2", "B": "-1/2"}, {"T": "1"}, {"T": "1"}],
            "bob": [{"L": "1"}, {"L": "1"}],
        },
    }
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps(payload), model)
    assert str(err.value) == "$.kernels.alice[1].B: negative weight -1/2"


def test_belief_round_trip_and_errors():
    model = corpus_model("alice-bob-nature")
    nu = parse_belief('{"heads": "1/3", "tails": "2/3"}', model)
    assert nu.weight("heads") == Fraction(1, 3)
    assert parse_belief(serialize_belief(nu), model) == nu

    with pytest.raises(ModelFormatError):
        parse_belief('{"heads": "1/3"}', model)
    with pytest.raises(ModelFormatError):
        parse_belief('{"sideways": "1"}', model)
    with pytest.raises(ModelFormatError):
        parse_belief('{"heads": "0.5", "tails": "0.5"}', model)


def test_ordering_round_trips():
    model = corpus_model("alice-bob-nature")
    constant = constant_ordering(model, "team", ("bob", "alice"))
    text = serialize_ordering(constant, model)
    assert json.loads(text)["sequence"] == ["bob", "alice"]
    assert parse_ordering(text, model) == constant

    ab = Ordering("team", ("alice", "bob"))
    ba = Ordering("team", ("bob", "alice"))
    varied = ConfigurationOrdering.from_table(
        "team",
        tuple(ab if i % 2 else ba for i in range(model.space.size)),
    )
    text = serialize_ordering(varied, model)
    assert "assignments" in json.loads(text)
    assert parse_ordering(text, model) == varied


def test_ordering_assignments_must_cover():
    model = corpus_model("alice-bob-simultaneous")
    payload = {
        "kind": "ordering",
        "player": "team",
        "assignments": [
            {
                "configuration": {"nature": "*", "alice": "T", "bob": "L"},
                "sequence": ["alice", "bob"],
            }
        ],
    }
    with pytest.raises(ModelFormatError) as err:
        parse_ordering(json.dumps(payload), model)
    assert "no ordering for configuration" in str(err.value)


# ── ordering files, mutated ────────────────────────────────────────────

ORDERING_JUNK = (
    "ordering", "team", "dm", "principal", "alice", "bob", "t1", "t3", "a", "nature", "heads", "w1",
    "T", "0", "*", "", [], {}, None, 0, -1, 1.5, True, ["alice", "alice"], ["t1", "t2"], ["bob", 1],
    {"nature": "*"}, {"nature": "heads", "alice": "T"}, "[" * 3000, "9" * 4400,
)
ORDERING_RENAMES = ("sequence", "assignments", "configuration", "player", "kind", "nature", "alice", "t1", "")


def _ordering_document(model, player: str, form: str) -> dict:
    """A valid ordering file: the player's agents in declared order, or one
    assignment per configuration cycling through their permutations."""
    own = model.agents_of(player)
    if form == "constant":
        return {"kind": "ordering", "player": player, "sequence": list(own)}
    orders = list(permutations(own))
    assignments = [
        {"configuration": config_payload(model.space.config(i)), "sequence": list(orders[i % len(orders)])}
        for i in range(model.space.size)
    ]
    return {"kind": "ordering", "player": player, "assignments": assignments}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(corpus_names()),
    which=st.integers(min_value=0, max_value=1),
    form=st.sampled_from(["constant", "per-configuration"]),
    at=st.integers(min_value=0, max_value=10**6),
    how=st.sampled_from(MUTATIONS),
    junk=st.one_of(st.sampled_from(ORDERING_JUNK), st.text(max_size=6), st.integers(), st.floats()),
)
@example(name="sequential-3", which=0, form="constant", at=2, how="rewrite", junk=["t1", "t2"])
@example(name="sequential-3", which=0, form="constant", at=4, how="append", junk=None)
@example(name="alice-bob-nature", which=0, form="constant", at=1, how="rewrite", junk="dm")
@example(name="alice-bob-nature", which=0, form="per-configuration", at=3, how="append", junk=None)
@example(name="alice-bob-nature", which=0, form="per-configuration", at=3, how="delete", junk=None)
@example(name="alice-bob-nature", which=0, form="per-configuration", at=5, how="rewrite", junk="*")
@example(name="alice-bob-nature", which=0, form="per-configuration", at=4, how="rewrite", junk={"nature": "heads"})
@example(name="stackelberg", which=1, form="per-configuration", at=6, how="rename", junk=None)
@example(name="witsenhausen-noncausal", which=0, form="per-configuration", at=40, how="text", junk="[" * 3000)
@example(name="principal-agent-hidden-type", which=1, form="constant", at=20, how="text", junk="9" * 4400)
def test_mutated_orderings_fail_only_as_format_errors(name, which, form, at, how, junk):
    """``parse_ordering`` alone, on one edit of a valid constant or
    per-configuration file of a corpus model: it raises ModelFormatError
    and nothing else, and what it accepts round-trips."""
    model = corpus_model(name)
    player = model.player_names[which % len(model.player_names)]
    doc = _ordering_document(model, player, form)
    assert parse_ordering(json.dumps(doc), model).player == player
    try:
        phi = parse_ordering(mutated_json(doc, at, how, junk, ORDERING_RENAMES), model)
    except ModelFormatError:
        return
    assert parse_ordering(serialize_ordering(phi, model), model) == phi


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.floats()), inner, max_size=4),
        ),
        max_leaves=20,
    )
)
@example({"k\u00e9y": ["\u2603", "\n\"\\", 1.5, float("nan"), float("-inf"), -(10**30)], 2: {}, True: [], None: ()})
def test_writer_lays_out_what_json_dumps_indents(value):
    """The structured writer is ``json.dumps(value, indent=2)`` byte for
    byte: layout, escapes, number text and non-string keys."""
    assert _dumps(value) == json.dumps(value, indent=2)


def test_report_round_trip():
    report = AnalysisReport(
        command="recall",
        model="abcd" * 4,
        outcome="holds",
        details={"player": "team", "nodes": 3},
    )
    text = emit_report(report, "structured")
    assert parse_report(text) == report
    human = emit_report(report, "human")
    assert human.splitlines()[0] == "recall: holds  [model abcdabcdabcdabcd]"
    with pytest.raises(ValueError):
        emit_report(report, "pretty")


def test_deeply_nested_input_is_a_format_error():
    model = corpus_model("alice-bob-nature")
    deep = "[" * 200_000 + "]" * 200_000
    for parse in (
        parse_model,
        lambda text: parse_strategy(text, model),
        lambda text: parse_belief(text, model),
        lambda text: parse_ordering(text, model),
        parse_report,
    ):
        with pytest.raises(ModelFormatError) as err:
            parse(deep)
        assert err.value.path == "$"


def test_json_numbers_past_the_digit_limit_are_format_errors():
    model = corpus_model("alice-bob-nature")
    number = "9" * 4400  # more digits than int() converts
    texts = {
        parse_model: '{"nature": ' + number + "}",
        parse_belief: '{"heads": ' + number + "}",
        parse_strategy: '{"kind": ' + number + "}",
    }
    for parse, text in texts.items():
        with pytest.raises(ModelFormatError) as err:
            parse(text) if parse is parse_model else parse(text, model)
        assert str(err.value) == "$: invalid JSON: a number has too many digits"


def test_weights_with_too_many_digits_are_addressed():
    model = corpus_model("alice-bob-nature")
    huge = "1/" + "3" * 5000
    with pytest.raises(ModelFormatError) as err:
        parse_belief(json.dumps({"heads": huge, "tails": "1/2"}), model)
    assert err.value.path == "$.heads"
    assert "too many digits" in str(err.value)

    payload = {
        "kind": "behavioral",
        "player": "team",
        "kernels": {
            "alice": [{"T": "1"}, {"T": "1"}, {"T": huge, "B": "1/2"}, {"T": "1"}],
            "bob": [{"L": "1"}, {"L": "1"}],
        },
    }
    with pytest.raises(ModelFormatError) as err:
        parse_strategy(json.dumps(payload), model)
    assert err.value.path == "$.kernels.alice[2].T"
    assert "too many digits" in str(err.value)


# ── atoms of corpus files, mutated ──────────────────────────────────────

BAD_LABELS = (0, 1.5, True, None, [], ["T"], {}, {"T": "B"}, "zz-unknown")
ATOM_MUTATIONS = (
    "label", "missing-key", "extra-key", "duplicate", "overlap", "gap",
    "empty-atom", "config-not-object", "atom-not-list",
)


def _mutate_atoms(atoms, kind, data):
    """Apply one mutation to an agent's wire atoms, in place."""
    i = data.draw(st.integers(0, len(atoms) - 1), label="atom")
    j = data.draw(st.integers(0, len(atoms[i]) - 1), label="configuration")
    config = atoms[i][j]
    key = data.draw(st.sampled_from(sorted(config)), label="key")
    if kind == "label":
        config[key] = data.draw(st.sampled_from(BAD_LABELS), label="value")
    elif kind == "missing-key":
        del config[key]
    elif kind == "extra-key":
        config[data.draw(st.sampled_from(["extra", "Nature", ""]), label="new key")] = "0"
    elif kind == "duplicate":
        atoms[i].insert(data.draw(st.integers(0, len(atoms[i]))), dict(config))
    elif kind == "overlap":  # a copy in another atom, or in an atom of its own
        k = data.draw(st.sampled_from([n for n in range(len(atoms) + 1) if n != i]))
        if k == len(atoms):
            atoms.append([dict(config)])
        else:
            atoms[k].append(dict(config))
    elif kind == "gap":
        atoms[i].pop(j)
    elif kind == "empty-atom":
        atoms.insert(data.draw(st.integers(0, len(atoms))), [])
    elif kind == "config-not-object":
        atoms[i][j] = data.draw(st.sampled_from(BAD_LABELS[:-1] + ("nature",)))
    else:
        atoms[i] = data.draw(st.sampled_from([None, "atom", 3, {"nature": "*"}]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(corpus_names()), st.sampled_from(ATOM_MUTATIONS), st.data())
def test_mutated_atoms_are_addressed_format_errors(name, kind, data):
    model = corpus_model(name)
    text = serialize_model(model)
    assert parse_model(text) == model
    payload = json.loads(text)
    agent = data.draw(st.sampled_from(model.agent_ids), label="agent")
    _mutate_atoms(payload["information"][agent]["atoms"], kind, data)
    # anything but ModelFormatError (TypeError, KeyError, IndexError) fails the test
    with pytest.raises(ModelFormatError) as err:
        parse_model(json.dumps(payload))
    assert err.value.path.startswith(f"$.information.{agent}.atoms")


def _assert_cylinders_recognized(model):
    parsed = parse_model(serialize_model(model))
    doc = observes_document(model)
    for (agent, part), (_, back) in zip(model.information, parsed.information):
        assert back == part
        assert (back.generators is not None) == ("observes" in doc["information"][agent]), agent
        if back.generators is not None:
            assert cylinder_partition(model.space, back.generators) == part


def test_parsed_atoms_that_form_a_cylinder_carry_its_generators():
    """Explicit atoms parse to the same fields, with generators exactly
    where the field is the cylinder of some coordinate set."""
    for name in corpus_names():
        _assert_cylinders_recognized(corpus_model(name))
    rng, kept_none = Random(2424), 0
    for draw in range(200):
        if draw % 2:
            model = random_partition_model(rng, max_agents=4, max_atoms=6)
            parsed = parse_model(serialize_model(model))
            kept_none += sum(p.generators is None for _, p in parsed.information)
        else:
            model = random_causal_model(rng)
        _assert_cylinders_recognized(model)
    assert kept_none > 0
