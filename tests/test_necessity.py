"""Recall-violation witnesses and non-equivalence certificates.

Two hand-built fixtures drive the two violation tags.  In the first the
final agent's information pools configurations whose predecessor played
different actions (the simultaneous team is the canonical instance).  In
the second every pooled pair agrees on the predecessor's action but not on
what the predecessor knew: b observes the coin, c observes only b's
action, so c cannot tell the two coin outcomes apart even though b reacted
to them.
"""

import hashlib
import json
from collections import Counter
from itertools import islice, permutations
from fractions import Fraction
from random import Random

import pytest

from wgames import (
    ConfigurationSpace,
    CoordinateSet,
    FiniteSet,
    MixedStrategy,
    Ordering,
    Partition,
    PureStrategy,
    PureStrategyProfile,
    RationalDistribution,
    SearchBudgetExhausted,
    WModel,
    build_witness,
    certify_nonequivalence,
    check_partial_causality,
    constant_ordering,
    corpus_model,
    cylinder_partition,
    deterministic_mixed,
    find_recall_violation,
    forced_support,
    iter_causal_orderings,
    pushforward,
    sequential_model,
    serialize_model,
    serialize_ordering,
    verify_certificate,
)
from wgames.cli import main
from wgames.io import certificate_payload, ordering_payload
from wgames.fields import iter_bits
from wgames.necessity import CASE_ACTION, CASE_INFORMATION, RecallViolation
from wgames.recall import prefix_cells

from clirunner import CliRunner
from generators import random_causal_model, random_partition_model, random_state_ordered_model


def coin_relay_model():
    """b sees the coin, c sees only b's action."""
    nature = FiniteSet("nature", ("w0", "w1"))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ("b", "c"))
    space = ConfigurationSpace(
        nature=nature, agents=("b", "c"), actions=tuple(s for _, s in agents)
    )
    return WModel(
        nature=nature,
        agents=agents,
        players=(("duo", ("b", "c")),),
        information=(
            ("b", cylinder_partition(space, CoordinateSet.of(True, []))),
            ("c", cylinder_partition(space, CoordinateSet.of(False, ["b"]))),
        ),
    )


def test_simultaneous_violation_is_action_case():
    model = corpus_model("alice-bob-simultaneous")
    phi = constant_ordering(model, "team", ("alice", "bob"))
    v = find_recall_violation(model, "team", phi)
    assert v is not None
    assert v.case == CASE_ACTION
    assert v.ordering.sequence == ("alice", "bob")
    assert v.h_plus.as_dict() == {"nature": "*", "alice": "T", "bob": "L"}
    assert v.h_minus.as_dict() == {"nature": "*", "alice": "B", "bob": "L"}


def test_recall_holding_orderings_have_no_violation():
    for name in ("alice-bob-ordered", "alice-bob-nature"):
        model = corpus_model(name)
        phi = constant_ordering(model, "team", ("bob", "alice"))
        assert find_recall_violation(model, "team", phi) is None


def test_coin_relay_violation_is_information_case():
    model = coin_relay_model()
    phi = constant_ordering(model, "duo", ("b", "c"))
    assert check_partial_causality(model, "duo", phi).holds
    v = find_recall_violation(model, "duo", phi)
    assert v is not None
    assert v.case == CASE_INFORMATION
    assert v.h_plus.as_dict() == {"nature": "w0", "b": "0", "c": "0"}
    assert v.h_minus.as_dict() == {"nature": "w1", "b": "0", "c": "0"}


def test_action_case_takes_precedence_cell_wide():
    # one final-agent atom holds an information-only pair (indices 0,4)
    # before an action pair (0,6); the action pair must win anyway
    nature = FiniteSet("nature", ("w0", "w1"))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ("b", "c"))
    space = ConfigurationSpace(
        nature=nature, agents=("b", "c"), actions=tuple(s for _, s in agents)
    )
    atom_a = (1 << 0) | (1 << 4) | (1 << 6)
    model = WModel(
        nature=nature,
        agents=agents,
        players=(("duo", ("b", "c")),),
        information=(
            ("b", cylinder_partition(space, CoordinateSet.of(True, []))),
            ("c", Partition(space, (atom_a, space.full_mask & ~atom_a))),
        ),
    )
    phi = constant_ordering(model, "duo", ("b", "c"))
    v = find_recall_violation(model, "duo", phi)
    assert v.case == CASE_ACTION
    assert v.h_plus.index == 0
    assert v.h_minus.index == 6


def test_witness_separates_final_coordinate():
    model = coin_relay_model()
    phi = constant_ordering(model, "duo", ("b", "c"))
    v = find_recall_violation(model, "duo", phi)
    nu, focus, opponents = build_witness(model, "duo", v)
    assert opponents == ()
    assert nu.weight("w0") == Fraction(1, 2)
    assert nu.weight("w1") == Fraction(1, 2)
    assert len(focus.support) == 2
    # both plans must be able to produce c's two different actions at the
    # shared atom, otherwise the crossed configuration cannot be null
    law = pushforward(model, nu, [focus])
    actions_at_shared = {
        h.action("c") for h in law.support if h.action("b") == "0"
    }
    assert actions_at_shared == {"0", "1"}


def test_case1_witness_mixes_the_two_plans():
    model = corpus_model("alice-bob-simultaneous")
    phi = constant_ordering(model, "team", ("alice", "bob"))
    v = find_recall_violation(model, "team", phi)
    nu, focus, opponents = build_witness(model, "team", v)
    assert nu.weight("*") == 1
    assert opponents == ()
    law = pushforward(model, nu, [focus])
    reached = {(h.action("alice"), h.action("bob")) for h in law.support}
    # the pair was separated on bob's coordinate, so the law is the
    # correlated half-half over (T,L) and (B,R)
    assert reached == {("T", "L"), ("B", "R")}
    assert all(law.weight(h) == Fraction(1, 2) for h in law.support)


def test_forced_support_on_correlated_law():
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
    target = pushforward(model, nu, [mixed])
    forced = forced_support(model, "team", target)
    assert forced == {
        ("alice", 0): ("T", "B"),
        ("bob", 0): ("L", "R"),
    }


def test_certificate_for_simultaneous_team():
    model = corpus_model("alice-bob-simultaneous")
    phi = constant_ordering(model, "team", ("alice", "bob"))
    v = find_recall_violation(model, "team", phi)
    nu, focus, opponents = build_witness(model, "team", v)
    cert = certify_nonequivalence(model, "team", nu, focus, opponents)
    assert cert is not None
    assert verify_certificate(model, "team", cert)
    assert cert.omega == "*"
    assert cert.target.weight(cert.exhibited) == 0
    pins = dict(((a, z), u) for a, z, u in cert.pins)
    assert pins == {("alice", 0): "T", ("bob", 0): "R"}
    assert cert.exhibited.as_dict() == {"nature": "*", "alice": "T", "bob": "R"}


def test_certificate_for_coin_relay():
    model = coin_relay_model()
    phi = constant_ordering(model, "duo", ("b", "c"))
    v = find_recall_violation(model, "duo", phi)
    nu, focus, opponents = build_witness(model, "duo", v)
    cert = certify_nonequivalence(model, "duo", nu, focus, opponents)
    assert cert is not None
    assert verify_certificate(model, "duo", cert)
    assert cert.exhibited.as_dict() == {"nature": "w0", "b": "0", "c": "1"}


def test_deterministic_strategy_has_no_certificate():
    model = corpus_model("alice-bob-simultaneous")
    nu = RationalDistribution.point(("*",), "*")
    focus = deterministic_mixed(
        "team",
        PureStrategyProfile(
            (PureStrategy("alice", ("T",)), PureStrategy("bob", ("L",)))
        ),
    )
    assert certify_nonequivalence(model, "team", nu, focus, ()) is None


def test_independent_mixture_has_no_certificate():
    # a product law is exactly what a behavioral strategy produces, so no
    # pinning can trap it
    model = corpus_model("alice-bob-simultaneous")
    nu = RationalDistribution.point(("*",), "*")
    quarter = Fraction(1, 4)
    support = []
    for ua in ("T", "B"):
        for ub in ("L", "R"):
            support.append(
                (
                    PureStrategyProfile(
                        (PureStrategy("alice", (ua,)), PureStrategy("bob", (ub,)))
                    ),
                    quarter,
                )
            )
    focus = MixedStrategy("team", tuple(support))
    assert certify_nonequivalence(model, "team", nu, focus, ()) is None


def test_tampered_certificates_fail_verification():
    model = coin_relay_model()
    phi = constant_ordering(model, "duo", ("b", "c"))
    v = find_recall_violation(model, "duo", phi)
    nu, focus, opponents = build_witness(model, "duo", v)
    cert = certify_nonequivalence(model, "duo", nu, focus, opponents)
    assert verify_certificate(model, "duo", cert)

    other_nu = RationalDistribution(("w0", "w1"), (Fraction(1, 3), Fraction(2, 3)))
    assert not verify_certificate(model, "duo", cert.replace(nu=other_nu))

    flipped = tuple(
        (a, z, "0" if u == "1" else u) for a, z, u in cert.pins
    )
    if flipped != cert.pins:
        assert not verify_certificate(model, "duo", cert.replace(pins=flipped))


def test_witness_needs_two_final_actions():
    # the final agent owns a single action, so the pair cannot be
    # separated on its coordinate
    nature = FiniteSet("nature", ("w0", "w1"))
    agents = (
        ("b", FiniteSet("b", ("0", "1"))),
        ("c", FiniteSet("c", ("stay",))),
    )
    space = ConfigurationSpace(
        nature=nature, agents=("b", "c"), actions=tuple(s for _, s in agents)
    )
    model = WModel(
        nature=nature,
        agents=agents,
        players=(("duo", ("b", "c")),),
        information=(
            ("b", cylinder_partition(space, CoordinateSet.of(True, []))),
            ("c", cylinder_partition(space, CoordinateSet.of(False, ["b"]))),
        ),
    )
    phi = constant_ordering(model, "duo", ("b", "c"))
    v = find_recall_violation(model, "duo", phi)
    assert v is not None
    with pytest.raises(ValueError):
        build_witness(model, "duo", v)


def test_witness_rejects_foreign_violations():
    model = corpus_model("alice-bob-simultaneous")
    relay = coin_relay_model()
    phi = constant_ordering(relay, "duo", ("b", "c"))
    v = find_recall_violation(relay, "duo", phi)
    with pytest.raises(ValueError):
        build_witness(model, "team", v)


def test_pipeline_on_random_causal_models():
    rng = Random(414)
    certified = 0
    attempts = 0
    while certified < 20 and attempts < 400:
        attempts += 1
        model = random_causal_model(rng, max_nature=2, max_focus=2, max_actions=2)
        violation = None
        phi_hit = None
        for phi in iter_causal_orderings(model, "P"):
            violation = find_recall_violation(model, "P", phi)
            if violation is not None:
                phi_hit = phi
                break
        if violation is None:
            continue
        nu, focus, opponents = build_witness(model, "P", violation)
        cert = certify_nonequivalence(model, "P", nu, focus, opponents)
        assert cert is not None, (model, phi_hit, violation)
        assert verify_certificate(model, "P", cert)
        certified += 1
    assert certified == 20


def test_search_certifies_where_the_causal_sweep_runs_out(tmp_path):
    """Seed 5 draws three focus agents with more causal orderings than a
    2,000-node sweep reaches.  None of them has perfect recall, which the
    search for one proves within the budget; the same budget then covers
    the walk to the first causal ordering with a violation."""
    model = random_causal_model(Random(5))
    assert len(model.agents_of("P")) == 3
    with pytest.raises(SearchBudgetExhausted):
        list(iter_causal_orderings(model, "P", 2000))
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    args = ["--format", "structured", "necessity", str(path), "--player", "P", "--search", "--budget"]

    result = CliRunner().invoke(main, args + ["2000"])
    report = json.loads(result.stdout)
    assert (result.exit_code, report["outcome"]) == (1, "certified")
    phi, violation = next(
        (phi, v) for phi in iter_causal_orderings(model, "P") if (v := find_recall_violation(model, "P", phi))
    )
    cert = certify_nonequivalence(model, "P", *build_witness(model, "P", violation))
    assert verify_certificate(model, "P", cert)
    details = {"ordering": ordering_payload(phi, model), "certificate": certificate_payload(model, cert)}
    assert {k: report["details"][k] for k in details} == json.loads(json.dumps(details))

    result = CliRunner().invoke(main, args + ["1"])
    assert (result.exit_code, json.loads(result.stdout)["outcome"]) == (3, "unknown")


def reference_recall_violation(model, player, phi):
    """The per-atom scan of predecessor records: for each atom of the final
    agent's field, every member's ``choice_records`` against the first's."""
    space = model.space
    for kappa, cell in prefix_cells(model, player, phi, start=2):
        preds = kappa.sequence[:-1]
        first_atom_pair = None
        for atom in model.info_of(kappa.last).atoms:
            members = list(iter_bits(cell & atom))
            if len(members) < 2:
                continue
            first, *rest = model.choice_records(preds, members)
            for y, record in enumerate(rest, 1):
                if record == first:
                    continue
                if any(rx[1] != ry[1] for rx, ry in zip(first, record)):
                    return RecallViolation(
                        kappa, space.config(members[0]), space.config(members[y]), CASE_ACTION
                    )
                if first_atom_pair is None:
                    first_atom_pair = (members[0], members[y])
        if first_atom_pair is not None:
            x, y = first_atom_pair
            return RecallViolation(kappa, space.config(x), space.config(y), CASE_INFORMATION)
    return None


def _violation_cases():
    rng = Random(2104)
    for _ in range(60):
        yield random_causal_model(rng), None
        yield random_partition_model(rng, max_agents=4, max_atoms=6), None
        yield random_state_ordered_model(rng)
    for seed in range(120):  # wider information, where one count may skip a prefix
        draw = Random(f"violation-scan/{seed}")
        yield random_partition_model(
            draw, max_nature=3, max_agents=4, max_actions=3, max_atoms=8, min_actions=1 + seed % 2
        ), None
    for k in (5, 6, 7):
        model = sequential_model(k)
        ids = model.agents_of("dm")
        yield model, constant_ordering(model, "dm", ids)
        yield model, constant_ordering(model, "dm", ids[:-2] + (ids[-1], ids[-2]))


def test_violation_scan_matches_the_per_atom_reference():
    found = Counter()
    for model, given in _violation_cases():
        player = given.player if given is not None else "P"
        if given is not None:
            phis = [given]
        else:
            agents = model.agents_of(player)
            phis = [constant_ordering(model, player, seq) for seq in permutations(agents)]
            phis += islice(iter_causal_orderings(model, player), 6)
        for phi in phis:
            want = reference_recall_violation(model, player, phi)
            assert find_recall_violation(model, player, phi) == want
            found[None if want is None else want.case] += 1
    assert min(found[None], found[CASE_ACTION], found[CASE_INFORMATION]) > 0, found


def _golden_runs(tmp_path):
    """(argv, exit code, stdout) of every golden CLI run: per seed a causal
    or a partition model, its playability with witness, and per player a
    necessity search and a necessity check along the declared agent order."""
    model_path, ordering_path = tmp_path / "model.json", tmp_path / "ordering.json"
    runner = CliRunner()
    for seed in range(1000):
        rng = Random(f"golden/{seed}")
        if seed % 2 == 0:
            model = random_causal_model(rng, max_nature=2, max_focus=3, max_actions=2)
        else:
            model = random_partition_model(rng, max_atoms=3)
        model_path.write_text(serialize_model(model))
        runs = [["playability", str(model_path), "--witness"]]
        for player in model.player_names:
            runs.append(["necessity", str(model_path), "--player", player, "--search", "--budget", "5000"])
            phi = constant_ordering(model, player, model.agents_of(player))
            ordering_path.write_text(serialize_ordering(phi, model))
            runs.append(["necessity", str(model_path), "--player", player, "--ordering", str(ordering_path)])
        for argv in runs:
            result = runner.invoke(main, ["--format", "structured", *argv])
            yield argv, result.exit_code, result.stdout


# sha256 over every (exit code, stdout) of ``_golden_runs``, in order
GOLDEN_NECESSITY_DIGEST = "04dce63adcaadf39a705d609e5cac7df1b2105ddcbb0ccb4707ca6e23f0dcc82"


def test_golden_playability_and_necessity_reports(tmp_path):
    digest = hashlib.sha256()
    outcomes, cases = Counter(), Counter()
    for argv, code, stdout in _golden_runs(tmp_path):
        digest.update(f"{code}\n{stdout}\n".encode("utf-8"))
        if stdout:
            report = json.loads(stdout)
            outcomes[report["outcome"]] += 1
            if "--search" in argv and report["outcome"] == "certified":
                cases[report["details"]["violation"]["case"]] += 1
    assert cases[CASE_ACTION] > 0 and cases[CASE_INFORMATION] > 0, cases
    assert digest.hexdigest() == GOLDEN_NECESSITY_DIGEST, (outcomes, cases)
