"""Command-line entry point.

Exit codes are uniform across subcommands: 0 when the checked property
holds (or the computation succeeded), 1 when it fails and a witness is
reported, 2 for input or usage errors, 3 when a search budget ran out and
the answer is unknown.  Reports go to stdout; timing, when requested, goes
to stderr so stdout stays bit-identical across runs.
"""

from __future__ import annotations

import time
from pathlib import Path

import click

from .corpus import corpus_model, corpus_names
from .fields import SpaceTooLarge
from .io import (
    AnalysisReport,
    ModelFormatError,
    belief_payload,
    certificate_payload,
    config_payload,
    emit_report,
    field_violation_payload,
    model_digest,
    ordering_payload,
    parse_belief,
    parse_model,
    parse_ordering,
    parse_strategy,
    playability_witness_payload,
    pushforward_payload,
    recall_violation_payload,
    serialize_model,
    strategy_payload,
)
from .kuhn import behavioral_from_law, behavioral_pushforward, pushforward, transform_preserves_law
from .model import WModel
from .necessity import NoWitness, build_witness, certify_nonequivalence, find_recall_violation, verify_certificate
from .playability import PlayabilityError, check_playability, solution_map
from .recall import (
    NodeBudget,
    SearchBudgetExhausted,
    check_partial_causality,
    check_perfect_recall,
    iter_causal_orderings,
    search_recall_ordering,
)
from .strategies import (
    BehavioralStrategy,
    MixedStrategy,
    PureStrategyProfile,
    deterministic_mixed,
    one_strategy_per_player,
    restrict_profile,
)

_MODEL_ARG = click.argument(
    "model_file", metavar="MODEL", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["human", "structured"]),
    default="human",
    show_default=True,
    help="Report style on stdout.",
)
@click.option("--timing", is_flag=True, help="Print elapsed wall time to stderr.")
@click.option(
    "--threads",
    type=int,
    default=1,
    show_default=True,
    help="Accepted for compatibility; laws are computed in one thread, "
    "and the count does not change any result.",
)
@click.pass_context
def main(ctx: click.Context, fmt: str, timing: bool, threads: int) -> None:
    """Exact analyses of finite games in product form."""
    if threads < 1:
        raise click.UsageError("--threads must be at least 1")
    ctx.obj = {"format": fmt, "timing": timing, "threads": threads, "t0": time.perf_counter()}


def _emit(ctx: click.Context, command: str, model: WModel, outcome: str, details: dict, code: int) -> None:
    report = AnalysisReport(command, model_digest(model), outcome, details)
    click.echo(emit_report(report, ctx.obj["format"]), nl=False)
    if ctx.obj["timing"]:
        elapsed = time.perf_counter() - ctx.obj["t0"]
        click.echo(f"elapsed: {elapsed:.6f}s", err=True)
    ctx.exit(code)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise click.UsageError(f"{path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise click.UsageError(f"{path}: not UTF-8 text (byte {err.start})")


def _parse_file(parse, path: Path, *context):
    """``parse(text of path, *context)``, a format error made a usage error."""
    try:
        return parse(_read(path), *context)
    except ModelFormatError as err:
        raise click.UsageError(f"{path}: {err}")


def _load_ordering(path: Path, model: WModel, player: str):
    phi = _parse_file(parse_ordering, path, model)
    if phi.player != player:
        raise click.UsageError(
            f"{path}: ordering is for player {phi.player!r}, not {player!r}"
        )
    return phi


def _require_player(model: WModel, player: str) -> None:
    if player not in model.player_names:
        raise click.UsageError(f"unknown player {player!r}")


def _player_strategies(model: WModel, loaded: list) -> list:
    """Normalize CLI strategy inputs to one strategy per player.

    Pure profiles are split along player lines and lifted to point
    masses; mixed and behavioral strategies are kept as they are.  The
    result must then hold exactly one valid strategy per player.
    """
    out: list = []
    for strategy in loaded:
        if isinstance(strategy, (MixedStrategy, BehavioralStrategy)):
            out.append(strategy)
        elif isinstance(strategy, PureStrategyProfile):
            players = {model.player_of(a) for a in strategy.agents}
            for name in model.player_names:
                if name not in players:
                    continue
                own = restrict_profile(strategy, model.agents_of(name))
                if own.agents != frozenset(model.agents_of(name)):
                    raise click.UsageError(
                        f"profile covers only part of player {name!r}"
                    )
                out.append(deterministic_mixed(name, own))
        else:
            raise click.UsageError("unsupported strategy input")
    try:
        one_strategy_per_player(model, out)
    except ValueError as err:
        raise click.UsageError(str(err))
    return out


def _law(ctx: click.Context, model: WModel, nu, strategies: list):
    """Closed-loop law; behavioral strategies are never expanded to plans."""
    beta = next((s for s in strategies if isinstance(s, BehavioralStrategy)), None)
    try:
        if beta is None:
            return pushforward(model, nu, strategies, threads=ctx.obj["threads"])
        return behavioral_pushforward(model, nu, beta, [s for s in strategies if s is not beta])
    except PlayabilityError as err:
        raise click.UsageError(f"profiles in the support are not solvable: {err}")


def _one_of_ordering_or_search(ordering, search: bool) -> None:
    if (ordering is None) == (not search):
        raise click.UsageError("give exactly one of --ordering or --search")


# ── subcommands ─────────────────────────────────────────────────────────


@main.command()
@_MODEL_ARG
@click.pass_context
def validate(ctx: click.Context, model_file: Path) -> None:
    """Parse and validate MODEL, reporting its shape."""
    model = _parse_file(parse_model, model_file)
    details = {
        "nature-states": len(model.nature),
        "agents": len(model.agent_ids),
        "players": len(model.player_names),
        "configurations": model.space.size,
    }
    _emit(ctx, "validate", model, "valid", details, 0)


@main.command()
@_MODEL_ARG
@click.option("--profile", "profile_file", type=_FILE, required=True, help="Pure strategy profile for every agent.")
@click.pass_context
def solve(ctx: click.Context, model_file: Path, profile_file: Path) -> None:
    """Solve the closed loop of a pure profile at every Nature state."""
    model = _parse_file(parse_model, model_file)
    strategy = _parse_file(parse_strategy, profile_file, model)
    if not isinstance(strategy, PureStrategyProfile):
        raise click.UsageError(f"{profile_file}: solve needs a pure-profile strategy")
    if strategy.agents != frozenset(model.agent_ids):
        raise click.UsageError(f"{profile_file}: profile must cover every agent")
    try:
        table = solution_map(model, strategy)
    except PlayabilityError as err:
        details = {
            "nature-state": err.omega,
            "solution-count": len(err.solutions),
            "solutions": [config_payload(h) for h in err.solutions],
        }
        _emit(ctx, "solve", model, "unsolvable", details, 1)
        return
    details = {
        "solutions": [
            {"nature-state": w, "configuration": config_payload(h)}
            for w, h in table.rows
        ]
    }
    _emit(ctx, "solve", model, "solved", details, 0)


@main.command()
@_MODEL_ARG
@click.option("--witness", "want_witness", is_flag=True, help="Include the failing profile and its solution set.")
@click.pass_context
def playability(ctx: click.Context, model_file: Path, want_witness: bool) -> None:
    """Decide whether every pure profile has a unique closed-loop solution."""
    model = _parse_file(parse_model, model_file)
    report = check_playability(model)
    if report.playable:
        _emit(ctx, "playability", model, "playable", {}, 0)
    details = {}
    if want_witness:
        details["witness"] = playability_witness_payload(model, report.witness)
    _emit(ctx, "playability", model, "not-playable", details, 1)


@main.command()
@_MODEL_ARG
@click.option("--player", required=True, help="Player whose recall is checked.")
@click.option("--ordering", "ordering_file", type=_FILE, help="Configuration-ordering to check.")
@click.option("--search", is_flag=True, help="Search for an ordering with perfect recall.")
@click.option("--budget", type=click.IntRange(min=1), default=200_000, show_default=True, help="Search node budget.")
@click.pass_context
def recall(ctx: click.Context, model_file: Path, player: str, ordering_file, search: bool, budget: int) -> None:
    """Check perfect recall along an ordering, or search for one."""
    model = _parse_file(parse_model, model_file)
    _require_player(model, player)
    _one_of_ordering_or_search(ordering_file, search)
    if ordering_file is not None:
        phi = _load_ordering(ordering_file, model, player)
        report = check_perfect_recall(model, player, phi)
        if report.holds:
            _emit(ctx, "recall", model, "holds", {"player": player}, 0)
        details = {
            "player": player,
            "violation": field_violation_payload(model, report.violation),
        }
        _emit(ctx, "recall", model, "fails", details, 1)
    result = search_recall_ordering(model, player, budget)
    if result.outcome == "found":
        details = {
            "player": player,
            "ordering": ordering_payload(result.ordering, model),
            "nodes": result.nodes,
        }
        _emit(ctx, "recall", model, "holds", details, 0)
    if result.outcome == "none":
        _emit(ctx, "recall", model, "no-ordering", {"player": player, "nodes": result.nodes}, 1)
    _emit(ctx, "recall", model, "unknown", {"player": player, "nodes": result.nodes}, 3)


@main.command()
@_MODEL_ARG
@click.option("--player", required=True, help="Player whose ordering is checked.")
@click.option("--ordering", "ordering_file", type=_FILE, required=True, help="Configuration-ordering to check.")
@click.pass_context
def causality(ctx: click.Context, model_file: Path, player: str, ordering_file: Path) -> None:
    """Check partial causality of an ordering."""
    model = _parse_file(parse_model, model_file)
    _require_player(model, player)
    phi = _load_ordering(ordering_file, model, player)
    report = check_partial_causality(model, player, phi)
    if report.holds:
        _emit(ctx, "causality", model, "holds", {"player": player}, 0)
    details = {
        "player": player,
        "violation": field_violation_payload(model, report.violation),
    }
    _emit(ctx, "causality", model, "fails", details, 1)


@main.command("pushforward")
@_MODEL_ARG
@click.option("--nu", "nu_file", type=_FILE, required=True, help="Belief over Nature states.")
@click.option("--strategy", "strategy_files", type=_FILE, multiple=True, required=True, help="Strategy file; repeat to cover every player.")
@click.pass_context
def pushforward_cmd(ctx: click.Context, model_file: Path, nu_file: Path, strategy_files) -> None:
    """Exact closed-loop law under a belief and one strategy per player."""
    model = _parse_file(parse_model, model_file)
    nu = _parse_file(parse_belief, nu_file, model)
    loaded = [_parse_file(parse_strategy, f, model) for f in strategy_files]
    law = _law(ctx, model, nu, _player_strategies(model, loaded))
    details = {"belief": belief_payload(nu), "law": pushforward_payload(law)}
    _emit(ctx, "pushforward", model, "computed", details, 0)


@main.command()
@_MODEL_ARG
@click.option("--player", required=True, help="Player whose strategy is transformed.")
@click.option("--nu", "nu_file", type=_FILE, required=True, help="Belief over Nature states.")
@click.option("--strategy", "strategy_files", type=_FILE, multiple=True, required=True, help="Strategy file; repeat to cover every player.")
@click.option("--ordering", "ordering_file", type=_FILE, help="Perfect-recall ordering to disintegrate along.")
@click.option("--search", is_flag=True, help="Search for a perfect-recall ordering first.")
@click.option("--budget", type=click.IntRange(min=1), default=200_000, show_default=True, help="Search node budget.")
@click.option("--verify", "verify_flag", is_flag=True, help="Check that the transform preserves the closed-loop law.")
@click.pass_context
def kuhn(ctx: click.Context, model_file: Path, player: str, nu_file: Path, strategy_files, ordering_file, search: bool, budget: int, verify_flag: bool) -> None:
    """Behavioral strategy with the same closed-loop law as the mixed one."""
    model = _parse_file(parse_model, model_file)
    _require_player(model, player)
    nu = _parse_file(parse_belief, nu_file, model)
    loaded = [_parse_file(parse_strategy, f, model) for f in strategy_files]
    strategies = _player_strategies(model, loaded)
    _one_of_ordering_or_search(ordering_file, search)
    if ordering_file is not None:
        phi = _load_ordering(ordering_file, model, player)
        report = check_perfect_recall(model, player, phi)
        if not report.holds:
            details = {
                "player": player,
                "violation": field_violation_payload(model, report.violation),
            }
            _emit(ctx, "kuhn", model, "no-recall", details, 1)
    else:
        result = search_recall_ordering(model, player, budget)
        if result.outcome == "none":
            _emit(ctx, "kuhn", model, "no-ordering", {"player": player, "nodes": result.nodes}, 1)
        if result.outcome == "unknown":
            _emit(ctx, "kuhn", model, "unknown", {"player": player, "nodes": result.nodes}, 3)
        phi = result.ordering
    law = _law(ctx, model, nu, strategies)
    beta = behavioral_from_law(model, player, law)
    details = {
        "player": player,
        "ordering": ordering_payload(phi, model),
        "behavioral": strategy_payload(beta),
    }
    if verify_flag:
        others = [s for s in strategies if s.player != player]
        try:
            preserved = transform_preserves_law(model, beta, nu, others, law)
        except PlayabilityError as err:
            raise click.UsageError(f"profiles in the support are not solvable: {err}")
        details["verified"] = preserved
        if not preserved:
            _emit(ctx, "kuhn", model, "law-changed", details, 1)
    _emit(ctx, "kuhn", model, "transformed", details, 0)


@main.command()
@_MODEL_ARG
@click.option("--player", required=True, help="Player whose recall failure is certified.")
@click.option("--ordering", "ordering_file", type=_FILE, help="Partially causal ordering to scan.")
@click.option("--search", is_flag=True, help="Search the partially causal orderings.")
@click.option("--budget", type=click.IntRange(min=1), default=200_000, show_default=True, help="Search node budget, shared by both searches.")
@click.pass_context
def necessity(ctx: click.Context, model_file: Path, player: str, ordering_file, search: bool, budget: int) -> None:
    """Certify that a recall violation blocks any behavioral equivalent.

    With --ordering the given ordering must be partially causal; the scan
    looks for indistinguishable configurations with differing predecessor
    records and, on a hit, builds the witness belief and strategies and a
    machine-checked certificate that no behavioral strategy of the player
    reproduces their closed-loop law.  An ordering is free of violations
    only if the scan finds no pair and perfect recall holds along it; one
    with neither (recall fails across a cell boundary) is undecided.  With
    --search, the first causal ordering with perfect recall succeeds
    (exit 0); only when there is none is the violation of the first causal
    ordering that has one certified.  One node budget covers both searches.
    """
    model = _parse_file(parse_model, model_file)
    _require_player(model, player)
    _one_of_ordering_or_search(ordering_file, search)

    def certify(phi, violation):
        details = {
            "player": player,
            "ordering": ordering_payload(phi, model),
            "violation": recall_violation_payload(violation),
        }
        try:
            nu, focus, opponents = build_witness(model, player, violation)
        except NoWitness:
            _emit(ctx, "necessity", model, "undecided", details, 3)
        cert = certify_nonequivalence(model, player, nu, focus, opponents)
        if cert is None or not verify_certificate(model, player, cert):
            _emit(ctx, "necessity", model, "undecided", details, 3)
        details["certificate"] = certificate_payload(model, cert)
        _emit(ctx, "necessity", model, "certified", details, 1)

    if ordering_file is not None:
        phi = _load_ordering(ordering_file, model, player)
        causal = check_partial_causality(model, player, phi)
        if not causal.holds:
            raise click.UsageError(
                f"{ordering_file}: ordering is not partially causal for {player!r}"
            )
        violation = find_recall_violation(model, player, phi)
        if violation is None:
            if check_perfect_recall(model, player, phi).holds:
                _emit(ctx, "necessity", model, "no-violation", {"player": player}, 0)
            _emit(ctx, "necessity", model, "undecided", {"player": player}, 3)
        certify(phi, violation)

    nodes = NodeBudget(budget)
    any_causal = False
    try:
        for phi in iter_causal_orderings(model, player, nodes, recall=True):
            details = {"player": player, "ordering": ordering_payload(phi, model)}
            _emit(ctx, "necessity", model, "no-violation", details, 0)
        for phi in iter_causal_orderings(model, player, nodes):
            any_causal = True
            violation = find_recall_violation(model, player, phi)
            if violation is not None:
                certify(phi, violation)
    except SearchBudgetExhausted:
        _emit(ctx, "necessity", model, "unknown", {"player": player}, 3)
    outcome = "undecided" if any_causal else "no-causal-ordering"
    _emit(ctx, "necessity", model, outcome, {"player": player}, 3)


@main.group()
def examples() -> None:
    """Built-in example models."""


@examples.command("list")
def examples_list() -> None:
    """Names of the built-in examples."""
    for name in corpus_names():
        click.echo(name)


@examples.command("export")
@click.argument("name")
def examples_export(name: str) -> None:
    """Write an example model as canonical JSON to stdout."""
    try:
        model = corpus_model(name)
    except KeyError:
        raise click.UsageError(f"unknown example {name!r}")
    except SpaceTooLarge as err:
        raise click.UsageError(str(err))
    click.echo(serialize_model(model), nl=False)


if __name__ == "__main__":
    main()
