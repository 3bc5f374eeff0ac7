"""Command-line entry point.

Exit codes are uniform across subcommands: 0 when the checked property
holds (or the computation succeeded), 1 when it fails and a witness is
reported, 2 for input or usage errors, 3 when a search budget ran out and
the answer is unknown.  Reports go to stdout; timing, when requested, goes
to stderr so stdout stays bit-identical across runs.  Usage errors are
reported in argparse's format (usage line, then message) on stderr, with
nothing on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

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


class UsageError(Exception):
    """Bad input found after parsing; reported like a parse error (exit 2)."""


def _existing_file(text: str) -> Path:
    try:
        os.stat(text)
    except (OSError, ValueError):  # missing, unreachable, name too long, NUL byte
        raise argparse.ArgumentTypeError(f"file {text!r} does not exist") from None
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    return Path(text)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _emit(args, command: str, model: WModel, outcome: str, details: dict, code: int) -> None:
    report = AnalysisReport(command, model_digest(model), outcome, details)
    sys.stdout.write(emit_report(report, args.format))
    if args.timing:
        print(f"elapsed: {time.perf_counter() - args.t0:.6f}s", file=sys.stderr)
    raise SystemExit(code)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"{path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not UTF-8 text (byte {err.start})")


def _parse_file(parse, path: Path, *context):
    """``parse(text of path, *context)``, a format error made a usage error."""
    try:
        return parse(_read(path), *context)
    except ModelFormatError as err:
        raise UsageError(f"{path}: {err}")


def _load_ordering(path: Path, model: WModel, player: str):
    phi = _parse_file(parse_ordering, path, model)
    if phi.player != player:
        raise UsageError(
            f"{path}: ordering is for player {phi.player!r}, not {player!r}"
        )
    return phi


def _require_player(model: WModel, player: str) -> None:
    if player not in model.player_names:
        raise UsageError(f"unknown player {player!r}")


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
                    raise UsageError(
                        f"profile covers only part of player {name!r}"
                    )
                out.append(deterministic_mixed(name, own))
        else:
            raise UsageError("unsupported strategy input")
    try:
        one_strategy_per_player(model, out)
    except ValueError as err:
        raise UsageError(str(err))
    return out


def _law(args, model: WModel, nu, strategies: list):
    """Closed-loop law; behavioral strategies are never expanded to plans."""
    beta = next((s for s in strategies if isinstance(s, BehavioralStrategy)), None)
    try:
        if beta is None:
            return pushforward(model, nu, strategies, threads=args.threads)
        return behavioral_pushforward(model, nu, beta, [s for s in strategies if s is not beta])
    except PlayabilityError as err:
        raise UsageError(f"profiles in the support are not solvable: {err}")


def _one_of_ordering_or_search(ordering, search: bool) -> None:
    if (ordering is None) == (not search):
        raise UsageError("give exactly one of --ordering or --search")


def _recall_ordering(args, command: str, model: WModel, player: str, fails: str):
    """The --ordering checked for perfect recall, with None, or the ordering
    --search finds, with its node count.  Any other answer is reported:
    ``fails`` with the violation or no-ordering (exit 1), or unknown (3)."""
    _one_of_ordering_or_search(args.ordering, args.search)
    if args.ordering is not None:
        phi = _load_ordering(args.ordering, model, player)
        report = check_perfect_recall(model, player, phi)
        if not report.holds:
            details = {"player": player, "violation": field_violation_payload(model, report.violation)}
            _emit(args, command, model, fails, details, 1)
        return phi, None
    result = search_recall_ordering(model, player, args.budget)
    if result.outcome != "found":
        outcome, code = ("no-ordering", 1) if result.outcome == "none" else ("unknown", 3)
        _emit(args, command, model, outcome, {"player": player, "nodes": result.nodes}, code)
    return result.ordering, result.nodes


# ── subcommands ─────────────────────────────────────────────────────────


def validate(args) -> None:
    """Parse and validate MODEL, reporting its shape."""
    model = _parse_file(parse_model, args.model)
    details = {
        "nature-states": len(model.nature),
        "agents": len(model.agent_ids),
        "players": len(model.player_names),
        "configurations": model.space.size,
    }
    _emit(args, "validate", model, "valid", details, 0)


def solve(args) -> None:
    """Solve the closed loop of a pure profile at every Nature state."""
    model = _parse_file(parse_model, args.model)
    strategy = _parse_file(parse_strategy, args.profile, model)
    if not isinstance(strategy, PureStrategyProfile):
        raise UsageError(f"{args.profile}: solve needs a pure-profile strategy")
    if strategy.agents != frozenset(model.agent_ids):
        raise UsageError(f"{args.profile}: profile must cover every agent")
    try:
        table = solution_map(model, strategy)
    except PlayabilityError as err:
        details = {
            "nature-state": err.omega,
            "solution-count": len(err.solutions),
            "solutions": [config_payload(h) for h in err.solutions],
        }
        _emit(args, "solve", model, "unsolvable", details, 1)
    details = {
        "solutions": [
            {"nature-state": w, "configuration": config_payload(h)}
            for w, h in table.rows
        ]
    }
    _emit(args, "solve", model, "solved", details, 0)


def playability(args) -> None:
    """Decide whether every pure profile has a unique closed-loop solution."""
    model = _parse_file(parse_model, args.model)
    report = check_playability(model)
    if report.playable:
        _emit(args, "playability", model, "playable", {}, 0)
    details = {}
    if args.witness:
        details["witness"] = playability_witness_payload(model, report.witness)
    _emit(args, "playability", model, "not-playable", details, 1)


def recall(args) -> None:
    """Check perfect recall along an ordering, or search for one."""
    model = _parse_file(parse_model, args.model)
    player = args.player
    _require_player(model, player)
    phi, nodes = _recall_ordering(args, "recall", model, player, "fails")
    if nodes is None:
        _emit(args, "recall", model, "holds", {"player": player}, 0)
    details = {"player": player, "ordering": ordering_payload(phi, model), "nodes": nodes}
    _emit(args, "recall", model, "holds", details, 0)


def causality(args) -> None:
    """Check partial causality of an ordering."""
    model = _parse_file(parse_model, args.model)
    player = args.player
    _require_player(model, player)
    phi = _load_ordering(args.ordering, model, player)
    report = check_partial_causality(model, player, phi)
    if report.holds:
        _emit(args, "causality", model, "holds", {"player": player}, 0)
    details = {
        "player": player,
        "violation": field_violation_payload(model, report.violation),
    }
    _emit(args, "causality", model, "fails", details, 1)


def pushforward_cmd(args) -> None:
    """Exact closed-loop law under a belief and one strategy per player."""
    model = _parse_file(parse_model, args.model)
    nu = _parse_file(parse_belief, args.nu, model)
    loaded = [_parse_file(parse_strategy, f, model) for f in args.strategy]
    law = _law(args, model, nu, _player_strategies(model, loaded))
    details = {"belief": belief_payload(nu), "law": pushforward_payload(law)}
    _emit(args, "pushforward", model, "computed", details, 0)


def kuhn(args) -> None:
    """Behavioral strategy with the same closed-loop law as the mixed one."""
    model = _parse_file(parse_model, args.model)
    player = args.player
    _require_player(model, player)
    nu = _parse_file(parse_belief, args.nu, model)
    loaded = [_parse_file(parse_strategy, f, model) for f in args.strategy]
    strategies = _player_strategies(model, loaded)
    phi, _ = _recall_ordering(args, "kuhn", model, player, "no-recall")
    law = _law(args, model, nu, strategies)
    beta = behavioral_from_law(model, player, law)
    details = {
        "player": player,
        "ordering": ordering_payload(phi, model),
        "behavioral": strategy_payload(beta),
    }
    if args.verify:
        others = [s for s in strategies if s.player != player]
        try:
            preserved = transform_preserves_law(model, beta, nu, others, law)
        except PlayabilityError as err:
            raise UsageError(f"profiles in the support are not solvable: {err}")
        details["verified"] = preserved
        if not preserved:
            _emit(args, "kuhn", model, "law-changed", details, 1)
    _emit(args, "kuhn", model, "transformed", details, 0)


def necessity(args) -> None:
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
    model = _parse_file(parse_model, args.model)
    player = args.player
    _require_player(model, player)
    _one_of_ordering_or_search(args.ordering, args.search)

    def certify(phi, violation):
        details = {
            "player": player,
            "ordering": ordering_payload(phi, model),
            "violation": recall_violation_payload(violation),
        }
        try:
            nu, focus, opponents = build_witness(model, player, violation)
        except NoWitness:
            _emit(args, "necessity", model, "undecided", details, 3)
        cert = certify_nonequivalence(model, player, nu, focus, opponents)
        if cert is None or not verify_certificate(model, player, cert):
            _emit(args, "necessity", model, "undecided", details, 3)
        details["certificate"] = certificate_payload(model, cert)
        _emit(args, "necessity", model, "certified", details, 1)

    if args.ordering is not None:
        phi = _load_ordering(args.ordering, model, player)
        causal = check_partial_causality(model, player, phi)
        if not causal.holds:
            raise UsageError(f"{args.ordering}: ordering is not partially causal for {player!r}")
        violation = find_recall_violation(model, player, phi)
        if violation is None:
            if check_perfect_recall(model, player, phi).holds:
                _emit(args, "necessity", model, "no-violation", {"player": player}, 0)
            _emit(args, "necessity", model, "undecided", {"player": player}, 3)
        certify(phi, violation)

    nodes = NodeBudget(args.budget)
    any_causal = False
    try:
        for phi in iter_causal_orderings(model, player, nodes, recall=True):
            details = {"player": player, "ordering": ordering_payload(phi, model)}
            _emit(args, "necessity", model, "no-violation", details, 0)
        for phi in iter_causal_orderings(model, player, nodes):
            any_causal = True
            violation = find_recall_violation(model, player, phi)
            if violation is not None:
                certify(phi, violation)
    except SearchBudgetExhausted:
        _emit(args, "necessity", model, "unknown", {"player": player}, 3)
    outcome = "undecided" if any_causal else "no-causal-ordering"
    _emit(args, "necessity", model, outcome, {"player": player}, 3)


def examples_list(args) -> None:
    """Names of the built-in examples."""
    for name in corpus_names():
        print(name)


def examples_export(args) -> None:
    """Write an example model as canonical JSON to stdout."""
    try:
        model = corpus_model(args.name)
    except KeyError:
        raise UsageError(f"unknown example {args.name!r}")
    except SpaceTooLarge as err:
        raise UsageError(str(err))
    sys.stdout.write(serialize_model(model))


# ── parser ──────────────────────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    """Only --help asks for help, and no option is ever abbreviated;
    subcommand parsers are of the same class."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _add_command(subparsers, name: str, run, model: bool = True) -> argparse.ArgumentParser:
    """Subcommand ``name`` that calls ``run(args)``; its docstring is the help."""
    doc = run.__doc__ or ""
    parser = subparsers.add_parser(name, help=doc.partition("\n")[0], description=doc)
    parser.set_defaults(run=run, parser=parser)
    if model:
        parser.add_argument("model", metavar="MODEL", type=_existing_file, help="Model file.")
    return parser


def _add_search(parser, search_help: str, budget_help: str = "Search node budget") -> None:
    parser.add_argument("--search", action="store_true", help=search_help)
    parser.add_argument("--budget", type=_at_least_one, default=200_000, help=f"{budget_help} (default: 200000).")


def _add_law_inputs(parser) -> None:
    parser.add_argument("--nu", type=_existing_file, required=True, help="Belief over Nature states.")
    parser.add_argument("--strategy", type=_existing_file, action="append", required=True, help="Strategy file; repeat to cover every player.")


def _build_parser(prog: str = "wgames") -> argparse.ArgumentParser:
    """The parser of every subcommand; parsed arguments carry ``run``, the
    subcommand's function, and ``parser``, the subparser that took them."""
    top = _Parser(prog=prog, description="Exact analyses of finite games in product form.")
    top.add_argument("--format", choices=("human", "structured"), default="human", help="Report style on stdout (default: human).")
    top.add_argument("--timing", action="store_true", help="Print elapsed wall time to stderr.")
    top.add_argument(
        "--threads", type=_at_least_one, default=1,
        help="Accepted for compatibility; laws are computed in one thread, and the count does not change any result (default: 1).",
    )
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    _add_command(commands, "validate", validate)
    p = _add_command(commands, "solve", solve)
    p.add_argument("--profile", type=_existing_file, required=True, help="Pure strategy profile for every agent.")
    p = _add_command(commands, "playability", playability)
    p.add_argument("--witness", action="store_true", help="Include the failing profile and its solution set.")

    p = _add_command(commands, "recall", recall)
    p.add_argument("--player", required=True, help="Player whose recall is checked.")
    p.add_argument("--ordering", type=_existing_file, help="Configuration-ordering to check.")
    _add_search(p, "Search for an ordering with perfect recall.")

    p = _add_command(commands, "causality", causality)
    p.add_argument("--player", required=True, help="Player whose ordering is checked.")
    p.add_argument("--ordering", type=_existing_file, required=True, help="Configuration-ordering to check.")

    _add_law_inputs(_add_command(commands, "pushforward", pushforward_cmd))
    p = _add_command(commands, "kuhn", kuhn)
    p.add_argument("--player", required=True, help="Player whose strategy is transformed.")
    _add_law_inputs(p)
    p.add_argument("--ordering", type=_existing_file, help="Perfect-recall ordering to disintegrate along.")
    _add_search(p, "Search for a perfect-recall ordering first.")
    p.add_argument("--verify", action="store_true", help="Check that the transform preserves the closed-loop law.")

    p = _add_command(commands, "necessity", necessity)
    p.add_argument("--player", required=True, help="Player whose recall failure is certified.")
    p.add_argument("--ordering", type=_existing_file, help="Partially causal ordering to scan.")
    _add_search(p, "Search the partially causal orderings.", "Search node budget, shared by both searches")

    examples = commands.add_parser("examples", help="Built-in example models.", description="Built-in example models.")
    listing = examples.add_subparsers(dest="example_command", metavar="COMMAND", required=True)
    _add_command(listing, "list", examples_list, model=False)
    _add_command(listing, "export", examples_export, model=False).add_argument("name", metavar="NAME")
    return top


# Built once, at import: the first command of a process does not pay for it.
_PARSER = _build_parser()


def main(argv=None, prog_name: str = "wgames") -> None:
    """Run one command line (``sys.argv[1:]`` by default).  Always ends in
    ``SystemExit`` with the exit code; ``--help`` exits 0."""
    parser = _PARSER if prog_name == "wgames" else _build_parser(prog_name)
    args = parser.parse_args(argv, argparse.Namespace(t0=time.perf_counter()))
    try:
        args.run(args)
    except UsageError as err:
        args.parser.error(str(err))
    raise SystemExit(0)


if __name__ == "__main__":
    main()
