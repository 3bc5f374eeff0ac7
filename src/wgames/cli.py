"""Command-line entry point.

Exit codes are uniform across subcommands: 0 when the checked property
holds (or the computation succeeded), 1 when it fails and a witness is
reported, 2 for input or usage errors, 3 when a search budget ran out and
the answer is unknown.  Reports go to stdout; timing, when requested, goes
to stderr so stdout stays bit-identical across runs.

The command line is read against one table, ``_TOP``: the global options
and the commands, each command with its function, its positionals and its
options (how each value is read, its default, whether it is required and
its help text).  One loop over argv reads it (:func:`_parse`), and the
usage lines, the ``--help`` text and the error messages are all made from
the same table.  A grammar error, or a :class:`UsageError` that a command
raises, exits 2 with nothing on stdout and two lines on stderr: the
command's usage line, ``usage: PROG CMD ...``, then ``PROG CMD: error:
MESSAGE``.  ``--help`` writes to stdout only and exits 0.
"""

from __future__ import annotations

import os
import re
import sys
import time
from stat import S_ISDIR
from types import SimpleNamespace

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
from .record import Record
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


def _emit(args, command: str, model: WModel, outcome: str, details: dict, code: int) -> None:
    report = AnalysisReport(command, model_digest(model), outcome, details)
    sys.stdout.write(emit_report(report, args.format))
    raise SystemExit(code)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as err:
        raise UsageError(f"{path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not UTF-8 text (byte {err.start})")


def _parse_file(parse, path: str, *context):
    """``parse(text of path, *context)``, a format error made a usage error."""
    try:
        return parse(_read(path), *context)
    except ModelFormatError as err:
        raise UsageError(f"{path}: {err}")


def _load_ordering(path: str, model: WModel, player: str):
    phi = _parse_file(parse_ordering, path, model)
    if phi.player != player:
        raise UsageError(
            f"{path}: ordering is for player {phi.player!r}, not {player!r}"
        )
    return phi


def _model_and_player(args) -> tuple[WModel, str]:
    """MODEL parsed, and ``--player``, which must name one of its players."""
    model = _parse_file(parse_model, args.model)
    if args.player not in model.player_names:
        raise UsageError(f"unknown player {args.player!r}")
    return model, args.player


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


def _solvable(compute, *args, **kwargs):
    """``compute(*args, **kwargs)``, an unsolvable support profile made a usage error."""
    try:
        return compute(*args, **kwargs)
    except PlayabilityError as err:
        raise UsageError(f"profiles in the support are not solvable: {err}")


def _law(args, model: WModel, nu, strategies: list):
    """Closed-loop law; behavioral strategies are never expanded to plans."""
    beta = next((s for s in strategies if isinstance(s, BehavioralStrategy)), None)
    if beta is None:
        return _solvable(pushforward, model, nu, strategies, threads=args.threads)
    return _solvable(behavioral_pushforward, model, nu, beta, [s for s in strategies if s is not beta])


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
    model, player = _model_and_player(args)
    phi, nodes = _recall_ordering(args, "recall", model, player, "fails")
    if nodes is None:
        _emit(args, "recall", model, "holds", {"player": player}, 0)
    details = {"player": player, "ordering": ordering_payload(phi, model), "nodes": nodes}
    _emit(args, "recall", model, "holds", details, 0)


def causality(args) -> None:
    """Check partial causality of an ordering."""
    model, player = _model_and_player(args)
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
    model, player = _model_and_player(args)
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
        preserved = _solvable(transform_preserves_law, model, beta, nu, others, law)
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
    model, player = _model_and_player(args)
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


# ── the command table and its parser ────────────────────────────────────


class _Entry(Record):
    """An option (``--name``) or a positional (``NAME``) of a command.

    ``kind`` says how its text is read: None for a flag, which takes no
    value; ``"text"`` as it is; ``"file"`` an existing file that is not a
    directory; ``"files"`` the same, repeatable, kept in order; ``"count"``
    an integer of at least 1; or a tuple of the allowed values.  Its value
    is the attribute named by ``name`` without dashes, in lower case, and is
    ``default`` when not given.  A positional is always required.
    """

    __slots__ = ("name", "kind", "default", "required", "help")
    name: str
    kind: object
    default: object
    required: bool
    help: str


class _Command(Record):
    """A command: ``run`` takes the parsed arguments, or is None where the
    next positional names one of ``commands``.  ``entries`` are keyed by
    name, ``--help`` first; positionals are filled in table order."""

    __slots__ = ("help", "entries", "run", "commands")
    help: str
    entries: dict
    run: object
    commands: dict


_HELP = _Entry("--help", None, False, False, "Show this message and exit.")


def _entries(*entries: _Entry) -> dict:
    return {e.name: e for e in (_HELP, *entries)}


def _command(run, *entries: _Entry, model: bool = True) -> _Command:
    """Leaf command calling ``run(args)``; its docstring is the help."""
    if model:
        entries = (_Entry("MODEL", "file", None, True, "Model file."), *entries)
    return _Command(run.__doc__, _entries(*entries), run, None)


def _search(search_help: str, budget_help: str = "Search node budget") -> tuple[_Entry, _Entry]:
    return (
        _Entry("--search", None, False, False, search_help),
        _Entry("--budget", "count", 200_000, False, f"{budget_help} (default: 200000)."),
    )


_LAW_INPUTS = (
    _Entry("--nu", "file", None, True, "Belief over Nature states."),
    _Entry("--strategy", "files", None, True, "Strategy file; repeat to cover every player."),
)

_TOP = _Command(
    "Exact analyses of finite games in product form.",
    _entries(
        _Entry("--format", ("human", "structured"), "human", False, "Report style on stdout (default: human)."),
        _Entry("--timing", None, False, False, "Print elapsed wall time to stderr."),
        _Entry(
            "--threads", "count", 1, False,
            "Accepted for compatibility; laws are computed in one thread, and the count does not change any result (default: 1).",
        ),
    ),
    None,
    {
        "validate": _command(validate),
        "solve": _command(solve, _Entry("--profile", "file", None, True, "Pure strategy profile for every agent.")),
        "playability": _command(
            playability, _Entry("--witness", None, False, False, "Include the failing profile and its solution set.")
        ),
        "recall": _command(
            recall,
            _Entry("--player", "text", None, True, "Player whose recall is checked."),
            _Entry("--ordering", "file", None, False, "Configuration-ordering to check."),
            *_search("Search for an ordering with perfect recall."),
        ),
        "causality": _command(
            causality,
            _Entry("--player", "text", None, True, "Player whose ordering is checked."),
            _Entry("--ordering", "file", None, True, "Configuration-ordering to check."),
        ),
        "pushforward": _command(pushforward_cmd, *_LAW_INPUTS),
        "kuhn": _command(
            kuhn,
            _Entry("--player", "text", None, True, "Player whose strategy is transformed."),
            *_LAW_INPUTS,
            _Entry("--ordering", "file", None, False, "Perfect-recall ordering to disintegrate along."),
            *_search("Search for a perfect-recall ordering first."),
            _Entry("--verify", None, False, False, "Check that the transform preserves the closed-loop law."),
        ),
        "necessity": _command(
            necessity,
            _Entry("--player", "text", None, True, "Player whose recall failure is certified."),
            _Entry("--ordering", "file", None, False, "Partially causal ordering to scan."),
            *_search("Search the partially causal orderings.", "Search node budget, shared by both searches"),
        ),
        "examples": _Command(
            "Built-in example models.",
            _entries(),
            None,
            {
                "list": _command(examples_list, model=False),
                "export": _command(
                    examples_export, _Entry("NAME", "text", None, True, "Name of a built-in example."), model=False
                ),
            },
        ),
    },
)
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # what int() reads, at any length


def _is_option(token: str) -> bool:
    """Whether ``token`` is an option name; a negative number is a value."""
    return token[:1] == "-" and _NEGATIVE_NUMBER.fullmatch(token) is None


def _dest(entry: _Entry) -> str:
    return entry.name.lstrip("-").lower()


def _spelled(entry: _Entry) -> str:
    """``--name VALUE`` as usage and help show it."""
    if entry.kind is None:
        return entry.name
    value = "{" + ",".join(entry.kind) + "}" if isinstance(entry.kind, tuple) else entry.name[2:].upper()
    return f"{entry.name} {value}"


def _usage(prog: str, command: _Command) -> str:
    words = []
    for e in command.entries.values():
        if e.name[0] == "-":
            words.append(_spelled(e) if e.required else f"[{_spelled(e)}]")
    words += [e.name for e in command.entries.values() if e.name[0] != "-"]
    if command.commands is not None:
        words.append("COMMAND ...")
    return f"usage: {prog} {' '.join(words)}\n"


def _help(prog: str, command: _Command) -> str:
    """Usage, description, then one line per positional or command and per
    option, each with its help text from the table."""
    description = "\n".join(line.strip() for line in command.help.strip().splitlines())
    if command.commands is not None:
        heading = "commands:"
        rows = [(name, sub.help.partition("\n")[0]) for name, sub in command.commands.items()]
    else:
        heading = "positional arguments:"
        rows = [(e.name, e.help) for e in command.entries.values() if e.name[0] != "-"]
    options = [(_spelled(e), e.help) for e in command.entries.values() if e.name[0] == "-"]
    width = max(len(left) for left, _ in rows + options) + 2
    sections = [_usage(prog, command), description + "\n"]
    for title, lines in ((heading, rows), ("options:", options)):
        if lines:
            sections.append(title + "\n" + "".join(f"  {left:<{width}}{right}\n" for left, right in lines))
    return "\n".join(sections)


def _fail(prog: str, command: _Command, message: str):
    """Usage line and ``PROG: error: MESSAGE`` on stderr; exit 2."""
    sys.stderr.write(f"{_usage(prog, command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _value(entry: _Entry, text: str):
    """``text`` read as ``entry.kind`` says; a grammar error as its message."""
    kind = entry.kind
    if kind in ("file", "files"):
        try:
            mode = os.stat(text).st_mode
        except (OSError, ValueError):  # missing, unreachable, name too long, NUL byte
            raise UsageError(f"argument {entry.name}: file {text!r} does not exist") from None
        if S_ISDIR(mode):
            raise UsageError(f"argument {entry.name}: file {text!r} is a directory")
    elif kind == "count":
        try:
            number = int(text)
        except ValueError:
            if _INTEGER.fullmatch(text):  # longer than Python converts from a string
                digits = sum(map(str.isdecimal, text))
                raise UsageError(f"argument {entry.name}: integer of {digits} digits has too many digits") from None
            raise UsageError(f"argument {entry.name}: {text!r} is not an integer") from None
        if number < 1:
            raise UsageError(f"argument {entry.name}: must be at least 1")
        return number
    elif isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {entry.name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse(argv: list, prog: str) -> SimpleNamespace:
    """The arguments of one command line, read against the table.

    Global options come before the command.  ``--name value`` and
    ``--name=value`` are the same, a repeated option keeps its last value
    (``--strategy`` keeps them all), and ``--`` ends the options.  Grammar
    errors exit 2 through :func:`_fail`; ``--help`` exits 0.  The result
    also holds ``run``, ``prog`` and ``command``, the leaf command's
    function, name and table entry.
    """
    args = SimpleNamespace(t0=time.perf_counter())
    command, i, ended, extra = _TOP, 0, False, []
    while True:
        entries = command.entries
        positionals = [e for e in entries.values() if e.name[0] != "-"]
        for e in entries.values():
            setattr(args, _dest(e), e.default)
        given, filled, sub = set(), 0, None
        try:
            while i < len(argv):
                token = argv[i]
                i += 1
                if not ended and token == "--":
                    ended = True
                elif ended or not _is_option(token):
                    if command.commands is not None:
                        if token not in command.commands:
                            choices = ", ".join(map(repr, command.commands))
                            raise UsageError(f"argument COMMAND: invalid choice: {token!r} (choose from {choices})")
                        sub = token
                        break
                    if filled == len(positionals):
                        extra.append(token)
                    else:
                        entry = positionals[filled]
                        setattr(args, _dest(entry), _value(entry, token))
                        given.add(entry.name)
                        filled += 1
                else:
                    name, eq, text = token.partition("=")
                    entry = entries.get(name)
                    if entry is None:
                        extra.append(token)
                        continue
                    if entry.kind is None:
                        if eq:
                            raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
                        if entry is _HELP:
                            sys.stdout.write(_help(prog, command))
                            raise SystemExit(0)
                        setattr(args, _dest(entry), True)
                        continue
                    if not eq:
                        if i == len(argv) or _is_option(argv[i]):
                            raise UsageError(f"argument {name}: expected one argument")
                        text = argv[i]
                        i += 1
                    value = _value(entry, text)
                    if entry.kind == "files":
                        value = [*(getattr(args, _dest(entry)) or ()), value]
                    setattr(args, _dest(entry), value)
                    given.add(name)
            if sub is None:
                missing = [e.name for e in entries.values() if e.required and e.name not in given]
                if command.commands is not None:
                    missing.append("COMMAND")
                if missing:
                    raise UsageError(f"the following arguments are required: {', '.join(missing)}")
                if extra:
                    raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        except UsageError as err:
            _fail(prog, command, str(err))
        if sub is None:
            args.run, args.prog, args.command = command.run, prog, command
            return args
        command, prog = command.commands[sub], f"{prog} {sub}"


def main(argv=None, prog_name: str = "wgames") -> None:
    """Run one command line (``sys.argv[1:]`` by default).  Always ends in
    ``SystemExit`` with the exit code; ``--help`` exits 0.  With
    ``--timing`` every command that runs to its end, whatever its exit
    code, prints its elapsed time on stderr."""
    args = _parse(sys.argv[1:] if argv is None else list(argv), prog_name)
    code = 0
    try:
        args.run(args)
    except UsageError as err:
        _fail(args.prog, args.command, str(err))
    except SystemExit as done:
        code = done.code
    if args.timing:
        print(f"elapsed: {time.perf_counter() - args.t0:.6f}s", file=sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
