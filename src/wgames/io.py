"""JSON wire formats, analysis reports, and the model digest.

Everything on the wire is exact: rationals travel as "p/q" strings and
configurations as explicit coordinate objects.  Serialization is canonical
(declared orders everywhere), so equal objects produce identical bytes.
Every JSON text this module writes has the layout of ``json.dumps(payload,
indent=2)`` plus a newline, with non-ASCII characters escaped.  One
recursive writer (:func:`_dumps`) lays that out, quoting strings with the
escaper ``json`` itself uses, so no text goes through the pure-Python
encoder that ``json.dumps`` takes whenever it indents; the model text is
assembled in pieces (see :func:`serialize_model`) but keeps that layout
byte for byte, so the model digest never drifts.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Optional, Union

from .fields import (
    Configuration,
    ConfigurationSpace,
    CoordinateSet,
    FiniteSet,
    Partition,
    SpaceTooLarge,
    as_cylinder,
    build_space,
    cylinder_partition,
    iter_bits,
    partition_from_labels,
)
from .model import WModel
from .recall import ConfigurationOrdering, Ordering, constant_ordering
from .record import Record
from .strategies import (
    BehavioralStrategy,
    MixedStrategy,
    PureStrategy,
    PureStrategyProfile,
    RationalDistribution,
    format_fraction,
    over_lcm,
)

Strategy = Union[PureStrategyProfile, MixedStrategy, BehavioralStrategy]


class ModelFormatError(ValueError):
    """Schema violation, addressed by the JSON path where it happened."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


# ── schema primitives ───────────────────────────────────────────────────


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError(path, "expected an object")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(path, "expected a list")
    return value


def _as_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(path, "expected a string")
    return value


def _exact_keys(obj: dict, path: str, keys: set[str]) -> None:
    missing = keys - set(obj)
    extra = set(obj) - keys
    if missing:
        raise ModelFormatError(path, f"missing key {sorted(missing)[0]!r}")
    if extra:
        raise ModelFormatError(path, f"unknown key {sorted(extra)[0]!r}")


def _label_list(value, path: str) -> tuple[str, ...]:
    items = _as_list(value, path)
    if not items:
        raise ModelFormatError(path, "must not be empty")
    labels = tuple(_as_string(v, f"{path}[{i}]") for i, v in enumerate(items))
    seen: set[str] = set()
    for i, label in enumerate(labels):
        if label in seen:
            raise ModelFormatError(f"{path}[{i}]", f"duplicate label {label!r}")
        seen.add(label)
    return labels


_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?\Z")


def _ratio(value, path: str) -> tuple[int, int]:
    """Exact rational from a "p/q" (or integer "p") string, as the ints p, q."""
    text = _as_string(value, path)
    if not _RATIONAL.match(text):
        raise ModelFormatError(path, f"not a rational: {text!r}")
    num, _, den = text.partition("/")
    try:
        return int(num), int(den or 1)
    except ValueError:  # an integer longer than Python converts from a string
        raise ModelFormatError(path, f"rational of {len(text)} characters has too many digits")


def _weight(value, path: str) -> tuple[int, int]:
    """A probability weight: a rational that is not negative."""
    num, den = _ratio(value, path)
    if num < 0:
        raise ModelFormatError(path, f"negative weight {format_fraction(Fraction(num, den))}")
    return num, den


def _distribution(carrier: tuple, weights: list[tuple[int, int]], path: str) -> RationalDistribution:
    """The distribution of parsed weights over ``carrier``; a row that does
    not sum to 1 is reported at ``path``."""
    try:
        return RationalDistribution.of_ratios(carrier, *over_lcm(weights))
    except ValueError as err:
        raise ModelFormatError(path, str(err)) from None


def _weights_payload(dist: RationalDistribution) -> dict:
    """Nonzero weights by carrier entry, in carrier order, as fractions."""
    return {x: format_fraction(w) for x, w in zip(dist.carrier, dist.weights) if w != 0}


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError("$", f"invalid JSON: {err.msg} (line {err.lineno})")
    except RecursionError:
        raise ModelFormatError("$", "JSON nested too deeply to parse")
    except ValueError:  # a number literal longer than Python converts to an int
        raise ModelFormatError("$", "invalid JSON: a number has too many digits")


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value nested at
    indentation ``pad``: the same layout, escapes and number text, written
    by one recursion over C string operations."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{_quote(k if isinstance(k, str) else _literal(k))}: {_dumps(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _dumps(v, inner) for v in value)
        return f"[\n{items}\n{pad}]"
    return _literal(value)


def _literal(value) -> str:
    """A number, boolean or null as ``json`` writes it (a non-string
    object key is this text, quoted)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ── configurations on the wire ──────────────────────────────────────────


def _config_index(value, path: str, space: ConfigurationSpace) -> int:
    """Index of a wire configuration, one table lookup per coordinate."""
    obj = _as_object(value, path)
    keys = space.keys
    if len(obj) != len(keys) or not all(map(obj.__contains__, keys)):
        _exact_keys(obj, path, set(keys))
    index = 0
    for key, digits, stride in zip(keys, space.digits, space.strides):
        label = obj[key]
        try:
            index += digits[label] * stride
        except (KeyError, TypeError):  # unknown, or not a string
            _as_string(label, f"{path}.{key}")
            if key == "nature":
                raise ModelFormatError(f"{path}.nature", f"unknown Nature state {label!r}")
            raise ModelFormatError(
                f"{path}.{key}", f"unknown action {label!r} for agent {key!r}"
            )
    return index


def config_payload(config: Configuration) -> dict:
    """Configuration as a plain coordinate object, declared order."""
    return config.as_dict()


def mask_payload(space: ConfigurationSpace, mask: int) -> list[dict]:
    """A configuration set as a list of coordinate objects, ascending."""
    return [config_payload(space.config(i)) for i in iter_bits(mask)]


# ── models ──────────────────────────────────────────────────────────────


def parse_model(text: str) -> WModel:
    """Validated model from JSON text.

    Information is given per agent either as an ``observes`` coordinate
    list (expanded to the cylinder partition) or as explicit ``atoms``.
    Explicit atoms that form a cylinder field are parsed as that cylinder,
    generators included, so the model decides refinement between its
    fields from coordinate sets whichever form it was written in.
    Every diagnostic carries the JSON path of the offending element.
    """
    top = _as_object(_loads(text), "$")
    _exact_keys(top, "$", {"nature", "agents", "players", "information"})

    nat = _as_object(top["nature"], "$.nature")
    _exact_keys(nat, "$.nature", {"states"})
    nature = FiniteSet("nature", _label_list(nat["states"], "$.nature.states"))

    agents: list[tuple[str, FiniteSet]] = []
    for i, entry in enumerate(_as_list(top["agents"], "$.agents")):
        path = f"$.agents[{i}]"
        obj = _as_object(entry, path)
        _exact_keys(obj, path, {"id", "actions"})
        aid = _as_string(obj["id"], f"{path}.id")
        if aid == "nature":
            raise ModelFormatError(f"{path}.id", "'nature' is reserved")
        if any(aid == b for b, _ in agents):
            raise ModelFormatError(f"{path}.id", f"duplicate agent id {aid!r}")
        actions = _label_list(obj["actions"], f"{path}.actions")
        agents.append((aid, FiniteSet(aid, actions)))
    if not agents:
        raise ModelFormatError("$.agents", "must not be empty")
    try:
        space = build_space(nature, agents)
    except SpaceTooLarge as err:
        raise ModelFormatError("$.agents", str(err)) from None
    ids = space.agents

    players: list[tuple[str, tuple[str, ...]]] = []
    assigned: set[str] = set()
    for name, members in _as_object(top["players"], "$.players").items():
        path = f"$.players.{name}"
        group = _label_list(members, path)
        for i, agent in enumerate(group):
            if agent not in ids:
                raise ModelFormatError(f"{path}[{i}]", f"unknown agent {agent!r}")
            if agent in assigned:
                raise ModelFormatError(
                    f"{path}[{i}]", f"agent {agent!r} belongs to two players"
                )
            assigned.add(agent)
        players.append((name, group))
    unassigned = [a for a in ids if a not in assigned]
    if unassigned:
        raise ModelFormatError(
            "$.players", f"agent {unassigned[0]!r} belongs to no player"
        )

    info_obj = _as_object(top["information"], "$.information")
    for agent in ids:
        if agent not in info_obj:
            raise ModelFormatError("$.information", f"missing agent {agent!r}")
    for agent in info_obj:
        if agent not in ids:
            raise ModelFormatError("$.information", f"unknown agent {agent!r}")

    information: list[tuple[str, Partition]] = []
    known: dict[tuple, int] = {}  # configuration indices by their items, shared by the agents
    for agent in ids:
        path = f"$.information.{agent}"
        spec = _as_object(info_obj[agent], path)
        if set(spec) == {"observes"}:
            part = _parse_observes(spec["observes"], f"{path}.observes", space)
        elif set(spec) == {"atoms"}:
            part = _parse_atoms(spec["atoms"], f"{path}.atoms", space, known)
        else:
            raise ModelFormatError(path, "expected exactly one of 'observes', 'atoms'")
        information.append((agent, part))

    try:
        return WModel(
            nature=nature,
            agents=tuple(agents),
            players=tuple(players),
            information=tuple(information),
        )
    except ValueError as err:
        raise ModelFormatError("$", str(err)) from None


def _parse_observes(value, path: str, space: ConfigurationSpace) -> Partition:
    coords = _as_list(value, path)
    include_nature = False
    watched: list[str] = []
    for i, entry in enumerate(coords):
        label = _as_string(entry, f"{path}[{i}]")
        if label == "nature":
            if include_nature:
                raise ModelFormatError(f"{path}[{i}]", "duplicate coordinate 'nature'")
            include_nature = True
        elif label in space.agents:
            if label in watched:
                raise ModelFormatError(
                    f"{path}[{i}]", f"duplicate coordinate {label!r}"
                )
            watched.append(label)
        else:
            raise ModelFormatError(f"{path}[{i}]", f"unknown coordinate {label!r}")
    return cylinder_partition(space, CoordinateSet.of(include_nature, watched))


def _known_index(value, path: str, space: ConfigurationSpace, known: dict) -> int:
    """``_config_index``, remembered by the configuration's items: every
    agent's atoms list all of H again."""
    if type(value) is not dict:
        return _config_index(value, path, space)
    key = tuple(value.items())
    try:
        return known[key]
    except KeyError:
        index = known[key] = _config_index(value, path, space)
        return index
    except TypeError:  # an unhashable label, which _config_index reports
        return _config_index(value, path, space)


def _parse_atoms(value, path: str, space: ConfigurationSpace, known: dict) -> Partition:
    """Partition from explicit atoms, read as one atom id per configuration;
    a cylinder field gets its generators back (:func:`as_cylinder`)."""
    atom_lists = _as_list(value, path)
    labels = [-1] * space.size
    for aid, configs in enumerate(atom_lists):
        atom_path = f"{path}[{aid}]"
        entries = _as_list(configs, atom_path)
        if not entries:
            raise ModelFormatError(atom_path, "empty atom")
        for j, cfg in enumerate(entries):
            index = _known_index(cfg, f"{atom_path}[{j}]", space, known)
            if labels[index] >= 0:
                same = labels[index] == aid
                reason = "duplicate configuration in atom" if same else "atoms overlap"
                raise ModelFormatError(f"{atom_path}[{j}]", reason)
            labels[index] = aid
    if -1 in labels:
        raise ModelFormatError(path, "atoms do not cover H")
    return as_cylinder(partition_from_labels(space, labels))


def _model_chunks(model: WModel) -> Iterator[str]:
    """The canonical text of a model, piece by piece.

    The head (nature, agents, players) is written by :func:`_dumps`; the
    layout of the information is written here, with every label quoted
    once.  Each configuration object is formatted once, from one line per
    coordinate value, and each atom of each agent is one chunk.  The pieces
    add up to what ``json.dumps(payload, indent=2)`` writes for the full
    payload.
    """
    agents = [{"id": a, "actions": acts.labels} for a, acts in model.agents]
    yield (
        f'{{\n  "nature": {_dumps({"states": model.nature.labels}, "  ")},\n'
        f'  "agents": {_dumps(agents, "  ")},\n  "players": {_dumps(dict(model.players), "  ")},\n'
        '  "information": {'
    )
    space = model.space
    lines = [
        [f"            {_quote(key)}: {_quote(label)}" for label in labels]
        for key, labels in zip(space.keys, space.labels)
    ]
    # product() runs the last coordinate fastest: canonical index order
    configs = [
        "          {\n" + ",\n".join(coords) + "\n          }"
        for coords in product(*lines)
    ]
    for n, (agent, part) in enumerate(model.information):
        atoms: list[list[str]] = [[] for _ in range(len(part))]
        for text, aid in zip(configs, part.atom_ids):
            atoms[aid].append(text)
        sep = ",\n" if n else "\n"
        yield f'{sep}    {_quote(agent)}: {{\n      "atoms": [\n'
        for k, atom in enumerate(atoms):
            yield ("        [\n" if k == 0 else ",\n        [\n") + ",\n".join(atom) + "\n        ]"
        yield "\n      ]\n    }"
    yield "\n  }\n}\n"


def serialize_model(model: WModel) -> str:
    """Canonical JSON for a model; information always as explicit atoms.

    The text is exactly ``json.dumps(payload, indent=2) + "\\n"`` of the
    payload {"nature": {"states"}, "agents": [{"id", "actions"}],
    "players", "information": {agent: {"atoms": [[configuration]]}}}, in
    declared orders, with atoms and their configurations ascending.
    """
    return "".join(_model_chunks(model))


def model_digest(model: WModel) -> str:
    """Short content hash of the canonical serialization, fed in chunks
    so the whole text is never held."""
    digest = hashlib.sha256()
    for chunk in _model_chunks(model):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()[:16]


# ── strategies ──────────────────────────────────────────────────────────


def _parse_choice(value, path: str, model: WModel, agent: str) -> PureStrategy:
    if agent not in model.agent_ids:
        raise ModelFormatError(path, f"unknown agent {agent!r}")
    entries = _as_list(value, path)
    atoms = len(model.info_of(agent))
    if len(entries) != atoms:
        raise ModelFormatError(
            path, f"expected one action per atom ({atoms}), got {len(entries)}"
        )
    labels = model.actions_of(agent).labels
    choice = []
    for i, entry in enumerate(entries):
        label = _as_string(entry, f"{path}[{i}]")
        if label not in labels:
            raise ModelFormatError(
                f"{path}[{i}]", f"unknown action {label!r} for agent {agent!r}"
            )
        choice.append(label)
    return PureStrategy(agent, tuple(choice))


def _parse_profile(value, path: str, model: WModel) -> PureStrategyProfile:
    obj = _as_object(value, path)
    if not obj:
        raise ModelFormatError(path, "must not be empty")
    strategies = tuple(
        _parse_choice(choice, f"{path}.{agent}", model, agent)
        for agent, choice in obj.items()
    )
    return PureStrategyProfile(strategies)


def parse_strategy(text: str, model: WModel) -> Strategy:
    """Strategy object from JSON text, dispatched on the ``kind`` tag."""
    top = _as_object(_loads(text), "$")
    kind = _as_string(top.get("kind"), "$.kind") if "kind" in top else None
    if kind is None:
        raise ModelFormatError("$", "missing key 'kind'")

    if kind == "pure-profile":
        _exact_keys(top, "$", {"kind", "strategies"})
        return _parse_profile(top["strategies"], "$.strategies", model)

    if kind == "mixed":
        _exact_keys(top, "$", {"kind", "player", "support"})
        player = _as_string(top["player"], "$.player")
        if player not in model.player_names:
            raise ModelFormatError("$.player", f"unknown player {player!r}")
        own = frozenset(model.agents_of(player))
        support = []
        for i, entry in enumerate(_as_list(top["support"], "$.support")):
            path = f"$.support[{i}]"
            obj = _as_object(entry, path)
            _exact_keys(obj, path, {"weight", "profile"})
            weight = Fraction(*_ratio(obj["weight"], f"{path}.weight"))
            profile = _parse_profile(obj["profile"], f"{path}.profile", model)
            if profile.agents != own:
                raise ModelFormatError(
                    f"{path}.profile",
                    f"must cover exactly the agents of player {player!r}",
                )
            support.append((profile, weight))
        try:
            return MixedStrategy(player, tuple(support))
        except ValueError as err:
            raise ModelFormatError("$.support", str(err)) from None

    if kind == "behavioral":
        _exact_keys(top, "$", {"kind", "player", "kernels"})
        player = _as_string(top["player"], "$.player")
        if player not in model.player_names:
            raise ModelFormatError("$.player", f"unknown player {player!r}")
        kernels_obj = _as_object(top["kernels"], "$.kernels")
        own = model.agents_of(player)
        if set(kernels_obj) != set(own):
            raise ModelFormatError(
                "$.kernels", f"must cover exactly the agents of player {player!r}"
            )
        kernels = []
        for agent in own:
            path = f"$.kernels.{agent}"
            rows = _as_list(kernels_obj[agent], path)
            atoms = len(model.info_of(agent))
            if len(rows) != atoms:
                raise ModelFormatError(
                    path, f"expected one distribution per atom ({atoms})"
                )
            labels = model.actions_of(agent).labels
            dists = []
            for z, row in enumerate(rows):
                row_path = f"{path}[{z}]"
                obj = _as_object(row, row_path)
                for action in obj:
                    if action not in labels:
                        raise ModelFormatError(
                            row_path, f"unknown action {action!r} for agent {agent!r}"
                        )
                weights = [_weight(obj[u], f"{row_path}.{u}") if u in obj else (0, 1) for u in labels]
                dists.append(_distribution(labels, weights, row_path))
            kernels.append((agent, tuple(dists)))
        return BehavioralStrategy(player, tuple(kernels))

    raise ModelFormatError("$.kind", f"unknown strategy kind {kind!r}")


def _profile_payload(profile: PureStrategyProfile) -> dict:
    return {s.agent: list(s.choice) for s in profile.strategies}


def strategy_payload(strategy: Strategy) -> dict:
    """JSON-ready object for any strategy kind."""
    if isinstance(strategy, PureStrategyProfile):
        return {"kind": "pure-profile", "strategies": _profile_payload(strategy)}
    if isinstance(strategy, MixedStrategy):
        return {
            "kind": "mixed",
            "player": strategy.player,
            "support": [
                {"weight": format_fraction(w), "profile": _profile_payload(p)}
                for p, w in strategy.support
            ],
        }
    if isinstance(strategy, BehavioralStrategy):
        return {
            "kind": "behavioral",
            "player": strategy.player,
            "kernels": {
                agent: [_weights_payload(dist) for dist in dists]
                for agent, dists in strategy.kernels
            },
        }
    raise TypeError(f"not a strategy: {strategy!r}")


def serialize_strategy(strategy: Strategy) -> str:
    return _dumps(strategy_payload(strategy)) + "\n"


# ── beliefs and orderings ───────────────────────────────────────────────


def parse_belief(text: str, model: WModel) -> RationalDistribution:
    """Belief over Nature states from a JSON object {state: "p/q"}."""
    obj = _as_object(_loads(text), "$")
    for state in obj:
        if state not in model.nature.digits:
            raise ModelFormatError("$", f"unknown Nature state {state!r}")
    carrier = tuple(w for w in model.nature.labels if w in obj)
    if not carrier:
        raise ModelFormatError("$", "belief must name at least one state")
    return _distribution(carrier, [_weight(obj[w], f"$.{w}") for w in carrier], "$")


def serialize_belief(nu: RationalDistribution) -> str:
    return _dumps(_weights_payload(nu)) + "\n"


def parse_ordering(text: str, model: WModel) -> ConfigurationOrdering:
    """Configuration-ordering from the unchanged wire format: a constant
    ``sequence``, or one assignment per configuration, grouped into cells."""
    top = _as_object(_loads(text), "$")
    _exact_keys(top, "$", {"kind", "player"} | ({"sequence"} if "sequence" in top else {"assignments"}))
    if _as_string(top.get("kind"), "$.kind") != "ordering":
        raise ModelFormatError("$.kind", "expected 'ordering'")
    player = _as_string(top["player"], "$.player")
    if player not in model.player_names:
        raise ModelFormatError("$.player", f"unknown player {player!r}")
    own = model.agents_of(player)

    def sequence_at(value, path: str) -> tuple[str, ...]:
        seq = _label_list(value, path)
        if sorted(seq) != sorted(own):
            raise ModelFormatError(
                path, f"must order exactly the agents of player {player!r}"
            )
        return seq

    if "sequence" in top:
        seq = sequence_at(top["sequence"], "$.sequence")
        return constant_ordering(model, player, seq)

    rows = _as_list(top["assignments"], "$.assignments")
    table: list[Optional[Ordering]] = [None] * model.space.size
    for i, entry in enumerate(rows):
        path = f"$.assignments[{i}]"
        obj = _as_object(entry, path)
        _exact_keys(obj, path, {"configuration", "sequence"})
        index = _config_index(obj["configuration"], f"{path}.configuration", model.space)
        if table[index] is not None:
            raise ModelFormatError(
                f"{path}.configuration", "configuration assigned twice"
            )
        table[index] = Ordering(player, sequence_at(obj["sequence"], f"{path}.sequence"))
    holes = [i for i, rho in enumerate(table) if rho is None]
    if holes:
        raise ModelFormatError(
            "$.assignments",
            f"no ordering for configuration index {holes[0]}",
        )
    return ConfigurationOrdering.from_table(player, table)


def serialize_ordering(phi: ConfigurationOrdering, model: WModel) -> str:
    return _dumps(ordering_payload(phi, model)) + "\n"


# ── report payloads ─────────────────────────────────────────────────────


def belief_payload(nu: RationalDistribution) -> dict:
    return _weights_payload(nu)


def ordering_payload(phi: ConfigurationOrdering, model: WModel) -> dict:
    """Ordering as the same object ``parse_ordering`` accepts, in the unchanged
    wire format: a constant ``sequence``, or the cells unfolded per configuration."""
    if phi.is_constant:
        return {
            "kind": "ordering",
            "player": phi.player,
            "sequence": list(phi.cells[0][0].sequence),
        }
    return {
        "kind": "ordering",
        "player": phi.player,
        "assignments": [
            {
                "configuration": config_payload(model.space.config(i)),
                "sequence": list(rho.sequence),
            }
            for i, rho in enumerate(phi.orderings)
        ],
    }


def field_violation_payload(model: WModel, violation) -> dict:
    """Where a measurability check failed: the prefix, the conditioning
    atom, the cell piece, and the target-field atom it cuts."""
    return {
        "prefix": list(violation.kappa.sequence),
        "conditioning-atom": mask_payload(model.space, violation.conditioning_atom),
        "subset": mask_payload(model.space, violation.subset),
        "offending-atom": mask_payload(model.space, violation.offending_atom),
    }


def recall_violation_payload(violation) -> dict:
    return {
        "prefix": list(violation.ordering.sequence),
        "case": violation.case,
        "h-plus": config_payload(violation.h_plus),
        "h-minus": config_payload(violation.h_minus),
    }


def playability_witness_payload(model: WModel, witness) -> dict:
    return {
        "profile": {
            "kind": "pure-profile",
            "strategies": _profile_payload(witness.profile),
        },
        "nature-state": witness.omega,
        "solution-count": witness.count,
        "solutions": [config_payload(h) for h in witness.solutions],
    }


def pushforward_payload(q) -> list[dict]:
    return [
        {"configuration": config_payload(q.space.config(i)), "weight": format_fraction(w)}
        for i, w in zip(q.indices, q.weights)
    ]


def certificate_payload(model: WModel, cert) -> dict:
    return {
        "player": cert.player,
        "belief": belief_payload(cert.nu),
        "focus": strategy_payload(cert.focus),
        "opponents": [strategy_payload(m) for m in cert.opponents],
        "forced-support": [
            {"agent": agent, "atom": atom_id, "actions": list(actions)}
            for agent, atom_id, actions in cert.forced
        ],
        "nature-state": cert.omega,
        "opponent-plans": [_profile_payload(p) for p in cert.opponent_plans],
        "pins": [
            {"agent": agent, "atom": atom_id, "action": action}
            for agent, atom_id, action in cert.pins
        ],
        "reachable": mask_payload(model.space, cert.reachable),
        "exhibited": config_payload(cert.exhibited),
        "profile": _profile_payload(cert.profile),
    }


# ── analysis reports ────────────────────────────────────────────────────


class AnalysisReport(Record):
    """Outcome of one CLI analysis, serializable both ways."""

    __slots__ = ("command", "model", "outcome", "details")
    command: str
    model: str
    outcome: str
    details: dict


def emit_report(report: AnalysisReport, format: str = "human") -> str:
    if format == "structured":
        payload = {
            "command": report.command,
            "model": report.model,
            "outcome": report.outcome,
            "details": report.details,
        }
        return _dumps(payload) + "\n"
    if format == "human":
        lines = [f"{report.command}: {report.outcome}  [model {report.model}]"]
        lines.extend(_human_lines(report.details, "  "))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str) -> AnalysisReport:
    top = _as_object(_loads(text), "$")
    _exact_keys(top, "$", {"command", "model", "outcome", "details"})
    return AnalysisReport(
        command=_as_string(top["command"], "$.command"),
        model=_as_string(top["model"], "$.model"),
        outcome=_as_string(top["outcome"], "$.outcome"),
        details=_as_object(top["details"], "$.details"),
    )


def _human_lines(value, indent: str) -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_human_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_human_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    else:
        lines.append(f"{indent}{_scalar(value)}")
    return lines


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)
