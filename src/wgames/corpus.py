"""Built-in example models.

Every fixture is a small game in product form that exercises one corner of
the library: the Alice/Bob trio contrasts information structures on the same
four-configuration square, ``witsenhausen-noncausal`` is the classic playable
model with no first agent, and the remaining entries encode textbook
leader/follower information inclusions (sequential control, principal-agent,
Stackelberg).  All but ``witsenhausen-noncausal`` are written as observes
tables: whether each agent sees Nature, and whose actions it watches.

``sequential-<T>`` is parameterised: any positive step count within the size
cap is accepted by :func:`corpus_model`, while :func:`corpus_names` lists the
three-step default.
"""

from __future__ import annotations

from .fields import (
    DEFAULT_SPACE_CAP,
    CoordinateSet,
    FiniteSet,
    Partition,
    SpaceTooLarge,
    build_space,
    cylinder_partition,
    partition_from_key,
)
from .model import WModel

NO_NATURE = FiniteSet("nature", ("*",))


def _cylinder_model(nature: FiniteSet, agents, players, observes) -> WModel:
    """The model in which ``observes[agent]``, a pair (sees Nature, watched
    agents), generates each agent's field."""
    space = build_space(nature, agents)
    information = tuple((a, cylinder_partition(space, CoordinateSet.of(*observes[a]))) for a, _ in agents)
    return WModel(nature=nature, agents=agents, players=players, information=information)


_AB_AGENTS = (
    ("alice", FiniteSet("alice", ("T", "B"))),
    ("bob", FiniteSet("bob", ("L", "R"))),
)
_AB_PLAYERS = (("team", ("alice", "bob")),)


def alice_bob_simultaneous() -> WModel:
    """Two agents, one player, neither observes anything."""
    observes = {"alice": (False, ()), "bob": (False, ())}
    return _cylinder_model(NO_NATURE, _AB_AGENTS, _AB_PLAYERS, observes)


def alice_bob_ordered() -> WModel:
    """Bob knows nothing, Alice sees Bob's action."""
    observes = {"alice": (False, ("bob",)), "bob": (False, ())}
    return _cylinder_model(NO_NATURE, _AB_AGENTS, _AB_PLAYERS, observes)


def alice_bob_nature() -> WModel:
    """A coin toss precedes play: Bob sees it, Alice sees it plus Bob."""
    nature = FiniteSet("nature", ("heads", "tails"))
    observes = {"alice": (True, ("bob",)), "bob": (True, ())}
    return _cylinder_model(nature, _AB_AGENTS, _AB_PLAYERS, observes)


def witsenhausen_noncausal() -> WModel:
    """Three binary agents watching each other in a cycle.

    Agent a observes u_b(1-u_c), agent b observes u_c(1-u_a), agent c
    observes u_a(1-u_b).  No information field is trivial, so no agent can
    be "first", yet every pure profile has a unique closed-loop solution.
    """
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ("a", "b", "c"))
    space = build_space(NO_NATURE, agents)

    def signal(watched: str, inverted: str) -> Partition:
        def key(index: int) -> int:
            config = space.config(index)
            on = config.action(watched) == "1" and config.action(inverted) == "0"
            return 1 if on else 0

        return partition_from_key(space, key)

    return WModel(
        nature=NO_NATURE,
        agents=agents,
        players=(("system", ("a", "b", "c")),),
        information=(
            ("a", signal("b", "c")),
            ("b", signal("c", "a")),
            ("c", signal("a", "b")),
        ),
    )


def sequential_model(steps: int) -> WModel:
    """One decision maker acting ``steps`` times with perfect recall.

    Agent t sees Nature and every earlier action, which realises the full
    chain of sequentiality / memory inclusions.  A space of 2^(steps+1)
    configurations past the size cap is refused before anything is built.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if DEFAULT_SPACE_CAP >> (steps + 1) == 0:
        raise SpaceTooLarge()
    nature = FiniteSet("nature", ("w0", "w1"))
    ids = tuple(f"t{k}" for k in range(1, steps + 1))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ids)
    observes = {ids[k]: (True, ids[:k]) for k in range(steps)}
    return _cylinder_model(nature, agents, (("dm", ids),), observes)


def principal_agent_hidden_type() -> WModel:
    """Signalling skeleton: the agent knows its type, the principal only
    sees the agent's action."""
    nature = FiniteSet("nature", ("low", "high"))
    agents = (
        ("P", FiniteSet("P", ("decline", "fund"))),
        ("A", FiniteSet("A", ("weak", "strong"))),
    )
    players = (("principal", ("P",)), ("agent", ("A",)))
    observes = {"P": (False, ("A",)), "A": (True, ())}
    return _cylinder_model(nature, agents, players, observes)


def principal_agent_hidden_action() -> WModel:
    """Moral-hazard skeleton: the principal offers a contract blind, the
    agent knows its type and the contract, and the effort stays hidden."""
    nature = FiniteSet("nature", ("low", "high"))
    agents = (
        ("P", FiniteSet("P", ("flat", "bonus"))),
        ("A", FiniteSet("A", ("shirk", "work"))),
    )
    players = (("principal", ("P",)), ("agent", ("A",)))
    observes = {"P": (False, ()), "A": (True, ("P",))}
    return _cylinder_model(nature, agents, players, observes)


def stackelberg() -> WModel:
    """Leader moves on the state alone; the follower sees state and leader.

    There is no chronology in the encoding, only these two inclusions, yet
    they force the leader to act first.
    """
    nature = FiniteSet("nature", ("boom", "bust"))
    agents = (
        ("L", FiniteSet("L", ("high", "low"))),
        ("F", FiniteSet("F", ("enter", "exit"))),
    )
    players = (("leader", ("L",)), ("follower", ("F",)))
    observes = {"L": (True, ()), "F": (True, ("L",))}
    return _cylinder_model(nature, agents, players, observes)


_FIXED = {
    "alice-bob-simultaneous": alice_bob_simultaneous,
    "alice-bob-ordered": alice_bob_ordered,
    "alice-bob-nature": alice_bob_nature,
    "sequential-3": lambda: sequential_model(3),
    "principal-agent-hidden-type": principal_agent_hidden_type,
    "principal-agent-hidden-action": principal_agent_hidden_action,
    "stackelberg": stackelberg,
    "witsenhausen-noncausal": witsenhausen_noncausal,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(_FIXED)


def corpus_model(name: str) -> WModel:
    """Look up an example by name; ``sequential-<T>`` accepts any T >= 1."""
    if name in _FIXED:
        return _FIXED[name]()
    if name.startswith("sequential-"):
        suffix = name[len("sequential-") :]
        try:
            steps = int(suffix) if suffix.isdigit() else 0
        except ValueError:  # digits int() refuses: too many, or not decimal
            steps = 0
        if steps >= 1:
            return sequential_model(steps)
    raise KeyError(f"unknown example {name!r}")
