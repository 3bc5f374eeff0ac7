"""The model type: agents, Nature, players, information partitions."""

from __future__ import annotations

from typing import Sequence

from .fields import (
    DEFAULT_SPACE_CAP,
    ConfigurationSpace,
    FiniteSet,
    Partition,
    build_space,
)
from .record import Record


class WModel(Record):
    """A finite game in product form.

    ``agents`` is an ordered tuple of (agent id, action set); ``players``
    maps player names to disjoint nonempty agent groups covering all
    agents; ``information`` assigns each agent a partition of the
    configuration space describing what the agent knows when acting.
    The model holds the fields derived from it (see :mod:`wgames.recall`),
    built on first use; ``==``, ``hash`` and ``repr`` ignore them.  Its
    cylinder fields are kept by coordinate set, starting with the
    information fields that record their generators.
    """

    _fields = ("nature", "agents", "players", "information")
    __slots__ = _fields + ("_space", "_derived", "__weakref__")
    nature: FiniteSet
    agents: tuple[tuple[str, FiniteSet], ...]
    players: tuple[tuple[str, tuple[str, ...]], ...]
    information: tuple[tuple[str, Partition], ...]

    def __post_init__(self) -> None:
        # the space the partitions were built on, when it is this model's
        space = getattr(self.information[0][1], "space", None) if self.information else None
        key = (self.nature, tuple(a for a, _ in self.agents), tuple(acts for _, acts in self.agents))
        if space is None or (space.nature, space.agents, space.actions) != key or space.size > DEFAULT_SPACE_CAP:
            space = build_space(self.nature, self.agents)  # rejects duplicate agent ids and applies the cap
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_derived", {})
        agent_ids = list(space.agents)

        grouped: list[str] = []
        for name, members in self.players:
            if not members:
                raise ValueError(f"player {name!r} has no agents")
            grouped.extend(members)
        if sorted(grouped) != sorted(agent_ids) or len(grouped) != len(agent_ids):
            raise ValueError("players must partition the agent set")

        info_ids = [a for a, _ in self.information]
        if info_ids != agent_ids:
            raise ValueError("information must list every agent once, in order")
        for agent, part in self.information:
            if part.space != space:
                raise ValueError(f"information of {agent!r} built on a foreign space")
            if part.support != space.full_mask:
                raise ValueError(f"information of {agent!r} does not cover the space")
            if part.generators is not None:
                self._derived.setdefault(part.generators, part)

    # ── lookups ─────────────────────────────────────────────────────────

    @property
    def space(self) -> ConfigurationSpace:
        return self._space  # type: ignore[attr-defined]

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return self.space.agents

    def actions_of(self, agent: str) -> FiniteSet:
        return self.space.actions_of(agent)

    def info_of(self, agent: str) -> Partition:
        for a, part in self.information:
            if a == agent:
                return part
        raise ValueError(f"unknown agent {agent!r}")

    def choice_records(
        self, agents: Sequence[str], indices: Sequence[int]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Per configuration index, per agent in ``agents``: (information
        atom id, action digit), what the agent knew and did there.  Digits
        and labels are in bijection, so records compare as labels would."""
        space = self.space
        columns = []
        for a in agents:
            ids, coord = self.info_of(a).atom_ids, space.agent_pos(a) + 1
            columns.append([(ids[i], space.digit(i, coord)) for i in indices])
        return list(zip(*columns)) if columns else [()] * len(indices)

    @property
    def player_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.players)

    def agents_of(self, player: str) -> tuple[str, ...]:
        for name, members in self.players:
            if name == player:
                return members
        raise ValueError(f"unknown player {player!r}")

    def player_of(self, agent: str) -> str:
        for name, members in self.players:
            if agent in members:
                return name
        raise ValueError(f"unknown agent {agent!r}")

    def opponents_of(self, player: str) -> tuple[str, ...]:
        """Agents belonging to every player except ``player``."""
        own = set(self.agents_of(player))
        return tuple(a for a in self.agent_ids if a not in own)
