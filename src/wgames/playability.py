"""Closed-loop equation solving and the playability decision.

A pure strategy profile and a Nature state define the closed-loop
equations: every agent's action must equal what its strategy prescribes
at the resulting configuration.  The model is playable when every
(profile, state) pair admits exactly one solution.  Solutions are found
by exhaustive scan: for each strategy an agreement bitmask marks the
configurations where the strategy already prescribes the configuration's
own action, and fixed points are the intersection of all masks within a
Nature block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .fields import (
    Configuration,
    ConfigurationSpace,
    CoordinateSet,
    Partition,
    cylinder_partition,
    iter_bits,
    partition_refines,
)
from .model import WModel
from .strategies import (
    PureStrategy,
    PureStrategyProfile,
    constant_profile,
    enumerate_pure,
    validate_pure,
)

DEFAULT_PROFILE_CAP = 10**7


class PlayabilityError(ValueError):
    """A sampled profile has no or several closed-loop solutions.

    ``profile`` is None when only a law shows it: ``solutions`` then lists
    the configurations at ``omega`` that received mass, or two that one
    drawn profile solves to together.
    """

    def __init__(self, profile, omega, solutions):
        self.profile = profile
        self.omega = omega
        self.solutions = solutions
        if profile is None:
            super().__init__(
                f"a drawn profile has no or several closed-loop solutions at "
                f"{omega!r}; see {list(solutions)!r}"
            )
        else:
            super().__init__(
                f"profile has {len(solutions)} closed-loop solutions at {omega!r}"
            )


@dataclass(frozen=True)
class PlayabilityWitness:
    profile: PureStrategyProfile
    omega: str
    count: int
    solutions: tuple[Configuration, ...]


@dataclass(frozen=True)
class PlayabilityReport:
    playable: bool
    witness: Optional[PlayabilityWitness]

    def __post_init__(self) -> None:
        if self.playable and self.witness is not None:
            raise ValueError("playable reports carry no witness")
        if not self.playable and (self.witness is None or self.witness.count == 1):
            raise ValueError("failure reports need a non-unique witness")


@dataclass(frozen=True)
class SolutionMapTable:
    """Unique closed-loop solution per Nature state, in Nature order."""

    profile: PureStrategyProfile
    rows: tuple[tuple[str, Configuration], ...]

    def solution(self, omega: str) -> Configuration:
        for w, h in self.rows:
            if w == omega:
                return h
        raise ValueError(f"unknown Nature state {omega!r}")


# ── agreement masks ─────────────────────────────────────────────────────


@lru_cache(maxsize=65536)
def agreement_mask(
    space: ConfigurationSpace, info: Partition, agent_pos: int, choice: tuple[str, ...],
    labels: tuple[str, ...],
) -> int:
    """Configurations where the strategy prescribes the configuration's own action."""
    mask = 0
    for digit, label in enumerate(labels):
        chosen = 0
        for atom, action in zip(info.atoms, choice):
            if action == label:
                chosen |= atom
        if chosen:
            mask |= chosen & space.cylinder_mask(agent_pos + 1, digit)
    return mask


def strategy_mask(model: WModel, strategy: PureStrategy) -> int:
    space = model.space
    return agreement_mask(
        space,
        model.info_of(strategy.agent),
        space.agent_pos(strategy.agent),
        strategy.choice,
        model.actions_of(strategy.agent).labels,
    )


def nature_block(space: ConfigurationSpace, omega: str) -> int:
    """Bitmask of the configurations with the given Nature state."""
    return space.cylinder_mask(0, space.nature.index(omega))


def profile_fixed_points(model: WModel, profile: PureStrategyProfile, omega: str) -> int:
    mask = nature_block(model.space, omega)
    for s in profile.strategies:
        mask &= strategy_mask(model, s)
        if mask == 0:
            break
    return mask


# ── operations ──────────────────────────────────────────────────────────


def closed_loop_solutions(
    model: WModel, profile: PureStrategyProfile, omega: str
) -> list[Configuration]:
    """All configurations solving the closed loop at ``omega``, canonical order."""
    if profile.agents != frozenset(model.agent_ids):
        raise ValueError("profile must cover every agent")
    for s in profile.strategies:
        if not validate_pure(model, s):
            raise ValueError(f"invalid strategy for agent {s.agent!r}")
    mask = profile_fixed_points(model, profile, omega)
    return [model.space.config(i) for i in iter_bits(mask)]


def check_playability(model: WModel) -> PlayabilityReport:
    """Exhaustive playability decision with a deterministic first witness."""
    total = len(model.nature)
    for agent, acts in model.agents:
        total *= len(acts.labels) ** len(model.info_of(agent).atoms)
        if total > DEFAULT_PROFILE_CAP:
            raise ValueError(f"profile enumeration exceeds the cap of {DEFAULT_PROFILE_CAP}")

    per_agent = [enumerate_pure(model, a) for a in model.agent_ids]
    masks = [[strategy_mask(model, s) for s in strats] for strats in per_agent]
    blocks = [(w, nature_block(model.space, w)) for w in model.nature.labels]

    def walk(pos: int, acc: int, chosen: list[PureStrategy]):
        if pos == len(per_agent):
            for omega, block in blocks:
                sols = acc & block
                if sols.bit_count() != 1:
                    return PureStrategyProfile(tuple(chosen)), omega, sols
            return None
        for s, m in zip(per_agent[pos], masks[pos]):
            hit = walk(pos + 1, acc & m, chosen + [s])
            if hit is not None:
                return hit
        return None

    hit = walk(0, model.space.full_mask, [])
    if hit is None:
        return PlayabilityReport(True, None)
    profile, omega, sols = hit
    solutions = tuple(model.space.config(i) for i in iter_bits(sols))
    return PlayabilityReport(
        False, PlayabilityWitness(profile, omega, len(solutions), solutions)
    )


def solution_map(model: WModel, profile: PureStrategyProfile) -> SolutionMapTable:
    """The map Nature state -> unique solution; raises if not unique."""
    rows = []
    for omega in model.nature.labels:
        sols = closed_loop_solutions(model, profile, omega)
        if len(sols) != 1:
            raise PlayabilityError(profile, omega, sols)
        rows.append((omega, sols[0]))
    return SolutionMapTable(profile, tuple(rows))


def partial_solution_map(
    model: WModel,
    fixed_actions: dict[str, str],
    profile_rest: PureStrategyProfile,
    omega: str,
) -> Configuration:
    """Solve with some agents pinned to constant actions.

    ``fixed_actions`` maps a subset B of agents to actions; the remaining
    agents follow ``profile_rest``.  Substituting constants for B and
    solving the closed loop realizes the partial solution map.
    """
    constants = constant_profile(model, fixed_actions)
    full = constants.merged_with(profile_rest)
    sols = closed_loop_solutions(model, full, omega)
    if len(sols) != 1:
        raise PlayabilityError(full, omega, sols)
    return sols[0]


def has_self_information(model: WModel) -> Optional[str]:
    """First agent whose information depends on its own action, if any.

    Playable models never have one: each agent's information partition
    must be generated by Nature and the other agents' actions.
    """
    for agent in model.agent_ids:
        others = [a for a in model.agent_ids if a != agent]
        visible = cylinder_partition(model.space, CoordinateSet.of(True, others))
        if not partition_refines(visible, model.info_of(agent)):
            return agent
    return None
