"""Closed-loop equation solving and the playability decision.

A pure strategy profile and a Nature state define the closed-loop
equations: every agent's action must equal what its strategy prescribes
at the resulting configuration.  Solutions are found by scan: for each
strategy an agreement bitmask marks the configurations where the strategy
prescribes the configuration's own action, and the solutions at a Nature
state are the intersection of all masks within its block.

The model is playable when every (profile, state) pair admits exactly one
solution.  That is decided without enumerating profiles.  Draw a pure
profile uniformly: a configuration h of a Nature block solves it with
probability prod_a 1/|A_a|, and the block holds prod_a |A_a|
configurations, so the number N of solutions on the block has E[N] = 1.
Every profile therefore has exactly one solution if and only if none has
two; and some profile solves h != h' together if and only if every agent
either has different atoms at h and h' or plays the same action at both.
One pair search per block, :func:`_first_pair`, which the laws of
:mod:`wgames.kuhn` run too, decides the model, with no cap: a group g that
no agent splits costs O(|g|·|agents|) operations on |g|-bit masks.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterator, Optional, Sequence

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
from .record import Record
from .strategies import (
    PureStrategy,
    PureStrategyProfile,
    constant_profile,
    pure_profile,
    validate_pure,
)

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


class PlayabilityWitness(Record):
    __slots__ = ("profile", "omega", "count", "solutions")
    profile: PureStrategyProfile
    omega: str
    count: int
    solutions: tuple[Configuration, ...]


class PlayabilityReport(Record):
    __slots__ = ("playable", "witness")
    playable: bool
    witness: Optional[PlayabilityWitness]

    def __post_init__(self) -> None:
        if self.playable and self.witness is not None:
            raise ValueError("playable reports carry no witness")
        if not self.playable and (self.witness is None or self.witness.count == 1):
            raise ValueError("failure reports need a non-unique witness")


class SolutionMapTable(Record):
    """Unique closed-loop solution per Nature state, in Nature order."""

    __slots__ = ("profile", "rows")
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


def _first_pair(
    model: WModel, block: Sequence[int], together: Callable[[int, int], bool]
) -> Optional[tuple[int, int]]:
    """First pair i < j of the ascending ``block`` that no agent separates
    and with ``together(i, j)``.

    An agent separates two configurations when it has one atom and two
    actions on them: no profile solves at both.  Every pair that no agent
    separates is solved together by some pure profile.  So while an agent
    has one atom and several actions on a group, the group is split by
    that action.  A group that cannot be split is scanned in ascending
    order with masks over its positions: each agent separates i from its
    atom at i where it plays another action.
    """
    keys = dict(zip(block, model.choice_records(model.agent_ids, block)))
    groups = []
    stack = [(block, range(len(model.agents)))]
    while stack:
        group, live = stack.pop()
        live = [k for k in live if len({keys[i][k][1] for i in group}) > 1]
        split = next((k for k in live if len({keys[i][k][0] for i in group}) == 1), None)
        if split is None:
            groups.append((group, live))
            continue
        parts: dict[int, list[int]] = {}
        for i in group:
            parts.setdefault(keys[i][split][1], []).append(i)
        stack += [(part, live) for part in parts.values()]

    def pairs(group: Sequence[int], live: list[int]) -> Iterator[tuple[int, int]]:
        everyone = later = (1 << len(group)) - 1
        masks = []  # per live agent: atom z at (z, None), other actions than d at (None, d)
        for k in live:
            at: dict[tuple, int] = {}
            for x, i in enumerate(group):
                z, d = keys[i][k]
                at[z, None] = at.get((z, None), 0) | 1 << x
                at[None, d] = at.get((None, d), 0) | 1 << x
            masks.append({key: m ^ (0 if key[1] is None else everyone) for key, m in at.items()})
        for x, i in enumerate(group):
            later ^= 1 << x
            records = zip(masks, (keys[i][k] for k in live))
            apart = reduce(or_, (m[z, None] & m[None, d] for m, (z, d) in records), 0)
            yield from ((i, group[y]) for y in iter_bits(later & ~apart) if together(i, group[y]))

    return min(filter(None, (next(pairs(*g), None) for g in groups if len(g[0]) > 1)), default=None)


def check_playability(model: WModel) -> PlayabilityReport:
    """Playability decided by one pair search per Nature block.

    The model is playable when no block holds two configurations that one
    pure profile solves together: E[N] = 1, so N <= 1 forces N = 1.  The
    witness of a failure is the profile solving the first such pair of the
    first such block, in Nature order: each agent plays the pair's actions
    on their atoms and its first action elsewhere, and the witness's
    solution set holds the pair.
    """
    stride = model.space.strides[0]
    for d, omega in enumerate(model.nature.labels):
        block = range(d * stride, (d + 1) * stride)
        pair = _first_pair(model, block, lambda i, j: True)
        if pair is not None:
            break
    else:
        return PlayabilityReport(True, None)
    labels = {a: model.actions_of(a).labels for a in model.agent_ids}
    profile = pure_profile(model, {a: labels[a][0] for a in labels}, {
        (a, z): labels[a][d]
        for record in model.choice_records(model.agent_ids, pair)
        for a, (z, d) in zip(model.agent_ids, record)
    })
    solutions = tuple(closed_loop_solutions(model, profile, omega))
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
