"""Closed-loop laws and the mixed-to-behavioral strategy transform.

One function computes every law, from a belief on Nature and one mixed or
behavioral strategy per player, without solving any drawn profile: the
mass of a configuration is the belief's weight of its Nature state times,
per player, the probability that the player's draw prescribes the
configuration's actions at the atoms it reaches.  Checks on each Nature
block make sure that every drawn profile has exactly one closed-loop
solution, which makes that product the law; the pair check is the search
that also decides playability (:func:`wgames.playability._first_pair`).
The transform reads the focus player's kernels off one law, which it is
given (:func:`behavioral_from_law`): the kernel of an agent at one of its
atoms is the conditional law of its action given the atom.  That is the
disintegration along a perfect-recall configuration-ordering, because
perfect recall puts each atom inside one prefix cell on which the
predecessors' atoms and actions are constant.
All weights are exact rationals; distribution equality is literal
equality, never tolerance.

Atoms that no drawn profile reaches carry no constraint; they receive the
uniform kernel, which is a total, canonical choice that leaves every
pushforward unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import and_, or_
from typing import Callable, Iterable

from .fields import Configuration, ConfigurationSpace, SpaceMismatch, iter_bits
from .model import WModel
from .playability import PlayabilityError, _first_pair, strategy_mask
from .recall import (
    ConfigurationOrdering,
    Ordering,
    check_perfect_recall,
    ordering_cell,
)
from .strategies import (
    MixedStrategy,
    RationalDistribution,
    BehavioralStrategy,
    one_strategy_per_player,
)


@dataclass(frozen=True)
class PushforwardDistribution:
    """Exact law over configurations; zero-weight entries are omitted."""

    space: ConfigurationSpace
    dist: RationalDistribution

    def __post_init__(self) -> None:
        indices = []
        for h, w in zip(self.dist.carrier, self.dist.weights):
            if not isinstance(h, Configuration) or h.space != self.space:
                raise SpaceMismatch("pushforward carrier must live on its space")
            if w == 0:
                raise ValueError("zero-weight configurations must be omitted")
            indices.append(h.index)
        if indices != sorted(indices):
            raise ValueError("pushforward carrier must be in configuration order")

    def weight(self, h: Configuration) -> Fraction:
        return self.dist.weight(h)

    @property
    def support(self) -> tuple[Configuration, ...]:
        return self.dist.carrier


def validate_belief(model: WModel, nu: RationalDistribution) -> bool:
    """A belief is a distribution carried by Nature states."""
    return all(w in model.nature.labels for w in nu.carrier)


def _law(
    model: WModel,
    nu: RationalDistribution,
    strategies: Iterable[MixedStrategy | BehavioralStrategy],
) -> PushforwardDistribution:
    """Law of ``nu`` and one mixed or behavioral strategy per player.

    The product formula puts nu(omega) E[N] on a Nature block, for N the
    number of closed-loop solutions of a drawn profile.  It is the law when
    each block carries nu(omega) (E[N] = 1) and no drawn profile solves at
    two configurations (E[N(N-1)] = 0), which force N = 1.  Otherwise
    PlayabilityError names the state and the configurations with mass, or
    the first pair solved together.
    """
    if not validate_belief(model, nu):
        raise ValueError("belief is not carried by Nature states")
    by_player = one_strategy_per_player(model, strategies)
    space = model.space
    belief = [nu.weight(w) for w in model.nature.labels]
    reach = reduce(or_, (space.cylinder_mask(0, d) for d, w in enumerate(belief) if w), 0)
    kernels = []  # (information, coordinate, weights per atom) per behavioral agent
    plans = []  # (agreement mask, weight) per plan, per mixed player
    for s in by_player.values():
        if isinstance(s, BehavioralStrategy):
            kernels += [
                (model.info_of(a), space.agent_pos(a) + 1, [k.weights for k in ks])
                for a, ks in s.kernels
            ]
        else:
            plans.append(
                [(reduce(and_, map(partial(strategy_mask, model), p.strategies)), w) for p, w in s.support]
            )
            reach &= reduce(or_, (m for m, _ in plans[-1]))
    masses: dict[int, Fraction] = {}
    for i in iter_bits(reach):
        w = belief[space.digit(i, 0)]
        for info, coord, rows in kernels:
            w *= rows[info.atom_index(i)][space.digit(i, coord)]
        for masks in plans:
            w *= sum(p for m, p in masks if m >> i & 1)
        if w != 0:
            masses[i] = w

    def together(i: int, j: int) -> bool:
        # a behavioral draw plays each atom independently, so only the
        # plans of mixed players can keep a pair that no agent separates apart
        both = 1 << i | 1 << j
        return all(any(m & both == both for m, _ in masks) for masks in plans)

    for d, omega in enumerate(model.nature.labels):
        block = [i for i in masses if space.digit(i, 0) == d]
        mass = sum((masses[i] for i in block), Fraction(0))
        bad = block if mass != belief[d] else _first_pair(model, block, together)
        if bad is not None:
            raise PlayabilityError(None, omega, tuple(map(space.config, bad)))
    carrier = tuple(map(space.config, masses))
    return PushforwardDistribution(space, RationalDistribution(carrier, tuple(masses.values())))


def pushforward(
    model: WModel,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
    threads: int = 1,
) -> PushforwardDistribution:
    """Law of the closed-loop configuration under ``nu`` and the plans.

    If a drawn profile has no or several closed-loop solutions,
    PlayabilityError names the Nature state and the configurations with
    mass, or the first pair solved together.  ``threads`` must be at
    least 1 and changes nothing.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return _law(model, nu, mixed_all)


def distributions_equal(q1: PushforwardDistribution, q2: PushforwardDistribution) -> bool:
    if q1.space != q2.space:
        raise SpaceMismatch("pushforwards live on different spaces")
    return q1.dist.same_law(q2.dist)


def expected_utility(
    model: WModel,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
    criterion: Callable[[Configuration], Fraction],
) -> Fraction:
    """Exact expectation of ``criterion`` under the pushforward law."""
    q = pushforward(model, nu, mixed_all)
    total = Fraction(0)
    for h, w in zip(q.support, q.dist.weights):
        total += w * Fraction(criterion(h))
    return total


# ── conditional kernels and the transform ───────────────────────────────


@dataclass(frozen=True)
class ConditionalKernel:
    """Conditional law of the prefix agents' actions on each atom.

    ``entries`` lists, for every atom of the last agent's information field
    contained in the prefix cell, the atom id, the law over action tuples
    (ordered like the prefix), and whether any sample reached the atom.
    """

    kappa: Ordering
    entries: tuple[tuple[int, RationalDistribution, bool], ...]


def _require_recall(model: WModel, player: str, phi: ConfigurationOrdering) -> None:
    report = check_perfect_recall(model, player, phi)
    if not report.holds:
        raise ValueError(
            f"player {player!r} lacks perfect recall along the given ordering: "
            f"prefix {report.violation.kappa.sequence!r} fails"
        )


def _laws_by_atom(
    model: WModel, q: PushforwardDistribution, agents: tuple[str, ...]
) -> list[tuple[RationalDistribution, bool]]:
    """Law of the actions of ``agents`` given each atom of the last one.

    The law is read off ``q``; on atoms ``q`` does not reach it is uniform
    and flagged unreached.
    """
    info = model.info_of(agents[-1])
    carrier = tuple(product(*[model.actions_of(b).labels for b in agents]))
    joint: list[dict[tuple, Fraction]] = [{} for _ in info.atoms]
    for h, w in zip(q.support, q.dist.weights):
        masses = joint[info.atom_index(h.index)]
        u = tuple(h.action(b) for b in agents)
        masses[u] = masses.get(u, Fraction(0)) + w
    laws = []
    for masses in joint:
        total = sum(masses.values(), Fraction(0))
        if total == 0:
            laws.append((RationalDistribution.uniform(carrier), False))
        else:
            weights = tuple(masses.get(u, Fraction(0)) / total for u in carrier)
            laws.append((RationalDistribution(carrier, weights), True))
    return laws


def conditional_kernel(
    model: WModel,
    player: str,
    phi: ConfigurationOrdering,
    kappa: Ordering,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
) -> ConditionalKernel:
    """Joint conditional law of the prefix agents' plan components.

    For each information atom z of the last prefix agent inside the prefix
    cell, the law of the prefix agents' actions under the pushforward,
    conditioned on z.  Perfect recall keeps the predecessors' atoms
    constant on z, so a solution in z played, at those atoms, exactly the
    actions it shows: this is the law of the plan components too.
    """
    _require_recall(model, player, phi)
    laws = _laws_by_atom(model, _law(model, nu, mixed_all), kappa.sequence)
    cell = ordering_cell(model, phi, kappa)
    return ConditionalKernel(
        kappa,
        tuple(
            (i, *laws[i])
            for i, atom in enumerate(model.info_of(kappa.last).atoms)
            if atom & cell == atom
        ),
    )


def kuhn_transform(
    model: WModel,
    player: str,
    phi: ConfigurationOrdering,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy | BehavioralStrategy],
) -> BehavioralStrategy:
    """Realization-equivalent behavioral strategy for the focus player: once
    perfect recall along ``phi`` holds, :func:`behavioral_from_law` of the
    pushforward of ``nu`` and ``mixed_all``."""
    _require_recall(model, player, phi)
    return behavioral_from_law(model, player, _law(model, nu, mixed_all))


def behavioral_from_law(model: WModel, player: str, q: PushforwardDistribution) -> BehavioralStrategy:
    """The player's kernels read off the closed-loop law ``q``.

    The kernel of agent a at atom z is Q(z and a plays u) / Q(z), and
    uniform where Q(z) = 0.  Under perfect recall z lies inside one prefix
    cell ending at a, and the predecessors' atoms and actions are constant
    on z, so this is the disintegration along the ordering: the
    conditional law of a's action given z and the predecessors' play.
    """
    kernels = []
    for agent in model.agents_of(player):
        labels = model.actions_of(agent).labels
        laws = _laws_by_atom(model, q, (agent,))
        kernels.append((agent, tuple(RationalDistribution(labels, d.weights) for d, _ in laws)))
    return BehavioralStrategy(player, tuple(kernels))


def behavioral_pushforward(
    model: WModel,
    nu: RationalDistribution,
    beta: BehavioralStrategy,
    mixed_others: Iterable[MixedStrategy | BehavioralStrategy],
) -> PushforwardDistribution:
    """Closed-loop law with ``beta`` for its player and one mixed or
    behavioral strategy for every other player.  No plans are enumerated;
    if a drawn profile has no or several closed-loop solutions,
    PlayabilityError names the Nature state and the configurations with
    mass, or the first pair solved together.
    """
    return _law(model, nu, (beta, *mixed_others))


def transform_preserves_law(
    model: WModel,
    beta: BehavioralStrategy,
    nu: RationalDistribution,
    others: Iterable[MixedStrategy | BehavioralStrategy],
    law: PushforwardDistribution,
) -> bool:
    """Check that ``beta``, with one strategy for every other player in
    ``others``, gives the closed-loop law ``law``."""
    return distributions_equal(law, behavioral_pushforward(model, nu, beta, others))
