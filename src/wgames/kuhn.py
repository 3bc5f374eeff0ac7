"""Pushforward laws and the mixed-to-behavioral strategy transform.

The pushforward is the exact distribution over configurations induced by a
belief on Nature and one mixed strategy per player, computed by enumerating
the finitely many (Nature state, plan combination) samples and solving the
closed-loop equations at each; it is the one function here that solves
samples.  The transform reads the focus player's behavioral kernels off
that one law: the kernel of an agent at one of its information atoms is the
conditional law of the agent's action given the atom.  That is the
disintegration along a perfect-recall configuration-ordering, because
perfect recall puts each atom inside one prefix cell on which the
predecessors' atoms and actions are constant: conditioning on their play
as well changes nothing.  All weights are exact rationals; distribution
equality is literal equality, never tolerance.

Atoms that no sample reaches carry no constraint; they receive the uniform
kernel, which is a total, canonical choice that leaves every pushforward
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .fields import Configuration, ConfigurationSpace, SpaceMismatch, atom_of
from .model import WModel
from .playability import PlayabilityError, closed_loop_solutions
from .recall import (
    ConfigurationOrdering,
    Ordering,
    check_perfect_recall,
    ordering_cell,
)
from .strategies import (
    MixedStrategy,
    PureStrategyProfile,
    RationalDistribution,
    BehavioralStrategy,
    one_mixed_per_player,
    validate_behavioral,
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


def _samples(
    model: WModel,
    nu: RationalDistribution,
    by_player: Mapping[str, MixedStrategy],
) -> Iterator[tuple[str, PureStrategyProfile, Fraction]]:
    """Weighted (Nature state, full plan profile) samples, canonical order."""
    belief = [(w, nu.weight(w)) for w in model.nature.labels if nu.weight(w) != 0]
    supports = [by_player[p].support for p in model.player_names]
    for combo in product(*supports):
        profile = combo[0][0]
        weight = combo[0][1]
        for part, w in combo[1:]:
            profile = profile.merged_with(part)
            weight *= w
        for omega, wn in belief:
            yield omega, profile, wn * weight


def _solve(model: WModel, profile: PureStrategyProfile, omega: str) -> Configuration:
    solutions = closed_loop_solutions(model, profile, omega)
    if len(solutions) != 1:
        raise PlayabilityError(profile, omega, solutions)
    return solutions[0]


def pushforward(
    model: WModel,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
    threads: int = 1,
) -> PushforwardDistribution:
    """Law of the closed-loop configuration under ``nu`` and the plans.

    Each sample is solved exactly; a profile with zero or several solutions
    raises PlayabilityError naming the profile and the Nature state.  A
    ``threads`` count of at least 1 is accepted, but the samples are solved
    in one thread: the solves are pure Python and would only contend for
    the interpreter lock.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if not validate_belief(model, nu):
        raise ValueError("belief is not carried by Nature states")
    by_player = one_mixed_per_player(model, mixed_all)
    acc: dict[int, Fraction] = {}
    for omega, profile, weight in _samples(model, nu, by_player):
        h = _solve(model, profile, omega)
        acc[h.index] = acc.get(h.index, Fraction(0)) + weight
    carrier = []
    weights = []
    for index in sorted(acc):
        if acc[index] != 0:
            carrier.append(model.space.config(index))
            weights.append(acc[index])
    return PushforwardDistribution(
        model.space, RationalDistribution(tuple(carrier), tuple(weights))
    )


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

    def law(self, atom_id: int) -> RationalDistribution:
        for aid, dist, _ in self.entries:
            if aid == atom_id:
                return dist
        raise KeyError(f"atom {atom_id} is not part of this kernel's cell")

    def reached(self, atom_id: int) -> bool:
        for aid, _, flag in self.entries:
            if aid == atom_id:
                return flag
        raise KeyError(f"atom {atom_id} is not part of this kernel's cell")


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
    laws = _laws_by_atom(model, pushforward(model, nu, list(mixed_all)), kappa.sequence)
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
    mixed_all: Iterable[MixedStrategy],
) -> BehavioralStrategy:
    """Realization-equivalent behavioral strategy for the focus player.

    The kernel of agent a at atom z is Q(z and a plays u) / Q(z) under the
    pushforward Q, and uniform where Q(z) = 0.  Under perfect recall z lies
    inside one prefix cell ending at a, and the predecessors' atoms and
    actions are constant on z, so this is the disintegration along phi:
    the conditional law of a's action given z and the predecessors' play.
    """
    _require_recall(model, player, phi)
    q = pushforward(model, nu, list(mixed_all))
    agent_kernels = []
    for agent in model.agents_of(player):
        labels = model.actions_of(agent).labels
        laws = _laws_by_atom(model, q, (agent,))
        agent_kernels.append(
            (agent, tuple(RationalDistribution(labels, law.weights) for law, _ in laws))
        )
    return BehavioralStrategy(player, tuple(agent_kernels))


def _solve_probability(
    model: WModel,
    beta: BehavioralStrategy,
    others: Mapping[str, MixedStrategy],
    configs: tuple[Configuration, ...],
) -> Fraction:
    """Probability that one profile drawn from ``beta`` and ``others`` has
    every configuration of ``configs`` among its closed-loop solutions, that
    is, prescribes each one's action at every atom it reaches."""
    prescribed: dict[str, dict[int, str]] = {}
    for agent in model.agent_ids:
        info = model.info_of(agent)
        at = prescribed[agent] = {}
        for h in configs:
            if at.setdefault(atom_of(info, h), h.action(agent)) != h.action(agent):
                return Fraction(0)
    p = Fraction(1)
    for agent in model.agents_of(beta.player):
        for atom, u in prescribed[agent].items():
            p *= beta.kernel(agent, atom).weight(u)
    for m in others.values():
        if p == 0:
            break
        p *= sum(
            (
                w
                for part, w in m.support
                if all(
                    s.choice[atom] == u
                    for s in part.strategies
                    for atom, u in prescribed[s.agent].items()
                )
            ),
            Fraction(0),
        )
    return p


def behavioral_pushforward(
    model: WModel,
    nu: RationalDistribution,
    beta: BehavioralStrategy,
    mixed_others: Iterable[MixedStrategy],
) -> PushforwardDistribution:
    """Closed-loop law with one player behavioral and the rest mixed.

    A configuration's mass is the belief's weight times the probability
    that a drawn profile solves to it: the product of the kernel weights at
    its reached atoms, times the total weight of opponent sub-profiles that
    prescribe it.  This stays exact and cheap when a plan enumeration would
    blow up.  It is the law only if every drawn profile has exactly one
    closed-loop solution N.  So in each Nature block E[N] = 1 (the block
    carries the belief's weight) and E[N(N-1)] = 0 (no two configurations
    solve one drawn profile) are checked; otherwise PlayabilityError names
    the state and the configurations with mass, or the first such pair.
    """
    if not validate_belief(model, nu):
        raise ValueError("belief is not carried by Nature states")
    if not validate_behavioral(model, beta):
        raise ValueError(f"invalid behavioral strategy for player {beta.player!r}")
    others = one_mixed_per_player(model, mixed_others, beta.player)

    acc: dict[int, Fraction] = {}
    for index in range(model.space.size):
        h = model.space.config(index)
        mass = nu.weight(h.nature)
        if mass != 0:
            mass *= _solve_probability(model, beta, others, (h,))
        if mass != 0:
            acc[index] = mass

    carrier = tuple(model.space.config(i) for i in acc)
    for omega in model.nature.labels:
        block = tuple(h for h in carrier if h.nature == omega)
        if sum((acc[h.index] for h in block), Fraction(0)) != nu.weight(omega):
            raise PlayabilityError(None, omega, block)
        for k, h in enumerate(block):
            for g in block[k + 1 :]:
                if _solve_probability(model, beta, others, (h, g)) != 0:
                    raise PlayabilityError(None, omega, (h, g))
    return PushforwardDistribution(
        model.space, RationalDistribution(carrier, tuple(acc.values()))
    )


def transform_preserves_law(
    model: WModel,
    player: str,
    beta: BehavioralStrategy,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
) -> bool:
    """Check that swapping the player's mixed strategy for ``beta`` leaves
    the pushforward unchanged."""
    mixed_list = list(mixed_all)
    original = pushforward(model, nu, mixed_list)
    replaced = behavioral_pushforward(
        model, nu, beta, [m for m in mixed_list if m.player != player]
    )
    return distributions_equal(original, replaced)
