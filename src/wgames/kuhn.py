"""Pushforward laws and the mixed-to-behavioral strategy transform.

The pushforward is the exact distribution over configurations induced by a
belief on Nature and one mixed strategy per player, computed by enumerating
the finitely many (Nature state, plan combination) samples and solving the
closed-loop equations at each.  The transform disintegrates the focus
player's randomness along a perfect-recall configuration-ordering: for each
agent and each of its information atoms, the behavioral kernel is the
conditional law of that agent's action given the atom and the predecessors'
realized actions.  All weights are exact rationals; distribution equality
is literal equality, never tolerance.

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
    for h in q.support:
        total += q.weight(h) * Fraction(criterion(h))
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
    cell, condition the sample law on the solution landing in z and read
    off the plan components at z's first configuration.  Perfect recall
    makes that evaluation independent of the representative: predecessors'
    atoms and actions are constant across z.
    """
    report = check_perfect_recall(model, player, phi)
    if not report.holds:
        raise ValueError(
            f"player {player!r} lacks perfect recall along the given ordering: "
            f"prefix {report.violation.kappa.sequence!r} fails"
        )
    by_player = one_mixed_per_player(model, mixed_all)
    if not validate_belief(model, nu):
        raise ValueError("belief is not carried by Nature states")

    info_last = model.info_of(kappa.last)
    cell = ordering_cell(model, phi, kappa)
    atom_ids = [
        i for i, atom in enumerate(info_last.atoms) if atom & cell == atom
    ]
    reps = {
        i: (info_last.atoms[i] & -info_last.atoms[i]).bit_length() - 1
        for i in atom_ids
    }
    carrier = tuple(
        product(*[model.actions_of(b).labels for b in kappa.sequence])
    )

    mass: dict[int, Fraction] = {i: Fraction(0) for i in atom_ids}
    joint: dict[int, dict[tuple, Fraction]] = {i: {} for i in atom_ids}
    infos = {b: model.info_of(b) for b in kappa.sequence}
    for omega, profile, weight in _samples(model, nu, by_player):
        h = _solve(model, profile, omega)
        if (cell >> h.index) & 1 == 0:
            continue
        aid = info_last.atom_index(h.index)
        rep = reps[aid]
        u = tuple(
            profile.strategy_of(b).action_at(infos[b].atom_index(rep))
            for b in kappa.sequence
        )
        mass[aid] += weight
        joint[aid][u] = joint[aid].get(u, Fraction(0)) + weight

    entries = []
    for aid in atom_ids:
        if mass[aid] == 0:
            entries.append((aid, RationalDistribution.uniform(carrier), False))
        else:
            weights = tuple(
                joint[aid].get(u, Fraction(0)) / mass[aid] for u in carrier
            )
            entries.append((aid, RationalDistribution(carrier, weights), True))
    return ConditionalKernel(kappa, tuple(entries))


def kuhn_transform(
    model: WModel,
    player: str,
    phi: ConfigurationOrdering,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
) -> BehavioralStrategy:
    """Realization-equivalent behavioral strategy for the focus player.

    Each information atom of each agent sits inside exactly one prefix
    cell ending at that agent (the cells are disjoint and measurable in
    the agent's field under perfect recall).  The agent's kernel there is
    the conditional law of its own action given the atom and given that
    the predecessors played their actions at the atom's representative;
    the conditioning event carries all the reached mass, so the division
    only matters as a guard for unreached atoms, which become uniform.
    """
    report = check_perfect_recall(model, player, phi)
    if not report.holds:
        raise ValueError(
            f"player {player!r} lacks perfect recall along the given ordering: "
            f"prefix {report.violation.kappa.sequence!r} fails"
        )
    mixed_list = list(mixed_all)
    kernels_by_prefix: dict[tuple[str, ...], ConditionalKernel] = {}

    def kernel_for(seq: tuple[str, ...]) -> ConditionalKernel:
        if seq not in kernels_by_prefix:
            kernels_by_prefix[seq] = conditional_kernel(
                model, player, phi, Ordering(player, seq), nu, mixed_list
            )
        return kernels_by_prefix[seq]

    agent_kernels = []
    for agent in model.agents_of(player):
        info = model.info_of(agent)
        labels = model.actions_of(agent).labels
        dists = []
        for atom in info.atoms:
            rep = (atom & -atom).bit_length() - 1
            sequence = phi.at(rep).sequence
            position = sequence.index(agent)
            seq = sequence[: position + 1]
            kern = kernel_for(seq)
            law = kern.law(info.atom_index(rep))
            rep_config = model.space.config(rep)
            prefix_actions = tuple(rep_config.action(b) for b in seq[:-1])
            numerators = [
                law.weight(prefix_actions + (u,)) for u in labels
            ]
            denominator = sum(numerators, Fraction(0))
            if denominator == 0:
                dists.append(RationalDistribution.uniform(labels))
            else:
                dists.append(
                    RationalDistribution(
                        labels, tuple(n / denominator for n in numerators)
                    )
                )
        agent_kernels.append((agent, tuple(dists)))
    return BehavioralStrategy(player, tuple(agent_kernels))


def behavioral_pushforward(
    model: WModel,
    nu: RationalDistribution,
    beta: BehavioralStrategy,
    mixed_others: Iterable[MixedStrategy],
) -> PushforwardDistribution:
    """Closed-loop law with one player behavioral and the rest mixed.

    A pure plan profile solves to a configuration exactly when every
    agent's plan prescribes that configuration's action at the atom the
    configuration reaches, and playability makes the solution unique.  So
    the law never needs the plan expansion: each configuration's mass is
    the product of the kernel weights at its reached atoms, times the
    total weight of opponent sub-profiles that prescribe it.  This stays
    exact and cheap when a plan enumeration would blow up.  The mass of a
    Nature block is the belief's weight times the expected number of
    closed-loop solutions there; when it is not the belief's weight alone,
    PlayabilityError names the state and the configurations with mass.
    """
    if not validate_belief(model, nu):
        raise ValueError("belief is not carried by Nature states")
    if not validate_behavioral(model, beta):
        raise ValueError(f"invalid behavioral strategy for player {beta.player!r}")
    others = one_mixed_per_player(model, mixed_others, beta.player)

    own = model.agents_of(beta.player)
    acc: dict[int, Fraction] = {}
    for index in range(model.space.size):
        h = model.space.config(index)
        mass = nu.weight(h.nature)
        if mass == 0:
            continue
        for agent in own:
            atom = atom_of(model.info_of(agent), h)
            mass *= beta.kernel(agent, atom).weight(h.action(agent))
            if mass == 0:
                break
        if mass == 0:
            continue
        for m in others.values():
            agreeing = Fraction(0)
            for part, w in m.support:
                if all(
                    s.choice[atom_of(model.info_of(s.agent), h)] == h.action(s.agent)
                    for s in part.strategies
                ):
                    agreeing += w
            mass *= agreeing
            if mass == 0:
                break
        if mass != 0:
            acc[index] = mass

    carrier = tuple(model.space.config(i) for i in acc)
    for omega in model.nature.labels:
        block = tuple(h for h in carrier if h.nature == omega)
        if sum((acc[h.index] for h in block), Fraction(0)) != nu.weight(omega):
            raise PlayabilityError(None, omega, block)
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
