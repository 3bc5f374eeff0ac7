"""Closed-loop laws and the mixed-to-behavioral strategy transform.

One function computes every law, from a belief on Nature and one mixed or
behavioral strategy per player, without solving any drawn profile: the
mass of a configuration is the belief's weight of its Nature state times,
per player, the probability that the player's draw prescribes the
configuration's actions at the atoms it reaches.  Checks on each Nature
block make sure that every drawn profile has exactly one closed-loop
solution, which makes that product the law; the pair check is the search
that also decides playability (:func:`wgames.playability._first_pair`).
Where no player is mixed, its verdict depends only on the block's
configurations with mass, so the model keeps it for the next law.
A law is held as the ascending configuration indices that carry mass and
their exact weights (:class:`PushforwardDistribution`).
The transform reads the focus player's kernels off one law, which it is
given (:func:`behavioral_from_law`): the kernel of an agent at one of its
atoms is the conditional law of its action given the atom.  That is the
disintegration along a perfect-recall configuration-ordering, because
perfect recall puts each atom inside one prefix cell on which the
predecessors' atoms and actions are constant.
All weights are exact and computed in integers: a mass is the product of
the numerators over that of the denominators of the rows it uses, reduced
once, and masses are summed by :func:`~wgames.strategies.exact_sum`.
Distribution equality is literal equality, never tolerance.

Atoms that no drawn profile reaches carry no constraint; they receive the
uniform kernel, which is a total, canonical choice that leaves every
pushforward unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import and_, or_
from typing import Callable, Iterable

from .fields import Configuration, ConfigurationSpace, SpaceMismatch, atom_id_columns, iter_bits
from .model import WModel
from .playability import PlayabilityError, _first_pair, strategy_mask
from .recall import (
    ConfigurationOrdering,
    Ordering,
    check_perfect_recall,
    ordering_cell,
)
from .record import Record
from .strategies import (
    BehavioralStrategy,
    MixedStrategy,
    RationalDistribution,
    exact_sum,
    one_strategy_per_player,
    over_lcm,
)


class PushforwardDistribution(Record):
    """Exact law over configurations: ``indices`` are the configuration
    indices with nonzero mass, ascending, and ``weights`` their masses."""

    __slots__ = ("space", "indices", "weights")
    space: ConfigurationSpace
    indices: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must align")
        if any(i >= j for i, j in zip((-1, *self.indices), (*self.indices, self.space.size))):
            raise ValueError("indices must be distinct configuration indices, ascending")
        if 0 in self.weights:
            raise ValueError("zero-weight configurations must be omitted")

    def weight(self, h: Configuration) -> Fraction:
        """Mass of ``h``; 0 off the support or on another space."""
        k = bisect_left(self.indices, h.index)
        found = h.space == self.space and self.indices[k : k + 1] == (h.index,)
        return self.weights[k] if found else Fraction(0)

    @property
    def support(self) -> tuple[Configuration, ...]:
        return tuple(map(self.space.config, self.indices))


def validate_belief(model: WModel, nu: RationalDistribution) -> bool:
    """A belief is a distribution carried by Nature states."""
    return all(w in model.nature.digits for w in nu.carrier)


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
    belief = list((dict.fromkeys(model.nature.labels, 0) | dict(zip(nu.carrier, nu.nums))).values())
    # Nature is the most significant digit: its blocks are contiguous runs
    reach = int("".join(("1" if w else "0") * space.strides[0] for w in reversed(belief)), 2)
    base = nu.den  # times each mixed player's denominator
    kernels = []  # (atom ids, coordinate, row per atom) per behavioral agent
    plans = []  # (agreement mask, numerator) per plan, per mixed player
    for s in by_player.values():
        if isinstance(s, BehavioralStrategy):
            kernels += [(model.info_of(a).atom_ids, space.agent_pos(a) + 1, ks) for a, ks in s.kernels]
        else:
            masks = (reduce(and_, map(partial(strategy_mask, model), p.strategies)) for p, _ in s.support)
            plans.append(list(zip(masks, s.nums)))
            reach &= reduce(or_, (m for m, _ in plans[-1]))
            base *= s.den
    masses: dict[int, Fraction] = {}
    blocks: list[list[int]] = [[] for _ in belief]  # configurations with mass, per Nature state
    for i in iter_bits(reach):
        d = space.digit(i, 0)
        num, den = belief[d], base
        for ids, coord, rows in kernels:
            row = rows[ids[i]]
            num, den = num * row.nums[space.digit(i, coord)], den * row.den
        for masks in plans:
            num *= sum(p for m, p in masks if m >> i & 1)
        if num != 0:  # reduced once, over the denominators of the rows it uses
            masses[i] = Fraction(num, den)
            blocks[d].append(i)

    def together(i: int, j: int) -> bool:
        # a behavioral draw plays each atom independently, so only the
        # plans of mixed players can keep a pair that no agent separates apart
        both = 1 << i | 1 << j
        return all(any(m & both == both for m, _ in masks) for masks in plans)

    derived = model._derived  # type: ignore[attr-defined]
    for omega, block, belief_mass in zip(model.nature.labels, blocks, belief):
        num, den = exact_sum(map(masses.__getitem__, block))
        bad = block if num * nu.den != belief_mass * den else None
        if bad is None and len(block) > 1:  # a pair needs two configurations with mass
            if plans:
                bad = _first_pair(model, block, together)
            else:  # every pair is kept together: the verdict is the block's, once per model
                key = ("pair", tuple(block))
                if key not in derived:
                    derived[key] = _first_pair(model, block, together)
                bad = derived[key]
        if bad is not None:
            raise PlayabilityError(None, omega, tuple(map(space.config, bad)))
    return PushforwardDistribution(space, tuple(masses), tuple(masses.values()))


def pushforward(
    model: WModel,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
    threads: int = 1,
) -> PushforwardDistribution:
    """Law of the closed-loop configuration under ``nu`` and the plans; if
    a drawn profile has no or several closed-loop solutions,
    PlayabilityError names the Nature state and the configurations with
    mass, or the first pair solved together.  ``threads`` must be at least
    1 and changes nothing."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return _law(model, nu, mixed_all)


def distributions_equal(q1: PushforwardDistribution, q2: PushforwardDistribution) -> bool:
    if q1.space != q2.space:
        raise SpaceMismatch("pushforwards live on different spaces")
    return q1.indices == q2.indices and q1.weights == q2.weights


def expected_utility(
    model: WModel,
    nu: RationalDistribution,
    mixed_all: Iterable[MixedStrategy],
    criterion: Callable[[Configuration], Fraction],
) -> Fraction:
    """Exact expectation of ``criterion`` under the pushforward law."""
    q = pushforward(model, nu, mixed_all)
    return sum((w * Fraction(criterion(h)) for h, w in zip(q.support, q.weights)), Fraction(0))


# ── conditional kernels and the transform ───────────────────────────────


class ConditionalKernel(Record):
    """Conditional law of the prefix agents' actions on each atom.

    ``entries`` lists, for every atom of the last agent's information field
    contained in the prefix cell, the atom id, the law over action tuples
    (ordered like the prefix), and whether any sample reached the atom.
    """

    __slots__ = ("kappa", "entries")
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
    model: WModel, q: PushforwardDistribution, agents: tuple[str, ...], carrier: tuple
) -> list[tuple[RationalDistribution, bool]]:
    """Law of the actions of ``agents`` given each atom of the last one.

    Each law is over ``carrier``, the action tuples in lexicographic order
    (the first agent's action most significant): per atom, each tuple's
    mass under ``q``, divided by their sum.  It is uniform and flagged
    unreached on atoms ``q`` does not reach.
    """
    space, info = model.space, model.info_of(agents[-1])
    coords = [space.agent_pos(b) + 1 for b in agents]
    joint: list[dict[int, list[Fraction]]] = [{} for _ in range(len(info))]
    for i, w in zip(q.indices, q.weights):
        u = 0  # the position in carrier of the action tuple at i
        for c in coords:
            u = u * space.sizes[c] + space.digit(i, c)
        joint[info.atom_ids[i]].setdefault(u, []).append(w)
    laws = []
    for masses in joint:
        sums = (exact_sum(masses[u]) if u in masses else (0, 1) for u in range(len(carrier)))
        nums = over_lcm(sums)[0] if masses else (1,) * len(carrier)
        laws.append((RationalDistribution.of_ratios(carrier, nums, sum(nums)), bool(masses)))
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
    carrier = tuple(product(*[model.actions_of(b).labels for b in kappa.sequence]))
    laws = _laws_by_atom(model, _law(model, nu, mixed_all), kappa.sequence, carrier)
    info = model.info_of(kappa.last)
    # an atom lies in the cell iff the cell holds all of its configurations
    held = Counter(atom_id_columns(ordering_cell(model, phi, kappa), info)[0])
    entries = tuple((i, *laws[i]) for i, size in enumerate(info.sizes) if held[i] == size)
    return ConditionalKernel(kappa, entries)


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
        laws = _laws_by_atom(model, q, (agent,), model.actions_of(agent).labels)
        kernels.append((agent, tuple(law for law, _ in laws)))
    return BehavioralStrategy(player, tuple(kernels))


def behavioral_pushforward(
    model: WModel,
    nu: RationalDistribution,
    beta: BehavioralStrategy,
    mixed_others: Iterable[MixedStrategy | BehavioralStrategy],
) -> PushforwardDistribution:
    """Closed-loop law with ``beta`` for its player and one mixed or
    behavioral strategy for every other player, with the errors of
    :func:`pushforward`.  No plans are enumerated."""
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
