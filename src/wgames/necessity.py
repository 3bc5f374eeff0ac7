"""Converse direction: detect recall violations and certify that the
witness strategies admit no behavioral counterpart.

The certificate is finite and exact: the target law forces every matching
behavioral strategy to put positive weight on certain actions (one set per
visited information atom), and pinning those actions traps the closed loop
in a region the target law never visits.  It is assembled where the search
finds it; its exhibited profile, like the witness plans, is built by
:func:`~wgames.strategies.pure_profile`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Optional

from .fields import Configuration, CoordinateSet, atom_id_columns, cylinder_refines, iter_bits, mask_of
from .kuhn import PushforwardDistribution, distributions_equal, pushforward
from .model import WModel
from .playability import (
    PlayabilityError,
    closed_loop_solutions,
    nature_block,
    strategy_mask,
)
from .recall import ConfigurationOrdering, Ordering, choice_partition, cylinder_field, first_failure
from .record import Record
from .strategies import (
    MixedStrategy,
    PureStrategyProfile,
    RationalDistribution,
    deterministic_mixed,
    pure_profile,
)

CASE_ACTION = "predecessor-action-differs"
CASE_INFORMATION = "predecessor-information-differs"

_HALF = Fraction(1, 2)


# ── domain types ────────────────────────────────────────────────────────


class NoWitness(ValueError):
    """A violation the witness cannot separate: an agent it must move has a
    single action, so that agent plays alike under mixed and behavioral
    strategies."""


class RecallViolation(Record):
    """Two configurations a late agent cannot tell apart although their
    predecessor records differ.

    ``case`` says how the records differ: some predecessor's action
    (``predecessor-action-differs``) or, actions all equal, some
    predecessor's information atom (``predecessor-information-differs``).
    """

    __slots__ = ("ordering", "h_plus", "h_minus", "case")
    ordering: Ordering
    h_plus: Configuration
    h_minus: Configuration
    case: str

    def __post_init__(self) -> None:
        if len(self.ordering) < 2:
            raise ValueError("a violation needs at least one predecessor")
        if self.h_plus.space != self.h_minus.space:
            raise ValueError("configurations live on different spaces")
        if self.h_plus.index == self.h_minus.index:
            raise ValueError("the two configurations must be distinct")
        if self.case not in (CASE_ACTION, CASE_INFORMATION):
            raise ValueError(f"unknown case tag {self.case!r}")


class NonEquivalenceCertificate(Record):
    """Machine-checkable proof that no behavioral strategy of ``player``
    reproduces ``target``.

    Any matching behavioral strategy must select each pinned action with
    positive probability, so with positive probability the closed loop
    lands in ``reachable``; yet ``target`` gives that region mass zero.
    ``exhibited`` is the region's first configuration, realized exactly by
    ``profile`` together with ``opponent_plans`` at ``omega``.
    """

    __slots__ = ("player", "nu", "focus", "opponents", "target", "forced", "omega", "opponent_plans",
                 "pins", "reachable", "exhibited", "profile")
    player: str
    nu: RationalDistribution
    focus: MixedStrategy
    opponents: tuple[MixedStrategy, ...]
    target: PushforwardDistribution
    forced: tuple[tuple[str, int, tuple[str, ...]], ...]
    omega: str
    opponent_plans: tuple[PureStrategyProfile, ...]
    pins: tuple[tuple[str, int, str], ...]
    reachable: int
    exhibited: Configuration
    profile: PureStrategyProfile

    def __post_init__(self) -> None:
        if self.nu.weight(self.omega) <= 0:
            raise ValueError("the exhibited Nature state has zero belief")
        if self.target.weight(self.exhibited) != 0:
            raise ValueError("the exhibited configuration carries target mass")
        if self.reachable == 0:
            raise ValueError("empty reachable region")
        if not (self.reachable >> self.exhibited.index) & 1:
            raise ValueError("exhibited configuration outside the region")
        allowed = {(a, z): acts for a, z, acts in self.forced}
        pinned = set()
        for agent, atom_id, action in self.pins:
            if action not in allowed.get((agent, atom_id), ()):
                raise ValueError("pin outside the forced action set")
            pinned.add((agent, atom_id))
        if pinned != set(allowed):
            raise ValueError("pins must cover the forced atoms exactly")
        if len(self.opponent_plans) != len(self.opponents):
            raise ValueError("one plan per opponent required")


# ── violation scan ──────────────────────────────────────────────────────


def find_recall_violation(
    model: WModel, player: str, phi: ConfigurationOrdering
) -> Optional[RecallViolation]:
    """First pair of configurations, in canonical order, that the final
    agent of some prefix cannot distinguish while their predecessor
    records disagree.

    Scans the prefixes of length two or more that occur in ``phi``, by
    length then in canonical agent order, atoms of the final agent's field
    in canonical order, pairs by ascending configuration index; what a
    whole-space prefix gives is kept per model, under its set of agents and
    its final agent, and read by every later scan
    (:func:`~wgames.recall.first_failure`).  Within one
    prefix an action-differing pair anywhere in the cell takes precedence
    over atom-only pairs: the atom-reactive witness built for the second
    tag is only sound when configurations sharing a final atom share every
    predecessor action across the whole cell.
    A prefix is skipped when no final atom meets two choice atoms in its
    cell: for a whole-space cell between cylinder fields, when the final
    agent's field refines the choice field by their coordinate sets
    (:func:`~wgames.fields.cylinder_refines`), else after one count of id
    pairs.  Any other prefix returns after one pass over the same id
    columns and the predecessors' action column, the atom ids of the
    cylinder over their action coordinates (from the model's table,
    :func:`~wgames.recall.cylinder_field`): the first member
    x of each final atom in the cell is paired with every later member y
    whose choice atom differs, and the least (actions agree, atom id, y) is
    the answer.  Pairing with x loses nothing: a pair that differs in
    actions or records has a member that differs from x in the same way.
    """
    failure = first_failure(model, player, phi, 2, _violation_at)
    if failure is None:
        return None
    prefix, (x, y, case) = failure
    space = model.space
    return RecallViolation(Ordering(player, prefix), space.config(x), space.config(y), case)


def _violation_at(model: WModel, player: str, prefix: tuple[str, ...], cell: int) -> Optional[tuple[int, int, str]]:
    """The pair (x, y, case) :func:`find_recall_violation` reports at one
    prefix, configurations by index, if any."""
    space = model.space
    preds = prefix[:-1]
    choice, info = choice_partition(model, preds), model.info_of(prefix[-1])
    infos, choices = atom_id_columns(cell, info, choice)
    refines = cylinder_refines(info, choice) if cell == space.full_mask else None
    if refines or refines is None and len(set(zip(infos, choices))) == len(set(infos)):
        return None  # no information atom in the cell meets two choice atoms
    (actions,) = atom_id_columns(cell, cylinder_field(model, CoordinateSet.of(False, preds)))
    firsts: dict[int, tuple[int, int, int]] = {}  # information atom id -> first member, its choice and action ids
    pairs = []
    for y, z, c, u in zip(iter_bits(cell), infos, choices, actions):
        x, cx, ux = firsts.setdefault(z, (y, c, u))
        if c != cx:
            pairs.append((u == ux, z, y, x))
    agree, _, y, x = min(pairs)
    return x, y, CASE_INFORMATION if agree else CASE_ACTION


# ── witness construction ────────────────────────────────────────────────


def _check_violation(model: WModel, player: str, v: RecallViolation) -> None:
    if v.ordering.player != player:
        raise ValueError(
            f"violation belongs to player {v.ordering.player!r}, not {player!r}"
        )
    agents = set(model.agents_of(player))
    if not set(v.ordering.sequence) <= agents:
        raise ValueError("ordering names agents outside the player")
    if v.h_plus.space != model.space:
        raise ValueError("violation built on a different space")
    last = model.info_of(v.ordering.last)
    if last.atom_index(v.h_plus.index) != last.atom_index(v.h_minus.index):
        raise ValueError("the final agent distinguishes the pair")
    preds = v.ordering.sequence[:-1]
    plus, minus = model.choice_records(preds, (v.h_plus.index, v.h_minus.index))
    actions_differ = any(p[1] != m[1] for p, m in zip(plus, minus))
    if v.case == CASE_ACTION and not actions_differ:
        raise ValueError("case tag claims an action difference; none found")
    if v.case == CASE_INFORMATION:
        if actions_differ:
            raise ValueError("case tag forbids action differences")
        if plus == minus:
            raise ValueError("predecessor records do not differ")


def _first_other_action(model: WModel, agent: str, avoid: str) -> str:
    for label in model.actions_of(agent).labels:
        if label != avoid:
            return label
    raise NoWitness(f"agent {agent!r} needs a second action")


def _replace_action(model: WModel, h: Configuration, agent: str, action: str) -> Configuration:
    acts = {a: h.action(a) for a in model.space.agents}
    acts[agent] = action
    return model.space.config(model.space.index_of(h.nature, acts))


def _half_mixture(
    player: str, one: PureStrategyProfile, other: PureStrategyProfile
) -> MixedStrategy:
    if one == other:
        return deterministic_mixed(player, one)
    return MixedStrategy(player, ((one, _HALF), (other, _HALF)))


def build_witness(
    model: WModel, player: str, violation: RecallViolation
) -> tuple[RationalDistribution, MixedStrategy, tuple[MixedStrategy, ...]]:
    """Belief and plans whose closed-loop law separates mixed from
    behavioral play at the violation.

    The pair is first separated on the final agent's own coordinate when
    needed; under partial causality this changes neither the cell nor any
    conditioning atom, because the region refined by that agent's
    information never constrains the agent's own action.  Raises
    :class:`NoWitness` when an agent the witness must move has one action.
    """
    _check_violation(model, player, violation)
    kappa = violation.ordering
    c = kappa.last
    h_plus, h_minus = violation.h_plus, violation.h_minus
    if h_plus.action(c) == h_minus.action(c):
        h_minus = _replace_action(model, h_minus, c, _first_other_action(model, c, h_plus.action(c)))

    labels = model.nature.labels
    chosen = {h_plus.nature, h_minus.nature}
    if len(chosen) == 1:
        nu = RationalDistribution.point(labels, h_plus.nature)
    else:
        nu = RationalDistribution.from_map({w: _HALF for w in labels if w in chosen})

    def constant(h: Configuration, agents: Iterable[str]) -> PureStrategyProfile:
        return pure_profile(model, {a: h.action(a) for a in agents}, {})

    opponents = tuple(
        _half_mixture(q, constant(h_plus, own), constant(h_minus, own))
        for q, own in model.players if q != player
    )
    focus_agents = model.agents_of(player)
    if violation.case == CASE_ACTION:
        focus = _half_mixture(player, constant(h_plus, focus_agents), constant(h_minus, focus_agents))
        return nu, focus, opponents

    # Actions agree everywhere upstream, so some predecessor's atom must
    # differ; the plans below react to that atom instead of to an action.
    # Both play h_plus's actions, but b plays its own on zb only and u_bar
    # off it; flipped, b plays u_bar on zb only and c plays h_minus's on zc.
    b = next(
        a for a in kappa.sequence[:-1]
        if model.info_of(a).atom_index(h_plus.index) != model.info_of(a).atom_index(h_minus.index)
    )
    u_bar = _first_other_action(model, b, h_plus.action(b))
    zb = model.info_of(b).atom_index(h_plus.index)
    zc = model.info_of(c).atom_index(h_plus.index)
    plus = {a: h_plus.action(a) for a in focus_agents}
    plan = pure_profile(model, {**plus, b: u_bar}, {(b, zb): plus[b]})
    flipped = pure_profile(model, plus, {(b, zb): u_bar, (c, zc): h_minus.action(c)})
    return nu, _half_mixture(player, plan, flipped), opponents


# ── forced supports and certification ───────────────────────────────────


def forced_support(
    model: WModel, player: str, target: PushforwardDistribution
) -> dict[tuple[str, int], tuple[str, ...]]:
    """Actions every matching behavioral strategy must carry, per visited
    (agent, information atom) of the player; canonical key and action order.
    """
    if target.space != model.space:
        raise ValueError("target law built on a different space")
    space = model.space
    forced: dict[tuple[str, int], tuple[str, ...]] = {}
    for a in model.agents_of(player):
        ids, coord, labels = model.info_of(a).atom_ids, space.agent_pos(a) + 1, model.actions_of(a).labels
        seen: dict[int, set[int]] = {}
        for i in target.indices:
            seen.setdefault(ids[i], set()).add(space.digit(i, coord))
        forced.update(((a, z), tuple(labels[d] for d in sorted(seen[z]))) for z in sorted(seen))
    return forced


def _pin_allows(model: WModel, agent: str, atom_id: int, action: str) -> int:
    """Configurations compatible with the pin: off the atom, or on it with
    the pinned action as the agent's own coordinate."""
    space = model.space
    own = space.cylinder_mask(space.agent_pos(agent) + 1, model.actions_of(agent).index(action))
    return space.full_mask & ~(model.info_of(agent).atom(atom_id) & ~own)


def certify_nonequivalence(
    model: WModel,
    player: str,
    nu: RationalDistribution,
    focus: MixedStrategy,
    opponents: Iterable[MixedStrategy],
) -> Optional[NonEquivalenceCertificate]:
    """Search for a pinning of forced actions that traps the closed loop
    outside the target law's support.

    Enumerates Nature states with positive belief, opponent support plans,
    and one forced action per visited atom, in canonical order; the first
    combination whose compatible region carries zero target mass yields
    the certificate.  Absent when no combination does, in particular
    whenever some behavioral strategy does reproduce the law.
    """
    if focus.player != player:
        raise ValueError(f"focus strategy belongs to {focus.player!r}")
    opp_list = tuple(opponents)
    target = pushforward(model, nu, (focus, *opp_list))
    forced = forced_support(model, player, target)
    keys = tuple(forced)
    space = model.space

    supp_mask = mask_of(target.indices)

    for omega in model.nature.labels:
        if nu.weight(omega) == 0:
            continue
        base = nature_block(space, omega)
        for combo in product(*[m.support for m in opp_list]):
            plans = tuple(prof for prof, _ in combo)
            shell = base
            for prof in plans:
                for s in prof.strategies:
                    shell &= strategy_mask(model, s)
            if shell == 0:
                continue
            for assembly in product(*[forced[key] for key in keys]):
                region = shell
                for (agent, atom_id), action in zip(keys, assembly):
                    region &= _pin_allows(model, agent, atom_id, action)
                    if region == 0:
                        break
                if region == 0 or region & supp_mask:
                    continue
                pins = dict(zip(keys, assembly))
                first = (region & -region).bit_length() - 1
                landed = space.config(first)
                agents = model.agents_of(player)
                here = {(a, model.info_of(a).atom_index(first)): landed.action(a) for a in agents}
                firsts = {a: model.actions_of(a).labels[0] for a in agents}
                profile = pure_profile(model, firsts, {**here, **pins})
                merged = PureStrategyProfile((*profile.strategies, *(s for p in plans for s in p.strategies)))
                solutions = closed_loop_solutions(model, merged, omega)
                if solutions != [landed]:
                    raise PlayabilityError(merged, omega, solutions)
                return NonEquivalenceCertificate(
                    player=player, nu=nu, focus=focus, opponents=opp_list, target=target,
                    forced=tuple((*key, acts) for key, acts in forced.items()), omega=omega,
                    opponent_plans=plans, pins=tuple((*key, u) for key, u in pins.items()),
                    reachable=region, exhibited=landed, profile=profile,
                )
    return None


def verify_certificate(
    model: WModel, player: str, cert: NonEquivalenceCertificate
) -> bool:
    """Recompute every claim of the certificate from scratch."""
    try:
        if cert.player != player or cert.focus.player != player:
            return False
        target = pushforward(model, cert.nu, (cert.focus, *cert.opponents))
        if not distributions_equal(target, cert.target):
            return False
        forced = forced_support(model, player, target)
        if tuple((a, z, acts) for (a, z), acts in forced.items()) != cert.forced:
            return False
        pins = {(a, z): u for a, z, u in cert.pins}
        if set(pins) != set(forced):
            return False
        if any(u not in forced[key] for key, u in pins.items()):
            return False
        if cert.nu.weight(cert.omega) <= 0:
            return False
        for plan, mixed in zip(cert.opponent_plans, cert.opponents):
            if plan not in [p for p, _ in mixed.support]:
                return False
        region = nature_block(model.space, cert.omega)
        for plan in cert.opponent_plans:
            for s in plan.strategies:
                region &= strategy_mask(model, s)
        for (agent, atom_id), action in pins.items():
            region &= _pin_allows(model, agent, atom_id, action)
        if region != cert.reachable or region == 0:
            return False
        if region & mask_of(target.indices):
            return False
        if (region & -region).bit_length() - 1 != cert.exhibited.index:
            return False
        if cert.profile.agents != frozenset(model.agents_of(player)):
            return False
        for agent, atom_id, action in cert.pins:
            if cert.profile.strategy_of(agent).action_at(atom_id) != action:
                return False
        merged = PureStrategyProfile((*cert.profile.strategies, *(s for p in cert.opponent_plans for s in p.strategies)))
        if closed_loop_solutions(model, merged, cert.omega) != [cert.exhibited]:
            return False
    except (ValueError, KeyError, IndexError):
        return False
    return True
