"""Pure, mixed, and behavioral strategies with exact rational weights.

A row of weights is held as integer numerators over one denominator, in
lowest terms, and is checked once, in integers, where it is built.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable

from .fields import Partition
from .model import WModel
from .record import Record

DEFAULT_ENUM_CAP = 10**6


def over_lcm(ratios: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Ratios p/q as integer numerators over the lcm of the q."""
    ratios = tuple(ratios)
    den = lcm(*{q for _, q in ratios})
    return tuple(p * (den // q) for p, q in ratios), den


def exact_sum(weights: Iterable[Fraction]) -> tuple[int, int]:
    """Exact sum of rationals as a numerator and a denominator.

    The terms are added as integers over a running denominator.  A term
    whose denominator does not divide it first brings the sum to lowest
    terms, then puts it over the lcm, so terms that cancel (the masses of
    an atom's successors) keep the denominator small.
    """
    num, den = 0, 1
    for w in weights:
        d = w.denominator
        if den % d:
            g = gcd(num, den)
            num, den = num // g, den // g
            scale = d // gcd(den, d)
            num, den = num * scale, den * scale
        num += w.numerator * (den // d)
    return num, den


def format_fraction(value: Fraction) -> str:
    """Exact "p/q" (or "p") text of any rational.  ``str`` refuses ints
    past the interpreter's digit limit (4,300 digits by default); only
    then are the terms written through ``Decimal``, which is exact at any
    length."""
    num, den = value.as_integer_ratio()
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        num, den = str(Decimal(num)), str(Decimal(den))
        return num if den == "1" else f"{num}/{den}"


def _check_sum(nums: tuple[int, ...], den: int) -> None:
    total = sum(nums)
    if total != den:
        raise ValueError(f"weights sum to {format_fraction(Fraction(total, den))}")


class RationalDistribution(Record):
    """Finitely supported exact distribution over an ordered carrier.

    The weights are held as integer numerators ``nums`` over one
    denominator ``den``, in lowest terms, and checked once, in integers.
    The constructor takes the weights as exact numbers; :meth:`of_ratios`
    takes the integers and leaves the ``Fraction`` ``weights`` to be made
    on first read.
    """

    _fields = ("carrier", "weights")
    __slots__ = _fields + ("nums", "den")
    carrier: tuple
    weights: tuple[Fraction, ...]
    nums: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        weights = tuple(map(Fraction, self.weights))
        object.__setattr__(self, "weights", weights)
        self._take(*over_lcm(w.as_integer_ratio() for w in weights))

    @classmethod
    def of_ratios(cls, carrier: tuple, nums: tuple[int, ...], den: int) -> "RationalDistribution":
        """The distribution of the weights ``nums`` over ``den`` on ``carrier``."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "carrier", carrier)
        dist._take(nums, den)
        return dist

    def _take(self, nums: tuple[int, ...], den: int) -> None:
        if len(self.carrier) != len(nums):
            raise ValueError("carrier and weights must align")
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier entries must be distinct")
        if nums and min(nums) < 0:
            raise ValueError("negative weight")
        _check_sum(nums, den)
        g = gcd(den, *nums)  # lowest terms
        if g > 1:
            nums, den = tuple(n // g for n in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __getattr__(self, name: str):
        # reached only for unset slots: ``weights`` is made on first read
        if name != "weights":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = tuple(Fraction(n, self.den) for n in self.nums)
        object.__setattr__(self, "weights", weights)
        return weights

    @staticmethod
    def point(carrier: Iterable, item) -> "RationalDistribution":
        carrier = tuple(carrier)
        return RationalDistribution.of_ratios(carrier, tuple(int(c == item) for c in carrier), 1)

    @staticmethod
    def uniform(carrier: Iterable) -> "RationalDistribution":
        carrier = tuple(carrier)
        return RationalDistribution.of_ratios(carrier, (1,) * len(carrier), len(carrier))

    @staticmethod
    def from_map(mapping: dict) -> "RationalDistribution":
        return RationalDistribution(tuple(mapping), tuple(mapping.values()))

    def weight(self, item) -> Fraction:
        try:
            return self.weights[self.carrier.index(item)]
        except ValueError:
            return Fraction(0)

    def as_map(self) -> dict:
        """Support only: carrier entries with nonzero weight."""
        return {c: w for c, w in zip(self.carrier, self.weights) if w != 0}

    def same_law(self, other: "RationalDistribution") -> bool:
        return self.as_map() == other.as_map()


class PureStrategy(Record):
    """One agent's information-measurable decision rule.

    ``choice[k]`` is the action taken on atom ``k`` of the agent's
    information partition; constancy on atoms is exactly measurability.
    """

    __slots__ = ("agent", "choice")
    agent: str
    choice: tuple[str, ...]

    def action_at(self, atom_id: int) -> str:
        return self.choice[atom_id]


class PureStrategyProfile(Record):
    """One pure strategy per agent of some agent subset."""

    __slots__ = ("strategies",)
    strategies: tuple[PureStrategy, ...]

    def __post_init__(self) -> None:
        ids = [s.agent for s in self.strategies]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate agent in profile")
        ordered = tuple(sorted(self.strategies, key=lambda s: s.agent))
        object.__setattr__(self, "strategies", ordered)

    @property
    def agents(self) -> frozenset[str]:
        return frozenset(s.agent for s in self.strategies)

    def strategy_of(self, agent: str) -> PureStrategy:
        for s in self.strategies:
            if s.agent == agent:
                return s
        raise ValueError(f"profile has no strategy for {agent!r}")

    def merged_with(self, other: "PureStrategyProfile") -> "PureStrategyProfile":
        if self.agents & other.agents:
            raise ValueError("profiles overlap")
        return PureStrategyProfile(self.strategies + other.strategies)


class MixedStrategy(Record):
    """Player-level randomization over pure sub-profiles.

    May correlate the player's agents; zero-weight entries are forbidden
    so strategy equality is structural.
    """

    _fields = ("player", "support")
    __slots__ = _fields + ("nums", "den")
    player: str
    support: tuple[tuple[PureStrategyProfile, Fraction], ...]
    nums: tuple[int, ...]  # the weights over one denominator ``den``
    den: int

    def __post_init__(self) -> None:
        entries = tuple((p, Fraction(w)) for p, w in self.support)
        nums, den = over_lcm(w.as_integer_ratio() for _, w in entries)
        _check_sum(nums, den)  # an empty support sums to 0
        agent_sets = {p.agents for p, _ in entries}
        if len(agent_sets) != 1:
            raise ValueError("support profiles cover different agent sets")
        if len({p for p, _ in entries}) != len(entries):
            raise ValueError("duplicate support profile")
        if min(nums) <= 0:
            raise ValueError("support weights must be positive")
        object.__setattr__(self, "support", entries)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def agents(self) -> frozenset[str]:
        return self.support[0][0].agents


class BehavioralStrategy(Record):
    """Per-agent independent randomization, one kernel per information atom.

    ``kernels`` holds, for each of the player's agents in model order, the
    tuple of action distributions indexed by atom id of that agent's
    information partition.
    """

    __slots__ = ("player", "kernels")
    player: str
    kernels: tuple[tuple[str, tuple[RationalDistribution, ...]], ...]

    def kernel(self, agent: str, atom_id: int) -> RationalDistribution:
        for a, dists in self.kernels:
            if a == agent:
                return dists[atom_id]
        raise ValueError(f"no kernels for agent {agent!r}")

    @property
    def agents(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.kernels)


# ── operations ──────────────────────────────────────────────────────────


def validate_pure(model: WModel, strategy: PureStrategy) -> bool:
    """Total on the agent's atoms, with valid action labels everywhere."""
    info = model.info_of(strategy.agent)  # raises on unknown agent
    actions = set(model.actions_of(strategy.agent).labels)
    if len(strategy.choice) != len(info):
        return False
    return all(u in actions for u in strategy.choice)


def validate_mixed(model: WModel, mixed: MixedStrategy) -> bool:
    """Every supported plan covers exactly the player's agents, validly."""
    expected = frozenset(model.agents_of(mixed.player))
    for profile, _ in mixed.support:
        if profile.agents != expected:
            return False
        if not all(validate_pure(model, s) for s in profile.strategies):
            return False
    return True


def one_strategy_per_player(
    model: WModel, strategies: Iterable[MixedStrategy | BehavioralStrategy]
) -> dict[str, MixedStrategy | BehavioralStrategy]:
    """Valid mixed or behavioral strategies by player, exactly one for
    every player; raises ValueError."""
    by_player: dict[str, MixedStrategy | BehavioralStrategy] = {}
    for s in strategies:
        if s.player in by_player:
            raise ValueError(f"two strategies given for player {s.player!r}")
        mixed = isinstance(s, MixedStrategy)
        if not (validate_mixed(model, s) if mixed else validate_behavioral(model, s)):
            kind = "mixed" if mixed else "behavioral"
            raise ValueError(f"invalid {kind} strategy for player {s.player!r}")
        by_player[s.player] = s
    missing = [p for p in model.player_names if p not in by_player]
    if missing:
        raise ValueError(f"no strategy given for players {missing!r}")
    return by_player


def validate_behavioral(model: WModel, beta: BehavioralStrategy) -> bool:
    """One full-carrier kernel per (agent, atom) of the player."""
    if set(beta.agents) != set(model.agents_of(beta.player)):
        return False
    for agent, dists in beta.kernels:
        info = model.info_of(agent)
        labels = model.actions_of(agent).labels
        if len(dists) != len(info):
            return False
        if any(d.carrier != labels for d in dists):
            return False
    return True


def enumerate_pure(model: WModel, agent: str) -> list[PureStrategy]:
    """All pure strategies of one agent, lexicographic in (atom, action)."""
    info = model.info_of(agent)
    labels = model.actions_of(agent).labels
    count = len(labels) ** len(info)
    if count > DEFAULT_ENUM_CAP:
        raise ValueError(
            f"{count} strategies for agent {agent!r} exceed the cap of {DEFAULT_ENUM_CAP}"
        )
    return [
        PureStrategy(agent, combo)
        for combo in product(labels, repeat=len(info))
    ]


def behavioral_to_mixed(model: WModel, beta: BehavioralStrategy) -> MixedStrategy:
    """Expand independent per-atom sampling into a distribution over plans.

    The weight of a pure sub-profile is the product, over the player's
    agents and atoms, of the kernel weight of the action the plan takes
    there.  Zero-weight plans are dropped.
    """
    per_agent: list[list[tuple[PureStrategy, Fraction]]] = []
    for agent in model.agents_of(beta.player):
        info = model.info_of(agent)
        options_per_atom = []
        for atom_id in range(len(info)):
            dist = beta.kernel(agent, atom_id)
            options_per_atom.append(
                [(u, w) for u, w in zip(dist.carrier, dist.weights) if w != 0]
            )
        plans = []
        for combo in product(*options_per_atom):
            w = Fraction(1)
            for _, wi in combo:
                w *= wi
            plans.append((PureStrategy(agent, tuple(u for u, _ in combo)), w))
        per_agent.append(plans)

    support = []
    for combo in product(*per_agent):
        w = Fraction(1)
        for _, wi in combo:
            w *= wi
        profile = PureStrategyProfile(tuple(s for s, _ in combo))
        support.append((profile, w))
    return MixedStrategy(beta.player, tuple(support))


def restrict_profile(
    profile: PureStrategyProfile, agents: Iterable[str]
) -> PureStrategyProfile:
    """Componentwise restriction of a profile to an agent subset."""
    wanted = set(agents)
    if not wanted:
        raise ValueError("empty restriction")
    missing = wanted - profile.agents
    if missing:
        raise ValueError(f"profile lacks agents {sorted(missing)}")
    return PureStrategyProfile(
        tuple(s for s in profile.strategies if s.agent in wanted)
    )


def deterministic_mixed(player: str, profile: PureStrategyProfile) -> MixedStrategy:
    """The point-mass mixed strategy on one plan."""
    return MixedStrategy(player, ((profile, Fraction(1)),))


def pure_profile(
    model: WModel, actions: dict[str, str], at: dict[tuple[str, int], str]
) -> PureStrategyProfile:
    """Each agent in ``actions`` plays ``at[(agent, atom id)]`` where that
    entry is given and ``actions[agent]`` on its other atoms."""
    return PureStrategyProfile(tuple(
        PureStrategy(agent, tuple(at.get((agent, z), action) for z in range(len(model.info_of(agent)))))
        for agent, action in actions.items()
    ))


def constant_profile(model: WModel, assignments: dict[str, str]) -> PureStrategyProfile:
    """Constant plan: each listed agent plays one action on every atom."""
    for agent, action in assignments.items():
        if action not in model.actions_of(agent).labels:
            raise ValueError(f"unknown action {action!r} for {agent!r}")
    return pure_profile(model, assignments, {})
