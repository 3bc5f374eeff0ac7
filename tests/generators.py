"""Bridges into the oracle format and random model builders.

The random builders are seeded by the caller, so every test run sees the
same models.  ``random_causal_model`` builds models that are playable by
construction (each agent observes only Nature and strictly earlier agents,
so the closed loop solves by forward substitution) without naming that
construction order anywhere in the result; the analyses must rediscover
it.  ``random_state_ordered_model`` lets the play order depend on the
Nature state and returns the matching non-constant perfect-recall ordering.
``random_partition_model`` drops the discipline entirely and is only
guaranteed to be a valid model.  ``observes_document`` writes a model with
its cylinder information fields in the ``observes`` form, and
``without_generators`` rebuilds one whose fields carry no coordinate sets,
so every refinement test on it is counted.  ``forgetful_model`` is a
decision maker with no recall ordering at all, and ``blind_last_model`` one
whose constant orderings fail where its blind agent acts, most of them late.
``mutated_json``
makes one edit to a wire document, for the fuzz tests of the parsers.
"""

import copy
import json
from itertools import chain, combinations
from random import Random

from wgames import (
    ConfigurationSpace,
    CoordinateSet,
    FiniteSet,
    Partition,
    WModel,
    cylinder_partition,
    iter_bits,
    partition_from_key,
    serialize_model,
)
from wgames.fields import partition_from_labels


def _space_of(nature, agents) -> ConfigurationSpace:
    return ConfigurationSpace(
        nature=nature,
        agents=tuple(a for a, _ in agents),
        actions=tuple(acts for _, acts in agents),
    )


def observes_document(model) -> dict:
    """The wire document of ``model`` with each information field that is
    the cylinder of some coordinates given as the ``observes`` list of the
    smallest such set; the other fields keep their explicit atoms."""
    doc = json.loads(serialize_model(model))
    space = model.space
    subsets = list(chain.from_iterable(combinations(space.keys, k) for k in range(len(space.keys) + 1)))
    for agent, part in model.information:
        for chosen in subsets:
            coords = CoordinateSet.of("nature" in chosen, [c for c in chosen if c != "nature"])
            if cylinder_partition(space, coords) == part:
                doc["information"][agent] = {"observes": list(chosen)}
                break
    return doc


def without_generators(model) -> WModel:
    """``model`` with every information field rebuilt from its atom-id
    column: equal fields, none with generators."""
    return WModel(
        nature=model.nature,
        agents=model.agents,
        players=model.players,
        information=tuple((a, partition_from_labels(model.space, p.atom_ids)) for a, p in model.information),
    )


# ── library -> oracle ───────────────────────────────────────────────────


def config_tuple(model, index):
    h = model.space.config(index)
    return (h.nature,) + tuple(h.action(a) for a in model.space.agents)


def to_oracle(model):
    return {
        "omega": list(model.nature.labels),
        "agents": [(a, list(acts.labels)) for a, acts in model.agents],
        "players": {name: list(members) for name, members in model.players},
        "info": {
            agent: [
                frozenset(config_tuple(model, i) for i in iter_bits(atom))
                for atom in part.atoms
            ]
            for agent, part in model.information
        },
    }


def oracle_plans(model, oracle, profile):
    """PureStrategyProfile -> oracle plans {agent: {atom: action}}."""
    plans = {}
    for s in profile.strategies:
        atoms = oracle["info"][s.agent]
        plans[s.agent] = {atom: s.choice[k] for k, atom in enumerate(atoms)}
    return plans


def oracle_mixed(model, oracle, mixed):
    """MixedStrategy -> oracle list of (plans, weight)."""
    return [(oracle_plans(model, oracle, p), w) for p, w in mixed.support]


def oracle_phi(model, phi):
    """ConfigurationOrdering -> oracle {config tuple: sequence}."""
    return {
        config_tuple(model, i): phi.at(i).sequence
        for i in range(model.space.size)
    }


# ── random builders ─────────────────────────────────────────────────────


def _nature(rng: Random, max_states: int) -> FiniteSet:
    n = rng.randint(1, max_states)
    if n == 1:
        return FiniteSet("nature", ("*",))
    return FiniteSet("nature", tuple(f"w{k}" for k in range(n)))


def _actions(rng: Random, agent: str, max_actions: int, min_actions: int = 2) -> FiniteSet:
    n = rng.randint(min_actions, max_actions)
    return FiniteSet(agent, tuple(str(k) for k in range(n)))


def random_causal_model(
    rng: Random,
    max_nature: int = 3,
    max_focus: int = 3,
    max_actions: int = 3,
    opponent: bool = True,
) -> WModel:
    """Playable-by-construction model with player ``P`` (and maybe ``O``).

    A hidden construction order is drawn over all agents; each agent then
    observes Nature or not, plus a random subset of the strictly earlier
    agents.  Declared agent order is independent of the hidden order.
    """
    n_focus = rng.randint(1, max_focus)
    focus_ids = [f"p{k}" for k in range(1, n_focus + 1)]
    opp_ids = ["q1"] if opponent and rng.random() < 0.5 else []
    ids = focus_ids + opp_ids
    rng.shuffle(ids)

    nature = _nature(rng, max_nature)
    agents = tuple((a, _actions(rng, a, max_actions)) for a in ids)
    players = [("P", tuple(a for a in ids if a.startswith("p")))]
    if opp_ids:
        players.append(("O", tuple(a for a in ids if a.startswith("q"))))

    hidden = ids[:]
    rng.shuffle(hidden)
    space = _space_of(nature, agents)

    information = []
    for a in ids:
        earlier = hidden[: hidden.index(a)]
        watched = [b for b in earlier if rng.random() < 0.6]
        include_nature = rng.random() < 0.6
        information.append(
            (a, cylinder_partition(space, CoordinateSet.of(include_nature, watched)))
        )
    information.sort(key=lambda pair: ids.index(pair[0]))

    return WModel(
        nature=nature,
        agents=agents,
        players=tuple(players),
        information=tuple(information),
    )


def random_state_ordered_model(
    rng: Random,
    max_nature: int = 3,
    max_focus: int = 3,
    max_actions: int = 2,
    recall: float = 0.8,
):
    """Playable model whose play order depends on the Nature state, with a
    non-constant perfect-recall configuration-ordering of player ``P``.

    Each Nature state draws its own order of all agents.  Every agent
    observes Nature and, in each state, a random subset of the agents
    before it in that state's order; a focus agent also observes, with
    probability ``recall`` each, an earlier focus agent together with
    everything that agent observed.  The ordering follows each state's
    order.  Draws are repeated until perfect recall holds along it and it
    is not constant; returns ``(model, phi)``.
    """
    from wgames import ConfigurationOrdering, Ordering, check_perfect_recall

    while True:
        n_focus = rng.randint(2, max_focus)
        focus_ids = [f"p{k}" for k in range(1, n_focus + 1)]
        ids = focus_ids + (["q1"] if rng.random() < 0.5 else [])
        rng.shuffle(ids)
        nature = FiniteSet("nature", tuple(f"w{k}" for k in range(rng.randint(2, max_nature))))
        agents = tuple((a, _actions(rng, a, max_actions)) for a in ids)
        space = _space_of(nature, agents)

        orders = {}
        watched = {}
        for omega in nature.labels:
            order = ids[:]
            rng.shuffle(order)
            orders[omega] = tuple(a for a in order if a in focus_ids)
            for k, a in enumerate(order):
                seen = {b for b in order[:k] if rng.random() < 0.5}
                if a in focus_ids:
                    for b in order[:k]:
                        if b in focus_ids and rng.random() < recall:
                            seen |= {b} | watched[omega, b]
                watched[omega, a] = seen

        def key(i, a):
            h = space.config(i)
            return h.nature, tuple(h.action(b) for b in ids if b in watched[h.nature, a])

        model = WModel(
            nature=nature,
            agents=agents,
            players=(("P", tuple(a for a in ids if a in focus_ids)),)
            + ((("O", ("q1",)),) if "q1" in ids else ()),
            information=tuple(
                (a, partition_from_key(space, lambda i, a=a: key(i, a))) for a in ids
            ),
        )
        phi = ConfigurationOrdering.from_table(
            "P",
            tuple(Ordering("P", orders[space.config(i).nature]) for i in range(space.size)),
        )
        if not phi.is_constant and check_perfect_recall(model, "P", phi).holds:
            return model, phi


def random_partition_model(
    rng: Random,
    max_nature: int = 2,
    max_agents: int = 3,
    max_actions: int = 2,
    max_atoms: int = 4,
    min_actions: int = 1,
) -> WModel:
    """Arbitrary information: random partitions with bounded atom counts."""
    n_agents = rng.randint(1, max_agents)
    ids = [f"a{k}" for k in range(1, n_agents + 1)]
    nature = _nature(rng, max_nature)
    agents = tuple((a, _actions(rng, a, max_actions, min_actions)) for a in ids)

    cut = rng.randint(1, n_agents)
    players = [("P", tuple(ids[:cut]))]
    if cut < n_agents:
        players.append(("O", tuple(ids[cut:])))

    space = _space_of(nature, agents)

    information = tuple(
        (a, random_partition(rng, space, max_atoms)) for a in ids
    )
    return WModel(
        nature=nature,
        agents=agents,
        players=tuple(players),
        information=information,
    )


def deep_recall_model(n: int) -> WModel:
    """Player ``P`` whose recall only a non-constant ordering could give,
    beside a player ``Q`` of ``n`` binary agents that see nothing.

    Nature is ``{w0, w1}``.  ``a`` observes Nature, the q's and, at w1,
    ``b``'s action; ``b`` observes Nature, the q's and, at w0, ``a``'s.  No
    constant ordering has perfect recall for ``P``.  H has 2^(n+3)
    configurations and no block of the general search holds more than four,
    so its first cell takes at least 2^(n+1) claims.
    """
    qs = tuple(f"q{k}" for k in range(1, n + 1))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ("a", "b") + qs)
    nature = FiniteSet("nature", ("w0", "w1"))
    space = _space_of(nature, agents)

    def key(i, agent, other, state):
        h = space.config(i)
        seen = h.action(other) if h.nature == state else None
        return h.nature, seen, tuple(h.action(q) for q in qs)

    info = (
        ("a", partition_from_key(space, lambda i: key(i, "a", "b", "w1"))),
        ("b", partition_from_key(space, lambda i: key(i, "b", "a", "w0"))),
    ) + tuple((q, partition_from_key(space, lambda i: 0)) for q in qs)
    return WModel(
        nature=nature,
        agents=agents,
        players=(("P", ("a", "b")), ("Q", qs)),
        information=info,
    )


def forgetful_model(n: int) -> WModel:
    """One decision maker ``dm`` of ``n`` binary agents that forgets: t1
    observes Nature, and each later t_k only the action of t_(k-1).  No
    ordering has perfect recall, so the search sweeps all n! constant
    orderings and then the general backtracking before it answers none."""
    nature = FiniteSet("nature", ("w0", "w1"))
    ids = tuple(f"t{k}" for k in range(1, n + 1))
    agents = tuple((a, FiniteSet(a, ("0", "1"))) for a in ids)
    space = _space_of(nature, agents)
    info = tuple(
        (a, cylinder_partition(space, CoordinateSet.of(k == 0, ids[k - 1 : k]))) for k, a in enumerate(ids)
    )
    return WModel(nature=nature, agents=agents, players=(("dm", ids),), information=info)


def blind_last_model(n: int) -> WModel:
    """One decision maker ``dm`` of ``n`` agents: t1 .. t(n-1) have one
    action each and observe Nature, and t_n, declared last, has two actions
    and observes nothing.  A constant ordering first fails where t_n acts,
    or at the second agent when t_n acts first, so the search's constant
    orderings fail at every position t_n can take, most of them late."""
    nature = FiniteSet("nature", ("w0", "w1"))
    ids = tuple(f"t{k}" for k in range(1, n + 1))
    agents = tuple((a, FiniteSet(a, ("0",) if k < n else ("0", "1"))) for k, a in enumerate(ids, 1))
    space = _space_of(nature, agents)
    info = tuple((a, cylinder_partition(space, CoordinateSet.of(k < n, ()))) for k, a in enumerate(ids, 1))
    return WModel(nature=nature, agents=agents, players=(("dm", ids),), information=info)


def random_partition(rng: Random, space, max_atoms: int) -> Partition:
    k = rng.randint(1, min(max_atoms, space.size))
    labels = [rng.randrange(k) for _ in range(space.size)]
    # every class in 0..k-1 must be hit or the partition just has fewer atoms
    return partition_from_key(space, lambda i: labels[i])


def random_profile(rng: Random, model, agents=None):
    from wgames import PureStrategy, PureStrategyProfile

    if agents is None:
        agents = model.agent_ids
    strategies = []
    for a in agents:
        labels = model.actions_of(a).labels
        n = len(model.info_of(a))
        strategies.append(
            PureStrategy(a, tuple(rng.choice(labels) for _ in range(n)))
        )
    return PureStrategyProfile(tuple(strategies))


def random_weights(rng: Random, n: int, denominator: int = 12):
    """n positive exact weights summing to one."""
    from fractions import Fraction

    cuts = sorted(rng.sample(range(1, denominator), n - 1)) if n > 1 else []
    bounds = [0] + cuts + [denominator]
    return [
        Fraction(bounds[k + 1] - bounds[k], denominator) for k in range(n)
    ]


def random_mixed(rng: Random, model, player, max_support: int = 3):
    """Mixed strategy of one player with a small random support."""
    from wgames import MixedStrategy

    own = model.agents_of(player)
    profiles = []
    tries = 0
    want = rng.randint(1, max_support)
    while len(profiles) < want and tries < 40:
        tries += 1
        p = random_profile(rng, model, own)
        if p not in profiles:
            profiles.append(p)
    weights = random_weights(rng, len(profiles))
    return MixedStrategy(player, tuple(zip(profiles, weights)))


def random_belief(rng: Random, model):
    from wgames import RationalDistribution

    labels = model.nature.labels
    weights = random_weights(rng, len(labels))
    return RationalDistribution(labels, tuple(weights))


def random_behavioral(rng: Random, model, player):
    """Behavioral strategy with a mix of point and spread kernels.

    Point kernels keep the pure expansion small enough for definitional
    cross-checks.
    """
    from wgames import BehavioralStrategy, RationalDistribution

    kernels = []
    for agent in model.agents_of(player):
        labels = model.actions_of(agent).labels
        dists = []
        for _ in range(len(model.info_of(agent))):
            if rng.random() < 0.5:
                dists.append(RationalDistribution.point(labels, rng.choice(labels)))
            else:
                dists.append(
                    RationalDistribution(labels, tuple(random_weights(rng, len(labels), 6)))
                )
        kernels.append((agent, tuple(dists)))
    return BehavioralStrategy(player, tuple(kernels))


# ── mutated wire documents ─────────────────────────────────────────────

MUTATIONS = ("rewrite", "delete", "rename", "append", "text")


def _positions(node, path=()):
    """Paths to every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def mutated_json(doc, at: int, how: str, junk, renames) -> str:
    """The JSON text of ``doc`` with one edit at position ``at``: the value
    there rewritten to ``junk``, deleted, its key renamed to one of
    ``renames``, or copied to the end of its list; or, with "text", one
    character of the text replaced by ``junk`` when it is a string, else cut."""
    doc = copy.deepcopy(doc)
    if how == "text":
        text = json.dumps(doc)
        at %= len(text)
        return text[:at] + (junk if isinstance(junk, str) else "") + text[at + 1 :]
    positions = list(_positions(doc))
    *steps, key = positions[at % len(positions)]
    parent = doc
    for step in steps:
        parent = parent[step]
    if how == "delete":
        del parent[key]
    elif how == "rename" and isinstance(parent, dict):
        parent[renames[at % len(renames)]] = parent.pop(key)
    elif how == "append" and isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(junk)
    return json.dumps(doc)
