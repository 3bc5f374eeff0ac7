"""Exhaustive micro-scale model enumeration for the recall cross-checks.

Two agents with two actions each, both owned by one player, Nature with
one or two states, and every pair of information partitions with at most
four atoms.  Models are deduplicated up to relabeling (flipping either
agent's actions, flipping Nature's states, swapping the two agents) and
yielded in a fixed lexicographic order, so a capped prefix is identical
on every run.
"""

from itertools import product

from wgames import ConfigurationOrdering, FiniteSet, Ordering, WModel, partition_from_key

from generators import _space_of

PLAYER = "P"
AGENTS = ("a", "b")
ACTIONS = ("0", "1")


def restricted_growth_strings(n, max_blocks):
    """Set-partition keys of range(n) with at most ``max_blocks`` blocks,
    in lexicographic order."""
    out = []

    def extend(prefix, blocks):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(min(blocks + 1, max_blocks)):
            prefix.append(v)
            extend(prefix, max(blocks, v + 1))
            prefix.pop()

    extend([], 0)
    return out


def _normalize(key):
    seen = {}
    out = []
    for v in key:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _relabeling_group(size):
    """Config-index permutations induced by the relabelings, each tagged
    with whether it swaps the two agents.

    The index layout is Nature-major with agent ``a`` before ``b``, so a
    flip of ``b``'s actions toggles bit 0, a flip of ``a``'s toggles bit 1,
    a Nature flip toggles bit 2 and the agent swap exchanges bits 0 and 1.
    """
    gens = [
        (tuple(i ^ 2 for i in range(size)), False),
        (tuple(i ^ 1 for i in range(size)), False),
        (
            tuple((i & ~3) | ((i & 1) << 1) | ((i >> 1) & 1) for i in range(size)),
            True,
        ),
    ]
    if size == 8:
        gens.append((tuple(i ^ 4 for i in range(size)), False))
    identity = (tuple(range(size)), False)
    group = {identity}
    frontier = [identity]
    while frontier:
        perm, swapped = frontier.pop()
        for gen_perm, gen_swapped in gens:
            composed = (
                tuple(perm[gen_perm[i]] for i in range(size)),
                swapped ^ gen_swapped,
            )
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return sorted(group)


def _orbit_minimum(group, ka, kb):
    size = len(ka)
    best = None
    for perm, swapped in group:
        ta = _normalize(tuple(ka[perm[i]] for i in range(size)))
        tb = _normalize(tuple(kb[perm[i]] for i in range(size)))
        candidate = (tb, ta) if swapped else (ta, tb)
        if best is None or candidate < best:
            best = candidate
    return best


def _assemble(nature, ka, kb):
    agents = tuple((agent, FiniteSet(agent, ACTIONS)) for agent in AGENTS)
    space = _space_of(nature, agents)
    information = tuple(
        (agent, partition_from_key(space, lambda i, key=key: key[i]))
        for agent, key in zip(AGENTS, (ka, kb))
    )
    return WModel(
        nature=nature,
        agents=agents,
        players=((PLAYER, AGENTS),),
        information=information,
    )


def enumerate_micro_models(cap=2000):
    """Orbit representatives in lexicographic order, singleton Nature first."""
    models = []
    for nature in (FiniteSet("nature", ("*",)), FiniteSet("nature", ("w0", "w1"))):
        size = 4 * len(nature.labels)
        group = _relabeling_group(size)
        keys = restricted_growth_strings(size, 4)
        for ka, kb in product(keys, repeat=2):
            if (ka, kb) != _orbit_minimum(group, ka, kb):
                continue
            models.append(_assemble(nature, ka, kb))
            if len(models) == cap:
                return models
    return models


def all_orderings_of(model):
    """Every configuration-ordering of the two-agent player, as the subset
    of configurations where ``a`` acts first."""
    forward = Ordering(PLAYER, AGENTS)
    backward = Ordering(PLAYER, AGENTS[::-1])
    size = model.space.size
    for bits in range(1 << size):
        yield ConfigurationOrdering.from_table(
            PLAYER,
            tuple(
                forward if (bits >> i) & 1 == 0 else backward for i in range(size)
            ),
        )
