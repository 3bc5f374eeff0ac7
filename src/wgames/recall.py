"""Orderings of a player's agents and the checks built on them.

A configuration-ordering assigns to every configuration a total order in
which the player's agents act, held as one cell (bitmask) per order that
occurs.  Perfect recall asks that, cell by cell, whatever the predecessors
did and knew is readable from the last agent's information field; partial
causality asks that each cell, refined by the last agent's information,
depends only on Nature, the other players' actions and the predecessors'
actions.  Both checks quantify over atoms, which suffices for finite
fields.  All three prefix checks (these two and the recall-violation scan)
stop at the first failing prefix of one scan (:func:`first_failure`): the
prefixes that occur, each with its cell, in the canonical order of
:func:`enumerate_orderings`, which :func:`prefix_cells` also yields; a
one-cell ordering's prefixes are slices of its sequence, each cut when the
walk reaches it.  Where a prefix's cell is the whole space, what a check
finds there depends only on the model, the prefix's agents and its last
agent, so the model keeps it, one table per check, and every check along
any ordering, the ordering search's constant orderings among them, reads
it there.

The searches build candidate orderings cell by cell, assigning the next
agent in whole blocks.  The target property forces the block shape (the
candidate agent's information atoms for recall, ground-field atoms for
causality, information atoms that are unions of ground atoms for both), so
every completed assignment passes the corresponding checks and nothing
valid is skipped.  The search for both yields its orderings in the order
the causality sweep meets them (see :func:`_iter_valid_orderings`).  The
checks and the searches decide measurability the same way (``first_cut``
and ``atoms_inside`` in :mod:`wgames.fields`): from the coordinate sets
when both fields are cylinders and the cell is the whole space, as along
a constant ordering, else by counting (atom id, label) pairs over atom-id
columns.
"""

from __future__ import annotations

from itertools import compress, permutations
from typing import Callable, Iterator, Optional

from .fields import (
    CoordinateSet,
    Partition,
    atoms_inside,
    cylinder_partition,
    first_cut,
    first_seen,
    iter_bits,
    mask_of,
    partition_from_labels,
)
from .model import WModel
from .record import Record


class SearchBudgetExhausted(RuntimeError):
    """An ordering search ran out of nodes before reaching a verdict."""


class Ordering(Record):
    """An injective, nonempty sequence of some of a player's agents."""

    __slots__ = ("player", "sequence")
    player: str
    sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sequence:
            raise ValueError("ordering must name at least one agent")
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("ordering entries must be distinct")

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def first(self) -> str:
        return self.sequence[0]

    @property
    def last(self) -> str:
        return self.sequence[-1]

    @property
    def range(self) -> frozenset[str]:
        return frozenset(self.sequence)


def restrict_ordering(rho: Ordering, k: int) -> Ordering:
    """First ``k`` entries of ``rho``."""
    if not 1 <= k <= len(rho):
        raise ValueError(f"cannot restrict a length-{len(rho)} ordering to {k}")
    return Ordering(rho.player, rho.sequence[:k])


class ConfigurationOrdering(Record):
    """The agents' order at each configuration: one disjoint ``(ordering,
    mask)`` cell per order that occurs, sorted by lowest configuration."""

    __slots__ = ("player", "cells")
    player: str
    cells: tuple[tuple[Ordering, int], ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("need at least one cell")
        base = self.cells[0][0]
        agents, n, seen = base.range, len(base), 0
        for rho, mask in self.cells:
            if rho.player != self.player:
                raise ValueError("ordering assigned to a different player")
            if len(rho) != n or rho.range != agents:
                raise ValueError("orderings must all cover the same agents")
            if mask <= 0 or mask & seen:
                raise ValueError("cells must be nonempty and disjoint")
            seen |= mask
        if len({rho for rho, _ in self.cells}) < len(self.cells):
            raise ValueError("one cell per ordering")
        cells = sorted(self.cells, key=lambda cell: cell[1] & -cell[1])  # so == is canonical
        object.__setattr__(self, "cells", tuple(cells))

    @classmethod
    def from_table(cls, player: str, table) -> ConfigurationOrdering:
        """Cells of a table that holds one ordering per configuration index."""
        runs: dict[Ordering, list[int]] = {}
        for i, rho in enumerate(table):
            runs.setdefault(rho, []).append(i)
        return cls(player, tuple((rho, mask_of(run)) for rho, run in runs.items()))

    def at(self, index: int) -> Ordering:
        for rho, mask in self.cells:
            if index >= 0 and mask >> index & 1:
                return rho
        raise IndexError(f"configuration index {index} lies in no cell")

    @property
    def is_constant(self) -> bool:
        return len(self.cells) == 1

    @property
    def orderings(self) -> tuple[Ordering, ...]:
        """One ordering per configuration index."""
        table = {i: rho for rho, mask in self.cells for i in iter_bits(mask)}
        return tuple(table[i] for i in range(len(table)))


def constant_ordering(
    model: WModel, player: str, sequence: tuple[str, ...]
) -> ConfigurationOrdering:
    agents = model.agents_of(player)
    if sorted(sequence) != sorted(agents):
        raise ValueError(f"{sequence!r} is not a total ordering of {agents!r}")
    rho = Ordering(player, tuple(sequence))
    return ConfigurationOrdering(player, ((rho, model.space.full_mask),))


def enumerate_orderings(model: WModel, player: str, k: int) -> list[Ordering]:
    """All injective k-sequences of the player's agents, canonical order."""
    agents = model.agents_of(player)
    if not 1 <= k <= len(agents):
        raise ValueError(f"k must lie in [1, {len(agents)}], got {k}")
    return [Ordering(player, seq) for seq in permutations(agents, k)]


def _validate_phi(model: WModel, player: str, phi: ConfigurationOrdering) -> None:
    if phi.player != player:
        raise ValueError(f"ordering belongs to player {phi.player!r}, not {player!r}")
    if sum(mask for _, mask in phi.cells) != model.space.full_mask:  # cells are disjoint
        raise ValueError("configuration-ordering built on a different space")
    agents = model.agents_of(player)
    if phi.cells[0][0].range != frozenset(agents):
        raise ValueError("orderings must be total over the player's agents")


def ordering_cell(model: WModel, phi: ConfigurationOrdering, kappa: Ordering) -> int:
    """Configurations whose ordering starts with ``kappa``, as a bitmask."""
    k = len(kappa)
    return sum(mask for rho, mask in phi.cells if rho.sequence[:k] == kappa.sequence)


def _prefix_scan(
    model: WModel, player: str, phi: ConfigurationOrdering, start: int
) -> Iterator[tuple[tuple[str, ...], int, bool]]:
    """``(prefix, cell, whole)`` of :func:`prefix_cells`, prefixes as agent
    tuples and ``whole`` telling whether the cell is the whole space.  A
    one-cell ordering's prefixes are slices of its sequence, cut as the
    caller reaches them, so a walk that stops early builds no more."""
    _validate_phi(model, player, phi)
    full = model.space.full_mask
    if phi.is_constant:
        seq = phi.cells[0][0].sequence
        for k in range(start, len(seq) + 1):
            yield seq[:k], full, True
        return
    agents = model.agents_of(player)
    pos = {a: i for i, a in enumerate(agents)}
    for k in range(start, len(agents) + 1):
        cells: dict[tuple[str, ...], int] = {}
        for rho, mask in phi.cells:
            cells[rho.sequence[:k]] = cells.get(rho.sequence[:k], 0) | mask
        for prefix in sorted(cells, key=lambda seq: [pos[a] for a in seq]):
            yield prefix, cells[prefix], cells[prefix] == full


def prefix_cells(
    model: WModel, player: str, phi: ConfigurationOrdering, start: int = 1
) -> Iterator[tuple[Ordering, int]]:
    """Prefixes of length ``start`` or more that occur in ``phi``, with cells.

    Yields ``(kappa, cell)`` for every nonempty cell, by length and then by
    the agents' positions in the player's list: the order of
    :func:`enumerate_orderings`, so a check that stops at its first failure
    reports what a walk over every injective sequence would.  A prefix's
    cell is the union of the cells of ``phi`` whose ordering starts with it.
    The checks walk the same scan (:func:`first_failure`).
    """
    for prefix, cell, _ in _prefix_scan(model, player, phi, start):
        yield Ordering(player, prefix), cell


_UNDECIDED = object()  # nothing kept for a prefix yet


def first_failure(
    model: WModel,
    player: str,
    phi: ConfigurationOrdering,
    start: int,
    decide: Callable[[WModel, str, tuple[str, ...], int], Optional[tuple]],
) -> Optional[tuple[tuple[str, ...], tuple]]:
    """The first prefix of ``phi`` from length ``start``, in the order of
    :func:`prefix_cells`, at which ``decide(model, player, prefix, cell)``
    finds a fault, with that fault (the fields of its record after the
    prefix); None when there is none.

    On a whole-space cell every field a check reads is a join over the
    predecessors, which forgets their order, so the fault there depends
    only on the model, the set of the prefix's agents and its last agent.
    It is kept under that pair in the model's table for ``decide``, so the
    table holds at most one entry per agent subset and member, and every
    later check along any ordering reads it.  A prefix with a smaller cell
    is decided on every walk.
    """
    derived = model._derived  # type: ignore[attr-defined]
    faults = derived.get(decide)
    if faults is None:
        faults = derived[decide] = {}
    pos, n = model.space.agent_pos, len(model.space.agents)
    agents = 0  # bit set of the whole-space prefix's agents
    for prefix, cell, whole in _prefix_scan(model, player, phi, start):
        if whole:  # whole-space prefixes come first, each one agent longer than the last
            for a in prefix[-1:] if agents else prefix:
                agents |= 1 << pos(a)
            key = agents * n + pos(prefix[-1])
            fault = faults.get(key, _UNDECIDED)
            if fault is _UNDECIDED:
                fault = faults[key] = decide(model, player, prefix, cell)
        else:
            fault = decide(model, player, prefix, cell)
        if fault is not None:
            return prefix, fault
    return None


def cylinder_field(model: WModel, coords: CoordinateSet) -> Partition:
    """The cylinder field over ``coords``, from the model's table of them,
    which starts with its cylinder information fields; a miss is built
    once per model."""
    derived = model._derived  # type: ignore[attr-defined]
    field = derived.get(coords)
    if field is None:
        field = derived[coords] = cylinder_partition(model.space, coords)
    return field


def choice_partition(model: WModel, agents) -> Partition:
    """Join over ``agents`` of what each did and knew (I_a), built once per
    model.  When every I_a is a cylinder field, the join is the cylinder over
    their generators and the agents' own action coordinates, from the model's
    table (:func:`cylinder_field`).  Otherwise the last of them in declared
    order folds its I_a atom ids and action digits into the atom ids of the
    others' field, renumbered so labels stay below |H|."""
    space, derived = model.space, model._derived  # type: ignore[attr-defined]
    key = tuple(sorted(agents, key=space.agent_pos))
    field = derived.get(key)
    if field is None:
        gens = [model.info_of(a).generators for a in key]
        if None not in gens:
            coords = CoordinateSet(any(g.include_nature for g in gens), frozenset(key).union(*(g.agents for g in gens)))
            field = cylinder_field(model, coords)
        else:
            info, coord = model.info_of(key[-1]), space.agent_pos(key[-1]) + 1
            n, radix = len(info), space.sizes[coord]
            folded = zip(choice_partition(model, key[:-1]).atom_ids, info.atom_ids, space.column(coord))
            field = partition_from_labels(space, first_seen([(c * n + z) * radix + d for c, z, d in folded]))
        derived[key] = field
    return field


def causality_ground(model: WModel, player: str, predecessors) -> Partition:
    """Cylinder field of Nature, all opponents and ``predecessors``, from the
    model's table (:func:`cylinder_field`): along a chain of prefixes each
    ground is one cylinder built once, or an information field already."""
    return cylinder_field(model, CoordinateSet.of(True, model.opponents_of(player) + tuple(predecessors)))


class FieldMembershipViolation(Record):
    """A cell piece that fails to be measurable where the check demands it.

    ``conditioning_atom`` is the atom the cell was intersected with (the
    whole space for length-one prefixes), ``subset`` the resulting piece,
    and ``offending_atom`` an atom of the target field that the piece cuts.
    """

    __slots__ = ("kappa", "conditioning_atom", "subset", "offending_atom")
    kappa: Ordering
    conditioning_atom: int
    subset: int
    offending_atom: int


def _cut(cell: int, conditioning: Optional[Partition], field: Partition) -> Optional[tuple[int, int, int]]:
    """First piece ``cell & block``, blocks of ``conditioning`` in order (the
    whole space when None), that cuts an atom of ``field`` properly, as
    (block, piece, atom) masks; None if there is none.  Only the masks of
    that cut are read, and the partitions keep them
    (:meth:`~wgames.fields.Partition.atom`); a piece equal to its block is
    the block itself, so a kept fault holds no mask of its own."""
    first = first_cut(cell, field, conditioning)
    if first is None:
        return None
    block = field.space.full_mask if conditioning is None else conditioning.atom(first[0])
    subset = cell & block
    return block, block if subset == block else subset, field.atom(first[1])


class RecallReport(Record):
    __slots__ = ("holds", "ordering", "violation")
    holds: bool
    ordering: ConfigurationOrdering
    violation: Optional[FieldMembershipViolation]

    def __post_init__(self) -> None:
        if self.holds == (self.violation is not None):
            raise ValueError("holds must match the absence of a violation")


def _report(phi: ConfigurationOrdering, failure: Optional[tuple[tuple[str, ...], tuple]]) -> RecallReport:
    """The report of a check whose :func:`first_failure` is ``failure``."""
    if failure is None:
        return RecallReport(True, phi, None)
    prefix, cut = failure
    return RecallReport(False, phi, FieldMembershipViolation(Ordering(phi.player, prefix), *cut))


def _recall_cut(model: WModel, player: str, prefix: tuple[str, ...], cell: int) -> Optional[tuple[int, int, int]]:
    """Recall at one prefix: the cell, intersected with each atom of the
    predecessors' choice field when there are predecessors, against the
    last agent's information field."""
    preds = prefix[:-1]
    conditioning = choice_partition(model, preds) if preds else None
    return _cut(cell, conditioning, model.info_of(prefix[-1]))


def _causality_cut(model: WModel, player: str, prefix: tuple[str, ...], cell: int) -> Optional[tuple[int, int, int]]:
    """Causality at one prefix: the cell, refined by the last agent's
    information, against the ground field of its predecessors."""
    return _cut(cell, model.info_of(prefix[-1]), causality_ground(model, player, prefix[:-1]))


def check_perfect_recall(
    model: WModel, player: str, phi: ConfigurationOrdering
) -> RecallReport:
    """Test every prefix cell against the last agent's information field.

    Only the prefixes that occur in ``phi`` are scanned.  For prefixes of
    length one the cell itself must belong to the field; for longer
    prefixes the cell is first intersected with each atom of the
    predecessors' choice field.  The first failure, in canonical prefix and
    atom order, is reported; what whole-space prefixes give is kept per
    model (:func:`first_failure`).
    """
    return _report(phi, first_failure(model, player, phi, 1, _recall_cut))


def check_partial_causality(
    model: WModel, player: str, phi: ConfigurationOrdering
) -> RecallReport:
    """Test every prefix cell, refined by the last agent's information,
    for membership in the ground field of Nature, opponents and
    predecessors' actions; what whole-space prefixes give is kept per
    model (:func:`first_failure`)."""
    return _report(phi, first_failure(model, player, phi, 1, _causality_cut))


# ── ordering search ─────────────────────────────────────────────────────


class NodeBudget:
    """Search nodes left; one object may be shared by several searches."""

    __slots__ = ("left", "spent")

    def __init__(self, nodes: int) -> None:
        if nodes <= 0:
            raise ValueError("budget must be positive")
        self.left = nodes
        self.spent = 0

    def spend(self) -> None:
        if self.left == 0:
            raise SearchBudgetExhausted(f"search budget of {self.spent} nodes spent")
        self.left -= 1
        self.spent += 1


def _iter_valid_orderings(
    model: WModel, player: str, mode: str, budget: NodeBudget
) -> Iterator[ConfigurationOrdering]:
    """Backtracking enumeration of orderings passing the ``mode`` checks.

    State is a worklist of (prefix, cell) pairs.  Extending a cell means
    partitioning it among the agents not yet in the prefix; a valid part
    for agent ``a`` is a union of blocks, each block being

      * in recall mode: an atom of I_a lying inside one atom of the
        predecessors' choice field (no containment condition for the first
        agent),
      * in causality mode: an atom of the ground field lying inside one
        atom of I_a, and
      * in "both" mode (recall and causality): a recall block that is a
        union of ground atoms, as a part made of I_a atoms meets each I_a
        atom whole or not at all,

    which is exactly the membership the corresponding checks enforce, so a
    completed assignment is a passing ordering and every passing ordering
    arises from some branch.  Blocks are claimed lowest configuration
    first with agents tried in declared order, so a cell's splits come out
    in the lexicographic order of their configuration-to-agent map, whatever
    the block size; hence "both" mode yields its orderings in the order the
    causality sweep meets them.  Claims and cells wait on explicit stacks,
    not calls.  The ids of the blocks an agent may claim after a prefix
    come from :func:`atoms_inside` (read off coordinate sets between
    cylinders, else counted over atom-id columns) when the agent is first
    tried there, once per (prefix, agent), so a claim tests one id and
    reads one block mask.
    """
    agents = model.agents_of(player)
    spend = budget.spend
    claimable: dict[tuple[str, ...], list] = {}  # prefix -> per agent outside it, once tried: row below

    def row(prefix: tuple[str, ...], a: str) -> tuple:
        """Masks and ids of the blocks ``a`` may take after ``prefix``, and the ids it may claim."""
        info = model.info_of(a)
        ground = causality_ground(model, player, prefix) if mode != "recall" else None
        if mode == "causality":
            return ground.atoms, ground.atom_ids, atoms_inside(ground, info)
        ok = atoms_inside(info, choice_partition(model, prefix))
        if mode == "both":  # less the I_a atoms that a ground atom crosses: all of them when every one does
            inside = atoms_inside(ground, info)
            if not inside:
                ok = set()
            elif len(inside) < len(ground):
                crossing = set(ground.atom_ids).difference(inside)
                ok -= set(compress(info.atom_ids, map(crossing.__contains__, ground.atom_ids)))
        return info.atoms, info.atom_ids, ok

    def splits(prefix: tuple[str, ...], cell: int) -> Iterator[list]:
        """Splits of ``cell`` among the agents outside ``prefix``, as (child, part) pairs."""
        remaining = [a for a in agents if a not in prefix]
        units = claimable.setdefault(prefix, [None] * len(remaining))
        acc = [0] * len(remaining)
        claims: list[tuple[int, int, int]] = []  # (unassigned before, agent, block)
        unassigned, j = cell, 0
        while True:
            if unassigned:
                h = (unassigned & -unassigned).bit_length() - 1
                for j in range(j, len(units)):
                    spend()
                    if units[j] is None:
                        units[j] = row(prefix, remaining[j])
                    atoms, atom_ids, ok = units[j]
                    unit = atoms[atom_ids[h]]
                    if atom_ids[h] in ok and not unit & ~unassigned:
                        break
                else:
                    unit = 0  # no agent can claim h's block
                if unit:
                    acc[j] |= unit
                    claims.append((unassigned, j, unit))
                    unassigned, j = unassigned & ~unit, 0
                    continue
            else:
                yield [(prefix + (a,), part) for a, part in zip(remaining, acc) if part]
            if not claims:
                return
            unassigned, j, unit = claims.pop()
            acc[j] &= ~unit
            j += 1

    queue, leaves = [((), model.space.full_mask)], []  # cells to split, cells of full chains
    stack = [(splits(*queue[0]), 1, 0)]  # per cell: its splits, queue and leaf counts before them
    while stack:
        parts, queued, left = stack[-1]
        del queue[queued:], leaves[left:]
        children = next(parts, None)
        if children is None:
            stack.pop()
            continue
        (queue if len(children[0][0]) < len(agents) else leaves).extend(children)
        if len(stack) < len(queue):
            stack.append((splits(*queue[len(stack)]), len(queue), len(leaves)))
        else:
            yield ConfigurationOrdering(player, tuple((Ordering(player, c), m) for c, m in leaves))


class OrderingSearch(Record):
    """Outcome of an ordering search: found / none / unknown plus cost."""

    __slots__ = ("outcome", "ordering", "nodes")
    outcome: str
    ordering: Optional[ConfigurationOrdering]
    nodes: int

    def __post_init__(self) -> None:
        if self.outcome not in ("found", "none", "unknown"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if (self.outcome == "found") != (self.ordering is not None):
            raise ValueError("ordering present iff outcome is 'found'")


def search_recall_ordering(
    model: WModel, player: str, budget: int = 200_000
) -> OrderingSearch:
    """Find a configuration-ordering with perfect recall, or prove none exists.

    Constant orderings are tried first, then the general backtracking; a
    full sweep without a hit proves nonexistence.  Running out of budget
    yields the distinguished "unknown" outcome, never "none".
    """
    b = NodeBudget(budget)
    try:
        for sequence in permutations(model.agents_of(player)):
            b.spend()
            phi = constant_ordering(model, player, sequence)
            if check_perfect_recall(model, player, phi).holds:
                return OrderingSearch("found", phi, b.spent)
        for phi in _iter_valid_orderings(model, player, "recall", b):
            return OrderingSearch("found", phi, b.spent)
        return OrderingSearch("none", None, b.spent)
    except SearchBudgetExhausted:
        return OrderingSearch("unknown", None, b.spent)


def iter_causal_orderings(
    model: WModel, player: str, budget: int | NodeBudget = 200_000, recall: bool = False
) -> Iterator[ConfigurationOrdering]:
    """All partially causal configuration-orderings, canonically ordered;
    with ``recall``, only those that also have perfect recall.

    ``budget`` is a node count or a :class:`NodeBudget` that searches share.
    Raises SearchBudgetExhausted if it runs out mid-sweep.
    """
    b = budget if isinstance(budget, NodeBudget) else NodeBudget(budget)
    yield from _iter_valid_orderings(model, player, "both" if recall else "causality", b)
