"""Finite configuration spaces and partition (sigma-field) algebra.

The hybrid space of a finite game in product form is the cartesian product
of one Nature axis and one action axis per agent.  Every subset of that
space is a bitmask over the canonical enumeration (Nature most
significant, then agents in declared order), and every sigma-field over it
is the partition of its atoms.  A partition is its atom-id column
(``Partition.atom_ids``) plus atom sizes: joins, refinement and cut tests
count label pairs over it in C, and an atom's bitmask is built only where
a mask is read.  Every partition is built by one grouping of a label
column (:func:`partition_from_labels`), and the columns come from index
arithmetic: a cylinder's label is the mixed-radix value of its chosen
digit columns (``ConfigurationSpace.column``), a join's the pair of atom
ids, a trace's the atom id.  Only keys given as functions
(:func:`partition_from_key`) label one configuration per call.
``ConfigurationSpace`` owns the index encoding: no other module turns an
index into digits or digits into an index.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, groupby, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .record import Record

DEFAULT_SPACE_CAP = 10**7


class SpaceMismatch(ValueError):
    """Raised when two values built over different spaces are combined."""


class SpaceTooLarge(ValueError):
    """Raised when a model's configuration space exceeds the size cap."""

    def __init__(self) -> None:
        super().__init__(f"configuration space has more than {DEFAULT_SPACE_CAP} elements")


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to 0/1 bytes
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending: ``compress`` over its
    binary digits as 0/1 bytes, with no Python step per bit."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


def mask_of(indices: Sequence[int]) -> int:
    """Bitmask of the configuration ``indices``, built in one pass."""
    octets = bytearray(max(indices, default=0) // 8 + 1)
    for i in indices:
        octets[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(octets, "little")


class FiniteSet(Record):
    """Named finite label set (Nature states or one agent's actions);
    ``digits`` maps each label to its position."""

    _fields = ("name", "labels")
    __slots__ = _fields + ("digits",)
    name: str
    labels: tuple[str, ...]
    digits: dict[str, int]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError(f"{self.name}: empty label set")
        digits = {label: d for d, label in enumerate(self.labels)}
        if len(digits) != len(self.labels):
            raise ValueError(f"{self.name}: duplicate labels")
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.digits[label]
        except (KeyError, TypeError):
            raise ValueError(f"{self.name}: unknown label {label!r}") from None


class ConfigurationSpace(Record):
    """Canonical enumeration of all configurations of a model.

    ``agents`` lists agent ids in declared order; ``actions[i]`` is the
    action FiniteSet of ``agents[i]``.  Configuration index 0 is the one
    with the first Nature state and every agent's first action; the last
    agent's action varies fastest.

    The space is the only owner of that mixed-radix encoding.  Coordinate
    0 is Nature and coordinate ``i + 1`` is ``agents[i]``; ``keys`` names
    the coordinates as the wire does ("nature", then agent ids),
    ``labels`` and ``digits`` encode and decode each coordinate's labels,
    and ``sizes`` and ``strides`` give its radix and place value.  The
    table holds nothing of length ``size``, so building a space is free
    even when the space is too large to analyse; a coordinate's digit at
    every index (``column``) is built on request.  The hash is kept.
    """

    _fields = ("nature", "agents", "actions")
    __slots__ = _fields + ("keys", "labels", "digits", "sizes", "strides", "size", "_pos", "_hash")
    nature: FiniteSet
    agents: tuple[str, ...]
    actions: tuple[FiniteSet, ...]
    keys: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    digits: tuple[dict[str, int], ...]
    sizes: tuple[int, ...]
    strides: tuple[int, ...]
    size: int

    def __post_init__(self) -> None:
        if len(self.agents) != len(self.actions):
            raise ValueError("agents and action sets must align")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")
        sets = (self.nature, *self.actions)
        labels = tuple(s.labels for s in sets)
        strides = [1] * len(labels)
        for i in range(len(labels) - 1, 0, -1):
            strides[i - 1] = strides[i] * len(labels[i])
        set_ = object.__setattr__
        set_(self, "keys", ("nature", *self.agents))
        set_(self, "labels", labels)
        set_(self, "digits", tuple(s.digits for s in sets))
        set_(self, "sizes", tuple(len(ls) for ls in labels))
        set_(self, "strides", tuple(strides))
        set_(self, "size", strides[0] * len(labels[0]))
        set_(self, "_pos", {a: i for i, a in enumerate(self.agents)})
        set_(self, "_hash", hash((self.nature, self.agents, self.actions)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def agent_pos(self, agent: str) -> int:
        try:
            return self._pos[agent]
        except KeyError:
            raise ValueError(f"unknown agent {agent!r}") from None

    def actions_of(self, agent: str) -> FiniteSet:
        return self.actions[self.agent_pos(agent)]

    # ── index arithmetic ────────────────────────────────────────────────

    def index_of(self, nature_label: str, actions: Mapping[str, str]) -> int:
        idx = self.nature.index(nature_label) * self.strides[0]
        for i, agent in enumerate(self.agents):
            idx += self.actions[i].index(actions[agent]) * self.strides[i + 1]
        return idx

    def digit(self, index: int, coord: int) -> int:
        """Digit of coordinate ``coord`` (0 = Nature) of a configuration."""
        return index // self.strides[coord] % self.sizes[coord]

    def column(self, coord: int) -> list[int]:
        """Digit of coordinate ``coord`` at every index, ascending: one
        period of ``stride`` copies of each digit, repeated."""
        stride, radix = self.strides[coord], self.sizes[coord]
        period = list(chain.from_iterable([d] * stride for d in range(radix)))
        return period * (self.size // len(period))

    def coordinates(self, index: int) -> tuple[int, ...]:
        """Digit vector (nature index, action index per agent)."""
        return tuple(index // s % n for s, n in zip(self.strides, self.sizes))

    def cylinder_mask(self, coord: int, digit: int) -> int:
        """Bitmask of the configurations whose coordinate ``coord`` is ``digit``."""
        stride, size = self.strides[coord], self.sizes[coord]
        # one period of the pattern, most significant bit first
        period = "0" * (stride * (size - digit - 1)) + "1" * stride + "0" * (stride * digit)
        return int(period * (self.size // (stride * size)), 2)

    def config(self, index: int) -> "Configuration":
        if not 0 <= index < self.size:
            raise ValueError(f"configuration index {index} out of range")
        return Configuration(self, index)

    def configs(self) -> Iterator["Configuration"]:
        for i in range(self.size):
            yield Configuration(self, i)


class Configuration(Record):
    """One Nature state plus one action per agent, by canonical index."""

    __slots__ = ("space", "index")
    space: ConfigurationSpace
    index: int

    @property
    def nature(self) -> str:
        return self.space.labels[0][self.space.digit(self.index, 0)]

    def action(self, agent: str) -> str:
        coord = self.space.agent_pos(agent) + 1
        return self.space.labels[coord][self.space.digit(self.index, coord)]

    def as_dict(self) -> dict[str, str]:
        """Coordinate labels keyed by "nature" and agent id, declared order."""
        space = self.space
        digits = space.coordinates(self.index)
        return {k: ls[d] for k, ls, d in zip(space.keys, space.labels, digits)}

    def __repr__(self) -> str:
        vals = self.as_dict()
        inner = ",".join(f"{k}={v}" for k, v in vals.items())
        return f"Configuration({inner})"


class CoordinateSet(Record):
    """A choice of coordinates: optionally Nature, plus a set of agents."""

    __slots__ = ("include_nature", "agents")
    include_nature: bool
    agents: frozenset[str]

    @staticmethod
    def of(include_nature: bool, agents: Iterable[str]) -> "CoordinateSet":
        return CoordinateSet(include_nature, frozenset(agents))


class Partition:
    """Atoms of a finite sigma-field over (a subset of) the space.

    The partition is its column: ``atom_ids`` labels each configuration
    with its atom's position in canonical order (ascending lowest index;
    -1 off ``support``, the full space unless the partition is a trace),
    and ``sizes`` counts each atom.  Masks are built on demand: ``atom``
    builds one, ``atoms`` all of them on first read, then kept.  Ids number
    atoms by first occurrence, so (space, atom ids, support) is canonical:
    equality and the kept hash read it.  Partitions are immutable.

    The constructor checks atom masks given by hand: it labels each
    configuration with its given atom, rejects empty, overlapping or
    non-covering atoms, and regroups through :func:`partition_from_labels`,
    which builds every other partition from a label column directly.
    """

    space: ConfigurationSpace
    atom_ids: tuple[int, ...]
    sizes: tuple[int, ...]
    support: int

    def __init__(self, space: ConfigurationSpace, atoms: Sequence[int], support: int = -1) -> None:
        size = space.size
        support = space.full_mask if support == -1 else support
        labels = [-1] * size
        for aid, atom in enumerate(atoms):
            if atom == 0:
                raise ValueError("empty atom")
            if atom < 0 or atom.bit_length() > size:
                raise ValueError("atoms do not cover the support")
            for i in iter_bits(atom):
                if labels[i] >= 0:
                    raise ValueError("atoms overlap")
                labels[i] = aid
        if mask_of([i for i, aid in enumerate(labels) if aid >= 0]) != support:
            raise ValueError("atoms do not cover the support")
        self.__dict__.update(partition_from_labels(space, labels, support).__dict__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("partitions are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.space, self.support, self.atom_ids) == (other.space, other.support, other.atom_ids)

    def __hash__(self) -> int:  # kept: the column is as long as the space
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.space, self.atom_ids, self.support))
        return self.__dict__["_hash"]

    def __repr__(self) -> str:
        return f"Partition(atom_ids={self.atom_ids!r}, support={self.support:#x})"

    @property
    def atoms(self) -> tuple[int, ...]:
        """Bitmask of every atom, in atom order: one sort of the support by
        atom id, on first read."""
        if "_atoms" not in self.__dict__:
            ids = self.atom_ids
            order = sorted(iter_bits(self.support), key=ids.__getitem__)
            self.__dict__["_atoms"] = tuple(mask_of(list(run)) for _, run in groupby(order, ids.__getitem__))
        return self.__dict__["_atoms"]

    def atom(self, aid: int) -> int:
        """Bitmask of one atom, from ``atoms`` once built, else from one
        pass over the column."""
        if "_atoms" in self.__dict__:
            return self.__dict__["_atoms"][aid]
        return int(bytes(map(aid.__eq__, reversed(self.atom_ids))).translate(_DIGITS), 2)

    def atom_index(self, config_index: int) -> int:
        aid = self.atom_ids[config_index]
        if aid < 0:
            raise ValueError("configuration outside the partition support")
        return aid

    def __len__(self) -> int:
        return len(self.sizes)


def first_seen(labels: Sequence) -> list[int]:
    """``labels`` renumbered 0, 1, ... in order of first occurrence; over
    ascending configurations that is the canonical atom order."""
    rank = dict(zip(dict.fromkeys(labels), count()))
    return list(map(rank.__getitem__, labels))


def partition_from_labels(
    space: ConfigurationSpace, labels: Sequence, support: int = -1
) -> Partition:
    """Group the configurations of ``support`` with equal labels into
    atoms.  ``labels`` holds one label per configuration index; those off
    the support are not read.  Atom ids are the labels renumbered by first
    occurrence, and the atom sizes are counted off the ids in that order;
    no atom mask is built."""
    if support == -1 or support == space.full_mask:
        support = space.full_mask
        index = ids = first_seen(labels)
    else:
        members = list(iter_bits(support))
        ids = first_seen(list(map(labels.__getitem__, members)))
        index = [-1] * space.size
        for i, aid in zip(members, ids):
            index[i] = aid
    part = object.__new__(Partition)
    # a Counter keeps first-occurrence order, which is atom id order
    part.__dict__.update(space=space, atom_ids=tuple(index), sizes=tuple(Counter(ids).values()), support=support)
    return part


def partition_from_key(
    space: ConfigurationSpace, key: Callable[[int], object], support: int = -1
) -> Partition:
    """Group configurations with equal ``key`` into atoms, in canonical
    order; ``key`` is called once per configuration of the support."""
    labels: list[object] = [None] * space.size
    for i in iter_bits(space.full_mask if support == -1 else support):
        labels[i] = key(i)
    return partition_from_labels(space, labels, support)


def trivial_partition(space: ConfigurationSpace) -> Partition:
    return partition_from_labels(space, [0] * space.size)


def complete_partition(space: ConfigurationSpace) -> Partition:
    return partition_from_labels(space, range(space.size))


# ── operations ──────────────────────────────────────────────────────────


def build_space(
    nature: FiniteSet, agents: Sequence[tuple[str, FiniteSet]]
) -> ConfigurationSpace:
    """Canonical space of Nature and (agent id, action set) pairs, guarded
    by the size cap ``DEFAULT_SPACE_CAP``."""
    space = ConfigurationSpace(
        nature=nature,
        agents=tuple(a for a, _ in agents),
        actions=tuple(acts for _, acts in agents),
    )
    if space.size > DEFAULT_SPACE_CAP:
        raise SpaceTooLarge()
    return space


def cylinder_partition(space: ConfigurationSpace, coords: CoordinateSet) -> Partition:
    """Field generated by the chosen coordinates.

    Two configurations share an atom iff they agree on Nature (when
    included) and on every listed agent's action.  Empty coordinates give
    the trivial partition.
    """
    chosen = sorted(space.agent_pos(a) + 1 for a in coords.agents)
    if coords.include_nature:
        chosen.insert(0, 0)
    # mixed-radix values, Nature most significant, are in canonical order
    labels = [0] * space.size
    for c in chosen:
        radix = space.sizes[c]
        labels = [label * radix + d for label, d in zip(labels, space.column(c))]
    return partition_from_labels(space, labels)


def _require_same_space(p: Partition, q: Partition) -> None:
    if p.space != q.space or p.support != q.support:
        raise SpaceMismatch("partitions live on different spaces")


def atoms_inside(p: Partition, q: Partition) -> set[int]:
    """Ids of the atoms of ``p`` that lie inside one atom of ``q``: the ``p``
    labels that pair with one ``q`` label, counted over one set of pairs."""
    _require_same_space(p, q)
    counts = Counter(map(itemgetter(0), set(zip(p.atom_ids, q.atom_ids))))
    return {aid for aid, n in counts.items() if n == 1 and aid >= 0}


def partition_refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every atom of ``fine`` lies inside one atom of ``coarse``."""
    return len(atoms_inside(fine, coarse)) == len(fine)


def partition_join(p: Partition, q: Partition) -> Partition:
    """Common refinement (the coarsest partition refining both)."""
    _require_same_space(p, q)
    return partition_from_labels(p.space, list(zip(p.atom_ids, q.atom_ids)), p.support)


def trace_partition(p: Partition, subset: int) -> Partition:
    """Trace of ``p`` on a nonempty subset of its support: atoms are
    atom-and-subset."""
    if subset == 0:
        raise ValueError("trace over the empty subset")
    if subset & ~p.support:
        raise ValueError("trace over a subset outside the partition support")
    return partition_from_labels(p.space, p.atom_ids, subset)


def atom_of(p: Partition, h: Configuration) -> int:
    """Id of the atom containing ``h``; equal ids mean same atom."""
    if h.space != p.space:
        raise SpaceMismatch("configuration from a different space")
    return p.atom_index(h.index)


def atom_id_columns(s: int, *parts: Partition) -> list[Sequence[int]]:
    """Atom ids of each partition at the members of ``s``, ascending."""
    if s == parts[0].space.full_mask:
        return [p.atom_ids for p in parts]
    members = list(iter_bits(s))
    return [list(map(p.atom_ids.__getitem__, members)) for p in parts]


def first_cut(
    s: int, p: Partition, blocks: Optional[Partition] = None
) -> Optional[tuple[int, int]]:
    """First (block id, atom id) whose piece of ``s`` cuts that atom of
    ``p`` properly, if any; ``s`` is one block when ``blocks`` is None.

    A piece cuts an atom properly iff it holds some but not all of the
    atom's configurations.  So the members of ``s`` are counted per
    (block id, atom id), and the least pair whose count falls short of its
    atom's size is the first cut.  When ``s`` is the whole support there is
    none iff each atom meets one block.  ``blocks`` must cover ``s``.
    """
    if s & ~p.support:
        raise ValueError("configuration outside the partition support")
    whole = s == p.support
    if blocks is None:
        if whole:
            return None
        (atom_ids,), block_ids = atom_id_columns(s, p), repeat(0)
    else:
        atom_ids, block_ids = atom_id_columns(s, p, blocks)
    if whole and len(set(zip(block_ids, atom_ids))) == len(p):
        return None
    counts, sizes = Counter(zip(block_ids, atom_ids)), p.sizes
    return min((pair for pair, n in counts.items() if n < sizes[pair[1]]), default=None)


def subset_in_field(s: int, p: Partition) -> bool:
    """Is the bitmask ``s`` a union of atoms of ``p``?  Empty sets pass."""
    return first_cut(s, p) is None
