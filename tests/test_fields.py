"""Configuration spaces and finite partition fields."""

from collections import Counter
from itertools import chain, combinations, permutations
from random import Random

import pytest

from wgames import (
    Configuration,
    ConfigurationSpace,
    CoordinateSet,
    FiniteSet,
    Partition,
    SpaceMismatch,
    SpaceTooLarge,
    WModel,
    atom_of,
    build_space,
    complete_partition,
    cylinder_partition,
    iter_bits,
    partition_from_key,
    partition_join,
    partition_refines,
    sequential_model,
    subset_in_field,
    trace_partition,
    trivial_partition,
)
import wgames.fields as fields
from wgames.fields import atoms_inside, cylinder_refines, first_cut, mask_of, partition_from_labels
from wgames.recall import _cut, causality_ground, choice_partition

from generators import to_oracle
import oracles


def two_agent_space():
    nature = FiniteSet("nature", ("w0", "w1"))
    return ConfigurationSpace(
        nature=nature,
        agents=("x", "y"),
        actions=(FiniteSet("x", ("0", "1")), FiniteSet("y", ("L", "M", "R"))),
    )


def test_finite_set_rejects_duplicates():
    with pytest.raises(ValueError):
        FiniteSet("s", ("a", "a"))
    with pytest.raises(ValueError):
        FiniteSet("s", ())


def test_canonical_index_order():
    space = two_agent_space()
    assert space.size == 2 * 2 * 3
    # nature most significant, last agent fastest
    assert space.config(0).as_dict() == {"nature": "w0", "x": "0", "y": "L"}
    assert space.config(1).as_dict() == {"nature": "w0", "x": "0", "y": "M"}
    assert space.config(3).as_dict() == {"nature": "w0", "x": "1", "y": "L"}
    assert space.config(6).as_dict() == {"nature": "w1", "x": "0", "y": "L"}
    assert space.config(11).as_dict() == {"nature": "w1", "x": "1", "y": "R"}


def test_index_roundtrip():
    space = two_agent_space()
    for i in range(space.size):
        h = space.config(i)
        assert h.index == i
        assert space.index_of(h.nature, {a: h.action(a) for a in space.agents}) == i


def test_partition_canonical_atom_order():
    space = two_agent_space()
    p = Partition(space, (0b111111000000, 0b000000111111))
    assert p.atoms[0] == 0b000000111111
    assert p.atom_index(0) == 0
    assert p.atom_index(6) == 1


def test_partition_rejects_bad_atoms():
    space = two_agent_space()
    with pytest.raises(ValueError):
        Partition(space, (0b11, 0b10, space.full_mask & ~0b11))  # overlap
    with pytest.raises(ValueError):
        Partition(space, (0b11,))  # does not cover
    with pytest.raises(ValueError):
        Partition(space, (0b11, 0, space.full_mask & ~0b11))  # empty atom
    past = 1 << space.size  # bits at or past the end of the space
    for atoms, support in (
        ((space.full_mask | past,), -1),
        ((past,), past),
        ((1, past << 5), 1 | past << 5),
        ((space.full_mask,), space.full_mask | past),
        ((-1,), 1),
    ):
        with pytest.raises(ValueError):
            Partition(space, atoms, support)


def test_cylinder_partition_matches_oracle():
    from wgames import corpus_model

    for name in ("alice-bob-nature", "stackelberg", "witsenhausen-noncausal"):
        model = corpus_model(name)
        oracle = to_oracle(model)
        space = model.space
        for with_nature in (False, True):
            for agents in ([], [space.agents[0]], list(space.agents)):
                mine = cylinder_partition(
                    space, CoordinateSet.of(with_nature, agents)
                )
                ref = oracles.cylinder_atoms(oracle, with_nature, agents)
                converted = {
                    frozenset(
                        oracles.space(oracle)[i]
                        for i in range(space.size)
                        if (atom >> i) & 1
                    )
                    for atom in mine.atoms
                }
                assert converted == set(ref)


def test_refinement_and_join():
    space = two_agent_space()
    everything = trivial_partition(space)
    points = complete_partition(space)
    see_x = cylinder_partition(space, CoordinateSet.of(False, ["x"]))
    see_xy = cylinder_partition(space, CoordinateSet.of(False, ["x", "y"]))

    assert partition_refines(points, everything)
    assert partition_refines(see_xy, see_x)
    assert not partition_refines(see_x, see_xy)
    assert partition_join(see_x, see_x) == see_x
    assert partition_join(everything, see_x) == see_x

    see_y = cylinder_partition(space, CoordinateSet.of(False, ["y"]))
    assert partition_join(see_x, see_y) == see_xy


def test_join_rejects_foreign_spaces():
    with pytest.raises(SpaceMismatch):
        partition_join(
            trivial_partition(two_agent_space()),
            trivial_partition(
                ConfigurationSpace(
                    nature=FiniteSet("nature", ("*",)),
                    agents=("z",),
                    actions=(FiniteSet("z", ("0", "1")),),
                )
            ),
        )


def test_trace_partition():
    space = two_agent_space()
    points = complete_partition(space)
    traced = trace_partition(points, 0b1010)
    assert traced.support == 0b1010
    assert traced.atoms == (0b10, 0b1000)
    with pytest.raises(ValueError):
        trace_partition(points, 0)
    for outside in (0b1011, 1 << space.size, -1):  # not inside the support
        with pytest.raises(ValueError):
            trace_partition(traced, outside)
    with pytest.raises(ValueError):
        traced.atom_index(0)  # outside the support


def test_subset_membership():
    space = two_agent_space()
    see_x = cylinder_partition(space, CoordinateSet.of(False, ["x"]))
    atom = see_x.atoms[0]
    assert subset_in_field(0, see_x)
    assert subset_in_field(atom, see_x)
    assert subset_in_field(space.full_mask, see_x)
    assert not subset_in_field(atom | 1 << (space.size - 1), see_x) or (
        (atom >> (space.size - 1)) & 1
    )
    assert not subset_in_field(atom & ~1, see_x)


def test_atom_of_checks_space():
    space = two_agent_space()
    p = trivial_partition(space)
    h = space.config(0)
    assert atom_of(p, h) == 0
    other = ConfigurationSpace(
        nature=FiniteSet("nature", ("*",)),
        agents=("z",),
        actions=(FiniteSet("z", ("0", "1")),),
    )
    with pytest.raises(SpaceMismatch):
        atom_of(p, other.config(0))


def test_partition_from_key_groups_classes():
    space = two_agent_space()
    p = partition_from_key(space, lambda i: i % 3)
    assert len(p) == 3
    assert sorted(a.bit_count() for a in p.atoms) == [4, 4, 4]


def test_build_space_enforces_the_cap():
    nature = FiniteSet("nature", ("*",))
    agents = [(f"a{i}", FiniteSet(f"a{i}", ("0", "1"))) for i in range(24)]
    with pytest.raises(SpaceTooLarge):
        build_space(nature, agents)
    assert build_space(nature, agents[:3]).size == 8


def test_sequential_model_past_the_cap_is_refused_before_building():
    for steps in (23, 10**8, 10**30):  # 2^(steps+1) configurations
        with pytest.raises(SpaceTooLarge, match="more than 10000000 elements"):
            sequential_model(steps)


def _naive_bits(mask):
    octets = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + j for k, octet in enumerate(octets) for j in range(8) if octet >> j & 1]


def test_iter_bits_matches_a_naive_bit_loop():
    rng = Random(7)
    masks = [0, 1, 1 << 100_000, (1 << 100_000) - 1]
    for _ in range(12):
        width = rng.randint(1, 1 << 17)
        mask = rng.getrandbits(width)
        for _ in range(rng.randrange(4)):  # thin out to densities 1/2 .. 1/16
            mask &= rng.getrandbits(width)
        masks += [mask, (1 << width) - 1]
    for mask in masks:
        bits = list(iter_bits(mask))
        assert bits == _naive_bits(mask)
        assert mask_of(bits) == mask


def wide_space():
    """120 configurations: wider than one machine word."""
    return ConfigurationSpace(
        nature=FiniteSet("nature", ("w0", "w1", "w2")),
        agents=("x", "y", "z"),
        actions=(
            FiniteSet("x", ("0", "1")),
            FiniteSet("y", ("a", "b", "c", "d")),
            FiniteSet("z", ("p", "q", "r", "s", "t")),
        ),
    )


def _atom_sets(p):
    return [frozenset(i for i in range(p.space.size) if atom >> i & 1) for atom in p.atoms]


def test_label_builders_match_set_oracles_on_wide_and_traced_spaces():
    space = wide_space()
    rng = Random(11)
    for trial in range(40):
        support = space.full_mask if trial % 2 == 0 else rng.getrandbits(space.size) | 1
        members = [i for i in range(space.size) if support >> i & 1]
        fine = {i: rng.randrange(1 + trial % 9) for i in members}
        coarse = {i: fine[i] % (1 + trial % 3) for i in members}  # fine refines it
        other = {i: rng.randrange(1 + trial % 5) for i in members}
        parts = []
        for key in (fine, coarse, other):
            p = partition_from_key(space, key.__getitem__, support)
            assert p.support == support
            assert set(_atom_sets(p)) == set(oracles.group_by(members, key.__getitem__))
            checked = Partition(space, p.atoms, support)
            assert p == checked and p.atom_ids == checked.atom_ids
            assert all(p.atom_ids[i] == -1 for i in range(space.size) if i not in fine)
            parts.append(p)
        see_y = cylinder_partition(space, CoordinateSet.of(True, ["y"]))
        parts.append(trace_partition(see_y, support))
        for p in parts:
            for q in parts:
                p_sets, q_sets = _atom_sets(p), _atom_sets(q)
                joined = partition_join(p, q)
                def both(i):
                    return oracles.atom_containing(p_sets, i), oracles.atom_containing(q_sets, i)

                oracle_join = oracles.group_by(members, both)
                assert set(_atom_sets(joined)) == set(oracle_join)
                assert joined == Partition(space, joined.atoms, support)
                assert partition_refines(p, q) == all(oracles.in_field(c, p_sets) for c in q_sets)
        assert partition_refines(parts[0], parts[1])
        _check_cuts_against_oracle(rng, space, members, parts)


def _check_cuts_against_oracle(rng, space, members, parts):
    """``subset_in_field``, ``first_cut`` and ``recall._cut`` agree with
    the set oracle on random subsets of the support."""
    subsets = [0, mask_of(members)]
    for _ in range(6):
        subsets.append(mask_of(rng.sample(members, rng.randint(1, len(members)))))
    for p in parts:
        p_sets = _atom_sets(p)
        subsets.append(p.atoms[0] | p.atoms[-1])  # unions of atoms are in the field
        for s in subsets:
            s_set = frozenset(i for i in members if s >> i & 1)
            assert subset_in_field(s, p) == oracles.in_field(s_set, p_sets)
            for q in parts:
                expected = next(
                    (
                        (b, a)
                        for b, block in enumerate(_atom_sets(q))
                        for a, atom in enumerate(p_sets)
                        if not oracles.in_field(s_set & block, [atom])
                    ),
                    None,
                )
                assert first_cut(s, p, q) == expected
                cut = _cut(s, q, p)
                if expected is None:
                    assert cut is None
                else:
                    b, a = expected
                    assert cut == (q.atoms[b], s & q.atoms[b], p.atoms[a])
        outside = space.full_mask & ~p.support
        if outside:
            with pytest.raises(ValueError):
                subset_in_field(outside, p)


def _label_atoms(labels, members):
    """Atoms of ``labels`` on ``members`` as sets, by lowest member: the
    canonical order, worked out without the partition's column."""
    groups = {}
    for i in members:
        groups.setdefault(labels[i], set()).add(i)
    return sorted(groups.values(), key=min)


def _reference_first_cut(s_set, atoms, blocks):
    """Least (block id, atom id) whose piece of ``s_set`` holds some but
    not all of the atom; ``s_set`` is one block when ``blocks`` is None."""
    for b, block in enumerate([s_set] if blocks is None else blocks):
        piece = s_set & block
        for a, atom in enumerate(atoms):
            if 0 < len(piece & atom) < len(atom):
                return b, a
    return None


def test_first_cut_matches_a_set_reference_on_random_columns():
    """``first_cut``, ``subset_in_field`` and ``atoms_inside`` against
    brute-force sets, on random label columns over full and traced supports,
    for the empty subset, the whole support and random subsets, with and
    without blocks."""
    rng = Random(18)
    seen, sizes = Counter(), set()
    for trial in range(120):
        space = random_space(rng, max_agents=4, max_actions=5, max_states=4, max_size=600)
        sizes.add(space.size)
        full = trial % 2 == 0
        support = space.full_mask if full else rng.getrandbits(space.size) | 1
        members = [i for i in range(space.size) if support >> i & 1]
        columns = [[rng.randrange(1 + rng.randrange(12)) for _ in range(space.size)] for _ in range(2)]
        p, q = (partition_from_labels(space, labels, support) for labels in columns)
        p_atoms, q_atoms = (_label_atoms(labels, members) for labels in columns)
        assert atoms_inside(p, q) == {a for a, atom in enumerate(p_atoms) if any(atom <= b for b in q_atoms)}
        subsets = [0, support] + [mask_of(rng.sample(members, rng.randint(1, len(members)))) for _ in range(4)]
        for s in subsets:
            s_set = {i for i in members if s >> i & 1}
            for blocks, block_sets in ((None, None), (q, q_atoms)):
                want = _reference_first_cut(s_set, p_atoms, block_sets)
                assert first_cut(s, p, blocks) == want
                seen[full, s == support, blocks is None, want is None] += 1
            assert subset_in_field(s, p) == (_reference_first_cut(s_set, p_atoms, None) is None)
        if support != space.full_mask:
            with pytest.raises(ValueError):
                first_cut(space.full_mask, p, q)
    # every branch of the test was reached: both support kinds, whole and
    # partial subsets, with and without blocks, cuts found and not
    assert len(seen) == 14, seen  # with no blocks the whole support never cuts
    assert min(sizes) <= 3 and max(sizes) >= 400, sorted(sizes)


def _assert_same_partition(built, reference):
    assert built.atoms == reference.atoms
    assert built.atom_ids == reference.atom_ids
    assert built.sizes == reference.sizes
    assert built.support == reference.support


def random_space(rng, max_agents=5, max_actions=3, max_states=3, max_size=None):
    """1–``max_states`` Nature states, 1–``max_agents`` agents with
    1–``max_actions`` actions each; with ``max_size``, redrawn until the
    space has 2 to ``max_size`` configurations."""
    while True:
        nature = FiniteSet("nature", tuple(f"w{k}" for k in range(rng.randint(1, max_states))))
        agents = tuple(f"a{k}" for k in range(rng.randint(1, max_agents)))
        actions = tuple(FiniteSet(a, tuple("LMRST"[: rng.randint(1, max_actions)])) for a in agents)
        space = ConfigurationSpace(nature=nature, agents=agents, actions=actions)
        if max_size is None or 2 <= space.size <= max_size:
            return space


def test_digit_columns_read_like_digits():
    rng = Random(3)
    for _ in range(20):
        space = random_space(rng)
        for c in range(len(space.sizes)):
            assert space.column(c) == [space.digit(i, c) for i in range(space.size)]


def test_arithmetic_partitions_match_key_groupings():
    """Cylinders, choice fields and joins built from label columns equal
    the partitions grouped by a key call per configuration.  A second model
    per draw has cylinder information: its choice fields and grounds, taken
    from its table of cylinders, equal the key groupings, and its choice
    fields equal the folds of a twin whose information is given by labels."""
    rng = Random(16)
    for _ in range(40):
        space = random_space(rng)
        agents = space.agents
        info = []
        for a in agents:
            k = rng.randint(1, 4)
            labels = [rng.randrange(k) for _ in range(space.size)]
            info.append((a, partition_from_key(space, labels.__getitem__)))
        model = WModel(
            nature=space.nature,
            agents=tuple(zip(agents, space.actions)),
            players=(("P", agents),),
            information=tuple(info),
        )
        subsets = list(chain.from_iterable(combinations(agents, k) for k in range(len(agents) + 1)))
        for chosen in subsets:
            for nature in (False, True):
                coords = [0] * nature + [space.agent_pos(a) + 1 for a in chosen]
                reference = partition_from_key(space, lambda i: tuple(space.digit(i, c) for c in coords))
                _assert_same_partition(cylinder_partition(space, CoordinateSet.of(nature, chosen)), reference)
            records = model.choice_records(chosen, range(space.size))
            _assert_same_partition(
                choice_partition(model, chosen), partition_from_key(space, records.__getitem__)
            )
        _check_cylinder_model(rng, space, subsets)
        support = rng.getrandbits(space.size) | 1
        parts = [p for _, p in info] + [cylinder_partition(space, CoordinateSet.of(True, agents[:1]))]
        for p in parts:
            for q in parts:
                for s in (space.full_mask, support):
                    p_s, q_s = trace_partition(p, s), trace_partition(q, s)
                    pair = partition_from_key(space, lambda i: (p_s.atom_ids[i], q_s.atom_ids[i]), s)
                    _assert_same_partition(partition_join(p_s, q_s), pair)


def _check_cylinder_model(rng, space, subsets):
    agents = space.agents
    cut = rng.randint(1, len(agents))
    players = (("P", agents[:cut]),) + ((("O", agents[cut:]),) if cut < len(agents) else ())
    gens = [CoordinateSet.of(rng.random() < 0.5, [b for b in agents if rng.random() < 0.5]) for _ in agents]
    cylinders = [cylinder_partition(space, g) for g in gens]
    assert [p.generators for p in cylinders] == gens

    def with_information(parts):
        return WModel(
            nature=space.nature,
            agents=tuple(zip(agents, space.actions)),
            players=players,
            information=tuple(zip(agents, parts)),
        )

    model = with_information(cylinders)
    twin = with_information([partition_from_labels(space, p.atom_ids) for p in cylinders])
    assert twin == model and all(p.generators is None for _, p in twin.information)
    for chosen in subsets:
        records = model.choice_records(chosen, range(space.size))
        built = choice_partition(model, chosen)
        assert built.generators is not None
        _assert_same_partition(built, partition_from_key(space, records.__getitem__))
        _assert_same_partition(built, choice_partition(twin, chosen))
    for k in range(cut + 1):
        for prefix in permutations(agents[:cut], k):
            coords = [0, *sorted(space.agent_pos(a) + 1 for a in agents[cut:] + prefix)]
            reference = partition_from_key(space, lambda i: tuple(space.digit(i, c) for c in coords))
            _assert_same_partition(causality_ground(model, "P", prefix), reference)


def test_equal_spaces_and_partitions_built_apart_hash_equal():
    first, second = two_agent_space(), two_agent_space()
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(first.config(5)) == hash(second.config(5))
    see_x = CoordinateSet.of(False, ["x"])
    p, q = cylinder_partition(first, see_x), cylinder_partition(second, see_x)
    by_hand = Partition(second, p.atoms)
    for other in (q, by_hand):
        assert p is not other and p == other and hash(p) == hash(other)
    assert len({p, q, by_hand, trivial_partition(first)}) == 2


def _random_coords(rng, space):
    return CoordinateSet.of(rng.random() < 0.5, [a for a in space.agents if rng.random() < 0.5])


def test_cylinders_refine_exactly_when_the_missing_coordinates_have_radix_one():
    """The cylinder over A refines the cylinder over B iff every coordinate
    of B outside A, Nature included, has one value; the coordinate-set test
    agrees with counting on the same atoms given as labels."""
    rng = Random(24)
    seen = set()
    for _ in range(80):
        space = random_space(rng, max_agents=4)
        for _ in range(6):
            a, b = _random_coords(rng, space), _random_coords(rng, space)
            missing = [*(b.agents - a.agents)] + ["nature"] * (b.include_nature and not a.include_nature)
            expected = all(space.sizes[space.keys.index(c)] == 1 for c in missing)
            p, q = cylinder_partition(space, a), cylinder_partition(space, b)
            assert cylinder_refines(p, q) is expected
            assert partition_refines(p, q) is expected
            assert partition_refines(partition_from_labels(space, p.atom_ids), partition_from_labels(space, q.atom_ids)) is expected
            seen.add((expected, bool(missing)))
    assert seen == {(True, False), (True, True), (False, True)}  # radix-1 coordinates were met
    assert cylinder_refines(partition_from_labels(space, p.atom_ids), q) is None


def test_cylinder_cuts_and_blocks_match_counting_on_label_twins(monkeypatch):
    """``first_cut`` with and without blocks, ``atoms_inside`` and
    ``partition_refines`` give on cylinders what they give on the same
    partitions rebuilt from labels, which carry no generators; on a cell
    that is not the whole space the coordinate sets are not read."""
    reads = []

    def spy(fine, coarse):
        reads.append(True)
        return cylinder_refines(fine, coarse)

    monkeypatch.setattr(fields, "cylinder_refines", spy)
    rng = Random(2404)
    for _ in range(120):
        space = random_space(rng, max_agents=4, max_size=200)
        p, q = (cylinder_partition(space, _random_coords(rng, space)) for _ in range(2))
        p0, q0 = (partition_from_labels(space, x.atom_ids) for x in (p, q))
        assert atoms_inside(p, q) == atoms_inside(p0, q0)
        assert partition_refines(p, q) == partition_refines(p0, q0)
        assert first_cut(space.full_mask, p, q) == first_cut(space.full_mask, p0, q0)
        assert first_cut(space.full_mask, p) == first_cut(space.full_mask, p0) is None
        for s in {rng.getrandbits(space.size) & space.full_mask, space.full_mask >> 1} - {space.full_mask}:
            del reads[:]
            assert first_cut(s, p, q) == first_cut(s, p0, q0)
            assert first_cut(s, p) == first_cut(s, p0)
            assert first_cut(s, q, p) == first_cut(s, q0, p0)
            assert reads == []


def test_trivial_and_complete_partitions_are_cylinders():
    space = two_agent_space()
    assert trivial_partition(space).generators == CoordinateSet.of(False, ())
    assert complete_partition(space).generators == CoordinateSet.of(True, space.agents)
    assert complete_partition(space).atom_ids == tuple(range(space.size))
    from wgames import corpus_model

    for name in ("alice-bob-simultaneous", "alice-bob-ordered"):
        assert choice_partition(corpus_model(name), ("alice", "bob")).generators is not None


def test_atom_keeps_each_mask_it_builds_and_never_builds_atoms():
    """``atom`` keeps the mask it builds, equal to the mask ``atoms`` holds
    at that id, and a second call gives the same object; it never builds
    the ``atoms`` tuple, which some paths are pinned not to build."""
    rng = Random(28)
    for _ in range(40):
        space = random_space(rng, max_agents=3, max_actions=3, max_states=3, max_size=200)
        labels = [rng.randrange(5) for _ in range(space.size)]
        p, twin = partition_from_labels(space, labels), partition_from_labels(space, labels)
        for aid in rng.sample(range(len(p)), min(3, len(p))):
            mask = p.atom(aid)
            assert p.atom(aid) is mask
            assert mask == twin.atoms[aid]
        assert "_atoms" not in vars(p)
        assert p == twin and hash(p) == hash(twin)
