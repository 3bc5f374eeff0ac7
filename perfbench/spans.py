"""Spans and counters around the public functions of each ``wgames`` layer.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each listed function with a wrapper in every ``wgames`` module
namespace that binds it (``kuhn`` imports ``closed_loop_solutions`` by
name, ``cli`` imports most analyses by name), so calls between layers are
seen wherever they start.  Per-configuration helpers (``iter_bits``,
``atom_of``, ``Configuration`` accessors, strategy masks, ``validate_pure``)
are left alone: a wrapper would cost more than the call it measures.

A span is (name, start, end, parent, tag); spans stay in memory and are
written out when the round ends.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter

LAYERS = {
    "fields": (
        "build_space", "partition_from_key", "trivial_partition",
        "complete_partition", "cylinder_partition", "partition_refines",
        "partition_join", "trace_partition", "subset_in_field",
    ),
    "playability": (
        "check_playability", "closed_loop_solutions", "solution_map",
        "partial_solution_map", "has_self_information",
    ),
    "recall": (
        "check_perfect_recall", "check_partial_causality",
        "search_recall_ordering", "iter_causal_orderings",
        "enumerate_orderings", "constant_ordering", "choice_partition",
        "causality_ground", "ordering_cell", "restrict_ordering",
    ),
    "strategies": (
        "behavioral_to_mixed", "enumerate_pure", "validate_mixed",
        "validate_behavioral", "restrict_profile", "deterministic_mixed",
        "constant_profile",
    ),
    "kuhn": (
        "pushforward", "kuhn_transform", "conditional_kernel",
        "behavioral_pushforward", "transform_preserves_law",
        "distributions_equal", "expected_utility", "validate_belief",
    ),
    "necessity": (
        "find_recall_violation", "build_witness", "certify_nonequivalence",
        "forced_support", "verify_certificate",
    ),
    "io": (
        "parse_model", "parse_strategy", "parse_belief", "parse_ordering",
        "parse_report", "serialize_model", "serialize_strategy",
        "serialize_belief", "serialize_ordering", "emit_report",
        "model_digest", "strategy_payload", "ordering_payload",
        "pushforward_payload", "certificate_payload",
        "field_violation_payload", "recall_violation_payload",
        "playability_witness_payload", "belief_payload",
    ),
}
# ``cli`` is timed around each ``wgames.cli.main`` invocation instead.


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.tag = ""
        self.counts: Counter = Counter()
        self.recall_calls: list = []

    # ── spans ───────────────────────────────────────────────────────────

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        nid = self._nid(name)
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (nid, start, end, parent, self.tag)

    def _wrap(self, name: str, fn, hook):
        call = self.call
        if inspect.isgeneratorfunction(fn):
            # time each resumption of the generator, not its creation
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = call(name, next, gen)
                        except StopIteration:
                            return
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded ``wgames`` module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wgames" or n.startswith("wgames.")]
        hooks = self._hooks()
        for layer, names in LAYERS.items():
            home = sys.modules[f"wgames.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hooks.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # ── counters computed from arguments and results ────────────────────

    def _hooks(self):
        """Counters fed by the wrapped calls; the callers in ``wgames`` pass
        these arguments positionally."""
        counts = self.counts

        def samples(nu, mixed):
            # (Nature state, plan combination) pairs: |supp nu| * prod |supp m|
            return math.prod((sum(1 for w in nu.weights if w != 0), *(len(m.support) for m in mixed)))

        def pushforward(args, result):
            counts["kuhn.samples"] += samples(args[1], args[2])

        def conditional(args, result):
            counts["kuhn.conditional_kernel_calls"] += 1
            counts["kuhn.samples"] += samples(args[4], args[5])

        def profiles(args, result):
            model = args[0]
            if result.playable:
                n = 1
                for agent, acts in model.agents:
                    n *= len(acts.labels) ** len(model.info_of(agent).atoms)
            else:
                n = _profile_rank(model, result.witness.profile) + 1
            counts["playability.profiles"] += n

        def search(args, result):
            counts["recall.search_nodes"] += result.nodes

        def plans(args, result):
            counts["strategies.mixed_plans"] += len(result.support)

        def report(args, result):
            counts["io.report_bytes"] += len(result.encode("utf-8"))

        def recall_check(start_len):
            def hook(args, result):
                model, player, phi = args[0], args[1], args[2]
                if start_len == 1:
                    stop = None if result.holds else result.violation.kappa.sequence
                else:
                    stop = None if result is None else result.ordering.sequence
                # kept by reference; the prefixes are counted after the round
                self.recall_calls.append((model.agents_of(player), phi, stop, start_len))

            return hook

        return {
            "pushforward": pushforward,
            "conditional_kernel": conditional,
            "check_playability": profiles,
            "search_recall_ordering": search,
            "behavioral_to_mixed": plans,
            "emit_report": report,
            "check_perfect_recall": recall_check(1),
            "check_partial_causality": recall_check(1),
            "find_recall_violation": recall_check(2),
        }

    # ── summary ─────────────────────────────────────────────────────────

    def summary(self) -> dict:
        """Self time per layer (and per layer and tag), span and call counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (nid, start, end, parent, tag) in enumerate(spans):
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            own = end - start - child[i]
            self_s[layer] += own
            if tag:
                self_s[f"{layer}@{tag}"] += own
            calls[name] += 1
        counts = Counter(self.counts)
        counts["fields.cylinder_partition_calls"] = calls["fields.cylinder_partition"]
        counts["fields.partition_join_calls"] = calls["fields.partition_join"]
        counts["playability.solves"] = calls["playability.closed_loop_solutions"]
        for agents, phi, stop, start_len in self.recall_calls:
            enumerated, nonempty = prefix_counts(agents, phi, stop, start_len)
            counts["recall.prefixes_enumerated"] += enumerated
            counts["recall.prefixes_nonempty"] += nonempty
        playability = sys.modules.get("wgames.playability")
        if playability is not None:
            info = playability.agreement_mask.cache_info()
            counts["playability.mask_cache_hits"] += info.hits
            counts["playability.mask_cache_misses"] += info.misses
        return {"self_s": dict(self_s), "counts": dict(counts)}

    def dump_rows(self):
        """Spans as text rows: name, start, end, parent index, tag."""
        for nid, start, end, parent, tag in self.spans:
            yield f"{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{tag}\n"


def prefix_counts(agents, phi, stop, start_len) -> tuple[int, int]:
    """Prefixes a recall check loops over, and those with a nonempty cell.

    The checks walk injective sequences of the player's agents by length,
    then in ``itertools.permutations`` order, from ``start_len`` up to the
    full length or up to and including the failing prefix ``stop``.  A
    prefix's cell is nonempty iff some configuration's ordering starts
    with it.
    """
    n = len(agents)
    pos = {a: i for i, a in enumerate(agents)}

    def key(seq):
        return (len(seq), tuple(pos[a] for a in seq))

    last = key(stop) if stop is not None else (n + 1, ())
    enumerated = 0
    for k in range(start_len, n + 1):
        if k < last[0]:
            enumerated += math.perm(n, k)
        elif k == last[0]:
            enumerated += _perm_rank(last[1], n) + 1
    occurring = set()
    for seq in {rho.sequence for rho in phi.orderings}:
        for k in range(start_len, n + 1):
            occurring.add(seq[:k])
    nonempty = sum(1 for seq in occurring if key(seq) <= last)
    return enumerated, nonempty


def _perm_rank(indices, n: int) -> int:
    """Position of an injective index sequence in ``permutations`` order."""
    k = len(indices)
    used: set[int] = set()
    rank = 0
    for i, x in enumerate(indices):
        smaller = sum(1 for y in range(x) if y not in used)
        rank += smaller * math.perm(n - i - 1, k - i - 1)
        used.add(x)
    return rank


def _profile_rank(model, profile) -> int:
    """Position of a pure profile in ``check_playability``'s walk order."""
    rank = 0
    for agent, acts in model.agents:
        labels = acts.labels
        choice = profile.strategy_of(agent).choice
        digits = 0
        for action in choice:
            digits = digits * len(labels) + labels.index(action)
        rank = rank * len(labels) ** len(choice) + digits
    return rank

