"""Seeded inputs for the benchmark, built without importing ``wgames``.

A model is a plain *spec*: Nature labels, agents with their action labels,
players, and for each agent the coordinates it observes (Nature and/or
other agents).  From a spec this module writes the JSON the ``wgames`` CLI
reads, and builds the same model in the format of ``tests/oracles.py``, so
the checks never share code or data structures with the program.

Atom ids follow the program's wire convention: the atoms of an information
partition are numbered by ascending lowest configuration index, and
configurations are enumerated Nature first, last agent fastest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

# ── model specs ─────────────────────────────────────────────────────────


def random_causal_spec(rng: Random, n_focus: int, opponent: bool, n_nature: int, profile_cap: int, max_actions: int = 3):
    """Playable-by-construction model with player ``P`` and maybe ``O``.

    A hidden construction order is drawn over all agents; each agent then
    observes Nature (probability 0.6) and each strictly earlier agent
    (probability 0.6 each), so every pure profile solves by forward
    substitution.  The declared agent order is independent of the hidden
    order, which the analyses must rediscover.  Draws whose pure-profile
    count exceeds ``profile_cap`` are redrawn.
    """
    focus = [f"p{k}" for k in range(1, n_focus + 1)]
    nature = ["*"] if n_nature == 1 else [f"w{k}" for k in range(n_nature)]
    while True:
        ids = focus + (["q1"] if opponent else [])
        rng.shuffle(ids)
        agents = [(a, [str(k) for k in range(rng.randint(2, max_actions))]) for a in ids]
        hidden = ids[:]
        rng.shuffle(hidden)
        observes = {}
        for a in ids:
            earlier = hidden[: hidden.index(a)]
            watched = [b for b in earlier if rng.random() < 0.6]
            observes[a] = (rng.random() < 0.6, watched)
        players = {"P": [a for a in ids if a.startswith("p")]}
        if opponent:
            players["O"] = ["q1"]
        spec = {"nature": nature, "agents": agents, "players": players, "observes": observes}
        if profile_count(shape_of_spec(spec)) <= profile_cap:
            return spec


def sequential_spec(k: int, rng: Random):
    """One player acting ``k`` times with perfect recall (``sequential-k``).

    Agent ``t_j`` observes Nature and ``t_1 .. t_(j-1)``.  The seed only
    picks the label strings, so the work is the same for every seed.
    """
    tag = "".join(rng.choice("abcdefgh") for _ in range(3))
    ids = [f"t{j}" for j in range(1, k + 1)]
    return {
        "nature": [f"{tag}0", f"{tag}1"],
        "agents": [(a, [f"{tag}{a}0", f"{tag}{a}1"]) for a in ids],
        "players": {"dm": ids},
        "observes": {a: (True, ids[:j]) for j, a in enumerate(ids)},
    }


def model_json(spec) -> str:
    info = {a: {"observes": (["nature"] if nat else []) + list(watched)} for a, (nat, watched) in spec["observes"].items()}
    return json.dumps(
        {
            "nature": {"states": spec["nature"]},
            "agents": [{"id": a, "actions": acts} for a, acts in spec["agents"]],
            "players": spec["players"],
            "information": info,
        },
        indent=1,
    )


# ── shapes: what the strategy generators need to know ───────────────────


def shape_of_spec(spec) -> dict:
    actions = dict(spec["agents"])
    atoms = {}
    for a, (nat, watched) in spec["observes"].items():
        n = len(spec["nature"]) if nat else 1
        for b in watched:
            n *= len(actions[b])
        atoms[a] = n
    return {"nature": spec["nature"], "actions": actions, "players": spec["players"], "atoms": atoms}


def shape_of_payload(payload) -> dict:
    """Shape of a model in the program's canonical JSON (explicit atoms)."""
    return {
        "nature": payload["nature"]["states"],
        "actions": {e["id"]: e["actions"] for e in payload["agents"]},
        "players": payload["players"],
        "atoms": {a: len(spec["atoms"]) for a, spec in payload["information"].items()},
    }


def profile_count(shape) -> int:
    """Pure profiles of the whole model: product of |A_a| ** atoms_a."""
    total = 1
    for a, acts in shape["actions"].items():
        total *= len(acts) ** shape["atoms"][a]
    return total


# ── strategies, beliefs and orderings ───────────────────────────────────


def weights(rng: Random, n: int, denominator: int = 12) -> list[Fraction]:
    """``n`` positive exact weights summing to one."""
    cuts = sorted(rng.sample(range(1, denominator), n - 1)) if n > 1 else []
    bounds = [0] + cuts + [denominator]
    return [Fraction(bounds[k + 1] - bounds[k], denominator) for k in range(n)]


def random_plan(rng: Random, shape, agents) -> dict:
    """Pure sub-profile: agent -> one action per atom."""
    return {a: [rng.choice(shape["actions"][a]) for _ in range(shape["atoms"][a])] for a in agents}


def random_mixed(rng: Random, shape, player, max_support: int = 3) -> list:
    """Mixed strategy of one player: a list of (plan, weight), plans distinct."""
    plans: list = []
    want = rng.randint(1, max_support)
    for _ in range(40):
        if len(plans) == want:
            break
        plan = random_plan(rng, shape, shape["players"][player])
        if plan not in plans:
            plans.append(plan)
    return list(zip(plans, weights(rng, len(plans))))


def random_belief(rng: Random, shape) -> dict:
    return dict(zip(shape["nature"], weights(rng, len(shape["nature"]))))


def full_support_behavioral(rng: Random, shape, player, denominator: int = 16) -> dict:
    """agent -> one {action: weight} per atom, every weight positive."""
    return {
        a: [dict(zip(shape["actions"][a], weights(rng, len(shape["actions"][a]), denominator))) for _ in range(shape["atoms"][a])]
        for a in shape["players"][player]
    }


def mixed_json(player, mixed) -> str:
    return json.dumps({"kind": "mixed", "player": player, "support": [{"weight": str(w), "profile": plan} for plan, w in mixed]})


def behavioral_json(player, beta) -> str:
    kernels = {a: [{u: str(w) for u, w in row.items()} for row in rows] for a, rows in beta.items()}
    return json.dumps({"kind": "behavioral", "player": player, "kernels": kernels})


def profile_json(plan) -> str:
    return json.dumps({"kind": "pure-profile", "strategies": plan})


def belief_json(nu) -> str:
    return json.dumps({w: str(p) for w, p in nu.items()})


def ordering_json(player, sequence) -> str:
    return json.dumps({"kind": "ordering", "player": player, "sequence": list(sequence)})


# ── the oracle's view of a model and of the program's outputs ───────────


def _with_index(model, oracles):
    index = {h: i for i, h in enumerate(oracles.space(model))}
    for a in model["info"]:
        model["info"][a].sort(key=lambda atom: min(index[h] for h in atom))
    model["index"] = index
    return model


def oracle_model(spec, oracles):
    """Spec -> ``tests/oracles.py`` model, atoms in canonical order."""
    model = {
        "omega": list(spec["nature"]),
        "agents": [(a, list(acts)) for a, acts in spec["agents"]],
        "players": {p: list(m) for p, m in spec["players"].items()},
    }
    model["info"] = {a: oracles.cylinder_atoms(model, nat, watched) for a, (nat, watched) in spec["observes"].items()}
    return _with_index(model, oracles)


def oracle_from_payload(payload, oracles):
    """Oracle model from the program's canonical JSON (explicit atoms)."""
    ids = [e["id"] for e in payload["agents"]]
    model = {
        "omega": list(payload["nature"]["states"]),
        "agents": [(e["id"], list(e["actions"])) for e in payload["agents"]],
        "players": {p: list(m) for p, m in payload["players"].items()},
        "info": {
            a: [frozenset((c["nature"],) + tuple(c[b] for b in ids) for c in atom) for atom in spec["atoms"]]
            for a, spec in payload["information"].items()
        },
    }
    return _with_index(model, oracles)


def config_of(omodel, payload) -> tuple:
    """Program's configuration object -> oracle tuple."""
    return (payload["nature"],) + tuple(payload[a] for a, _ in omodel["agents"])


def oracle_plans(omodel, plan) -> dict:
    """agent -> [action per atom]  ->  oracle plans {agent: {atom: action}}."""
    return {a: dict(zip(omodel["info"][a], choice)) for a, choice in plan.items()}


def oracle_mixed(omodel, mixed) -> list:
    return [(oracle_plans(omodel, plan), w) for plan, w in mixed]


def oracle_behavioral(omodel, kernels) -> dict:
    """agent -> [{action: weight} per atom]  ->  {agent: {atom: {action: weight}}}."""
    acts = dict(omodel["agents"])
    return {
        a: {atom: {u: Fraction(row.get(u, 0)) for u in acts[a]} for atom, row in zip(omodel["info"][a], rows)}
        for a, rows in kernels.items()
    }


def law_of_payload(omodel, law) -> dict:
    """Program's pushforward payload -> {oracle configuration: weight}."""
    return {config_of(omodel, e["configuration"]): Fraction(e["weight"]) for e in law}


def ordering_map(omodel, payload) -> dict:
    """Program's ordering payload -> oracle {configuration: sequence}."""
    if "sequence" in payload:
        seq = tuple(payload["sequence"])
        return {h: seq for h in omodel["index"]}
    return {config_of(omodel, e["configuration"]): tuple(e["sequence"]) for e in payload["assignments"]}
