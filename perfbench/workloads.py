"""The four workloads: their inputs, their operations and their checks.

A workload object is built inside a worker process for one shard of one
seed's input set.  ``setup`` builds the inputs and returns the operations;
the input files are written once per run, by a worker that only prepares
them, so that timed set-up does not depend on the speed of the disk;
``run`` performs one operation and returns what it produced; ``check``
compares that result with an answer computed apart from the program
(``tests/oracles.py``, closed forms, or facts that hold by construction).
``check`` runs after the timed region.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random
from statistics import median

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Search budgets in nodes.  Outcomes that run out of them are reproducible,
# because node counts do not depend on timing.
SWEEP_BUDGET = 2000
RECALL_SEARCH_BUDGET = 10_000
# sweep-random: models per seed, split into shards run by separate workers
SWEEP_MODELS = 360
SWEEP_PROFILE_CAP = 10**4
# (focus agents, opponent present, Nature states): every seed draws the
# same number of models of each class, so seeds differ in detail, not mix
SWEEP_CLASSES = [(f, o, w) for f in (1, 2, 3) for o in (False, True) for w in (1, 2, 3)]
SEQUENTIAL_KS = (5, 6, 7)
CORPUS = (
    "alice-bob-simultaneous",
    "alice-bob-ordered",
    "alice-bob-nature",
    "sequential-3",
    "principal-agent-hidden-type",
    "principal-agent-hidden-action",
    "stackelberg",
    "witsenhausen-noncausal",
)


class Op:
    __slots__ = ("name", "tag", "argv", "ctx")

    def __init__(self, name, argv, ctx=None, tag=""):
        self.name = name
        self.argv = argv
        self.ctx = ctx
        self.tag = tag


class Result:
    """What one operation produced: exit code, stdout, and a crash trace."""

    __slots__ = ("code", "out", "crash", "value")

    def __init__(self, code, out="", crash="", value=None):
        self.code = code
        self.out = out
        self.crash = crash
        self.value = value

    def report(self) -> dict:
        return json.loads(self.out)

    def outcome(self) -> str:
        """The report's outcome, or '' for output that is not a report."""
        if not self.out.startswith("{"):
            return ""
        return self.report().get("outcome", "")


def run_cli(argv, tracer=None) -> Result:
    """``wgames.cli.main`` in this process, stdout and stderr captured."""
    from wgames.cli import main

    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                main(argv, prog_name="wgames")
            else:
                tracer.call("cli.main", main, argv, prog_name="wgames")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code = 1
            crash = traceback.format_exc()
    return Result(code, out.getvalue(), crash)


class Workload:
    shards = 1

    def __init__(self, seed: int, shard: int, workdir: Path, tracer=None, prepare=False):
        self.seed = seed
        self.shard = shard
        self.dir = workdir
        self.tracer = tracer
        self.prepare = prepare
        self.oracles = None

    def write(self, name: str, text: str) -> str:
        """Path of an input file; the file is written when preparing."""
        path = self.dir / name
        if self.prepare:
            path.write_text(text, encoding="utf-8")
        return str(path)

    def setup(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Result:
        return run_cli(op.argv, self.tracer)

    def check(self, op: Op, result: Result) -> str | None:
        raise NotImplementedError

    def layers(self, import_ms: float):
        """Layer summary, span rows and import time of a traced shard."""
        return self.tracer.summary(), list(self.tracer.dump_rows()), import_ms

    def oracle(self):
        if self.oracles is None:
            sys.path.insert(0, str(ROOT / "tests"))
            import oracles

            self.oracles = oracles
        return self.oracles


def structured(*argv) -> list[str]:
    return ["--format", "structured", *argv]


def strategy_args(files) -> list[str]:
    out = []
    for f in files:
        out += ["--strategy", f]
    return out


# ── shared oracle-side checks ───────────────────────────────────────────


def closed_form_law(oracles, om, nu, beta, others):
    """Law with one player behavioral and the rest mixed, on a playable model:
    nu(omega) * prod_a beta_a(h_a | atom of h) * prod_q P_q(plans agreeing at h).
    """
    law = {}
    for h in oracles.space(om):
        w = nu.get(h[0], Fraction(0))
        for a, kernels in beta.items():
            if w == 0:
                break
            atom = oracles.atom_containing(om["info"][a], h)
            w *= kernels[atom][h[oracles.agent_index(om, a)]]
        for support in others:
            if w == 0:
                break
            w *= sum(
                (p for plans, p in support if all(oracles.plan_action(om, plans, a, h) == h[oracles.agent_index(om, a)] for a in plans)),
                Fraction(0),
            )
        if w != 0:
            law[h] = w
    return law


def check_transform(oracles, om, player, nu, mixed, report) -> str | None:
    """``kuhn ... --verify`` said 'transformed': the ordering has perfect
    recall and the behavioral strategy has the mixed strategy's law."""
    details = report["details"]
    if report["outcome"] != "transformed" or details.get("verified") is not True:
        return f"outcome {report['outcome']!r}, verified {details.get('verified')!r}"
    phi = gen.ordering_map(om, details["ordering"])
    if oracles.recall_fails(om, om["players"][player], phi) is not None:
        return "reported ordering lacks perfect recall (oracle)"
    oracle_mixed = {p: gen.oracle_mixed(om, m) for p, m in mixed.items()}
    target = oracles.pushforward(om, nu, oracle_mixed)
    beta = gen.oracle_behavioral(om, details["behavioral"]["kernels"])
    others = [s for p, s in oracle_mixed.items() if p != player]
    if closed_form_law(oracles, om, nu, beta, others) != target:
        return "behavioral law differs from the mixed law (oracle)"
    return None


def check_necessity(oracles, om, player, report) -> str | None:
    """'no-violation': the ordering passes the oracle's recall and causality
    checks.  'certified': the exhibited configuration is the oracle's unique
    closed-loop solution and the oracle's target law gives it no mass."""
    details = report["details"]
    if report["outcome"] == "no-violation":
        phi = gen.ordering_map(om, details["ordering"])
        agents = om["players"][player]
        if oracles.recall_fails(om, agents, phi) is not None:
            return "no-violation ordering lacks perfect recall (oracle)"
        if oracles.causality_fails(om, agents, phi) is not None:
            return "no-violation ordering is not partially causal (oracle)"
        return None
    if report["outcome"] == "certified":
        cert = details["certificate"]
        plans = dict(cert["profile"])
        for plan in cert["opponent-plans"]:
            plans.update(plan)
        exhibited = gen.config_of(om, cert["exhibited"])
        sols = oracles.solutions(om, gen.oracle_plans(om, plans), cert["nature-state"])
        if sols != [exhibited]:
            return "exhibited configuration is not the unique solution (oracle)"
        nu = {w: Fraction(p) for w, p in cert["belief"].items()}
        mixed = {}
        for strategy in [cert["focus"], *cert["opponents"]]:
            support = [(s["profile"], Fraction(s["weight"])) for s in strategy["support"]]
            mixed[strategy["player"]] = gen.oracle_mixed(om, support)
        if oracles.pushforward(om, nu, mixed).get(exhibited, 0) != 0:
            return "exhibited configuration carries target mass (oracle)"
        return None
    return f"unexpected outcome {report['outcome']!r}"


# ── sweep-random ────────────────────────────────────────────────────────


class SweepRandom(Workload):
    """Seeded random playable models, each through playability, kuhn and
    necessity, in-process through the CLI."""

    shards = 2

    def setup(self):
        per_shard = SWEEP_MODELS // self.shards
        ops = []
        for i in range(self.shard * per_shard, (self.shard + 1) * per_shard):
            rng = Random(f"sweep-random/{self.seed}/{i}")
            n_focus, opponent, n_nature = SWEEP_CLASSES[i % len(SWEEP_CLASSES)]
            spec = gen.random_causal_spec(rng, n_focus, opponent, n_nature, SWEEP_PROFILE_CAP)
            shape = gen.shape_of_spec(spec)
            nu = gen.random_belief(rng, shape)
            mixed = {p: gen.random_mixed(rng, shape, p) for p in spec["players"]}
            model = self.write(f"m{i}.json", gen.model_json(spec))
            nu_file = self.write(f"m{i}-nu.json", gen.belief_json(nu))
            files = [self.write(f"m{i}-{p}.json", gen.mixed_json(p, m)) for p, m in mixed.items()]
            ctx = {"spec": spec, "nu": nu, "mixed": mixed}
            budget = str(SWEEP_BUDGET)
            ops.append(Op("playability", structured("playability", model), ctx))
            ops.append(Op("kuhn", structured("kuhn", model, "--player", "P", "--nu", nu_file, *strategy_args(files), "--search", "--budget", budget, "--verify"), ctx))
            ops.append(Op("necessity", structured("necessity", model, "--player", "P", "--search", "--budget", budget), ctx))
        return ops

    def check(self, op, result):
        oracles = self.oracle()
        ctx = op.ctx
        if "om" not in ctx:
            ctx["om"] = gen.oracle_model(ctx["spec"], oracles)
        om = ctx["om"]
        outcome = result.report()["outcome"]
        ctx[op.name] = outcome
        if op.name == "playability":
            # playable by construction: forward substitution along the hidden order
            return None if (result.code, outcome) == (0, "playable") else f"{outcome!r}, expected 'playable'"
        if result.code == 3:
            return None if outcome == "unknown" else f"exit 3 with {outcome!r}"
        if op.name == "kuhn":
            if result.code == 1:
                return None if outcome == "no-ordering" else f"exit 1 with {outcome!r}"
            return check_transform(oracles, om, "P", ctx["nu"], ctx["mixed"], result.report())
        if outcome == "no-violation" and ctx.get("kuhn") == "no-ordering":
            return "no-violation ordering found, but kuhn found no recall ordering"
        return check_necessity(oracles, om, "P", result.report())


# ── recall-sequential ───────────────────────────────────────────────────


class RecallSequential(Workload):
    """``sequential-k`` for k = 5, 6, 7: the three prefix-cell checks along
    the identity and along the identity with the last two agents swapped,
    then the ordering search.  Layer calls, no CLI."""

    def setup(self):
        import wgames

        rng = Random(f"recall-sequential/{self.seed}")
        ops = []
        for k in SEQUENTIAL_KS:
            spec = gen.sequential_spec(k, rng)
            model = wgames.parse_model(gen.model_json(spec))
            ids = [a for a, _ in spec["agents"]]
            swapped = ids[:-2] + [ids[-1], ids[-2]]
            for kind, seq in (("identity", ids), ("swapped", swapped)):
                phi = wgames.parse_ordering(gen.ordering_json("dm", seq), model)
                for fn in ("check_perfect_recall", "check_partial_causality", "find_recall_violation"):
                    ops.append(Op(fn, (model, "dm", phi), {"ids": ids, "kind": kind}, f"k{k}"))
            ops.append(Op("search_recall_ordering", (model, "dm", RECALL_SEARCH_BUDGET), {"ids": ids}, f"k{k}"))
        return ops

    def run(self, op):
        import wgames

        try:
            return Result(0, value=getattr(wgames, op.name)(*op.argv))
        except Exception:
            return Result(1, crash=traceback.format_exc())

    def check(self, op, result):
        ids, value = op.ctx["ids"], result.value
        k = len(ids)
        if op.name == "search_recall_ordering":
            # the identity is the first constant ordering tried, and it holds
            if value.outcome != "found" or not value.ordering.is_constant:
                return f"search outcome {value.outcome!r}"
            return None if value.ordering.at(0).sequence == tuple(ids) else "search found another ordering"
        if op.ctx["kind"] == "identity":
            # t_j observes Nature and every earlier t_i: recall and causality hold
            held = value is None if op.name == "find_recall_violation" else value.holds
            return None if held else "fails along the identity"
        # swapped: t_k acts before t_(k-1), which does not observe t_k
        if op.name == "check_partial_causality":
            want = tuple(ids[:-2] + [ids[-1]])
            if value.holds or value.violation.kappa.sequence != want:
                return "causality should first fail at (t1..t(k-2), tk)"
            return None
        want = tuple(ids[:-2] + [ids[-1], ids[-2]])
        if op.name == "check_perfect_recall":
            if value.holds or value.violation.kappa.sequence != want:
                return "recall should first fail at (t1..t(k-2), tk, t(k-1))"
            return None
        if value is None or value.ordering.sequence != want or value.case != "predecessor-action-differs":
            return "violation should be at (t1..t(k-2), tk, t(k-1)), predecessor-action-differs"
        plus, minus = value.h_plus.as_dict(), value.h_minus.as_dict()
        # same atom of t(k-1): same Nature state and t1..t(k-2) actions
        if any(plus[c] != minus[c] for c in ["nature", *ids[:-2]]) or plus[ids[-1]] == minus[ids[-1]]:
            return f"violation pair does not share a t{k - 1} atom with differing t{k} actions"
        return None


# ── kuhn-support ────────────────────────────────────────────────────────


class KuhnSupport(Workload):
    """``sequential-3`` with a seeded full-support behavioral strategy: the
    CLI expands it to its 16,384-plan mixed form, then runs pushforward and
    kuhn along the identity ordering with --verify."""

    def setup(self):
        rng = Random(f"kuhn-support/{self.seed}")
        spec = gen.sequential_spec(3, rng)
        ids = [a for a, _ in spec["agents"]]
        shape = gen.shape_of_spec(spec)
        nu = gen.random_belief(rng, shape)
        beta = gen.full_support_behavioral(rng, shape, "dm")
        model = self.write("model.json", gen.model_json(spec))
        nu_file = self.write("nu.json", gen.belief_json(nu))
        beta_file = self.write("beta.json", gen.behavioral_json("dm", beta))
        order = self.write("identity.json", gen.ordering_json("dm", ids))
        ctx = {"spec": spec, "nu": nu, "beta": beta}
        return [
            Op("pushforward", structured("pushforward", model, "--nu", nu_file, "--strategy", beta_file), ctx),
            Op("kuhn", structured("kuhn", model, "--player", "dm", "--nu", nu_file, "--strategy", beta_file, "--ordering", order, "--verify"), ctx),
        ]

    def check(self, op, result):
        oracles = self.oracle()
        ctx = op.ctx
        report = result.report()
        if op.name == "pushforward":
            if result.code != 0:
                return f"exit {result.code}"
            om = gen.oracle_model(ctx["spec"], oracles)
            beta = {a: dict(zip(om["info"][a], rows)) for a, rows in ctx["beta"].items()}
            want = closed_form_law(oracles, om, ctx["nu"], beta, [])
            return None if gen.law_of_payload(om, report["details"]["law"]) == want else "law differs from the closed form"
        details = report["details"]
        if result.code != 0 or report["outcome"] != "transformed" or details.get("verified") is not True:
            return f"exit {result.code}, outcome {report['outcome']!r}"
        # every kernel has full support, so Kuhn's construction returns it exactly
        got = {a: [{u: Fraction(w) for u, w in row.items()} for row in rows] for a, rows in details["behavioral"]["kernels"].items()}
        return None if got == ctx["beta"] else "transform did not return the expanded behavioral strategy"


# ── cli-corpus ──────────────────────────────────────────────────────────

# Focus player (the first listed), an ordering of its agents that follows
# the model's construction, whether some ordering has perfect recall, and
# whether that ordering is partially causal (when it is not, none is).
CORPUS_FACTS = {
    # neither agent observes anything: whoever is second cannot recall the
    # first's action, yet a fixed order is partially causal
    "alice-bob-simultaneous": ("team", ("alice", "bob"), False, True),
    # Bob knows nothing, Alice sees Bob: Bob first has perfect recall
    "alice-bob-ordered": ("team", ("bob", "alice"), True, True),
    # Bob sees the coin, Alice sees the coin and Bob
    "alice-bob-nature": ("team", ("bob", "alice"), True, True),
    # t_j sees Nature and every earlier action
    "sequential-3": ("dm", ("t1", "t2", "t3"), True, True),
    # single-agent players recall trivially and see only what others did
    "principal-agent-hidden-type": ("principal", ("P",), True, True),
    "principal-agent-hidden-action": ("principal", ("P",), True, True),
    "stackelberg": ("leader", ("L",), True, True),
    # every agent's signal depends on the two others: no agent can come first
    "witsenhausen-noncausal": ("system", ("a", "b", "c"), False, False),
}


class CliCorpus(Workload):
    """Every subcommand as its own ``wgames`` process over the corpus."""

    def setup(self):
        self.children = []
        rng = Random(f"cli-corpus/{self.seed}")
        ops = [Op("examples-list", ["examples", "list"])]
        for name in CORPUS:
            text = run_cli(["examples", "export", name]).out
            model = self.write(f"{name}.json", text)
            payload = json.loads(text)
            shape = gen.shape_of_payload(payload)
            player, order = CORPUS_FACTS[name][:2]
            nu = gen.random_belief(rng, shape)
            mixed = {p: gen.random_mixed(rng, shape, p) for p in payload["players"]}
            profile = gen.random_plan(rng, shape, list(shape["actions"]))
            nu_file = self.write(f"{name}-nu.json", gen.belief_json(nu))
            files = [self.write(f"{name}-{p}.json", gen.mixed_json(p, m)) for p, m in mixed.items()]
            profile_file = self.write(f"{name}-profile.json", gen.profile_json(profile))
            order_file = self.write(f"{name}-order.json", gen.ordering_json(player, order))
            ctx = {"model": name, "payload": payload, "nu": nu, "mixed": mixed, "profile": profile, "player": player, "export": text}
            for cmd, args in (
                ("examples-export", ["examples", "export", name]),
                ("validate", structured("validate", model)),
                ("solve", structured("solve", model, "--profile", profile_file)),
                ("playability", structured("playability", model)),
                ("recall", structured("recall", model, "--player", player, "--search")),
                ("causality", structured("causality", model, "--player", player, "--ordering", order_file)),
                ("pushforward", structured("pushforward", model, "--nu", nu_file, *strategy_args(files))),
                ("kuhn", structured("kuhn", model, "--player", player, "--nu", nu_file, *strategy_args(files), "--search", "--verify")),
                ("necessity", structured("necessity", model, "--player", player, "--search")),
            ):
                ops.append(Op(cmd, args, ctx))
        return ops

    def run(self, op):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if self.tracer is None:
            argv = [sys.executable, "-m", "wgames.cli", *op.argv]
        else:
            summary = self.dir / f"child-{len(self.children)}.json"
            self.children.append(summary)
            argv = [sys.executable, str(HERE / "clichild.py"), str(summary), *op.argv]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        crash = proc.stderr if "Traceback" in proc.stderr else ""
        return Result(proc.returncode, proc.stdout, crash)

    def layers(self, import_ms):
        """Sum the traced ``wgames`` processes' summaries; median import time."""
        self_s, counts = Counter(), Counter()
        rows, imports = [], []
        for child, path in enumerate(self.children):
            summary = json.loads(path.read_text(encoding="utf-8"))
            self_s.update(summary["self_s"])
            counts.update(summary["counts"])
            imports.append(summary["import_ms"])
            rows.extend(f"{child}\t{row}" for row in summary["spans"])
        return {"self_s": dict(self_s), "counts": dict(counts)}, rows, median(imports)

    def check(self, op, result):
        ctx = op.ctx
        if op.name == "examples-list":
            return None if result.out.split() == list(CORPUS) else "example list differs"
        if op.name == "examples-export":
            return None if result.out == ctx["export"] else "export differs from the set-up export"
        oracles = self.oracle()
        if "om" not in ctx:
            ctx["om"] = gen.oracle_from_payload(ctx["payload"], oracles)
        om, player = ctx["om"], ctx["player"]
        _, order, recall, causal = CORPUS_FACTS[ctx["model"]]
        report = result.report()
        outcome, details = report["outcome"], report["details"]
        got = (result.code, outcome)
        if op.name == "validate":
            want = {
                "nature-states": len(om["omega"]),
                "agents": len(om["agents"]),
                "players": len(om["players"]),
                "configurations": len(om["index"]),
            }
            return None if got == (0, "valid") and details == want else f"{got} {details}"
        if op.name == "playability":
            # every corpus model is playable: the others act in an order fixed by
            # what they observe, and witsenhausen-noncausal is the classic
            # playable model with no first agent
            return None if got == (0, "playable") else f"{got}"
        if op.name == "solve":
            if got != (0, "solved"):
                return f"{got}"
            plans = gen.oracle_plans(om, ctx["profile"])
            for row in details["solutions"]:
                sols = oracles.solutions(om, plans, row["nature-state"])
                if sols != [gen.config_of(om, row["configuration"])]:
                    return "solution differs from the oracle's unique solution"
            return None if len(details["solutions"]) == len(om["omega"]) else "missing Nature states"
        if op.name == "recall":
            if not recall:
                return None if got == (1, "no-ordering") else f"{got}, expected no-ordering"
            if got != (0, "holds"):
                return f"{got}, expected holds"
            phi = gen.ordering_map(om, details["ordering"])
            return None if oracles.recall_fails(om, om["players"][player], phi) is None else "found ordering lacks recall (oracle)"
        if op.name == "causality":
            phi = {h: order for h in om["index"]}
            oracle_holds = oracles.causality_fails(om, om["players"][player], phi) is None
            want = (0, "holds") if causal else (1, "fails")
            return None if got == want and oracle_holds == causal else f"{got}, expected {want}"
        if op.name == "pushforward":
            if got != (0, "computed"):
                return f"{got}"
            oracle_mixed = {p: gen.oracle_mixed(om, m) for p, m in ctx["mixed"].items()}
            target = oracles.pushforward(om, ctx["nu"], oracle_mixed)
            return None if gen.law_of_payload(om, details["law"]) == target else "law differs (oracle)"
        if op.name == "kuhn":
            if not recall:
                return None if got == (1, "no-ordering") else f"{got}, expected no-ordering"
            return check_transform(oracles, om, player, ctx["nu"], ctx["mixed"], report)
        if op.name == "necessity":
            if not causal:
                return None if got == (3, "no-causal-ordering") else f"{got}, expected no-causal-ordering"
            want = (0, "no-violation") if recall else (1, "certified")
            if got != want:
                return f"{got}, expected {want}"
            return check_necessity(oracles, om, player, report)
        return f"unknown operation {op.name!r}"


WORKLOADS = {
    "sweep-random": SweepRandom,
    "recall-sequential": RecallSequential,
    "kuhn-support": KuhnSupport,
    "cli-corpus": CliCorpus,
}
