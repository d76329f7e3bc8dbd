"""Seeded input generators for the benchmark workloads (stdlib only).

Nothing here imports `lcn` or the test helpers: a change to the program or
to its tests cannot change what the benchmark feeds it.  The same
(workload, seed) always gives the same inputs.

Formulas are generated as small trees ``("var", name)``, ``("not", t)``,
``("and", a, b)``, ``("or", a, b)`` and printed as model-file text.  Every
generated formula is *read-once* (each proposition occurs once), so it
depends on every proposition it mentions and is never a tautology or a
contradiction; the model parser therefore accepts every generated model.
"""

from __future__ import annotations

import json
import random
import re
from itertools import combinations
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("bidirected_block", "cycle6", "quad_mixed", "smokers",
                 "smokers_variant", "undirected_block")

# Pool sizes: a run cycles through its pool, so each is sized to hold more
# ops than one run completes at the commit that defined the benchmark; a
# process-wide cache then cannot win by seeing the same input twice.
BUILD_POOL = 48
INDEP_ROUNDS = 40
ORACLE_POOL = 150

# Size ladders: the seed picks the content, the ladder fixes the size mix,
# so every seed loads the program equally.  A run ends at a whole ladder
# round (see worker.py), so every run holds the same mix.
# build-large holds its middle size twice, so that its median op time, with
# one round in a run, is the mean of two ops rather than one op's reading.
BUILD_SIZES = ((200, 20), (400, 30), (700, 40), (700, 40), (1200, 50), (2000, 60))
# Supports of each size's wide formulas: two of 12-13 and one that steps
# through 12-16 along the ladder.
BUILD_WIDE = ((12, 13, 12), (13, 12, 13), (12, 13, 14), (13, 12, 14), (13, 12, 15),
              (12, 13, 16))
CHAIN_SIZES = (16, 20, 24, 28, 32)
CYCLIC_SIZES = (10, 11, 12, 13, 14)
GMC_SIZES = (5, 6, 7)
ORACLE_SIZES = (8, 9, 10, 11, 12)
LOCAL_CONDITIONS = ("lmc-c", "lmc-cstr", "lmc-d")


# ---------------------------------------------------------------------------
# Formulas

def read_once(rng: random.Random, props: list[str], p_not: float = 0.2) -> tuple:
    """Random formula tree mentioning each of `props` exactly once."""
    props = list(props)
    rng.shuffle(props)

    def build(names: list[str]) -> tuple:
        if len(names) == 1:
            node: tuple = ("var", names[0])
        else:
            cut = rng.randint(1, len(names) - 1)
            op = "and" if rng.random() < 0.5 else "or"
            node = (op, build(names[:cut]), build(names[cut:]))
        return ("not", node) if rng.random() < p_not else node

    return build(props)


def wide_formula(names: list[str]) -> tuple:
    """Read-once formula of one fixed shape for its number of propositions:
    a balanced tree, `and` at even depths and `or` at odd ones, every third
    leaf negated.  The program evaluates `and`/`or` with short circuits, so
    the cost of a truth table depends on the formula's shape; with random
    shapes the few wide formulas of a build-large model moved its cost by
    a quarter from seed to seed.  The seed still picks the propositions."""

    def build(lo: int, hi: int, depth: int) -> tuple:
        if hi - lo == 1:
            leaf = ("var", names[lo])
            return ("not", leaf) if lo % 3 == 2 else leaf
        mid = (lo + hi) // 2
        return ("and" if depth % 2 == 0 else "or", build(lo, mid, depth + 1),
                build(mid, hi, depth + 1))

    return build(0, len(names), 0)


def rewrite(rng: random.Random, t: tuple) -> tuple:
    """An equivalent tree: commuted operands and De Morgan steps."""
    kind = t[0]
    if kind == "var":
        return t
    if kind == "not":
        inner = t[1]
        if inner[0] == "not":
            return rewrite(rng, inner[1])
        if inner[0] in ("and", "or") and rng.random() < 0.5:
            dual = "or" if inner[0] == "and" else "and"
            return (dual, rewrite(rng, negate(inner[1])), rewrite(rng, negate(inner[2])))
        return ("not", rewrite(rng, inner))
    left, right = rewrite(rng, t[1]), rewrite(rng, t[2])
    if rng.random() < 0.5:
        left, right = right, left
    return (kind, left, right)


def negate(t: tuple) -> tuple:
    return t[1] if t[0] == "not" else ("not", t)


def text(t: tuple, level: int = 0) -> str:
    """Model-file text; `level` 0 = inside `|`, 1 = inside `&`, 2 = unary."""
    kind = t[0]
    if kind == "var":
        return t[1]
    if kind == "not":
        return "!" + text(t[1], 2)
    if kind == "and":
        out = f"{text(t[1], 1)} & {text(t[2], 1)}"
        return f"({out})" if level > 1 else out
    out = f"{text(t[1], 0)} | {text(t[2], 0)}"
    return f"({out})" if level > 0 else out


def support(t: tuple) -> set[str]:
    if t[0] == "var":
        return {t[1]}
    return set().union(*(support(c) for c in t[1:]))


def evaluate(t: tuple, assign: dict[str, int]) -> bool:
    kind = t[0]
    if kind == "var":
        return bool(assign[t[1]])
    if kind == "not":
        return not evaluate(t[1], assign)
    if kind == "and":
        return evaluate(t[1], assign) and evaluate(t[2], assign)
    return evaluate(t[1], assign) or evaluate(t[2], assign)


def _bounds(rng: random.Random) -> tuple[float, float]:
    lo = round(rng.uniform(0.0, 0.9), 3)
    return lo, round(rng.uniform(lo, 1.0), 3)


def constraint_line(group: str, lo: float, hi: float, phi: tuple,
                    psi: tuple | None) -> str:
    body = text(phi) if psi is None else f"{text(phi)} given {text(psi)}"
    return f"{group}: {lo!r} <= P({body}) <= {hi!r}"


# ---------------------------------------------------------------------------
# Chain models

def chain_model(rng: random.Random, k: int, hard: int = 2) -> dict:
    """A model whose structure is a chain graph by construction.

    Propositions sit in ordered blocks of 1-3.  U-group consequents stay in
    one block and conditions come from strictly earlier blocks, so every
    directed edge of the structure points forward.  Materialized formulas
    (two or more propositions, or a negation) have pairwise distinct
    supports, so no two constraints share a formula node.  `hard` U
    constraints are pinned to probability 1; their propositions are a
    consequent block plus its parents, which is a clique of the
    factorization plan, so pruning always finds them a home.
    """
    props = [f"P{i}" for i in range(k)]
    blocks: list[list[str]] = []
    i = 0
    while i < k:
        size = rng.randint(1, 3)
        blocks.append(props[i:i + size])
        i += size
    used_supports: set[frozenset[str]] = set()
    constraints: list[tuple] = []  # (group, lo, hi, phi, psi)

    def fresh(pool: list[str], most: int) -> tuple | None:
        for _ in range(20):
            names = rng.sample(pool, rng.randint(1, min(most, len(pool))))
            t = read_once(rng, names)
            if t[0] == "var":
                return t
            key = frozenset(names)
            if key not in used_supports:
                used_supports.add(key)
                return t
        return None

    for bi, block in enumerate(blocks):
        earlier = [p for blk in blocks[:bi] for p in blk]
        for _ in range(rng.randint(1, 2)):
            group = "U" if rng.random() < 0.7 else "D"
            pool = block if group == "U" else [p for blk in blocks[bi:] for p in blk]
            phi = fresh(pool, 3)
            if phi is None:
                continue
            psi = fresh(earlier, 2) if earlier and rng.random() < 0.7 else None
            constraints.append((group, *_bounds(rng), phi, psi))
    mentioned = set().union(*(support(c[3]) | (support(c[4]) if c[4] else set())
                              for c in constraints)) if constraints else set()
    for p in props:
        if p not in mentioned:
            constraints.append(("U", *_bounds(rng), ("var", p), None))
    u_rows = [i for i, c in enumerate(constraints) if c[0] == "U"]
    for i in rng.sample(u_rows, min(hard, len(u_rows))):
        group, _, _, phi, psi = constraints[i]
        constraints[i] = (group, 1.0, 1.0, phi, psi)
    lines = [constraint_line(*c) for c in constraints]
    return {"text": "\n".join(lines) + "\n", "constraints": constraints}


# ---------------------------------------------------------------------------
# Large models (build-large)

def _support_size(rng: random.Random) -> int:
    return rng.choices((1, 2, 3, 4, 5, 6), weights=(4, 5, 4, 2, 1, 1))[0]


def large_model(rng: random.Random, n_constraints: int, n_props: int,
                wide: tuple[int, ...]) -> str:
    """Model text with `n_constraints` lines over `n_props` propositions.

    Most formulas mention 1-6 propositions; one formula per entry of `wide`
    mentions that many (see wide_formula).  About a third of the formulas
    repeat an earlier one, either verbatim or rewritten (commuted operands,
    De Morgan), so logically equivalent formulas recur within a model.
    """
    props = [f"X{i}" for i in range(n_props)]
    seen: list[tuple] = []

    def formula(most: int) -> tuple:
        if seen and rng.random() < 0.35:
            t = rng.choice(seen)
            return t if rng.random() < 0.3 else rewrite(rng, t)
        t = read_once(rng, rng.sample(props, min(most, _support_size(rng))))
        seen.append(t)
        return t

    rows: list[str] = []
    wide_at = dict(zip(rng.sample(range(n_constraints), len(wide)), wide))
    for i in range(n_constraints):
        group = "U" if rng.random() < 0.5 else "D"
        if i in wide_at:
            phi = wide_formula(rng.sample(props, wide_at[i]))
        else:
            phi = formula(6)
        psi = None if rng.random() < 0.45 else formula(4)
        rows.append(constraint_line(group, *_bounds(rng), phi, psi))
    return "\n".join(rows) + "\n"


def build_large_inputs(seed: int) -> dict:
    rng = random.Random(f"build-large/{seed}")
    ops = []
    for i in range(BUILD_POOL):
        n_constraints, n_props = BUILD_SIZES[i % len(BUILD_SIZES)]
        wide = BUILD_WIDE[i % len(BUILD_WIDE)]
        ops.append({"model": large_model(rng, n_constraints, n_props, wide)})
    return {"ops": ops, "round": len(BUILD_SIZES)}


# ---------------------------------------------------------------------------
# Graphs (indep-graphs)

def chain_graph(rng: random.Random, n: int, edges: int) -> dict:
    """Random chain graph with exactly `edges` edges: undirected ones inside
    blocks of 1-3 nodes, directed ones from earlier blocks to later ones.
    The fixed edge count keeps the cost of one size steady across seeds."""
    names = [f"X{i}" for i in range(n)]
    rng.shuffle(names)
    blocks: list[list[str]] = []
    i = 0
    while i < n:
        size = rng.randint(1, 3)
        blocks.append(names[i:i + size])
        i += size
    candidates = []
    for bi, block in enumerate(blocks):
        candidates += [("u", a, b) for a, b in combinations(block, 2)]
        candidates += [("d", a, b) for later in blocks[bi + 1:] for a in block for b in later]
    chosen = rng.sample(candidates, min(edges, len(candidates)))
    return {"nodes": sorted(names),
            "directed": [[a, b] for kind, a, b in chosen if kind == "d"],
            "undirected": [[a, b] for kind, a, b in chosen if kind == "u"],
            "chain": True}


def chain_edges(n: int) -> int:
    return round(0.25 * n + 0.075 * n * n)


def cyclic_graph(rng: random.Random, n: int, density: float = 0.27) -> dict:
    """Random mixed graph with round(density * n(n-1)/2) adjacent pairs,
    each a directed edge (either way), an undirected edge or a bi-directed
    pair in proportions 16 : 8 : 3; it may contain directed cycles."""
    names = [f"X{i}" for i in range(n)]
    pairs = rng.sample(list(combinations(names, 2)), round(density * n * (n - 1) / 2))
    directed, undirected = [], []
    for a, b in pairs:
        kind = rng.choices(("d", "u", "b"), weights=(16, 8, 3))[0]
        if kind == "d":
            directed.append([a, b] if rng.random() < 0.5 else [b, a])
        elif kind == "u":
            undirected.append([a, b])
        else:
            directed += [[a, b], [b, a]]
    return {"nodes": names, "directed": directed, "undirected": undirected,
            "chain": False}


def indep_graph_inputs(seed: int) -> dict:
    """Rounds of a fixed op mix; the seed draws a fresh graph for every op.

    One round: each chain size under each local condition and for weak
    descendants, each cyclic size under each condition, and GMC
    enumerations at n = 5 (twice) and n = 6, plus n = 7 in every second
    round.  The op order inside a round is shuffled.  GMC ops are the
    slowest and take most of a run; the tail percentile falls among the
    n = 5 ones, whose cost barely depends on the graph.
    """
    rng = random.Random(f"indep-graphs/{seed}")
    ops = []
    for r in range(INDEP_ROUNDS):
        round_ops = []
        for n in CHAIN_SIZES:
            for condition in LOCAL_CONDITIONS:
                round_ops.append({"kind": "local", "condition": condition,
                                  "graph": chain_graph(rng, n, chain_edges(n))})
            round_ops.append({"kind": "weak", "graph": chain_graph(rng, n, chain_edges(n))})
        for n in CYCLIC_SIZES:
            round_ops += [{"kind": "local", "condition": condition,
                           "graph": cyclic_graph(rng, n)} for condition in LOCAL_CONDITIONS]
        for n, count in zip(GMC_SIZES, (2, 1, r % 2)):
            round_ops += [{"kind": "gmc", "graph": chain_graph(rng, n, n - 1)}
                          for _ in range(count)]
        rng.shuffle(round_ops)
        ops += round_ops
        if r == 1:
            period = len(ops)
    return {"ops": ops, "round": period}


# ---------------------------------------------------------------------------
# Chain models with tables (oracle-verify)

def oracle_inputs(seed: int) -> dict:
    rng = random.Random(f"oracle-verify/{seed}")
    ops = []
    for i in range(ORACLE_POOL):
        k = ORACLE_SIZES[i % len(ORACLE_SIZES)]
        ops.append({"model": chain_model(rng, k)["text"], "seed": rng.randrange(1 << 30)})
    return {"ops": ops, "round": len(ORACLE_SIZES)}


# ---------------------------------------------------------------------------
# CLI ops (cli-desk)

MALFORMED = (
    "U: P(A given) = 0.3\n",
    "U: 1.5 <= P(A) <= 2\n",
    "X: P(A) = 0.1\n",
    "U: P(A $ B) = 0.2\n",
    "D: P(A & (B | C) = 0.4\n",
)


def table_for(rng: random.Random, props: list[str]) -> dict:
    """A positive random joint table (first proposition = least significant bit)."""
    weights = [rng.uniform(1e-3, 1.0) for _ in range(1 << len(props))]
    total = sum(weights)
    return {"props": props, "probs": [w / total for w in weights]}


def check_dist_exit(constraints: list[tuple], table: dict) -> int:
    """Exit code `lcn check-dist` must give: 0 when every constraint holds
    on the table (vacuous ones count as holding), else 1.  Computed here
    from first principles so that it needs no recorded answer."""
    props = table["props"]
    rows = [{p: (i >> j) & 1 for j, p in enumerate(props)}
            for i in range(len(table["probs"]))]
    for _, lo, hi, phi, psi in constraints:
        joint = margin = 0.0
        for assign, p in zip(rows, table["probs"]):
            if psi is None or evaluate(psi, assign):
                margin += p
                if evaluate(phi, assign):
                    joint += p
        if margin > 0.0 and not (lo - 1e-9 <= joint / margin <= hi + 1e-9):
            return 1
    return 0


def _model_props(text_: str) -> list[str]:
    """Propositions in order of first appearance, as the model parser
    declares them."""
    order: dict[str, None] = {}
    for line in text_.splitlines():
        body = line.split(":", 1)[1]
        for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", body):
            if name not in ("P", "given", "true", "false", "in"):
                order.setdefault(name)
    return list(order)


def cli_inputs(seed: int) -> dict:
    """One schedule of CLI ops.  Files are returned by name and written to
    the run's input directory; argv entries name them relative to it.

    `expect` is the exit code the op must give; `error` marks ops that must
    also print a line starting with ``error:`` on stderr.
    """
    rng = random.Random(f"cli-desk/{seed}")
    files: dict[str, str] = {}
    for name in FIXTURE_NAMES:
        files[f"{name}.lcn"] = (FIXTURES / f"{name}.lcn").read_text()
    chains = []
    for i, k in enumerate((4, 5, 6, 7, 8, 9)):
        model = chain_model(rng, k)
        files[f"chain{i}.lcn"] = model["text"]
        chains.append((f"chain{i}.lcn", k, model))
    for i, bad in enumerate(MALFORMED):
        files[f"bad{i}.lcn"] = bad

    def op(argv: list[str], expect: int = 0, error: bool = False) -> dict:
        return {"argv": argv, "expect": expect, "error": error}

    cyclic = ("cycle6.lcn",)  # the only fixture whose structure has a directed cycle
    schedule: list[dict] = []
    for name, k, model in chains:
        table = table_for(rng, _model_props(model["text"]))
        files[f"table{k}.json"] = json.dumps(table)
        group = [
            op(["parse", name]),
            op(["graph", name, "--kind", ("dependency", "structure", "mixed")[k % 3],
                "--format", ("dot", "json")[k % 2]]),
            op(["indep", name, "--condition", ("lmc-lcn", "lmc-c", "lmc-cstr", "lmc-d")[k % 4]]),
            op(["factorize", name, "--prune"]),
            op(["check-dist", f"table{k}.json", name],
               expect=check_dist_exit(model["constraints"], table)),
            op(["verify", name, "--samples", "3", "--seed", str(rng.randrange(1000))]),
        ]
        if k <= 6:
            group.insert(3, op(["indep", name, "--condition", "gmc-c"]))
        schedule += group
    for i, name in enumerate(FIXTURE_NAMES):
        path = f"{name}.lcn"
        schedule += [
            op(["parse", path]),
            op(["graph", path, "--kind", ("dependency", "mixed")[i % 2], "--format", "json"]),
            op(["indep", path, "--condition", ("lmc-lcn", "lmc-c", "lmc-cstr", "lmc-d")[i % 4],
                "--format", "json"]),
            op(["condense", path, "--format", "json"]),
            op(["factorize", path, "--prune"],
               expect=1 if path in cyclic else 0, error=path in cyclic),
        ]
    schedule += [
        op(["indep", "quad_mixed.lcn", "--condition", "gmc-c"]),
        op(["compare", "smokers.lcn", "smokers_variant.lcn",
            "--condition-a", "lmc-cstr", "--condition-b", "lmc-cstr"]),
        op(["compare", "smokers.lcn", "smokers.lcn",
            "--condition-a", "lmc-lcn", "--condition-b", "lmc-cstr", "--format", "json"]),
        op(["verify", "smokers.lcn", "--samples", "2"]),
    ]
    schedule += [op(["parse", f"bad{i}.lcn"], expect=1, error=True)
                 for i in range(len(MALFORMED))]
    # Spread each kind of op evenly over the schedule (the k-th of n ops of a
    # kind sits at (k + 1/2) / n), so any stretch of it, and so any run
    # however many ops it completes, holds the same mix on every seed.
    queues: dict[str, list[dict]] = {}
    for o in schedule:
        kind = o["argv"][0] + (" error" if o["error"] else "") + (
            " gmc" if "gmc-c" in o["argv"] else "")
        queues.setdefault(kind, []).append(o)
    ranked = [((k + 0.5) / len(q), kind, k) for kind, q in queues.items() for k in range(len(q))]
    ops = [queues[kind][k] for _, kind, k in sorted(ranked)]
    return {"ops": ops, "files": files, "round": 1}


GENERATORS = {
    "cli-desk": cli_inputs,
    "build-large": build_large_inputs,
    "indep-graphs": indep_graph_inputs,
    "oracle-verify": oracle_inputs,
}
