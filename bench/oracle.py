"""Independent oracles for the benchmark's correctness checks.

Nothing here imports prefnet.  Concepts are plain tuples produced by
``gen.py``::

    ("top",) ("bot",) ("name", n) ("nom", ind) ("not", c)
    ("and", a, b) ("or", a, b) ("exists", r, c) ("forall", r, c)

Three evaluators cover the three workloads, each written against the
semantics stated in the prefnet README rather than its code:

* bit-parallel boolean evaluation over all 2^n truth assignments, with
  Pareto minima found pairwise on distinct weight vectors (role-free
  entailment by canonical model);
* set evaluation for two-valued interpretations and a degree-vector
  evaluator over sparse successor lists for the four fuzzy families
  (model checking and probabilities);
* a replica of the network semantics (sweep or synchronous iteration)
  plus a sort-based coherence check (MLP commands).
"""

from __future__ import annotations

import math

NEG_INF = float("-inf")
EPS = 1e-9


# ---------------------------------------------------------------------------
# Role-free entailment


def bitset(concept: tuple, names: list[str]) -> int:
    """The set of assignments (bit k of the result = assignment k) where
    the boolean concept is true; assignment k gives name i the value of
    bit i of k."""
    full = (1 << (1 << len(names))) - 1
    cache: dict[str, int] = {}

    def name_mask(i: int) -> int:
        # Assignments with bit i set: runs of 2^i ones every 2^(i+1).
        block = ((1 << (1 << i)) - 1) << (1 << i)
        period = 1 << (i + 1)
        mask = 0
        for start in range(0, 1 << len(names), period):
            mask |= block << start
        return mask

    def ev(c: tuple) -> int:
        tag = c[0]
        if tag == "top":
            return full
        if tag == "bot":
            return 0
        if tag == "name":
            if c[1] not in cache:
                cache[c[1]] = name_mask(names.index(c[1]))
            return cache[c[1]]
        if tag == "not":
            return full & ~ev(c[1])
        if tag == "and":
            return ev(c[1]) & ev(c[2])
        if tag == "or":
            return ev(c[1]) | ev(c[2])
        raise ValueError(f"not a boolean concept: {c!r}")

    return ev(concept)


def pareto_minimal(vectors: list[tuple[float, ...]]) -> set[tuple[float, ...]]:
    """Vectors not dominated by another: higher is better in every slot."""
    distinct = list(set(vectors))
    out = set()
    for v in distinct:
        if not any(
            z != v
            and all(a >= b for a, b in zip(z, v))
            and any(a > b for a, b in zip(z, v))
            for z in distinct
        ):
            out.add(v)
    return out


def entailment(kb: dict, subject: tuple, consequent: tuple) -> tuple[bool, int]:
    """Verdict of ``T(subject) [= consequent`` over all models of a
    role-free KB, and the number of assignments the strict TBox keeps."""
    names = kb["names"]
    n_assign = 1 << len(names)
    kept = (1 << n_assign) - 1
    for ax in kb["strict"]:
        kept &= ~bitset(ax["left"], names) | bitset(ax["right"], names)
    n_kept = bin(kept).count("1")
    ext = kept & bitset(subject, names)
    if not ext:
        return True, n_kept
    member = {c: bitset(("name", c), names) for c in kb["distinguished"]}
    sat = {
        c: [(bitset(d, names), w) for d, w in kb["defaults"][c]]
        for c in kb["distinguished"]
    }
    elems = [k for k in range(n_assign) if ext >> k & 1]
    vec_of = {}
    for k in elems:
        vec = []
        for c in kb["distinguished"]:
            if not member[c] >> k & 1:
                vec.append(NEG_INF)
                continue
            total = 0.0
            for mask, w in sat[c]:
                if mask >> k & 1:
                    total += w
            vec.append(total)
        vec_of[k] = tuple(vec)
    minimal = pareto_minimal(list(vec_of.values()))
    cons = bitset(consequent, names)
    return all(cons >> k & 1 for k in elems if vec_of[k] in minimal), n_kept


# ---------------------------------------------------------------------------
# Finite interpretations

FAMILY_OPS = {
    "zadeh": (
        min,
        max,
        lambda a: 1.0 - a,
        lambda a, b: max(1.0 - a, b),
    ),
    "goedel": (
        min,
        max,
        lambda a: 1.0 if a == 0.0 else 0.0,
        lambda a, b: 1.0 if a <= b else b,
    ),
    "lukasiewicz": (
        lambda a, b: max(0.0, a + b - 1.0),
        lambda a, b: min(1.0, a + b),
        lambda a: 1.0 - a,
        lambda a, b: min(1.0, 1.0 - a + b),
    ),
    "product": (
        lambda a, b: a * b,
        lambda a, b: a + b - a * b,
        lambda a: 1.0 if a == 0.0 else 0.0,
        lambda a, b: 1.0 if a <= b else b / a,
    ),
}


class Interp:
    """Dense concept rows and sparse successor lists over indices 0..n-1."""

    def __init__(self, obj: dict):
        self.domain = list(obj["domain"])
        index = {e: i for i, e in enumerate(self.domain)}
        n = len(self.domain)
        self.rows = {}
        for name, row in obj["concepts"].items():
            dense = [0.0] * n
            for e, d in row.items():
                dense[index[e]] = d
            self.rows[name] = dense
        self.succ = {}
        for role, triples in obj["roles"].items():
            lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
            for x, y, d in triples:
                lists[index[x]].append((index[y], d))
            self.succ[role] = lists
        self.ind = {i: index[e] for i, e in obj["individuals"].items()}

    def role_degree(self, role: str, x: int, y: int) -> float:
        for z, d in self.succ[role][x]:
            if z == y:
                return d
        return 0.0


def degrees(interp: Interp, family: str, concept: tuple) -> list[float]:
    """Membership degree of every element, under one fuzzy family."""
    tnorm, snorm, neg, impl = FAMILY_OPS[family]
    n = len(interp.domain)

    def ev(c: tuple) -> list[float]:
        tag = c[0]
        if tag == "top":
            return [1.0] * n
        if tag == "bot":
            return [0.0] * n
        if tag == "name":
            return interp.rows[c[1]]
        if tag == "nom":
            k = interp.ind[c[1]]
            return [1.0 if i == k else 0.0 for i in range(n)]
        if tag == "not":
            return [neg(a) for a in ev(c[1])]
        if tag in ("and", "or"):
            op = tnorm if tag == "and" else snorm
            return [op(a, b) for a, b in zip(ev(c[1]), ev(c[2]))]
        arg = ev(c[2])
        succ = interp.succ.get(c[1], [[] for _ in range(n)])
        # A zero-degree pair contributes tnorm(0, b) = 0 to exists and
        # impl(0, b) = 1 to forall in all four families.
        if tag == "exists":
            return [max([0.0] + [tnorm(d, arg[y]) for y, d in succ[x]]) for x in range(n)]
        if tag == "forall":
            return [min([1.0] + [impl(d, arg[y]) for y, d in succ[x]]) for x in range(n)]
        raise ValueError(f"not a concept: {c!r}")

    return ev(concept)


def extension(interp: Interp, concept: tuple) -> set[int]:
    """Members of a concept in a two-valued interpretation, by set algebra."""
    n = len(interp.domain)
    everything = set(range(n))

    def ev(c: tuple) -> set[int]:
        tag = c[0]
        if tag == "top":
            return set(everything)
        if tag == "bot":
            return set()
        if tag == "name":
            return {i for i, d in enumerate(interp.rows[c[1]]) if d == 1.0}
        if tag == "nom":
            return {interp.ind[c[1]]}
        if tag == "not":
            return everything - ev(c[1])
        if tag == "and":
            return ev(c[1]) & ev(c[2])
        if tag == "or":
            return ev(c[1]) | ev(c[2])
        arg = ev(c[2])
        succ = interp.succ.get(c[1], [[] for _ in range(n)])
        if tag == "exists":
            return {x for x in range(n) if any(y in arg for y, _ in succ[x])}
        if tag == "forall":
            return {x for x in range(n) if all(y in arg for y, _ in succ[x])}
        raise ValueError(f"not a concept: {c!r}")

    return ev(concept)


def compare(value: float, theta: str, bound: float) -> bool:
    """The README's tolerant comparison: >= and <= absorb 1e-9."""
    return {
        ">=": value >= bound - EPS,
        "<=": value <= bound + EPS,
        ">": value > bound,
        "<": value < bound,
    }[theta]


def inclusion_degree(interp: Interp, family: str, left: tuple, right: tuple) -> float:
    impl = FAMILY_OPS[family][3]
    return min(impl(a, b) for a, b in zip(degrees(interp, family, left),
                                          degrees(interp, family, right)))


def axiom_holds(interp: Interp, family: str, axiom: dict) -> bool:
    """A plain (typicality-free) query axiom or ABox statement."""
    kind = axiom["kind"]
    if kind == "role":
        x, y = interp.ind[axiom["subject"]], interp.ind[axiom["target"]]
        return compare(interp.role_degree(axiom["role"], x, y), ">=", 1.0)
    theta, bound = axiom.get("theta", ">="), axiom.get("degree", 1.0)
    if kind == "inclusion":
        value = inclusion_degree(interp, family, axiom["left"], axiom["right"])
    else:
        value = degrees(interp, family, axiom["concept"])[interp.ind[axiom["individual"]]]
    return compare(value, theta, bound)


def is_model(interp: Interp, family: str, kb: dict) -> bool:
    return all(axiom_holds(interp, family, ax) for ax in kb["strict"] + kb["abox"])


def crisp_typical(interp: Interp, kb: dict, subject: tuple) -> list[int]:
    """Globally minimal instances of the subject under the Pareto
    combination of the per-concept crisp weights, in domain order."""
    ext = sorted(extension(interp, subject))
    vec_of = {}
    members = {c: extension(interp, ("name", c)) for c in kb["distinguished"]}
    sats = {
        c: [(extension(interp, d), w) for d, w in kb["defaults"][c]]
        for c in kb["distinguished"]
    }
    for x in ext:
        vec = []
        for c in kb["distinguished"]:
            if x not in members[c]:
                vec.append(NEG_INF)
                continue
            total = 0.0
            for sat, w in sats[c]:
                if x in sat:
                    total += w
            vec.append(total)
        vec_of[x] = tuple(vec)
    minimal = pareto_minimal(list(vec_of.values()))
    return [x for x in ext if vec_of[x] in minimal]


def fuzzy_typical(interp: Interp, family: str, subject: tuple) -> list[int]:
    """Positive-degree maximizers of the subject, in domain order."""
    deg = degrees(interp, family, subject)
    best = max(deg)
    return [] if best == 0.0 else [i for i, d in enumerate(deg) if d == best]


# ---------------------------------------------------------------------------
# Networks


def _sigmoid(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _softplus01(u: float) -> float:
    s = u + math.log1p(math.exp(-u)) if u > 30.0 else math.log1p(math.exp(u))
    return s / (1.0 + s)


ACTIVATION_FNS = {
    "sigmoid": _sigmoid,
    "softplus01": _softplus01,
    "hard-sigmoid": lambda u: min(1.0, max(0.0, 0.2 * u + 0.5)),
    "step": lambda u: 1.0 if u >= 0.0 else 0.0,
    "linear-clamp": lambda u: min(1.0, max(0.0, u)),
}


def run_network(net: dict, stimuli: dict) -> tuple[dict, dict]:
    """Activities (all nodes) and fields (units) per stimulus id."""
    units = net["units"]
    ids = {u["id"] for u in units}
    fns = {u["id"]: ACTIVATION_FNS[u["activation"]] for u in units}

    def field(u: dict, sig: dict) -> float:
        total = u["bias"]
        for src, w in u["in"]:
            total += w * sig[src]
        return total

    order = []
    done: set[str] = set()
    pending = list(units)
    while pending:
        ready = [u for u in pending if all(s in done or s not in ids for s, _ in u["in"])]
        if not ready:
            order = None
            break
        for u in ready:
            order.append(u)
            done.add(u["id"])
        pending = [u for u in pending if u["id"] not in done]
    activity, fields = {}, {}
    for entry in stimuli["stimuli"]:
        sig = {k: min(1.0, max(0.0, v)) for k, v in entry["values"].items()}
        fld = {}
        if order is not None:
            for u in order:
                fld[u["id"]] = field(u, sig)
                sig[u["id"]] = fns[u["id"]](fld[u["id"]])
        else:
            for u in units:
                sig[u["id"]] = 0.0
            for _ in range(10000):
                fld = {u["id"]: field(u, sig) for u in units}
                new = {k: fns[k](v) for k, v in fld.items()}
                delta = max(abs(new[k] - sig[k]) for k in new)
                sig.update(new)
                if delta < EPS:
                    break
            else:
                raise ArithmeticError("network did not settle")
            fld = {u["id"]: field(u, sig) for u in units}
            sig.update({k: fns[k](v) for k, v in fld.items()})
        activity[entry["id"]] = sig
        fields[entry["id"]] = fld
    return activity, fields


def coherent(pairs: list[tuple[float, float]]) -> tuple[bool, bool]:
    """(strict, weak) agreement of (weight, degree) pairs: strict when
    weight order and degree order coincide, weak when a higher degree
    always comes with a higher weight."""
    by_weight: dict[float, set[float]] = {}
    for w, d in pairs:
        by_weight.setdefault(w, set()).add(d)
    ws = sorted(by_weight)
    strict = all(len(by_weight[w]) == 1 for w in ws) and all(
        max(by_weight[a]) < min(by_weight[b]) for a, b in zip(ws, ws[1:])
    )
    by_degree: dict[float, list[float]] = {}
    for w, d in pairs:
        by_degree.setdefault(d, []).append(w)
    ds = sorted(by_degree)
    weak = all(max(by_degree[a]) < min(by_degree[b]) for a, b in zip(ds, ds[1:]))
    return strict, weak


def verification(net: dict, stimuli: dict, activity: dict, fields: dict) -> dict:
    """What ``mlp verify`` must report, computed from the replica: block
    sums of the extracted KB against the fields, then coherence."""
    gated = checked = 0
    max_err = 0.0
    strict_all = weak_all = True
    for u in net["units"]:
        cid = u["id"]
        pairs = []
        for entry in stimuli["stimuli"]:
            sid = entry["id"]
            act = activity[sid]
            if act[cid] == 0.0:
                gated += 1
                pairs.append((NEG_INF, 0.0))
                continue
            total = 0.0
            if u["bias"] != 0.0:
                total += u["bias"] * 1.0
            for src, w in u["in"]:
                total += w * act[src]
            checked += 1
            max_err = max(max_err, abs(total - fields[sid][cid]))
            pairs.append((total, act[cid]))
        s, w = coherent(pairs)
        strict_all = strict_all and s
        weak_all = weak_all and w
    return {
        "gated_pairs": gated,
        "checked_pairs": checked,
        "max_weight_error": max_err,
        "coherent": strict_all,
        "weakly_coherent": weak_all,
    }
