"""Seeded input generators and the op schedule of each workload.

An op is one ``prefnet.cli.main(argv)`` call on freshly written fixture
files.  ``make_op(workload, seed, index, workdir)`` builds op ``index``
from its own ``random.Random`` so that a seed fixes every input, and
returns the argv, the files to write, a ``check(rc, stdout)`` that
compares the output against the oracles in ``oracle.py``, and the input
properties the report aggregates.

Ops follow a fixed schedule of (size tier, kind) slots.  Op ``index``
takes slot ``index // 2``, so two consecutive ops share a slot and a
traced run can pair each traced op with an untraced one of the same kind.
The schedules put the median inside a block of similar-cost ops and p90
inside the large-tier block that dominates each workload, away from the
cliffs between tiers, so both percentiles stay put from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

# 30% small, 40% medium, 30% large: the median falls mid-way through the
# medium tier and p90 two thirds of the way through the large one.
TIER_PATTERN = ("S", "M", "L", "M", "S", "M", "L", "S", "M", "L")

# Per tier: concept names of the KB and how many strict axioms prune the
# 2^n truth assignments.
ENTAIL_TIERS = {"S": (6, 1), "M": (8, 2), "L": (10, 4)}

# Per tier: domain size and the quantifier depth of the KB's default
# consequents and of the queried concepts.
ALC_TIERS = {"S": (20, 2), "M": (40, 1), "L": (80, 1)}
ALC_KINDS = ("crisp-typ", "fuzzy-typ", "crisp-plain", "fuzzy-plain", "prob")
ALC_NAMES = [f"C{i}" for i in range(6)]
ALC_ROLES = ["r", "s"]
ALC_DENSITY = 0.1
FAMILIES = ("zadeh", "goedel", "lukasiewicz", "product")

# Per tier: layer widths (inputs first) and stimulus count.
MLP_TIERS = {"S": ((8, 16, 8), 100), "M": ((16, 32, 16), 75), "L": ((32, 64, 64, 10), 50)}
WEAK_ACTIVATIONS = ("hard-sigmoid", "step", "linear-clamp")

SCHEDULES = {
    "entail-rolefree": [(tier, "entail") for tier in TIER_PATTERN],
    # Probabilities, the costliest kind, fill a fifth of the slots and hold
    # p90: three large-tier slots (depth 1 over 80 elements) put it inside
    # that group, below the one small-tier slot (depth 2 over 20 elements).
    # The median falls among the medium-tier model checks.
    "alc-check": [
        ("S", "prob"), ("L", "prob"), ("L", "prob"), ("L", "prob"),
        *[(tier, kind) for kind in ALC_KINDS[:4] for tier in ("S", "M", "L", "M")],
    ],
    # Slots in order of their cost when this schedule was drawn up: a
    # cheap block (30% of ops); a block of mid-cost ops around the median;
    # two large weak verifications; and the four large strict
    # verifications (20%) that hold p90.  Two small-tier slots use cyclic
    # nets, which run the iterative stationary-state path.
    "mlp-verify": [
        ("S", "extract-kb"), ("M", "extract-kb"), ("S", "forward"),
        ("S", "model-crisp"), ("M", "model-crisp"), ("S", "verify-weak"),
        ("M", "verify-strict"), ("M", "verify-weak"), ("L", "forward"),
        ("S", "verify-strict+cyclic"), ("M", "verify-strict"), ("M", "verify-weak"),
        ("L", "model-crisp"), ("S", "model-crisp+cyclic"),
        ("L", "verify-weak"), ("L", "verify-weak"),
        ("L", "verify-strict"), ("L", "verify-strict"), ("L", "verify-strict"),
        ("L", "verify-strict"),
    ],
}
WORKLOADS = tuple(SCHEDULES)


def period(workload: str) -> int:
    """Ops in one full cycle of the workload's schedule."""
    return 2 * len(SCHEDULES[workload])


@dataclass
class Op:
    argv: list[str]
    files: dict[Path, str]
    check: Callable[[int, str], str | None]  # None when correct, else why not
    props: dict = field(default_factory=dict)
    tier: str = ""
    kind: str = ""


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    tier, kind = SCHEDULES[workload][index // 2 % len(SCHEDULES[workload])]
    rng = random.Random(f"{seed}/{workload}/{index}")
    make = {
        "entail-rolefree": _entail_op,
        "alc-check": _alc_op,
        "mlp-verify": _mlp_op,
    }[workload]
    op = make(rng, tier, kind, workdir / f"op{index}")
    op.tier, op.kind = tier, kind
    return op


# ---------------------------------------------------------------------------
# Concepts as tuples, and their text


def text(c: tuple) -> str:
    """Concrete syntax; binary connectives are always parenthesized."""
    tag = c[0]
    if tag == "top":
        return "Top"
    if tag == "bot":
        return "Bottom"
    if tag == "name":
        return c[1]
    if tag == "nom":
        return "{" + c[1] + "}"
    if tag == "not":
        return "not " + text(c[1])
    if tag in ("and", "or"):
        return f"({text(c[1])} {tag} {text(c[2])})"
    return f"{tag} {c[1]}.{text(c[2])}"


def boolean(rng: random.Random, names: list[str], depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        return ("name", rng.choice(names))
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return ("not", boolean(rng, names, depth - 1))
    return (kind, boolean(rng, names, depth - 1), boolean(rng, names, depth - 1))


def quantified(rng: random.Random, names: list[str], qdepth: int, inds: list[str],
               inner: bool = False) -> tuple:
    """A concept whose quantifier nesting is exactly ``qdepth``.  Under a
    quantifier the leaf is a single name or nominal: it is evaluated n^depth
    times, so a compound leaf would make the cost of same-depth concepts
    vary severalfold."""
    if qdepth == 0:
        if inds and rng.random() < 0.1:
            return ("nom", rng.choice(inds))
        return ("name", rng.choice(names)) if inner else boolean(rng, names, 1)
    inner = quantified(rng, names, qdepth - 1, inds, inner=True)
    core = (rng.choice(("exists", "forall")), rng.choice(ALC_ROLES), inner)
    roll = rng.random()
    if roll < 0.3:
        return ("and", ("name", rng.choice(names)), core)
    if roll < 0.45:
        return ("or", core, ("name", rng.choice(names)))
    if roll < 0.55:
        return ("not", core)
    return core


def names_in(c: tuple) -> set[str]:
    if c[0] == "name":
        return {c[1]}
    return set().union(*(names_in(x) for x in c[1:] if isinstance(x, tuple)))


def weight(rng: random.Random) -> float:
    w = round(rng.uniform(-5.0, 5.0), 2)
    return w if w != 0.0 else 0.5


def kb_text(kb: dict) -> str:
    lines = ["distinguished: " + ", ".join(kb["distinguished"])]
    for ax in kb["strict"]:
        lines.append(f"strict: {text(ax['left'])} [= {text(ax['right'])}")
    for c in kb["distinguished"]:
        for d, w in kb["defaults"][c]:
            lines.append(f"def({c}): T({c}) [= {text(d)} @ {w!r}")
    for ax in kb["abox"]:
        if ax["kind"] == "role":
            lines.append(f"assert: {ax['role']}({ax['subject']},{ax['target']})")
        else:
            lines.append(f"assert: ({text(ax['concept'])})({ax['individual']})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entail-rolefree


def _entail_op(rng: random.Random, tier: str, kind: str, stem: Path) -> Op:
    n, n_strict = ENTAIL_TIERS[tier]
    names = [f"N{i}" for i in range(n)]
    distinguished = names[:2]
    # Strict axioms on disjoint pairs of names each keep exactly 3/4 of
    # the assignments, so a tier's canonical model has a fixed size.
    pairs = rng.sample(names, 2 * n_strict)
    strict = [
        {"kind": "inclusion", "left": ("name", a),
         "right": ("name", b) if rng.random() < 0.5 else ("not", ("name", b))}
        for a, b in zip(pairs[::2], pairs[1::2])
    ]
    defaults = {
        c: [(boolean(rng, names, 2), weight(rng)) for _ in range(rng.randint(3, 5))]
        for c in distinguished
    }
    # Every name occurs somewhere, so the canonical model has 2^n candidates.
    used = set(distinguished)
    for c in [ax[side] for ax in strict for side in ("left", "right")] + [
            d for block in defaults.values() for d, _ in block]:
        used |= names_in(c)
    for extra in sorted(set(names) - used):
        defaults[rng.choice(distinguished)].append((("name", extra), weight(rng)))
    subject = ("name", rng.choice(distinguished))
    if rng.random() < 0.3:
        subject = ("and", subject, ("name", rng.choice(names[2:])))
    consequent = boolean(rng, names, 2)
    kb = {"names": names, "distinguished": distinguished, "strict": strict,
          "defaults": defaults, "abox": []}
    kb_path = stem.with_suffix(".wkb")
    expected, kept = oracle.entailment(kb, subject, consequent)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)["entailed"]
        return None if got == expected else f"entailed {got}, oracle {expected}"

    return Op(
        argv=["entail", "--kb", str(kb_path), "--query",
              f"T({text(subject)}) [= {text(consequent)}"],
        files={kb_path: kb_text(kb)},
        check=check,
        props={"names": n, "strict_axioms": n_strict, "assignments_kept": kept,
               "defaults": sum(len(v) for v in defaults.values())},
    )


# ---------------------------------------------------------------------------
# alc-check


def _interp_json(rng: random.Random, n: int, crisp: bool) -> dict:
    domain = [f"e{i}" for i in range(n)]

    def degree() -> float:
        return 1.0 if crisp else rng.randint(1, 16) / 16

    share = 0.5 if crisp else 0.8
    concepts = {
        c: {e: degree() for e in domain if rng.random() < share} for c in ALC_NAMES
    }
    roles = {
        r: [[x, y, degree()] for x in domain for y in domain if rng.random() < ALC_DENSITY]
        for r in ALC_ROLES
    }
    individuals = {f"i{k}": domain[k] for k in range(4)}
    return {"domain": domain, "concepts": concepts, "roles": roles,
            "individuals": individuals}


def _alc_op(rng: random.Random, tier: str, kind: str, stem: Path) -> Op:
    n, qdepth = ALC_TIERS[tier]
    crisp = kind.startswith("crisp")
    obj = _interp_json(rng, n, crisp)
    interp = oracle.Interp(obj)
    inds = sorted(obj["individuals"])
    family = rng.choice(FAMILIES)
    interp_path = stem.with_suffix(".json")
    files = {interp_path: json.dumps(obj)}
    edges = sum(len(t) for t in obj["roles"].values())
    props = {"domain_size": n, "quantifier_depth": qdepth,
             "role_density": edges / (len(ALC_ROLES) * n * n)}
    if kind == "prob":
        return _prob_op(rng, interp, inds, stem, interp_path, files, qdepth, props)

    distinguished = ALC_NAMES[:2]
    kb = {
        "distinguished": distinguished,
        "defaults": {
            c: [(quantified(rng, ALC_NAMES, depth, inds), weight(rng))
                for depth in (0, 1, qdepth)]
            for c in distinguished
        },
        "strict": [{"kind": "inclusion", "left": ("name", rng.choice(ALC_NAMES)),
                    "right": quantified(rng, ALC_NAMES, 1, [])}],
        "abox": [
            {"kind": "concept", "concept": boolean(rng, ALC_NAMES, 1),
             "individual": rng.choice(inds)},
            {"kind": "role", "role": rng.choice(ALC_ROLES),
             "subject": inds[0], "target": inds[1]},
        ],
    }
    kb_path = stem.with_suffix(".wkb")
    files[kb_path] = kb_text(kb)
    theta = rng.choice((">=", "<=", ">", "<"))
    bound = rng.randint(1, 15) / 16
    right = quantified(rng, ALC_NAMES, qdepth, inds)

    if kind.endswith("typ"):
        subject = ("name", rng.choice(distinguished))
        axiom = f"T({text(subject)}) [= {text(right)}"
        bounded = not crisp and rng.random() < 0.5
        if bounded:
            axiom += f" {theta} {bound!r}"

        def expected() -> dict:
            if crisp:
                typical = oracle.crisp_typical(interp, kb, subject)
                members = oracle.extension(interp, right)
                holds = all(x in members for x in typical)
            else:
                typical = oracle.fuzzy_typical(interp, family, subject)
                deg = oracle.degrees(interp, family, right)
                value = min([1.0] + [deg[x] for x in typical])
                holds = oracle.compare(value, theta if bounded else ">=",
                                       bound if bounded else 1.0)
            return {"holds": holds, "typicality_set": [interp.domain[x] for x in typical]}
    else:
        if rng.random() < 0.5:
            plain = {"kind": "inclusion", "left": quantified(rng, ALC_NAMES, qdepth - 1, inds),
                     "right": right}
            axiom = f"{text(plain['left'])} [= {text(right)}"
        else:
            plain = {"kind": "concept", "concept": right, "individual": rng.choice(inds)}
            axiom = f"({text(right)})({plain['individual']})"
        if not crisp:
            plain.update(theta=theta, degree=bound)
            axiom += f" {theta} {bound!r}"

        def expected() -> dict:
            return {"holds": oracle.axiom_holds(interp, family, plain)}

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        want = expected()
        want["is_model"] = oracle.is_model(interp, family, kb)
        want["mode"] = "crisp" if crisp else "fuzzy"
        have = {"holds": got["holds"], **got["details"]}
        for key, value in want.items():
            if have.get(key) != value:
                return f"{key} {have.get(key)!r}, oracle {value!r}"
        return None

    return Op(
        argv=["check", "--kb", str(kb_path), "--interp", str(interp_path),
              "--axiom", axiom, "--logic", family],
        files=files, check=check, props=props,
    )


def _positive_concept(rng, interp, qdepth, inds) -> tuple:
    """A concept with nonzero cardinality, so ratios over it are defined."""
    while True:
        c = quantified(rng, ALC_NAMES, qdepth, inds)
        if any(oracle.degrees(interp, "zadeh", c)):
            return c


def _prob_op(rng, interp, inds, stem, interp_path, files, qdepth, props) -> Op:
    n = len(interp.domain)
    event = quantified(rng, ALC_NAMES, qdepth, inds)
    cc_left = quantified(rng, ALC_NAMES, qdepth, inds)
    cc_given = _positive_concept(rng, interp, qdepth, inds)
    lo = rng.randint(0, 8) / 16
    hi = lo + rng.randint(0, 8) / 16
    sub_left = _positive_concept(rng, interp, qdepth, inds)
    sub_right = quantified(rng, ALC_NAMES, qdepth, inds)
    left = boolean(rng, ALC_NAMES, 1)
    given = _positive_concept(rng, interp, 0, inds)
    a = rng.randint(0, 8) / 16
    queries = [("cc", left, given, a, a + rng.randint(0, 8) / 16)]
    ind = rng.choice(inds)
    concept = boolean(rng, ALC_NAMES, 1)
    value = oracle.degrees(interp, "zadeh", concept)[interp.ind[ind]]
    queries.append(("passert", concept, ind, value if rng.random() < 0.5 else rng.randint(0, 16) / 16))
    q_path = stem.with_name(stem.name + "-queries.wkb")
    q_lines = []
    for q in queries:
        if q[0] == "cc":
            q_lines.append(f"cc: ({text(q[1])} | {text(q[2])})[{q[3]!r},{q[4]!r}]")
        else:
            q_lines.append(f"passert: P(({text(q[1])})({q[2]}))[{q[3]!r}]")
    files[q_path] = "\n".join(q_lines) + "\n"

    def prob(c: tuple) -> float:
        mu = 1.0 / n
        return sum(d * mu for d in oracle.degrees(interp, "zadeh", c))

    def ratio(left: tuple, given: tuple) -> float:
        return prob(("and", left, given)) / prob(given)

    def card(c: tuple) -> float:
        return sum(oracle.degrees(interp, "zadeh", c))

    want: list[tuple[int, str, object]] = [
        (0, "probability", prob(event)),
        (1, "ratio", ratio(cc_left, cc_given)),
        (1, "holds", lo - oracle.EPS <= ratio(cc_left, cc_given) <= hi + oracle.EPS),
        (2, "subsethood", card(("and", sub_left, sub_right)) / card(sub_left)),
    ]
    for slot, q in enumerate(queries, start=3):
        if q[0] == "cc":
            r = ratio(q[1], q[2])
            want += [(slot, "ratio", r),
                     (slot, "holds", q[3] - oracle.EPS <= r <= q[4] + oracle.EPS)]
        else:
            value = prob(("and", q[1], ("nom", q[2]))) / (1.0 / n)
            want += [(slot, "value", value), (slot, "holds", abs(value - q[3]) <= oracle.EPS)]

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)["results"]
        if len(got) != 3 + len(queries):
            return f"{len(got)} results, expected {3 + len(queries)}"
        for slot, key, value in want:
            have = got[slot].get(key)
            if isinstance(value, bool) or have is None:
                ok = have == value
            else:
                ok = abs(have - value) <= 1e-9 * max(1.0, abs(value))
            if not ok:
                return f"result {slot} {key} {have!r}, oracle {value!r}"
        return None

    return Op(
        argv=["prob", "--interp", str(interp_path), "--event", text(event),
              "--cc", f"({text(cc_left)} | {text(cc_given)})[{lo!r},{hi!r}]",
              "--subsethood", text(sub_left), text(sub_right),
              "--queries", str(q_path)],
        files=files, check=check, props=props,
    )


# ---------------------------------------------------------------------------
# mlp-verify


def _net_json(rng: random.Random, widths: tuple[int, ...], activations, recurrent: bool) -> dict:
    inputs = [f"x{i}" for i in range(widths[0])]
    prev = inputs
    units = []
    layers = []
    for depth, width in enumerate(widths[1:], start=1):
        here = [f"h{depth}_{j}" for j in range(width)]
        scale = 2.0 / len(prev) ** 0.5
        for uid in here:
            units.append({
                "id": uid,
                "activation": rng.choice(activations),
                "bias": 0.0 if rng.random() < 0.2 else round(rng.gauss(0.0, 0.5), 6),
                "in": [[src, round(rng.gauss(0.0, scale), 6)] for src in prev],
            })
        layers.append(here)
        prev = here
    if recurrent:
        # Feedback from the output layer into the first hidden layer, weak
        # enough that synchronous updates contract to a stationary state.
        by_id = {u["id"]: u for u in units}
        for uid in layers[0]:
            src = rng.choice(layers[-1])
            by_id[uid]["in"].append([src, round(rng.uniform(-0.3, 0.3), 6)])
    return {"inputs": inputs, "units": units, "C": [u["id"] for u in units]}


def _stimuli_json(rng: random.Random, inputs: list[str], count: int) -> dict:
    def value() -> float:
        roll = rng.random()
        return 0.0 if roll < 0.1 else rng.random()

    return {"stimuli": [{"id": f"s{k}", "values": {x: value() for x in inputs}}
                        for k in range(count)]}


def _mlp_op(rng: random.Random, tier: str, kind: str, stem: Path) -> Op:
    widths, count = MLP_TIERS[tier]
    recurrent = kind.endswith("+cyclic")
    kind = kind.removesuffix("+cyclic")
    strict = kind == "verify-strict" or (kind in ("forward", "extract-kb") and rng.random() < 0.5)
    activations = ("sigmoid",) if strict else WEAK_ACTIVATIONS
    if recurrent and not strict:
        # Step units can oscillate; hard-sigmoid contracts like sigmoid.
        activations = ("hard-sigmoid",)
    net = _net_json(rng, widths, activations, recurrent)
    stimuli = _stimuli_json(rng, net["inputs"], count)
    net_path = stem.with_suffix(".net.json")
    stim_path = stem.with_suffix(".stim.json")
    files = {net_path: json.dumps(net), stim_path: json.dumps(stimuli)}
    props = {"widths": "-".join(map(str, widths)), "stimuli": count,
             "recurrent": recurrent, "synapses": sum(len(u["in"]) for u in net["units"])}

    if kind == "extract-kb":
        del files[stim_path]
        argv = ["mlp", "extract-kb", "--net", str(net_path)]

        def check(rc: int, out: str) -> str | None:
            if rc != 0:
                return f"exit {rc}"
            want = []
            for u in net["units"]:
                if u["bias"] != 0.0:
                    want.append((u["id"], "Top", u["bias"]))
                want += [(u["id"], src, w) for src, w in u["in"]]
            have = []
            for line in out.splitlines():
                if line.startswith("def("):
                    head, rest = line.split(": T(", 1)
                    _, body = rest.split(") [= ", 1)
                    cons, w = body.rsplit(" @ ", 1)
                    have.append((head[4:-1], cons, float(w)))
            return None if have == want else "extracted blocks differ from the net"

        return Op(argv=argv, files=files, check=check, props=props)

    def replica():
        return oracle.run_network(net, stimuli)

    if kind == "forward":
        argv = ["mlp", "forward", "--net", str(net_path), "--stimuli", str(stim_path)]

        def check(rc: int, out: str) -> str | None:
            if rc != 0:
                return f"exit {rc}"
            got = json.loads(out)
            activity, fields = replica()
            for name, want in (("activity", activity), ("induced_field", fields)):
                have = got[name]
                for sid, row in want.items():
                    if have[sid].keys() != row.keys() or any(
                        abs(have[sid][k] - v) > 1e-12 for k, v in row.items()
                    ):
                        return f"{name} of {sid} differs from the replica"
            return None
    elif kind == "model-crisp":
        argv = ["mlp", "model", "--net", str(net_path), "--stimuli", str(stim_path),
                "--kind", "crisp"]

        def check(rc: int, out: str) -> str | None:
            if rc != 0:
                return f"exit {rc}"
            got = json.loads(out)["concepts"]
            activity, _ = replica()
            for node in net["inputs"] + [u["id"] for u in net["units"]]:
                members = {sid for sid, row in activity.items() if row[node] != 0.0}
                if set(got[node]) != members or any(v != 1.0 for v in got[node].values()):
                    return f"members of {node} differ from the replica"
            return None
    else:
        mode = kind.split("-")[1]
        argv = ["mlp", "verify", "--net", str(net_path), "--stimuli", str(stim_path),
                "--coherence", mode]

        def check(rc: int, out: str) -> str | None:
            got = json.loads(out)
            activity, fields = replica()
            want = oracle.verification(net, stimuli, activity, fields)
            # The paper's theorem: strictly increasing activations give a
            # coherent model, monotone ones a weakly coherent one, and in
            # both the block sums reproduce the fields.
            theorem_ok = want["max_weight_error"] <= oracle.EPS and (
                want["coherent"] if mode == "strict" else want["weakly_coherent"])
            if not theorem_ok:
                return "replica contradicts the coherence theorem"
            if rc != 0 or not got["ok"] or not got["weight_identity_ok"]:
                return f"exit {rc}, ok {got['ok']}"
            if got["max_weight_error"] > oracle.EPS:
                return f"max_weight_error {got['max_weight_error']!r}"
            for key in ("gated_pairs", "checked_pairs"):
                if got[key] != want[key]:
                    return f"{key} {got[key]}, oracle {want[key]}"
            for key in ("coherent", "weakly_coherent"):
                if got["coherence"][key] != want[key]:
                    return f"{key} {got['coherence'][key]}, oracle {want[key]}"
            return None

    return Op(argv=argv, files=files, check=check, props=props)
