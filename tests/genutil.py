"""Seeded generators and independent oracles shared by the test modules.

Oracles here deliberately avoid the library's own evaluation code paths:
set_extension works on plain Python sets, bool_eval on dict valuations,
oracle_crisp_weight/oracle_minimal redo the preference arithmetic from
scratch, and oracle_eval_concept evaluates one element at a time by
plain recursion, quantifiers scanning the whole domain.  oracle_tokenize
is the character-by-character scanner the regex tokenizer replaced, and
relative_cardinality is the sigma-count ratio that conditional_prob must
equal under the uniform distribution.  oracle_forward (dicts keyed by
node name) and oracle_weights (one running-total list per default) are
the slower forms of ``mlp.forward`` and ``preferences._weights`` that
must agree with them bit for bit.
crisp_interpretation, network_to_json and stimuli_to_json build and write
test fixtures.
"""

from __future__ import annotations

import random
import re

from prefnet import (
    And,
    Assertion,
    BOTTOM,
    Bottom,
    Concept,
    ConditionalConstraint,
    DefeasibleInclusion,
    EvaluationError,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyInclusion,
    FuzzyInterpretation,
    LogicFamily,
    Name,
    Network,
    NonConvergenceError,
    Nominal,
    Not,
    Or,
    ParseError,
    ProbAssertion,
    RoleAssertion,
    StimulusSet,
    StrictInclusion,
    TOP,
    Top,
    Typ,
    UndefinedConditionalError,
    Unit,
    WeightedKB,
    fuzzy_cardinality,
)
from prefnet import mlp
from prefnet.concepts import _Token
from prefnet.fuzzy import EPS_CMP, degrees
from prefnet.mlp import ActivityTable, get_activation
from prefnet.preferences import _require_distinguished

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Concept generators


def random_boolean_concept(
    rng: random.Random, names: list[str], depth: int = 3
) -> Concept:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.8:
            return Name(rng.choice(names))
        if roll < 0.9:
            return TOP
        return BOTTOM
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_boolean_concept(rng, names, depth - 1))
    left = random_boolean_concept(rng, names, depth - 1)
    right = random_boolean_concept(rng, names, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def random_alc_concept(
    rng: random.Random,
    names: list[str],
    roles: list[str],
    individuals: list[str] | None = None,
    depth: int = 3,
) -> Concept:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if individuals and roll < 0.1:
            return Nominal(rng.choice(individuals))
        if roll < 0.8:
            return Name(rng.choice(names))
        if roll < 0.9:
            return TOP
        return BOTTOM
    kind = rng.choice(["and", "or", "not", "exists", "forall"])
    if kind == "not":
        return Not(random_alc_concept(rng, names, roles, individuals, depth - 1))
    if kind in ("exists", "forall"):
        role = rng.choice(roles)
        arg = random_alc_concept(rng, names, roles, individuals, depth - 1)
        return Exists(role, arg) if kind == "exists" else Forall(role, arg)
    left = random_alc_concept(rng, names, roles, individuals, depth - 1)
    right = random_alc_concept(rng, names, roles, individuals, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


# ---------------------------------------------------------------------------
# Knowledge bases and interpretations


def random_rolefree_kb(
    rng: random.Random,
    max_names: int = 4,
    max_defaults: int = 6,
    weight_span: float = 5.0,
    with_strict: bool = True,
    min_names: int = 2,
    strict_count: tuple[int, int] | None = None,
) -> WeightedKB:
    """A seeded role-free KB over the first 2 to 10 names of A-J.

    Without ``strict_count`` half of the KBs get one strict inclusion;
    with it, their number is drawn from that inclusive range.
    """
    pool = list("ABCDEFGHIJ")[: rng.randint(min_names, max_names)]
    distinguished = tuple(
        rng.sample(pool, rng.randint(1, min(2, len(pool))))
    )
    if strict_count is None:
        n_strict = 1 if with_strict and rng.random() < 0.5 else 0
    else:
        n_strict = rng.randint(*strict_count)
    strict = [
        StrictInclusion(
            random_boolean_concept(rng, pool, 1),
            random_boolean_concept(rng, pool, 1),
        )
        for _ in range(n_strict)
    ]
    blocks: dict[str, tuple[DefeasibleInclusion, ...]] = {}
    for subject in distinguished:
        rows = []
        for _ in range(rng.randint(1, max_defaults)):
            weight = rng.uniform(-weight_span, weight_span)
            rows.append(
                DefeasibleInclusion(
                    subject, random_boolean_concept(rng, pool, 2), weight
                )
            )
        blocks[subject] = tuple(rows)
    return WeightedKB(
        distinguished=distinguished,
        strict=tuple(strict),
        defeasible=blocks,
        abox=(),
        extra=(),
    )


def random_full_kb(rng: random.Random) -> WeightedKB:
    """A KB with every statement form, compound concepts and nominals."""
    names, roles, inds = ["A", "B", "C"], ["r", "s"], ["tom", "bob"]

    def concept() -> Concept:
        return random_alc_concept(rng, names, roles, inds, 3)

    def degree() -> float:
        return rng.choice([0.0, 1.0, round(rng.random(), 3), rng.random()])

    def theta() -> str:
        return rng.choice([">=", "<=", ">", "<"])

    distinguished = tuple(rng.sample(names, rng.randint(1, 3)))
    defeasible = {
        name: tuple(
            DefeasibleInclusion(name, concept(), rng.uniform(-100, 100))
            for _ in range(rng.randint(0, 3))
        )
        for name in distinguished
    }
    strict = tuple(
        StrictInclusion(concept(), concept()) for _ in range(rng.randint(0, 3))
    )
    abox = tuple(
        Assertion(concept(), rng.choice(inds))
        if rng.random() < 0.5
        else RoleAssertion(rng.choice(roles), rng.choice(inds), rng.choice(inds))
        for _ in range(rng.randint(0, 4))
    )
    extra = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            extra.append(FuzzyInclusion(concept(), concept(), theta(), degree()))
        elif kind == 1:
            extra.append(FuzzyAssertion(concept(), rng.choice(inds), theta(), degree()))
        elif kind == 2:
            lower, upper = sorted((degree(), degree()))
            extra.append(ConditionalConstraint(concept(), concept(), lower, upper))
        else:
            extra.append(ProbAssertion(concept(), rng.choice(inds), degree()))
    return WeightedKB(distinguished, strict, defeasible, abox, tuple(extra))


def crisp_interpretation(
    domain: tuple[str, ...] | list[str],
    concept_members: dict[str, set[str] | list[str] | tuple[str, ...]] | None = None,
    role_pairs: dict[str, set | list | tuple] | None = None,
    individuals: dict[str, str] | None = None,
) -> FuzzyInterpretation:
    """Build a two-valued interpretation from membership sets."""
    concepts = {
        name: {elem: 1.0 for elem in members}
        for name, members in (concept_members or {}).items()
    }
    roles = {
        name: {(x, y): 1.0 for (x, y) in pairs}
        for name, pairs in (role_pairs or {}).items()
    }
    return FuzzyInterpretation(
        domain=tuple(domain),
        concepts=concepts,
        roles=roles,
        individuals=dict(individuals or {}),
    )


def random_crisp_interp(
    rng: random.Random,
    concept_names: list[str],
    size: int = 5,
    roles: list[str] | None = None,
) -> FuzzyInterpretation:
    domain = [f"d{i}" for i in range(size)]
    members = {
        n: {x for x in domain if rng.random() < 0.5} for n in concept_names
    }
    role_pairs = {}
    for r in roles or []:
        role_pairs[r] = {
            (x, y) for x in domain for y in domain if rng.random() < 0.25
        }
    individuals = {domain[0]: domain[0]} if domain else {}
    return crisp_interpretation(domain, members, role_pairs, individuals)


def random_fuzzy_interp(
    rng: random.Random,
    concept_names: list[str],
    size: int = 5,
    roles: list[str] | None = None,
) -> FuzzyInterpretation:
    domain = tuple(f"d{i}" for i in range(size))
    concepts = {
        n: {x: rng.random() for x in domain if rng.random() < 0.8}
        for n in concept_names
    }
    role_rows: dict[str, dict[tuple[str, str], float]] = {}
    for r in roles or []:
        role_rows[r] = {
            (x, y): rng.random()
            for x in domain
            for y in domain
            if rng.random() < 0.3
        }
    individuals = {x: x for x in domain[:2]}
    return FuzzyInterpretation(
        domain=domain, concepts=concepts, roles=role_rows, individuals=individuals
    )


def duplicate_element(
    interp: FuzzyInterpretation, source: str, clone: str
) -> FuzzyInterpretation:
    """Add a fresh element indistinguishable from ``source``."""
    domain = tuple(interp.domain) + (clone,)
    concepts = {}
    for n, row in interp.concepts.items():
        new_row = dict(row)
        if source in row:
            new_row[clone] = row[source]
        concepts[n] = new_row
    roles = {}
    for r, row in interp.roles.items():
        new_row = dict(row)
        for (x, y), deg in row.items():
            if x == source:
                new_row[(clone, y)] = deg
            if y == source:
                new_row[(x, clone)] = deg
        if (source, source) in row:
            new_row[(clone, clone)] = row[(source, source)]
        roles[r] = new_row
    return FuzzyInterpretation(
        domain=domain,
        concepts=concepts,
        roles=roles,
        individuals=dict(interp.individuals),
    )


# ---------------------------------------------------------------------------
# Networks


def random_feedforward_net(
    rng: random.Random,
    activation: str = "sigmoid",
    min_layers: int = 2,
    max_layers: int = 4,
    max_width: int = 8,
    weight_span: float = 2.0,
) -> Network:
    n_inputs = rng.randint(1, max_width)
    inputs = tuple(f"x{i}" for i in range(n_inputs))
    prev = list(inputs)
    units: list[Unit] = []
    n_layers = rng.randint(min_layers, max_layers)
    for layer in range(n_layers):
        width = rng.randint(1, max_width)
        here = []
        for j in range(width):
            uid = f"n{layer}_{j}"
            incoming = tuple(
                (src, rng.uniform(-weight_span, weight_span)) for src in prev
            )
            units.append(
                Unit(
                    id=uid,
                    activation=activation,
                    bias=rng.uniform(-weight_span, weight_span),
                    incoming=incoming,
                )
            )
            here.append(uid)
        prev = here
    return Network(
        inputs=inputs, units=tuple(units), c_units=tuple(u.id for u in units)
    )


def random_cyclic_net(
    rng: random.Random,
    activation: str = "sigmoid",
    max_layers: int = 3,
    max_width: int = 6,
) -> Network:
    """A layered net whose last layer feeds back into the first hidden layer.

    Each first-layer unit gets one extra synapse, weight in +-0.3, from a
    random last-layer unit, as the benchmark's cyclic nets do; weights stay
    small enough that sigmoid and hard-sigmoid updates contract.
    """
    base = random_feedforward_net(
        rng, activation, min_layers=2, max_layers=max_layers,
        max_width=max_width, weight_span=1.0,
    )
    layers: dict[str, list[Unit]] = {}
    for u in base.units:
        layers.setdefault(u.id.split("_")[0], []).append(u)
    first, last = list(layers.values())[0], list(layers.values())[-1]
    feedback = {
        u.id: (rng.choice(last).id, rng.uniform(-0.3, 0.3)) for u in first
    }
    units = tuple(
        Unit(u.id, u.activation, u.bias, u.incoming + (feedback[u.id],))
        if u.id in feedback
        else u
        for u in base.units
    )
    return Network(inputs=base.inputs, units=units, c_units=base.c_units)


def random_stimuli(
    rng: random.Random, net: Network, count: int, spread: float = 0.0
) -> StimulusSet:
    """Values uniform in [-spread, 1 + spread]; out-of-range ones get clamped."""
    ids = tuple(f"s{i}" for i in range(count))
    values = {
        sid: {inp: rng.uniform(-spread, 1.0 + spread) if spread else rng.random()
              for inp in net.inputs}
        for sid in ids
    }
    return StimulusSet(ids=ids, values=values)


def network_to_json(net: Network) -> dict:
    return {
        "inputs": list(net.inputs),
        "units": [
            {
                "id": u.id,
                "activation": u.activation,
                "bias": u.bias,
                "in": [[src, w] for src, w in u.incoming],
            }
            for u in net.units
        ],
        "C": list(net.c_units),
    }


def stimuli_to_json(stimuli: StimulusSet) -> dict:
    return {
        "stimuli": [
            {"id": sid, "values": dict(stimuli.values[sid])} for sid in stimuli.ids
        ]
    }


# ---------------------------------------------------------------------------
# Independent oracles


def bool_eval(concept: Concept, valuation: dict[str, bool]) -> bool:
    if isinstance(concept, Top):
        return True
    if isinstance(concept, Bottom):
        return False
    if isinstance(concept, Name):
        return valuation[concept.name]
    if isinstance(concept, Not):
        return not bool_eval(concept.arg, valuation)
    if isinstance(concept, And):
        return bool_eval(concept.left, valuation) and bool_eval(
            concept.right, valuation
        )
    if isinstance(concept, Or):
        return bool_eval(concept.left, valuation) or bool_eval(
            concept.right, valuation
        )
    raise AssertionError(f"not boolean: {concept}")


def oracle_eval_concept(
    interp: FuzzyInterpretation, family: LogicFamily, concept: Concept, x: str
) -> float:
    """The degree of x in the concept, by recursion over the whole domain."""
    if isinstance(concept, Top):
        return 1.0
    if isinstance(concept, Bottom):
        return 0.0
    if isinstance(concept, Name):
        return interp.concepts[concept.name].get(x, 0.0)
    if isinstance(concept, Not):
        return family.neg(oracle_eval_concept(interp, family, concept.arg, x))
    if isinstance(concept, And):
        return family.tnorm(
            oracle_eval_concept(interp, family, concept.left, x),
            oracle_eval_concept(interp, family, concept.right, x),
        )
    if isinstance(concept, Or):
        return family.snorm(
            oracle_eval_concept(interp, family, concept.left, x),
            oracle_eval_concept(interp, family, concept.right, x),
        )
    if isinstance(concept, Exists):
        return max(
            family.tnorm(
                interp.role_degree(concept.role, x, y),
                oracle_eval_concept(interp, family, concept.arg, y),
            )
            for y in interp.domain
        )
    if isinstance(concept, Forall):
        return min(
            family.impl(
                interp.role_degree(concept.role, x, y),
                oracle_eval_concept(interp, family, concept.arg, y),
            )
            for y in interp.domain
        )
    if isinstance(concept, Nominal):
        return 1.0 if interp.element_of(concept.individual) == x else 0.0
    if isinstance(concept, Typ):
        raise EvaluationError(
            "typicality is defined against a preference model, not a bare"
            " interpretation"
        )
    raise TypeError(f"not a concept: {concept!r}")


def set_extension(
    concept: Concept,
    domain: list[str],
    members: dict[str, set[str]],
    role_succ: dict[str, dict[str, set[str]]] | None = None,
    individuals: dict[str, str] | None = None,
) -> set[str]:
    """Classical set semantics for crisp interpretations."""
    succ = role_succ or {}
    inds = individuals or {}
    full = set(domain)
    if isinstance(concept, Top):
        return full
    if isinstance(concept, Bottom):
        return set()
    if isinstance(concept, Name):
        return set(members.get(concept.name, set()))
    if isinstance(concept, Nominal):
        return {inds[concept.individual]}
    if isinstance(concept, Not):
        return full - set_extension(concept.arg, domain, members, succ, inds)
    if isinstance(concept, And):
        return set_extension(
            concept.left, domain, members, succ, inds
        ) & set_extension(concept.right, domain, members, succ, inds)
    if isinstance(concept, Or):
        return set_extension(
            concept.left, domain, members, succ, inds
        ) | set_extension(concept.right, domain, members, succ, inds)
    if isinstance(concept, Exists):
        inner = set_extension(concept.arg, domain, members, succ, inds)
        table = succ.get(concept.role, {})
        return {x for x in domain if table.get(x, set()) & inner}
    if isinstance(concept, Forall):
        inner = set_extension(concept.arg, domain, members, succ, inds)
        table = succ.get(concept.role, {})
        return {x for x in domain if table.get(x, set()) <= inner}
    raise AssertionError(f"unexpected concept: {concept}")


def interp_to_sets(
    interp: FuzzyInterpretation,
) -> tuple[list[str], dict[str, set[str]], dict[str, dict[str, set[str]]]]:
    """Read a crisp interpretation back into plain sets."""
    domain = list(interp.domain)
    members = {
        n: {x for x, deg in row.items() if deg == 1.0}
        for n, row in interp.concepts.items()
    }
    succ: dict[str, dict[str, set[str]]] = {}
    for r, row in interp.roles.items():
        table: dict[str, set[str]] = {}
        for (x, y), deg in row.items():
            if deg == 1.0:
                table.setdefault(x, set()).add(y)
        succ[r] = table
    return domain, members, succ


def oracle_crisp_weight(
    kb: WeightedKB,
    subject: str,
    x: str,
    domain: list[str],
    members: dict[str, set[str]],
    role_succ: dict[str, dict[str, set[str]]] | None = None,
    individuals: dict[str, str] | None = None,
) -> float:
    if x not in members.get(subject, set()):
        return NEG_INF
    total = 0.0
    for d in kb.defaults_for(subject):
        if x in set_extension(
            d.consequent, domain, members, role_succ, individuals
        ):
            total += d.weight
    return total


def oracle_minimal(
    candidates: list[str], weights: dict[str, dict[str, float]]
) -> set[str]:
    """Pareto-undominated members; weights maps concept -> element -> W."""

    def dominates(a: str, b: str) -> bool:
        some_strict = False
        for row in weights.values():
            if row[a] < row[b]:
                return False
            if row[a] > row[b]:
                some_strict = True
        return some_strict

    return {
        x
        for x in candidates
        if not any(dominates(y, x) for y in candidates if y != x)
    }


def _oracle_field(unit: Unit, signals: dict[str, float]) -> float:
    """The induced field ``bias + sum_j w_kj * s_j``, folded left to right."""
    total = unit.bias
    for src, w in unit.incoming:
        total += w * signals[src]
    return total


def oracle_forward(net: Network, stimuli: StimulusSet) -> ActivityTable:
    """``mlp.forward`` over dicts keyed by node name, one unit at a time."""
    stimuli.check_against(net)
    order = net.topological_units()
    phi = {u.id: get_activation(u.activation).fn for u in net.units}
    activity: dict[str, dict[str, float]] = {}
    induced: dict[str, dict[str, float]] = {}
    for sid in stimuli.ids:
        signals = {
            inp: min(1.0, max(0.0, stimuli.values[sid][inp])) for inp in net.inputs
        }
        fields: dict[str, float] = {}
        if order is not None:
            for u in order:
                fields[u.id] = total = _oracle_field(u, signals)
                signals[u.id] = phi[u.id](total)
        else:
            for u in net.units:
                signals[u.id] = 0.0
            for _ in range(mlp.MAX_ITERATIONS):
                new = {u.id: phi[u.id](_oracle_field(u, signals)) for u in net.units}
                delta = max(abs(y - signals[k]) for k, y in new.items())
                signals.update(new)
                if delta < EPS_CMP:
                    break
            else:
                raise NonConvergenceError(sid, mlp.MAX_ITERATIONS, delta)
            fields = {u.id: _oracle_field(u, signals) for u in net.units}
            for u in net.units:
                signals[u.id] = phi[u.id](fields[u.id])
        activity[sid] = dict(signals)
        induced[sid] = fields
    return ActivityTable(stimuli=stimuli.ids, activity=activity, induced_field=induced)


def oracle_weights(
    kb: WeightedKB, interp: FuzzyInterpretation, family: LogicFamily, concept_name: str
) -> list[float]:
    """``preferences._weights`` with one running-total list per default."""
    _require_distinguished(kb, concept_name)
    member = degrees(interp, family, Name(concept_name))
    totals = [0.0] * len(member)
    for d in kb.defaults_for(concept_name):
        w = d.weight
        totals = [t + w * c for t, c in zip(totals, degrees(interp, family, d.consequent))]
    return [NEG_INF if m == 0.0 else t for m, t in zip(member, totals)]


def relative_cardinality(
    interp: FuzzyInterpretation, left: Concept, given: Concept
) -> float:
    """|left and given| / |given| with min conjunction."""
    denom = fuzzy_cardinality(interp, given)
    if denom == 0.0:
        raise UndefinedConditionalError(
            f"conditioning concept {given} has zero cardinality"
        )
    return fuzzy_cardinality(interp, And(left, given)) / denom


# ---------------------------------------------------------------------------
# Tokenizer oracle

_ORACLE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ORACLE_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_ORACLE_SIMPLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ".": "DOT",
    "|": "PIPE",
    "@": "AT",
}


def oracle_tokenize(text: str, line: int = 1, col_offset: int = 0) -> list[_Token]:
    """The tokens of ``text``, scanned one character at a time."""
    tokens: list[_Token] = []
    i = 0
    cur_line = line
    cur_col = col_offset + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            cur_col += 1
            continue
        start_line, start_col = cur_line, cur_col
        m = _ORACLE_NUMBER.match(text, i)
        if m is not None:
            tokens.append(_Token("NUMBER", m.group(), start_line, start_col))
            cur_col += m.end() - i
            i = m.end()
            continue
        m = _ORACLE_IDENT.match(text, i)
        if m is not None:
            tokens.append(_Token("IDENT", m.group(), start_line, start_col))
            cur_col += m.end() - i
            i = m.end()
            continue
        two = text[i : i + 2]
        if two == "[=":
            tokens.append(_Token("SUBSUMES", two, start_line, start_col))
            i += 2
            cur_col += 2
            continue
        if two in (">=", "<="):
            tokens.append(_Token("THETA", two, start_line, start_col))
            i += 2
            cur_col += 2
            continue
        if ch in "><":
            tokens.append(_Token("THETA", ch, start_line, start_col))
            i += 1
            cur_col += 1
            continue
        if ch in _ORACLE_SIMPLE:
            tokens.append(_Token(_ORACLE_SIMPLE[ch], ch, start_line, start_col))
            i += 1
            cur_col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", cur_line, cur_col))
    return tokens
