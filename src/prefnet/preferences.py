"""Concept-wise preference models built from weighted knowledge bases.

Every distinguished concept C_i induces a weight on domain elements:

* crisp: the sum of the weights of the defeasible inclusions whose
  consequent the element satisfies, or -inf when the element is not an
  instance of C_i at all;
* fuzzy: the degree-weighted sum ``sum_h w_h * D_h(x)`` over the whole
  block, or -inf when C_i(x) = 0.

Sums accumulate left to right in block order, so ties are deterministic,
and -inf is a genuine bottom: below every real and equal to itself.

Both are built by one path.  On a two-valued interpretation the crisp
weight is exactly the fuzzy weight under ``zadeh``: every degree is 0 or
1, so ``w * 1.0 == w`` and ``w * 0.0`` adds nothing to the sum.

Higher weight means more typical.  Each weight map yields a total preorder
``x <= y  iff  W(x) >= W(y)`` whose strict part is modular, irreflexive,
transitive, and well-founded on finite domains.  In the crisp case the
per-concept orders also combine into a Pareto global preference

    x < y  iff  some x <_i y and all x <=_j y

which interprets typicality: T(C) collects the globally minimal instances
of C.  In the fuzzy case typicality is induced directly by membership
degrees: T(C) collects the positive-degree maximizers of C.

A model is (weakly) coherent for C_i when the constructed preference and
the membership function agree: strictly, ``x <_i y  iff  C_i(x) > C_i(y)``;
weakly, only the right-to-left direction.

For knowledge bases without roles, quantifiers, or nominals, entailment is
decided on one canonical model whose domain holds every truth assignment
over the mentioned concept names that satisfies the strict inclusions.
Copying a domain element never changes typicality verdicts, which is what
makes the single canonical model adequate, and also lets entailment work
on cells of assignments with equal weight vectors instead of elements:
concepts become bitmasks over blocks of assignments, and the skyline runs
over the distinct vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import ge

from .concepts import (
    And,
    Bottom,
    Concept,
    FuzzyInclusion,
    Name,
    Not,
    Or,
    StrictInclusion,
    Top,
    Typ,
    concept_names_in,
    is_rolefree_concept,
)
from .errors import EnumerationLimitError, FragmentError, InputError, UnknownNameError
from .fuzzy import (
    ZADEH,
    FuzzyInterpretation,
    LogicFamily,
    check_axiom,
    compare,
    degrees,
)
from .kb import _KEYWORD, WeightedKB
from .values import Record, Value, _set, _set_key

__all__ = [
    "NEG_INF",
    "ConceptPreference",
    "MultiprefModel",
    "crisp_weight",
    "fuzzy_weight",
    "build_preferences",
    "typicality_global",
    "typicality_induced",
    "check_typicality_axiom",
    "is_crisp_model",
    "is_fuzzy_model",
    "Violation",
    "CoherenceReport",
    "coherence_report",
    "consistent_valuations",
    "counter_model",
    "entails_rolefree",
    "ENUMERATION_LIMIT",
]

NEG_INF = float("-inf")
ENUMERATION_LIMIT = 20
# Role-free entailment visits the 2^n truth assignments 2^_BLOCK_BITS at a
# time, each concept one int mask per block.
_BLOCK_BITS = 12
# How many coherence violations a report collects, and how many it prints.
MAX_VIOLATIONS = 200
SHOWN_VIOLATIONS = 10


# ---------------------------------------------------------------------------
# Element weights


def crisp_weight(
    kb: WeightedKB, interp: FuzzyInterpretation, concept_name: str, x: str
) -> float:
    """Sum of weights of the defaults x satisfies; -inf for non-instances."""
    _require_distinguished(kb, concept_name)
    if not interp.is_crisp:
        raise InputError("crisp_weight needs a two-valued interpretation")
    return fuzzy_weight(kb, interp, ZADEH, concept_name, x)


def fuzzy_weight(
    kb: WeightedKB,
    interp: FuzzyInterpretation,
    family: LogicFamily,
    concept_name: str,
    x: str,
) -> float:
    """Degree-weighted sum over the whole block; -inf when C_i(x) = 0."""
    return _weights(kb, interp, family, concept_name)[interp.index[x]]


def _weights(
    kb: WeightedKB, interp: FuzzyInterpretation, family: LogicFamily, concept_name: str
) -> list[float]:
    """``fuzzy_weight`` at every element, in domain order.

    The block's weights and consequent degree columns are gathered once;
    each element's row then folds from 0.0 in block order.
    """
    _require_distinguished(kb, concept_name)
    member = degrees(interp, family, Name(concept_name))
    block = kb.defaults_for(concept_name)
    ws = [d.weight for d in block]
    cols = [degrees(interp, family, d.consequent) for d in block]
    out = []
    for m, row in zip(member, zip(*cols) if cols else repeat(())):
        if m == 0.0:
            out.append(NEG_INF)
            continue
        total = 0.0
        for w, c in zip(ws, row):
            total += w * c
        out.append(total)
    return out


def _require_distinguished(kb: WeightedKB, concept_name: str) -> None:
    if concept_name not in kb.defeasible:
        raise UnknownNameError(f"{concept_name!r} is not a distinguished concept")


# ---------------------------------------------------------------------------
# Preference relations


class ConceptPreference(Value):
    """Total preorder on the domain from one concept's weight map.

    Lower in the order means more typical: x <= y when ``weights[x] >=
    weights[y]``.  Elements with weight -inf sit together at the very top.
    The weights are a dict, so a preference is immutable but not hashable.
    """

    __slots__ = ("concept", "weights")

    def __init__(self, concept: str, weights: dict[str, float]) -> None:
        _set(self, "concept", concept)
        _set(self, "weights", weights)
        _set_key(self, (concept, weights))


def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Pareto dominance of weight vectors: no worse anywhere, better somewhere."""
    return a != b and all(map(ge, a, b))


class MultiprefModel(Record):
    """An interpretation plus one preference per distinguished concept.

    ``concepts`` lists the distinguished concepts in preference order.
    ``family`` is None exactly in crisp mode, where typicality picks the
    Pareto-minimal weight vectors; in fuzzy mode, the highest degrees.
    """

    _fields = ("interp", "preferences", "family", "concepts")

    def __init__(
        self,
        interp: FuzzyInterpretation,
        preferences: dict[str, ConceptPreference],
        family: LogicFamily | None = None,
    ) -> None:
        self.interp = interp
        self.preferences = preferences
        self.family = family
        self.concepts = tuple(preferences)


def build_preferences(
    kb: WeightedKB,
    interp: FuzzyInterpretation,
    family: LogicFamily | None = None,
) -> MultiprefModel:
    """Construct the concept-wise preferences a weighted KB induces.

    Pass a logic family for fuzzy weights; pass None for the crisp
    construction on a two-valued interpretation.
    """
    for name in sorted(kb.signature().concept_names):
        if name not in interp.concepts:
            raise UnknownNameError(
                f"interpretation does not cover concept name {name!r}"
            )
    if family is None and not interp.is_crisp:
        raise InputError(
            "crisp preference construction needs a two-valued interpretation;"
            " pass a logic family for fuzzy interpretations"
        )
    prefs = {
        name: ConceptPreference(
            name, dict(zip(interp.domain, _weights(kb, interp, family or ZADEH, name)))
        )
        for name in kb.distinguished
    }
    return MultiprefModel(interp=interp, preferences=prefs, family=family)


# ---------------------------------------------------------------------------
# Typicality


def _skyline(distinct: Iterable[tuple[float, ...]]) -> set[tuple[float, ...]]:
    """The Pareto-minimal ones among distinct weight vectors.

    A presorted skyline (Chomicki et al., ICDE 2003): vectors are visited
    in descending lexicographic order, where every dominator comes first,
    so by transitivity a vector is minimal iff no minimal vector found
    before it dominates it.
    """
    minimal: set[tuple[float, ...]] = set()
    for v in sorted(distinct, reverse=True):
        for m in minimal:
            if _dominates(m, v):
                break
        else:
            minimal.add(v)
    return minimal


def typicality_global(model: MultiprefModel, concept: Concept) -> list[str]:
    """Globally minimal instances of a crisp concept, in domain order: those
    whose weight vector over ``model.concepts`` no instance Pareto-dominates."""
    if model.family is not None:
        raise InputError(
            "no global preference in fuzzy mode; use typicality_induced"
        )
    member = degrees(model.interp, ZADEH, concept)
    extension = [x for x, d in zip(model.interp.domain, member) if d == 1.0]
    rows = [model.preferences[c].weights for c in model.concepts]
    vectors = {x: tuple(w[x] for w in rows) for x in extension}
    minimal = _skyline(set(vectors.values()))
    return [x for x in extension if vectors[x] in minimal]


def typicality_induced(
    interp: FuzzyInterpretation, family: LogicFamily, concept: Concept
) -> list[str]:
    """Positive-degree maximizers of the concept, in domain order."""
    member = degrees(interp, family, concept)
    best = max(member)
    if best == 0.0:
        return []
    return [x for x, d in zip(interp.domain, member) if d == best]


def check_typicality_axiom(
    model: MultiprefModel,
    axiom: StrictInclusion | FuzzyInclusion,
    *,
    fuzzy_semantics: str = "implication",
) -> bool:
    """Decide ``T(C) [= D``, optionally with a degree bound.

    Crisp mode (``model.family`` is None) uses the Pareto-minimal
    instances of C (:func:`typicality_global`), each of which must belong
    to D (bounded variants compare the worst implication under ``zadeh``
    instead).  Fuzzy mode uses membership-induced typicality; with
    ``fuzzy_semantics="implication"`` the axiom degree is the worst
    implication from the two-valued typicality membership into D, with
    ``"containment"`` the bound is checked pointwise on every typical
    instance.  An empty typicality set satisfies the plain axiom.
    """
    if fuzzy_semantics not in ("implication", "containment"):
        raise InputError(f"unknown typicality semantics {fuzzy_semantics!r}")
    if isinstance(axiom, StrictInclusion):
        left, right, theta, bound = axiom.left, axiom.right, ">=", 1.0
    elif isinstance(axiom, FuzzyInclusion):
        left, right, theta, bound = axiom.left, axiom.right, axiom.theta, axiom.degree
    else:
        raise TypeError(f"not an inclusion axiom: {axiom!r}")
    if not isinstance(left, Typ):
        raise InputError("the axiom's left side must have the form T(C)")
    subject = left.arg

    family = model.family or ZADEH
    if model.family is None:
        typical = set(typicality_global(model, subject))
    else:
        typical = set(typicality_induced(model.interp, family, subject))

    rows = list(zip(model.interp.domain, degrees(model.interp, family, right)))
    if fuzzy_semantics == "containment" and model.family is not None:
        return all(compare(d, theta, bound) for x, d in rows if x in typical)

    degree = min(family.impl(1.0 if x in typical else 0.0, d) for x, d in rows)
    return compare(degree, theta, bound)


# ---------------------------------------------------------------------------
# Model checks


def is_crisp_model(kb: WeightedKB, interp: FuzzyInterpretation) -> bool:
    """True when the two-valued interpretation satisfies strict TBox and ABox."""
    if not interp.is_crisp:
        raise InputError("is_crisp_model needs a two-valued interpretation")
    return is_fuzzy_model(kb, interp, ZADEH)


def is_fuzzy_model(
    kb: WeightedKB, interp: FuzzyInterpretation, family: LogicFamily
) -> bool:
    """True when every strict axiom and assertion holds to degree >= 1."""
    return all(check_axiom(interp, family, ax) for ax in (*kb.strict, *kb.abox))


# ---------------------------------------------------------------------------
# Coherence


class Violation(Value):
    """One ordered pair witnessing a preference/degree disagreement.

    ``kind`` is "weak" when the degrees order the pair strictly but the
    preference does not (this breaks weak and full coherence), and
    "strict" when the preference orders it strictly without a matching
    degree gap (this breaks full coherence only).
    """

    __slots__ = ("concept", "x", "y", "kind")

    def __init__(self, concept: str, x: str, y: str, kind: str) -> None:
        _set(self, "concept", concept)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "kind", kind)
        _set_key(self, (concept, x, y, kind))

    def to_json(self) -> dict:
        return {"concept": self.concept, "x": self.x, "y": self.y, "kind": self.kind}


class CoherenceReport(Record):
    _fields = ("coherent", "weakly_coherent", "violations", "truncated")

    def __init__(
        self,
        coherent: bool,
        weakly_coherent: bool,
        violations: list[Violation] | None = None,
        truncated: bool = False,
    ) -> None:
        self.coherent = coherent
        self.weakly_coherent = weakly_coherent
        self.violations = [] if violations is None else violations
        self.truncated = truncated

    def to_json(self) -> dict:
        return {
            "coherent": self.coherent,
            "weakly_coherent": self.weakly_coherent,
            "violations": [v.to_json() for v in self.violations[:SHOWN_VIOLATIONS]],
            "violation_count": len(self.violations),
            "truncated": self.truncated,
        }


def _consistency(pairs: list[tuple[float, float]]) -> tuple[bool, bool]:
    """Strict and weak agreement of (weight, degree) pairs, in one pass.

    Sorted by weight, strict needs equal weights to carry equal degrees
    and each rise in weight to raise the degree; weak lets a rise in weight
    keep the degree, but no degree may fall.
    """
    ordered = sorted(pairs, key=lambda p: p[0])
    strict = True
    for (w0, d0), (w1, d1) in zip(ordered, ordered[1:]):
        if w0 == w1:
            if d0 != d1:
                return False, False
        elif not d1 > d0:
            if d0 > d1:
                return False, False
            strict = False
    return strict, True


def coherence_report(model: MultiprefModel) -> CoherenceReport:
    """Compare each concept's preference with its membership degrees.

    The verdict flags come from one sorted pass per concept, so they are
    exact even though at most ``MAX_VIOLATIONS`` witnessing pairs
    get collected; a pairwise scan runs only for failing concepts.
    """
    violations: list[Violation] = []
    truncated = False
    weak_ok = True
    strict_ok = True
    domain = model.interp.domain
    for name in model.concepts:
        weights = model.preferences[name].weights
        member = degrees(model.interp, model.family or ZADEH, Name(name))
        pairs = [(weights[x], d) for x, d in zip(domain, member)]
        s_ok, w_ok = _consistency(pairs)
        strict_ok = strict_ok and s_ok
        weak_ok = weak_ok and w_ok
        if s_ok:
            continue
        if len(violations) >= MAX_VIOLATIONS:
            truncated = True
            continue
        for x, (wx, dx) in zip(domain, pairs):
            for y, (wy, dy) in zip(domain, pairs):
                if x == y:
                    continue
                pref_strict = wx > wy
                deg_strict = dx > dy
                if deg_strict and not pref_strict:
                    violations.append(Violation(name, x, y, "weak"))
                elif pref_strict and not deg_strict:
                    violations.append(Violation(name, x, y, "strict"))
                if len(violations) >= MAX_VIOLATIONS:
                    truncated = True
                    break
            if truncated:
                break
    return CoherenceReport(
        coherent=strict_ok,
        weakly_coherent=weak_ok,
        violations=violations,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Canonical models and role-free entailment


def _check_rolefree(kb: WeightedKB, *extra: Concept) -> list[str]:
    names: set[str] = set(kb.distinguished)
    for c in (*kb.all_concepts(), *extra):
        if not is_rolefree_concept(c):
            raise FragmentError(
                f"concept {c} uses roles or nominals; entailment here is"
                " restricted to the role-free boolean fragment"
            )
        names |= concept_names_in(c)
    if kb.abox:
        raise FragmentError("entailment here requires an empty ABox")
    if kb.extra:
        raise FragmentError(
            f"entailment here reads no '{_KEYWORD[type(kb.extra[0])]}:' statements;"
            " remove them from the KB"
        )
    ordered = sorted(names)
    if len(ordered) > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{len(ordered)} concept names exceed the enumeration budget of"
            f" {ENUMERATION_LIMIT}"
        )
    return ordered


def _blocks(names: list[str]) -> Iterator[tuple[int, int, dict[str, int]]]:
    """The assignments over the names, ``2**_BLOCK_BITS`` at a time.

    Assignment i gives ``names[k]`` bit ``len(names) - 1 - k`` of i, so
    counting order puts the first name most significant.  Each block
    yields its first index ``base``, its full mask and one mask per name,
    where bit p stands for assignment ``base + p``.
    """
    n = len(names)
    low = min(_BLOCK_BITS, n)
    full = (1 << (1 << low)) - 1
    # Inside a block, index bit q < low is set in runs of 2^q bits every
    # 2^(q+1); full // (2^(2^(q+1)) - 1) repeats a one every period.
    runs = [
        full // ((1 << (2 << q)) - 1) * (((1 << (1 << q)) - 1) << (1 << q))
        for q in range(low)
    ]
    for base in range(0, 1 << n, 1 << low):
        masks = {}
        for k, name in enumerate(names):
            q = n - 1 - k
            masks[name] = runs[q] if q < low else full * (base >> q & 1)
        yield base, full, masks


def _mask(concept: Concept, masks: dict[str, int], full: int) -> int:
    """The assignments of a block where a role-free concept holds."""
    if isinstance(concept, Name):
        try:
            return masks[concept.name]
        except KeyError:
            raise UnknownNameError(f"unknown concept name {concept.name!r}") from None
    if isinstance(concept, Not):
        return full ^ _mask(concept.arg, masks, full)
    if isinstance(concept, And):
        return _mask(concept.left, masks, full) & _mask(concept.right, masks, full)
    if isinstance(concept, Or):
        return _mask(concept.left, masks, full) | _mask(concept.right, masks, full)
    if isinstance(concept, Top):
        return full
    if isinstance(concept, Bottom):
        return 0
    raise FragmentError(f"concept {concept} is not a role-free boolean concept")


def _kept(kb: WeightedKB, masks: dict[str, int], full: int) -> int:
    """The assignments of a block that satisfy every strict inclusion."""
    kept = full
    for inc in kb.strict:
        kept &= (full ^ _mask(inc.left, masks, full)) | _mask(inc.right, masks, full)
    return kept


def consistent_valuations(kb: WeightedKB, names: list[str]) -> list[str]:
    """Every truth assignment over the names satisfying the strict TBox.

    Assignments are named ``"w" + bits`` with bit k for ``names[k]`` and
    come in counting order, the first name most significant.
    """
    top = 1 << len(names)
    out = []
    for base, full, masks in _blocks(names):
        kept = _kept(kb, masks, full)
        while kept:
            low = kept & -kept
            kept ^= low
            # The leading 1 pads the bits to len(names) digits.
            out.append("w" + format(top | base + low.bit_length() - 1, "b")[1:])
    return out


def counter_model(
    kb: WeightedKB, subject: Concept, consequent: Concept
) -> dict[str, bool] | None:
    """The first typical instance of the subject outside the consequent.

    Returns the lowest such truth assignment of the canonical model in
    counting order (see :func:`consistent_valuations`), or None when
    ``T(subject) [= consequent`` is entailed.

    One pass visits the assignments block by block.  A block's
    strict-TBox-consistent instances of the subject are split into cells
    of equal weight vector, summed left to right in block order like
    :func:`fuzzy_weight`; cells of equal vector merge, and one map keeps
    each vector's lowest instance outside the consequent.  The skyline of
    those vectors is the typical set.  Memory grows with the number of
    distinct vectors, not with the 2^n assignments.
    """
    names = _check_rolefree(kb, subject, consequent)
    vectors: dict[tuple[float, ...], int | None] = {}
    for base, full, masks in _blocks(names):
        cells = {(): _kept(kb, masks, full) & _mask(subject, masks, full)}
        for c in kb.distinguished:
            # The last slot is c's running sum; -inf first takes the
            # assignments outside c, and stays -inf.
            cells = {(*vec, 0.0): cell for vec, cell in cells.items()}
            steps = [(full ^ masks[c], NEG_INF)]
            steps += [(_mask(d.consequent, masks, full), d.weight) for d in kb.defaults_for(c)]
            for sat, w in steps:
                split: dict[tuple[float, ...], int] = {}
                get = split.get
                for vec, cell in cells.items():
                    if vec[-1] != NEG_INF and cell & sat:
                        key = (*vec[:-1], vec[-1] + w)
                        split[key] = get(key, 0) | cell & sat
                        cell &= ~sat
                    if cell:
                        split[vec] = get(vec, 0) | cell
                cells = split
        outside = full ^ _mask(consequent, masks, full)
        for vec, cell in cells.items():
            if cell and vectors.get(vec) is None:
                bad = cell & outside
                vectors[vec] = base + (bad & -bad).bit_length() - 1 if bad else None
    witnesses = [vectors[v] for v in _skyline(vectors) if vectors[v] is not None]
    if not witnesses:
        return None
    first, n = min(witnesses), len(names)
    return {name: bool(first >> (n - 1 - k) & 1) for k, name in enumerate(names)}


def entails_rolefree(kb: WeightedKB, subject: Concept, consequent: Concept) -> bool:
    """Decide ``T(subject) [= consequent`` in the KB's canonical model.

    The canonical model has one element per truth assignment that the
    strict TBox allows (Giordano & Theseider Dupré, TPLP 2020); the query
    holds when every globally typical instance of the subject there
    satisfies the consequent, vacuously so when the strict TBox admits no
    assignment.  This is not truth in every model of the KB:
    ``def(Bird): T(Bird) [= Fly @ 2`` entails ``T(Bird) [= Fly``, yet a
    model whose only element is a non-flying bird violates it.  Role-free
    boolean KBs and queries only.
    """
    return counter_model(kb, subject, consequent) is None
