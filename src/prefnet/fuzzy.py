"""Fuzzy interpretation structures and concept evaluation.

An interpretation has a finite nonempty domain, fuzzy concept tables
(degrees in [0, 1], absent entries read as 0), fuzzy role tables (absent
pairs and absent roles read as 0, so mostly-crisp fixtures stay sparse),
and a partial map from individual names to domain elements.  Crisp
two-valued semantics is the special case where every degree is 0 or 1.

Connectives are interpreted through a :class:`LogicFamily` bundling a
t-norm, its dual s-norm, a negation, and an implication:

* ``zadeh``: min, max, 1 - a, and the implication max(1 - a, b)
* ``goedel``: min, max, residual negation, residual implication
* ``lukasiewicz``: max(0, a + b - 1), min(1, a + b), 1 - a, min(1, 1 - a + b)
* ``product``: a * b, a + b - a * b, residual negation, b / a residual

Quantifiers take the best (existential) or worst (universal) witness over
the finite domain::

    (exists r.C)(x) = max_y tnorm(r(x, y), C(y))
    (forall r.C)(x) = min_y impl(r(x, y), C(y))

and the degree of an inclusion C [= D is ``min_x impl(C(x), D(x))``.

:func:`degrees` evaluates a concept over the whole domain at once and
memoises every sub-concept on the interpretation.  Quantifiers read only
the role successors of each element.  That is exact: every family has
``tnorm(0, a) = 0`` and ``impl(0, a) = 1``, and all t-norm values are
>= 0 and all implication values <= 1, so a non-successor can neither
raise the existential maximum above 0 nor lower the universal minimum
below 1.  An element without successors gets 0 and 1 respectively.

Degree comparisons use a tolerance of ``EPS_CMP`` for ``>=`` and ``<=``
and are exact for ``>`` and ``<``.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Callable

from . import jsonin
from .concepts import (
    And,
    Assertion,
    Bottom,
    Concept,
    ConditionalConstraint,
    DefeasibleInclusion,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyInclusion,
    Name,
    Nominal,
    Not,
    Or,
    ProbAssertion,
    RoleAssertion,
    StrictInclusion,
    Top,
    Typ,
)
from .errors import EvaluationError, InputError, UnknownNameError, UnsupportedAxiomError
from .values import Record, Value, _set, _set_key

__all__ = [
    "EPS_CMP",
    "LogicFamily",
    "ZADEH",
    "GOEDEL",
    "LUKASIEWICZ",
    "PRODUCT",
    "FAMILIES",
    "get_family",
    "FuzzyInterpretation",
    "degrees",
    "eval_concept",
    "eval_inclusion",
    "check_axiom",
    "compare",
    "interpretation_to_json",
    "interpretation_from_json",
    "load_interpretation",
]

EPS_CMP = 1e-9


class LogicFamily(Value):
    """A truth-function family: t-norm, s-norm, negation, implication."""

    __slots__ = ("name", "tnorm", "snorm", "neg", "impl")

    def __init__(
        self,
        name: str,
        tnorm: Callable[[float, float], float],
        snorm: Callable[[float, float], float],
        neg: Callable[[float], float],
        impl: Callable[[float, float], float],
    ) -> None:
        _set(self, "name", name)
        _set(self, "tnorm", tnorm)
        _set(self, "snorm", snorm)
        _set(self, "neg", neg)
        _set(self, "impl", impl)
        _set_key(self, (name, tnorm, snorm, neg, impl))


ZADEH = LogicFamily(
    "zadeh",
    tnorm=min,
    snorm=max,
    neg=lambda a: 1.0 - a,
    impl=lambda a, b: max(1.0 - a, b),
)

GOEDEL = LogicFamily(
    "goedel",
    tnorm=min,
    snorm=max,
    neg=lambda a: 1.0 if a == 0.0 else 0.0,
    impl=lambda a, b: 1.0 if a <= b else b,
)

LUKASIEWICZ = LogicFamily(
    "lukasiewicz",
    tnorm=lambda a, b: max(0.0, a + b - 1.0),
    snorm=lambda a, b: min(1.0, a + b),
    neg=lambda a: 1.0 - a,
    impl=lambda a, b: min(1.0, 1.0 - a + b),
)

PRODUCT = LogicFamily(
    "product",
    tnorm=lambda a, b: a * b,
    snorm=lambda a, b: a + b - a * b,
    neg=lambda a: 1.0 if a == 0.0 else 0.0,
    impl=lambda a, b: 1.0 if a <= b else b / a,
)

# Quantifiers fold over role successors only (see ``degrees``), which
# every family here supports: tnorm(0, a) == 0 and impl(0, a) == 1.
FAMILIES = {f.name: f for f in (ZADEH, GOEDEL, LUKASIEWICZ, PRODUCT)}


def get_family(tag: str) -> LogicFamily:
    try:
        return FAMILIES[tag.lower()]
    except KeyError:
        options = ", ".join(sorted(FAMILIES))
        raise InputError(f"unknown logic family {tag!r}; choose one of: {options}") from None


class FuzzyInterpretation(Record):
    """A finite fuzzy first-order structure.

    Treat instances as immutable after construction; evaluation never
    mutates them, and :func:`degrees` memoises its results on them.
    ``concepts`` keys declare the known concept names, and looking up an
    undeclared name is an error, while a declared concept simply reads 0
    at elements missing from its row.  ``==`` and ``repr`` read only the
    four constructor fields.
    """

    _fields = ("domain", "concepts", "roles", "individuals")

    def __init__(
        self,
        domain: tuple[str, ...],
        concepts: dict[str, dict[str, float]] | None = None,
        roles: dict[str, dict[tuple[str, str], float]] | None = None,
        individuals: dict[str, str] | None = None,
    ) -> None:
        self.domain = domain = tuple(domain)
        self.concepts = concepts = {} if concepts is None else concepts
        self.roles = roles = {} if roles is None else roles
        self.individuals = individuals = {} if individuals is None else individuals
        if not domain:
            raise InputError("the domain must be nonempty")
        # Derived: element -> position, role -> per-element successor
        # lists [(position, degree)], crispness, and the memo.
        self.index = index = {x: i for i, x in enumerate(domain)}
        if len(index) != len(domain):
            raise InputError("domain elements must be unique")
        crisp = True
        for cname, row in concepts.items():
            for elem, deg in row.items():
                if elem not in index:
                    raise InputError(
                        f"concept {cname!r} mentions unknown element {elem!r}"
                    )
                if not 0.0 <= deg <= 1.0:
                    raise InputError(
                        f"degree {deg!r} of {cname!r} at {elem!r} is outside [0,1]"
                    )
                crisp = crisp and deg in (0.0, 1.0)
        self.successors: dict[str, list[list[tuple[int, float]]]] = {}
        for rname, row in roles.items():
            succ: list[list[tuple[int, float]]] = [[] for _ in domain]
            for (x, y), deg in row.items():
                if x not in index or y not in index:
                    raise InputError(
                        f"role {rname!r} mentions an unknown element in ({x!r}, {y!r})"
                    )
                if not 0.0 <= deg <= 1.0:
                    raise InputError(
                        f"degree {deg!r} of {rname!r} at ({x!r}, {y!r}) is outside [0,1]"
                    )
                crisp = crisp and deg in (0.0, 1.0)
                succ[index[x]].append((index[y], deg))
            self.successors[rname] = succ
        self.is_crisp = crisp
        for ind, elem in individuals.items():
            if elem not in index:
                raise InputError(
                    f"individual {ind!r} maps to unknown element {elem!r}"
                )
        self._memo: dict = {}

    def role_degree(self, role: str, x: str, y: str) -> float:
        return self.roles.get(role, {}).get((x, y), 0.0)

    def element_of(self, individual: str) -> str:
        try:
            return self.individuals[individual]
        except KeyError:
            raise UnknownNameError(f"unknown individual name {individual!r}") from None


# ---------------------------------------------------------------------------
# Evaluation


def degrees(
    interp: FuzzyInterpretation, family: LogicFamily, concept: Concept
) -> tuple[float, ...]:
    """The concept's membership degree at every element, in domain order.

    Results are memoised on the interpretation per family and
    sub-concept, and shared between callers, hence a tuple.
    """
    key = (family.name, concept)
    vec = interp._memo.get(key)
    if vec is None:
        vec = interp._memo[key] = _degrees(interp, family, concept)
    return vec


def _degrees(
    interp: FuzzyInterpretation, family: LogicFamily, concept: Concept
) -> tuple[float, ...]:
    n = len(interp.domain)
    if isinstance(concept, Top):
        return (1.0,) * n
    if isinstance(concept, Bottom):
        return (0.0,) * n
    if isinstance(concept, Name):
        row = interp.concepts.get(concept.name)
        if row is None:
            raise UnknownNameError(f"unknown concept name {concept.name!r}")
        return tuple(map(row.get, interp.domain, repeat(0.0)))
    if isinstance(concept, Nominal):
        target = interp.element_of(concept.individual)
        return tuple(1.0 if x == target else 0.0 for x in interp.domain)
    if isinstance(concept, Not):
        return tuple(map(family.neg, degrees(interp, family, concept.arg)))
    if isinstance(concept, (And, Or)):
        op = family.tnorm if isinstance(concept, And) else family.snorm
        left = degrees(interp, family, concept.left)
        return tuple(map(op, left, degrees(interp, family, concept.right)))
    if isinstance(concept, (Exists, Forall)):
        inner = degrees(interp, family, concept.arg)
        succ = interp.successors.get(concept.role) or [()] * n
        if isinstance(concept, Exists):
            tnorm = family.tnorm
            return tuple(max((tnorm(r, inner[j]) for j, r in row), default=0.0) for row in succ)
        impl = family.impl
        return tuple(min((impl(r, inner[j]) for j, r in row), default=1.0) for row in succ)
    if isinstance(concept, Typ):
        raise EvaluationError(
            "typicality is defined against a preference model, not a bare"
            " interpretation"
        )
    raise TypeError(f"not a concept: {concept!r}")


def eval_concept(
    interp: FuzzyInterpretation, family: LogicFamily, concept: Concept, x: str
) -> float:
    """The degree to which element x belongs to the concept."""
    return degrees(interp, family, concept)[interp.index[x]]


def eval_inclusion(
    interp: FuzzyInterpretation, family: LogicFamily, left: Concept, right: Concept
) -> float:
    """The degree of C [= D: the worst implication over the domain."""
    return min(
        map(family.impl, degrees(interp, family, left), degrees(interp, family, right))
    )


def compare(value: float, theta: str, bound: float) -> bool:
    """Tolerant degree comparison: >=/<= absorb EPS_CMP, >/< stay exact."""
    if theta == ">=":
        return value >= bound - EPS_CMP
    if theta == "<=":
        return value <= bound + EPS_CMP
    if theta == ">":
        return value > bound
    if theta == "<":
        return value < bound
    raise InputError(f"unknown comparison {theta!r}")


def check_axiom(
    interp: FuzzyInterpretation, family: LogicFamily, axiom: object
) -> bool:
    """Decide one axiom against the interpretation.

    Strict inclusions and plain assertions are read as degree >= 1, which
    on a crisp interpretation coincides with the two-valued subset and
    membership checks.  Typicality inclusions, conditional constraints,
    and probabilistic assertions belong to other checkers; a ``T(C)`` here
    meets the :class:`EvaluationError` of :func:`degrees`.
    """
    if isinstance(axiom, StrictInclusion):
        return compare(eval_inclusion(interp, family, axiom.left, axiom.right), ">=", 1.0)
    if isinstance(axiom, FuzzyInclusion):
        value = eval_inclusion(interp, family, axiom.left, axiom.right)
        return compare(value, axiom.theta, axiom.degree)
    if isinstance(axiom, Assertion):
        value = eval_concept(interp, family, axiom.concept, interp.element_of(axiom.individual))
        return compare(value, ">=", 1.0)
    if isinstance(axiom, FuzzyAssertion):
        value = eval_concept(interp, family, axiom.concept, interp.element_of(axiom.individual))
        return compare(value, axiom.theta, axiom.degree)
    if isinstance(axiom, RoleAssertion):
        return compare(
            interp.role_degree(axiom.role, interp.element_of(axiom.subject),
                               interp.element_of(axiom.target)),
            ">=",
            1.0,
        )
    if isinstance(axiom, (DefeasibleInclusion, ConditionalConstraint, ProbAssertion)):
        raise UnsupportedAxiomError(
            f"{type(axiom).__name__} is not checked against a bare interpretation"
        )
    raise TypeError(f"not an axiom: {axiom!r}")


# ---------------------------------------------------------------------------
# JSON interface


def interpretation_to_json(interp: FuzzyInterpretation) -> dict:
    return {
        "domain": list(interp.domain),
        "concepts": {name: dict(row) for name, row in interp.concepts.items()},
        "roles": {
            name: [[x, y, deg] for (x, y), deg in row.items()]
            for name, row in interp.roles.items()
        },
        "individuals": dict(interp.individuals),
    }


def interpretation_from_json(obj: object) -> FuzzyInterpretation:
    doc = jsonin.obj(obj, (), ("domain",), ("concepts", "roles", "individuals"))
    concepts = {
        name: jsonin.obj(row, ("concepts", name), of=jsonin.number)
        for name, row in jsonin.obj(doc.get("concepts", {}), ("concepts",)).items()
    }
    triple = (jsonin.string, jsonin.string, jsonin.number)
    roles = {
        name: {(x, y): d for x, y, d in jsonin.array(rows, ("roles", name), triple)}
        for name, rows in jsonin.obj(doc.get("roles", {}), ("roles",)).items()
    }
    return FuzzyInterpretation(
        domain=tuple(jsonin.array(doc["domain"], ("domain",), jsonin.string)),
        concepts=concepts,
        roles=roles,
        individuals=jsonin.obj(
            doc.get("individuals", {}), ("individuals",), of=jsonin.string
        ),
    )


def load_interpretation(path: str | Path) -> FuzzyInterpretation:
    return jsonin.load(path, interpretation_from_json)
