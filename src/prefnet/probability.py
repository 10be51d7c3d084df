"""Probabilities of fuzzy events over finite interpretations.

Given a probability distribution mu over the domain, the probability of a
fuzzy concept is the expectation of its membership function::

    P(C) = sum_d C(d) * mu(d)

Conditional constraints ``(C | D)[l, u]`` hold when ``P(C and D) / P(D)``
lies inside the interval (endpoints absorb the comparison tolerance); a
zero-probability conditioning event leaves the ratio undefined.  Relative
cardinality ``|C and D| / |D|`` is the uniform-distribution special case,
and the subsethood degree of C in D is ``|C and D| / |C|``.

Conditioning on a singleton ``{x}`` collapses to the membership degree
C(x), which is what :func:`nominal_conditional` returns.  Conjunction uses
min throughout, so this module is pinned to the ``zadeh`` family.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import jsonin
from .concepts import And, Concept
from .errors import InputError, UndefinedConditionalError, UndefinedSubsethoodError
from .fuzzy import (
    EPS_CMP,
    ZADEH,
    FuzzyInterpretation,
    LogicFamily,
    degrees,
    eval_concept,
)
from .values import Record, Value, _set, _set_key

__all__ = [
    "Distribution",
    "FuzzyProbInterp",
    "fuzzy_event_prob",
    "conditional_prob",
    "check_conditional",
    "fuzzy_cardinality",
    "subsethood",
    "nominal_conditional",
    "load_distribution",
]


class Distribution(Value):
    """A probability mass function over domain elements; missing mass is 0.

    The masses are a dict, so a distribution is immutable but not hashable.
    """

    __slots__ = ("mu",)

    def __init__(self, mu: dict[str, float]) -> None:
        total = 0.0
        for elem, p in mu.items():
            if not math.isfinite(p) or p < 0.0:
                raise InputError(
                    f"probability {p!r} at {elem!r} is not a finite nonnegative number"
                )
            total += p
        if abs(total - 1.0) > EPS_CMP:
            raise InputError(
                f"distribution mass {total!r} is not 1 within {EPS_CMP}"
            )
        _set(self, "mu", mu)
        _set_key(self, (mu,))

    def prob(self, elem: str) -> float:
        return self.mu.get(elem, 0.0)

    @classmethod
    def uniform(cls, domain: tuple[str, ...] | list[str]) -> "Distribution":
        n = len(domain)
        if n == 0:
            raise InputError("cannot build a distribution over an empty domain")
        return cls({elem: 1.0 / n for elem in domain})

    @classmethod
    def from_json(cls, obj: object) -> "Distribution":
        doc = jsonin.obj(obj, (), ("mu",), ())
        return cls(jsonin.obj(doc["mu"], ("mu",), of=jsonin.number))


def load_distribution(path: str | Path) -> Distribution:
    return jsonin.load(path, Distribution.from_json)


class FuzzyProbInterp(Record):
    """A fuzzy interpretation paired with a distribution over its domain."""

    _fields = ("interp", "dist")
    family: LogicFamily = ZADEH

    def __init__(self, interp: FuzzyInterpretation, dist: Distribution) -> None:
        members = set(interp.domain)
        for elem in dist.mu:
            if elem not in members:
                raise InputError(
                    f"distribution assigns mass to unknown element {elem!r}"
                )
        self.interp = interp
        self.dist = dist


def fuzzy_event_prob(fpi: FuzzyProbInterp, concept: Concept) -> float:
    """Expected membership of the concept under the distribution."""
    member = degrees(fpi.interp, fpi.family, concept)
    return sum(c * fpi.dist.prob(d) for d, c in zip(fpi.interp.domain, member))


def conditional_prob(fpi: FuzzyProbInterp, left: Concept, given: Concept) -> float:
    """P(left and given) / P(given); undefined on zero-probability givens."""
    denom = fuzzy_event_prob(fpi, given)
    if denom == 0.0:
        raise UndefinedConditionalError(
            f"conditioning event {given} has probability zero"
        )
    return fuzzy_event_prob(fpi, And(left, given)) / denom


def check_conditional(
    fpi: FuzzyProbInterp,
    left: Concept,
    given: Concept,
    lower: float,
    upper: float,
) -> bool:
    """Whether the conditional probability lies in [lower, upper]."""
    ratio = conditional_prob(fpi, left, given)
    return lower - EPS_CMP <= ratio <= upper + EPS_CMP


def fuzzy_cardinality(interp: FuzzyInterpretation, concept: Concept) -> float:
    """Sigma-count: the sum of membership degrees over the domain."""
    return sum(degrees(interp, ZADEH, concept))


def subsethood(
    interp: FuzzyInterpretation, left: Concept, right: Concept
) -> float:
    """Degree to which left is contained in right: |left and right| / |left|."""
    denom = fuzzy_cardinality(interp, left)
    if denom == 0.0:
        raise UndefinedSubsethoodError(
            f"concept {left} has zero cardinality; subsethood is undefined"
        )
    return fuzzy_cardinality(interp, And(left, right)) / denom


def nominal_conditional(fpi: FuzzyProbInterp, concept: Concept, individual: str) -> float:
    """Conditional probability of the concept given the singleton {individual}.

    This is the membership degree at the individual's element; the event
    ratio P(C and {x}) / P({x}) equals it up to rounding, or underflow.
    """
    elem = fpi.interp.element_of(individual)
    if fpi.dist.prob(elem) == 0.0:
        raise UndefinedConditionalError(
            f"individual {individual!r} carries probability zero"
        )
    return eval_concept(fpi.interp, fpi.family, concept, elem)
