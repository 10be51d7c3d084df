"""The dataclass definitions of prefnet's value classes and records.

prefnet builds these classes by hand, on ``prefnet.values``, so that no
method is generated at import time.  The ``dataclasses`` versions below
keep the fields, flags and defaults the hand-written ones must match:
``tests/test_values.py`` converts each prefnet object to its oracle twin
with :func:`to_oracle` and compares ``repr``, ``==``, ``hash`` and
immutability.  ``__post_init__`` only derives the fields that
``__init__`` does not take; the oracles do not validate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ClassVar


# ---------------------------------------------------------------------------
# prefnet.concepts


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class Name:
    name: str


@dataclass(frozen=True, slots=True)
class Not:
    arg: object


@dataclass(frozen=True, slots=True)
class And:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Exists:
    role: str
    arg: object


@dataclass(frozen=True, slots=True)
class Forall:
    role: str
    arg: object


@dataclass(frozen=True, slots=True)
class Typ:
    arg: object


@dataclass(frozen=True, slots=True)
class Nominal:
    individual: str


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str] = frozenset()
    role_names: frozenset[str] = frozenset()
    individual_names: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StrictInclusion:
    left: object
    right: object


@dataclass(frozen=True)
class DefeasibleInclusion:
    subject: str
    consequent: object
    weight: float


@dataclass(frozen=True)
class FuzzyInclusion:
    left: object
    right: object
    theta: str
    degree: float


@dataclass(frozen=True)
class Assertion:
    concept: object
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    target: str


@dataclass(frozen=True)
class FuzzyAssertion:
    concept: object
    individual: str
    theta: str
    degree: float


@dataclass(frozen=True)
class ConditionalConstraint:
    left: object
    given: object
    lower: float
    upper: float


@dataclass(frozen=True)
class ProbAssertion:
    concept: object
    individual: str
    prob: float


# ---------------------------------------------------------------------------
# prefnet.fuzzy


@dataclass(frozen=True)
class LogicFamily:
    name: str
    tnorm: Callable[[float, float], float]
    snorm: Callable[[float, float], float]
    neg: Callable[[float], float]
    impl: Callable[[float, float], float]


@dataclass
class FuzzyInterpretation:
    domain: tuple[str, ...]
    concepts: dict[str, dict[str, float]] = field(default_factory=dict)
    roles: dict[str, dict[tuple[str, str], float]] = field(default_factory=dict)
    individuals: dict[str, str] = field(default_factory=dict)
    index: dict[str, int] = field(init=False, compare=False, repr=False)
    successors: dict[str, list[list[tuple[int, float]]]] = field(
        init=False, compare=False, repr=False
    )
    is_crisp: bool = field(init=False, compare=False, repr=False)
    _memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.domain = tuple(self.domain)
        self.index = {x: i for i, x in enumerate(self.domain)}
        self.successors = {}
        for rname, row in self.roles.items():
            succ: list[list[tuple[int, float]]] = [[] for _ in self.domain]
            for (x, y), deg in row.items():
                succ[self.index[x]].append((self.index[y], deg))
            self.successors[rname] = succ
        degrees = [d for row in self.concepts.values() for d in row.values()]
        degrees += [d for row in self.roles.values() for d in row.values()]
        self.is_crisp = all(d in (0.0, 1.0) for d in degrees)


# ---------------------------------------------------------------------------
# prefnet.kb


@dataclass
class WeightedKB:
    distinguished: tuple[str, ...] = ()
    strict: tuple = ()
    defeasible: dict[str, tuple] = field(default_factory=dict)
    abox: tuple = ()
    extra: tuple = ()

    def __post_init__(self) -> None:
        blocks = dict(self.defeasible)
        for name in self.distinguished:
            blocks.setdefault(name, ())
        self.defeasible = blocks


@dataclass(frozen=True)
class Diagnostic:
    level: str
    message: str
    line: int | None = None
    col: int | None = None


# ---------------------------------------------------------------------------
# prefnet.preferences


@dataclass(frozen=True)
class ConceptPreference:
    concept: str
    weights: dict[str, float]


@dataclass
class MultiprefModel:
    interp: object
    preferences: dict[str, ConceptPreference]
    family: object = None
    concepts: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.concepts = tuple(self.preferences)


@dataclass(frozen=True)
class Violation:
    concept: str
    x: str
    y: str
    kind: str


@dataclass
class CoherenceReport:
    coherent: bool
    weakly_coherent: bool
    violations: list[Violation] = field(default_factory=list)
    truncated: bool = False


# ---------------------------------------------------------------------------
# prefnet.mlp


@dataclass(frozen=True)
class Activation:
    tag: str
    fn: Callable[[float], float]
    strictly_increasing: bool
    range_in_unit_halfopen: bool
    nondecreasing: bool


@dataclass(frozen=True)
class Unit:
    id: str
    activation: str
    bias: float = 0.0
    incoming: tuple[tuple[str, float], ...] = ()


@dataclass
class Network:
    inputs: tuple[str, ...]
    units: tuple[Unit, ...]
    c_units: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.units = tuple(self.units)
        self.c_units = tuple(self.c_units)


@dataclass
class StimulusSet:
    ids: tuple[str, ...]
    values: dict[str, dict[str, float]]

    def __post_init__(self) -> None:
        self.ids = tuple(self.ids)


@dataclass
class ActivityTable:
    stimuli: tuple[str, ...]
    activity: dict[str, dict[str, float]]
    induced_field: dict[str, dict[str, float]]


@dataclass
class VerificationReport:
    kind: str
    ok: bool
    weight_identity_ok: bool
    max_weight_error: float
    gated_pairs: int
    checked_pairs: int
    coherence: CoherenceReport


# ---------------------------------------------------------------------------
# prefnet.probability


@dataclass(frozen=True)
class Distribution:
    mu: dict[str, float]


@dataclass
class FuzzyProbInterp:
    interp: object
    dist: Distribution
    family: ClassVar[object] = None


ORACLES = {
    name: cls
    for name, cls in list(globals().items())
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


def to_oracle(value: object) -> object:
    """The oracle twin of a prefnet object, converted all the way down.

    Sets are kept as they are: prefnet's hold only names, and a rebuilt
    set may iterate, and so print, in another order.
    """
    cls = ORACLES.get(type(value).__name__)
    if cls is not None and type(value).__module__.startswith("prefnet."):
        return cls(
            **{
                f.name: to_oracle(getattr(value, f.name))
                for f in dataclasses.fields(cls)
                if f.init
            }
        )
    if isinstance(value, (tuple, list)):
        return type(value)(to_oracle(v) for v in value)
    if isinstance(value, dict):
        return {to_oracle(k): to_oracle(v) for k, v in value.items()}
    return value
