"""Concept and axiom syntax.

The concept language is ALC extended with a typicality operator ``T(...)``
and singleton nominals ``{a}``.  Concepts are immutable, hashable trees
(:class:`prefnet.values.Value`), equal when they have the same shape and
leaves, built from:

* ``Top`` and ``Bottom``
* concept names,
* ``not C``, ``C and D``, ``C or D``,
* ``exists r.C`` and ``forall r.C``,
* ``T(C)`` (the typical instances of C),
* ``{a}`` (the singleton of individual a).

``T(C)`` is read only where a query inclusion or a ``def`` body begins,
and ``T`` anywhere else is a :class:`ParseError`.  A concept nests at most
``MAX_DEPTH`` parentheses, ``not``s, quantifiers and ``and``/``or`` links.

Concrete syntax is plain ASCII, one expression per string::

    not Employee and exists has_boss.(Employee or Student)

Operator binding, loosest to tightest: ``or``, ``and``, ``not``, then the
quantifier prefixes; parentheses override.  ``[=`` writes subsumption in
axiom strings, ``@`` attaches a weight, ``>= <= > <`` attach degree
bounds, and ``(C | D)[l,u]`` and ``P(C(a))[p]`` write probabilistic
constraints.

One identifier rule covers every position that names something: concept
names, roles, nominals, both assertion arguments, ``def`` subjects and the
``distinguished:`` list of a ``.wkb`` file.  An identifier matches
``[A-Za-z_][A-Za-z0-9_]*`` and is not one of the reserved words ``and``,
``or``, ``not``, ``exists``, ``forall``, ``Top``, ``Bottom`` and ``T``.

Axioms and :class:`Signature` are immutable, hashable values too.

Parsing is total: any input yields either a tree or a :class:`ParseError`
carrying a line and column, never an unpositioned crash.  The serializer
emits minimally parenthesized text, and serialize-then-parse returns a
structurally equal tree.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, NamedTuple

from .errors import ParseError
from .values import Value, _set, _set_key

__all__ = [
    "Concept",
    "Top",
    "Bottom",
    "Name",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "Typ",
    "Nominal",
    "TOP",
    "BOTTOM",
    "Signature",
    "StrictInclusion",
    "DefeasibleInclusion",
    "FuzzyInclusion",
    "Assertion",
    "RoleAssertion",
    "FuzzyAssertion",
    "ConditionalConstraint",
    "ProbAssertion",
    "parse_concept",
    "parse_query_axiom",
    "concept_to_text",
    "axiom_to_text",
    "format_number",
    "walk",
    "concept_names_in",
    "is_el_concept",
    "is_rolefree_concept",
    "MAX_DEPTH",
]


# ---------------------------------------------------------------------------
# Abstract syntax


class Concept(Value):
    """Base class for concept expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        return concept_to_text(self)


class Top(Concept):
    __slots__ = ()

    def __init__(self) -> None:
        _set_key(self, ())


class Bottom(Concept):
    __slots__ = ()

    def __init__(self) -> None:
        _set_key(self, ())


class Name(Concept):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set_key(self, (name,))


class Not(Concept):
    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        _set(self, "arg", arg)
        _set_key(self, (arg,))


class And(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set_key(self, (left, right))


class Or(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set_key(self, (left, right))


class Exists(Concept):
    __slots__ = ("role", "arg")

    def __init__(self, role: str, arg: Concept) -> None:
        _set(self, "role", role)
        _set(self, "arg", arg)
        _set_key(self, (role, arg))


class Forall(Concept):
    __slots__ = ("role", "arg")

    def __init__(self, role: str, arg: Concept) -> None:
        _set(self, "role", role)
        _set(self, "arg", arg)
        _set_key(self, (role, arg))


class Typ(Concept):
    """The typical instances of the argument concept."""

    __slots__ = ("arg",)

    def __init__(self, arg: Concept) -> None:
        _set(self, "arg", arg)
        _set_key(self, (arg,))


class Nominal(Concept):
    """Singleton concept containing exactly one named individual."""

    __slots__ = ("individual",)

    def __init__(self, individual: str) -> None:
        _set(self, "individual", individual)
        _set_key(self, (individual,))


TOP = Top()
BOTTOM = Bottom()


def walk(concept: Concept) -> Iterator[Concept]:
    """Yield the concept and all of its subconcepts, preorder."""
    stack = [concept]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Exists, Forall, Typ)):
            stack.append(node.arg)


def concept_names_in(concept: Concept) -> set[str]:
    return {n.name for n in walk(concept) if isinstance(n, Name)}


def is_el_concept(concept: Concept) -> bool:
    """True when the concept uses only Top, names, conjunction, and exists."""
    return all(isinstance(n, (Top, Name, And, Exists)) for n in walk(concept))


def is_rolefree_concept(concept: Concept) -> bool:
    """True when the concept mentions no roles and no nominals."""
    return not any(isinstance(n, (Exists, Forall, Nominal)) for n in walk(concept))


# ---------------------------------------------------------------------------
# Signature


class Signature(Value):
    """The named vocabulary: concept, role, and individual identifiers.

    The three sets are separate namespaces; an identifier may belong to at
    most one of them.
    """

    __slots__ = ("concept_names", "role_names", "individual_names")

    def __init__(
        self,
        concept_names: frozenset[str] = frozenset(),
        role_names: frozenset[str] = frozenset(),
        individual_names: frozenset[str] = frozenset(),
    ) -> None:
        _set(self, "concept_names", concept_names)
        _set(self, "role_names", role_names)
        _set(self, "individual_names", individual_names)
        _set_key(self, (concept_names, role_names, individual_names))

    def conflicts(self) -> set[str]:
        """Identifiers claimed by more than one namespace."""
        return (
            (self.concept_names & self.role_names)
            | (self.concept_names & self.individual_names)
            | (self.role_names & self.individual_names)
        )

    def kind_of(self, ident: str) -> str | None:
        if ident in self.concept_names:
            return "concept"
        if ident in self.role_names:
            return "role"
        if ident in self.individual_names:
            return "individual"
        return None


# ---------------------------------------------------------------------------
# Axioms


class StrictInclusion(Value):
    """C [= D, required to hold without exception."""

    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set_key(self, (left, right))


class DefeasibleInclusion(Value):
    """T(subject) [= consequent, carrying a real-valued weight.

    The subject is a distinguished concept name; positive weights mark
    expected properties of typical instances, negative weights mark
    penalized ones.
    """

    __slots__ = ("subject", "consequent", "weight")

    def __init__(self, subject: str, consequent: Concept, weight: float) -> None:
        _set(self, "subject", subject)
        _set(self, "consequent", consequent)
        _set(self, "weight", weight)
        _set_key(self, (subject, consequent, weight))


class FuzzyInclusion(Value):
    """C [= D with a degree bound, e.g. ``C [= D >= 0.7``."""

    __slots__ = ("left", "right", "theta", "degree")

    def __init__(self, left: Concept, right: Concept, theta: str, degree: float) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "theta", theta)
        _set(self, "degree", degree)
        _set_key(self, (left, right, theta, degree))


class Assertion(Value):
    """C(a): the individual a is an instance of C."""

    __slots__ = ("concept", "individual")

    def __init__(self, concept: Concept, individual: str) -> None:
        _set(self, "concept", concept)
        _set(self, "individual", individual)
        _set_key(self, (concept, individual))


class RoleAssertion(Value):
    """r(a, b): a is related to b through role r."""

    __slots__ = ("role", "subject", "target")

    def __init__(self, role: str, subject: str, target: str) -> None:
        _set(self, "role", role)
        _set(self, "subject", subject)
        _set(self, "target", target)
        _set_key(self, (role, subject, target))


class FuzzyAssertion(Value):
    """C(a) with a degree bound, e.g. ``C(a) >= 0.4``."""

    __slots__ = ("concept", "individual", "theta", "degree")

    def __init__(self, concept: Concept, individual: str, theta: str, degree: float) -> None:
        _set(self, "concept", concept)
        _set(self, "individual", individual)
        _set(self, "theta", theta)
        _set(self, "degree", degree)
        _set_key(self, (concept, individual, theta, degree))


class ConditionalConstraint(Value):
    """(C | D)[l, u]: the conditional probability of C given D lies in [l, u]."""

    __slots__ = ("left", "given", "lower", "upper")

    def __init__(self, left: Concept, given: Concept, lower: float, upper: float) -> None:
        _set(self, "left", left)
        _set(self, "given", given)
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set_key(self, (left, given, lower, upper))


class ProbAssertion(Value):
    """P(C(a))[p]: the probability that a is an instance of C equals p."""

    __slots__ = ("concept", "individual", "prob")

    def __init__(self, concept: Concept, individual: str, prob: float) -> None:
        _set(self, "concept", concept)
        _set(self, "individual", individual)
        _set(self, "prob", prob)
        _set_key(self, (concept, individual, prob))


# ---------------------------------------------------------------------------
# Tokenizer

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

RESERVED = {"and", "or", "not", "exists", "forall", "Top", "Bottom", "T"}

# Deeper concepts would exhaust Python's recursion limit in the parser, in
# hashing and in printing.
MAX_DEPTH = 100


def is_identifier(text: str) -> bool:
    """True for a lexically valid, non-reserved identifier."""
    return bool(_IDENT_RE.fullmatch(text)) and text not in RESERVED


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


# One alternative per token kind, tried in this order at each position.
# NEWLINE and SPACE only move the position; BAD is any other character.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("NUMBER", _NUMBER_RE.pattern),
            ("IDENT", _IDENT_RE.pattern),
            ("SUBSUMES", r"\[="),
            ("THETA", r"[<>]=?"),
            ("LPAREN", r"\("),
            ("RPAREN", r"\)"),
            ("LBRACE", r"\{"),
            ("RBRACE", r"\}"),
            ("LBRACKET", r"\["),
            ("RBRACKET", r"\]"),
            ("COMMA", ","),
            ("DOT", r"\."),
            ("PIPE", r"\|"),
            ("AT", "@"),
            ("NEWLINE", r"\n"),
            ("SPACE", r"[ \t\r]+"),
            ("BAD", "."),
        )
    )
)


def _tokenize(text: str, line: int = 1, col_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    line_start = -col_offset  # index of the current line's column 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind == "BAD":
            raise ParseError(
                f"unexpected character {m.group()!r}", line, m.start() - line_start + 1
            )
        elif kind != "SPACE":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive-descent parser over a token list.

    When a signature is supplied every identifier is validated against the
    namespace its position demands.  The grammar methods take the nesting
    ``depth`` of the path to the subconcept they read, as ``MAX_DEPTH`` counts it.
    """

    def __init__(self, tokens: list[_Token], sig: Signature | None = None):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = what or kind
            found = tok.value or "end of input"
            raise ParseError(f"expected {shown}, found {found!r}", tok.line, tok.col)
        return self.next()

    def deeper(self, depth: int) -> int:
        """Consume the token that opens level ``depth + 1``, at most ``MAX_DEPTH``."""
        tok = self.next()
        if depth == MAX_DEPTH:
            raise ParseError(f"concept nested deeper than {MAX_DEPTH}", tok.line, tok.col)
        return depth + 1

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.col)

    # -- identifiers

    def name(self, want: str) -> _Token:
        """The next identifier, naming a ``want``: concept, role or individual.

        Every identifier position goes through here: a reserved word is
        rejected, and with a signature the name must belong to ``want``.
        """
        a_want = f"{'an' if want[0] in 'aeiou' else 'a'} {want}"
        tok = self.expect("IDENT", f"{a_want} name")
        if tok.value in RESERVED:
            raise ParseError(
                f"reserved word {tok.value!r} cannot name {a_want}", tok.line, tok.col
            )
        if self.sig is None:
            return tok
        kind = self.sig.kind_of(tok.value)
        if kind is None:
            raise ParseError(f"unknown {want} name {tok.value!r}", tok.line, tok.col)
        if kind != want:
            raise ParseError(
                f"{tok.value!r} is a {kind} name; expected a {want} name", tok.line, tok.col
            )
        return tok

    # -- grammar

    def parse_or(self, depth: int = 0) -> Concept:
        node = self.parse_and(depth)
        while self.peek().kind == "IDENT" and self.peek().value == "or":
            depth = self.deeper(depth)
            node = Or(node, self.parse_and(depth))
        return node

    def parse_and(self, depth: int) -> Concept:
        node = self.parse_not(depth)
        while self.peek().kind == "IDENT" and self.peek().value == "and":
            depth = self.deeper(depth)
            node = And(node, self.parse_not(depth))
        return node

    def parse_not(self, depth: int) -> Concept:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "not":
            return Not(self.parse_not(self.deeper(depth)))
        return self.parse_quant(depth)

    def parse_quant(self, depth: int) -> Concept:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("exists", "forall"):
            depth = self.deeper(depth)
            role = self.name("role").value
            self.expect("DOT", "'.'")
            cls = Exists if tok.value == "exists" else Forall
            return cls(role, self.parse_not(depth))
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> Concept:
        tok = self.peek()
        if tok.kind == "LPAREN":
            node = self.parse_or(self.deeper(depth))
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "LBRACE":
            self.next()
            individual = self.name("individual").value
            self.expect("RBRACE", "'}'")
            return Nominal(individual)
        if tok.kind == "IDENT":
            if tok.value == "Top":
                self.next()
                return TOP
            if tok.value == "Bottom":
                self.next()
                return BOTTOM
            if tok.value == "T":
                msg = "T(...) may only begin a query inclusion or a def body"
                raise ParseError(msg, tok.line, tok.col)
            return Name(self.name("concept").value)
        found = tok.value or "end of input"
        raise ParseError(f"expected a concept, found {found!r}", tok.line, tok.col)

    # -- axioms

    def parse_axiom(self, forms: tuple[type, ...]) -> object:
        """Parse one axiom, of one of ``forms``, in the syntax of :func:`axiom_to_text`.

        ``T(`` is read only where a defeasible inclusion begins, and ``(``
        and ``P(`` also open concepts, so a defeasible inclusion, a
        conditional constraint or a probabilistic assertion is read only
        when its form is asked for; every caller asks for those alone.
        """
        start = self.peek()
        if DefeasibleInclusion in forms:
            axiom = self._defeasible()
        elif ConditionalConstraint in forms:
            axiom = self._conditional()
        elif ProbAssertion in forms:
            axiom = self._prob_assertion()
        else:
            axiom = self._inclusion_or_assertion()
        self.expect_end()
        if not isinstance(axiom, forms):
            wanted = " or ".join(form.__name__ for form in forms)
            raise ParseError(
                f"expected {wanted}, found {type(axiom).__name__}", start.line, start.col
            )
        return axiom

    def _inclusion_or_assertion(self) -> object:
        """``C [= D``, ``C(a)`` or ``r(a,b)``; the first two take an optional bound."""
        left = self.parse_or()
        tok = self.peek()
        if tok.kind == "SUBSUMES":
            self.next()
            return self._inclusion(left)
        if tok.kind == "LPAREN":
            axiom = self._applied(left)
            if isinstance(axiom, Assertion) and self.peek().kind == "THETA":
                theta = self.next().value
                return FuzzyAssertion(
                    axiom.concept, axiom.individual, theta, self.parse_degree()
                )
            return axiom
        found = tok.value or "end of input"
        raise ParseError(f"expected '[=' or '(', found {found!r}", tok.line, tok.col)

    def _inclusion(self, left: Concept) -> StrictInclusion | FuzzyInclusion:
        """The rest of ``C [= D`` after ``[=``, with an optional bound."""
        right = self.parse_or()
        if self.peek().kind == "THETA":
            theta = self.next().value
            return FuzzyInclusion(left, right, theta, self.parse_degree())
        return StrictInclusion(left, right)

    def typical_inclusion(self) -> StrictInclusion | FuzzyInclusion:
        """``T(C) [= D``, optionally bounded: where a query reads ``T(``."""
        self.next()
        left = Typ(self.parse_or(self.deeper(0)))
        self.expect("RPAREN", "')'")
        self.expect("SUBSUMES", "'[='")
        axiom = self._inclusion(left)
        self.expect_end()
        return axiom

    def _applied(self, concept: Concept) -> Assertion | RoleAssertion:
        """``(a)`` or ``(a,b)`` after a concept; two arguments need a role name."""
        tok = self.expect("LPAREN", "'('")
        args = [self.name("individual").value]
        if self.peek().kind == "COMMA":
            self.next()
            args.append(self.name("individual").value)
        self.expect("RPAREN", "')'")
        if len(args) == 1:
            return Assertion(concept, args[0])
        if not isinstance(concept, Name):
            raise ParseError(
                "a two-argument assertion needs a bare role name", tok.line, tok.col
            )
        return RoleAssertion(concept.name, args[0], args[1])

    def _defeasible(self) -> DefeasibleInclusion:
        """``T(A) [= D @ w``."""
        t_tok = self.expect("IDENT", "'T'")
        if t_tok.value != "T":
            raise ParseError("expected 'T(...)'", t_tok.line, t_tok.col)
        self.expect("LPAREN", "'('")
        subject = self.name("concept").value
        self.expect("RPAREN", "')'")
        self.expect("SUBSUMES", "'[='")
        consequent = self.parse_or()
        at_tok = self.expect("AT", "'@'")
        weight = float(self.expect("NUMBER", "a weight").value)
        if not math.isfinite(weight):
            raise ParseError("weight must be finite", at_tok.line, at_tok.col)
        return DefeasibleInclusion(subject, consequent, weight)

    def _conditional(self) -> ConditionalConstraint:
        """``(C | D)[l,u]``."""
        self.expect("LPAREN", "'('")
        left = self.parse_or()
        self.expect("PIPE", "'|'")
        given = self.parse_or()
        self.expect("RPAREN", "')'")
        self.expect("LBRACKET", "'['")
        lo_tok = self.peek()
        lower = self.parse_degree()
        self.expect("COMMA", "','")
        upper = self.parse_degree()
        self.expect("RBRACKET", "']'")
        if lower > upper:
            raise ParseError(f"empty interval [{lower}, {upper}]", lo_tok.line, lo_tok.col)
        return ConditionalConstraint(left, given, lower, upper)

    def _prob_assertion(self) -> ProbAssertion:
        """``P(C(a))[p]``."""
        p_tok = self.expect("IDENT", "'P'")
        if p_tok.value != "P":
            raise ParseError("expected 'P'", p_tok.line, p_tok.col)
        self.expect("LPAREN", "'('")
        inner = self._applied(self.parse_or())
        if not isinstance(inner, Assertion):
            raise ParseError(
                "probabilistic assertions take a single individual", p_tok.line, p_tok.col
            )
        self.expect("RPAREN", "')'")
        self.expect("LBRACKET", "'['")
        prob = self.parse_degree("a probability in [0,1]")
        self.expect("RBRACKET", "']'")
        return ProbAssertion(inner.concept, inner.individual, prob)

    def parse_degree(self, what: str = "a degree in [0,1]") -> float:
        tok = self.expect("NUMBER", what)
        value = float(tok.value)
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"degree {tok.value} is outside [0,1]", tok.line, tok.col)
        return value


def parse_concept(text: str, sig: Signature | None = None) -> Concept:
    """Parse a concept expression.

    With a signature, identifiers are resolved against it and a positioned
    error names the expected namespace on a mismatch; without one, any
    well-placed identifier is accepted.  ``T(...)`` is no concept here.
    """
    parser = _Parser(_tokenize(text), sig=sig)
    node = parser.parse_or()
    parser.expect_end()
    return node


_QUERY_FORMS = (StrictInclusion, FuzzyInclusion, Assertion, FuzzyAssertion)


def parse_query_axiom(
    text: str,
    sig: Signature | None = None,
) -> StrictInclusion | FuzzyInclusion | Assertion | FuzzyAssertion:
    """Parse a query axiom: an inclusion or an assertion, optionally bounded.

    Accepted shapes::

        C [= D                  C [= D >= 0.7
        C(a)                    C(a) > 0.5

    An inclusion may begin with ``T(C)``, and nowhere else may ``T`` stand.
    """
    parser = _Parser(_tokenize(text), sig=sig)
    if parser.peek().value == "T" and parser.tokens[1].kind == "LPAREN":
        return parser.typical_inclusion()
    return parser.parse_axiom(_QUERY_FORMS)


# ---------------------------------------------------------------------------
# Serializer

_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_PREFIX = 3
_LEVEL_ATOM = 4


def _level(concept: Concept) -> int:
    if isinstance(concept, Or):
        return _LEVEL_OR
    if isinstance(concept, And):
        return _LEVEL_AND
    if isinstance(concept, (Not, Exists, Forall)):
        return _LEVEL_PREFIX
    return _LEVEL_ATOM


def _wrap(concept: Concept, need: int) -> str:
    text = concept_to_text(concept)
    if _level(concept) < need:
        return f"({text})"
    return text


def concept_to_text(concept: Concept) -> str:
    """Serialize a concept with minimal parenthesization."""
    if isinstance(concept, Top):
        return "Top"
    if isinstance(concept, Bottom):
        return "Bottom"
    if isinstance(concept, Name):
        return concept.name
    if isinstance(concept, Nominal):
        return "{" + concept.individual + "}"
    if isinstance(concept, Not):
        return f"not {_wrap(concept.arg, _LEVEL_PREFIX)}"
    if isinstance(concept, And):
        return f"{_wrap(concept.left, _LEVEL_AND)} and {_wrap(concept.right, _LEVEL_PREFIX)}"
    if isinstance(concept, Or):
        return f"{_wrap(concept.left, _LEVEL_OR)} or {_wrap(concept.right, _LEVEL_AND)}"
    if isinstance(concept, Exists):
        return f"exists {concept.role}.{_wrap(concept.arg, _LEVEL_PREFIX)}"
    if isinstance(concept, Forall):
        return f"forall {concept.role}.{_wrap(concept.arg, _LEVEL_PREFIX)}"
    if isinstance(concept, Typ):
        return f"T({concept_to_text(concept.arg)})"
    raise TypeError(f"not a concept: {concept!r}")


def format_number(value: float) -> str:
    """Shortest faithful decimal form; integers drop the trailing '.0'."""
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def _applied_concept(concept: Concept) -> str:
    if isinstance(concept, (Name, Top, Bottom, Nominal)):
        return concept_to_text(concept)
    return f"({concept_to_text(concept)})"


def axiom_to_text(axiom: object) -> str:
    """Serialize an axiom in query syntax (no statement keyword)."""
    if isinstance(axiom, StrictInclusion):
        return f"{concept_to_text(axiom.left)} [= {concept_to_text(axiom.right)}"
    if isinstance(axiom, DefeasibleInclusion):
        return (
            f"T({axiom.subject}) [= {concept_to_text(axiom.consequent)}"
            f" @ {format_number(axiom.weight)}"
        )
    if isinstance(axiom, FuzzyInclusion):
        return (
            f"{concept_to_text(axiom.left)} [= {concept_to_text(axiom.right)}"
            f" {axiom.theta} {format_number(axiom.degree)}"
        )
    if isinstance(axiom, Assertion):
        return f"{_applied_concept(axiom.concept)}({axiom.individual})"
    if isinstance(axiom, RoleAssertion):
        return f"{axiom.role}({axiom.subject},{axiom.target})"
    if isinstance(axiom, FuzzyAssertion):
        return (
            f"{_applied_concept(axiom.concept)}({axiom.individual})"
            f" {axiom.theta} {format_number(axiom.degree)}"
        )
    if isinstance(axiom, ConditionalConstraint):
        return (
            f"({concept_to_text(axiom.left)} | {concept_to_text(axiom.given)})"
            f"[{format_number(axiom.lower)},{format_number(axiom.upper)}]"
        )
    if isinstance(axiom, ProbAssertion):
        return (
            f"P({_applied_concept(axiom.concept)}({axiom.individual}))"
            f"[{format_number(axiom.prob)}]"
        )
    raise TypeError(f"not an axiom: {axiom!r}")
