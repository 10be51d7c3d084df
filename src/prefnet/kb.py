"""Weighted defeasible knowledge bases and their text format.

A :class:`WeightedKB` is a triple of a strict TBox, one block of weighted
defeasible inclusions ``T(C_i) [= D @ w`` per distinguished concept, and a
crisp ABox.  Query-level material (degree-bounded axioms, conditional
constraints, probabilistic assertions) rides along in ``extra``.

The ``.wkb`` text format is line oriented; ``#`` starts a comment and each
statement sits on its own line::

    distinguished: Employee, Student
    strict: Employee [= Adult
    def(Employee): T(Employee) [= Young @ -50
    assert: Employee(tom)
    assert: has_boss(bob,tom)
    fuzzy: Young [= Tall >= 0.7
    fuzzy-assert: Young(tom) >= 0.4
    cc: (Young | Employee)[0.2,0.8]
    passert: P(Young(tom))[0.5]

Each body is one axiom in the syntax :func:`axiom_to_text` writes, and
the keyword names the forms it may take.  The typicality operator
appears only at the start of a ``def`` body.
Each ``def(<C>)`` subject must be declared distinguished, and a second
``distinguished:`` line is a duplicate-declaration error.  A
:class:`WeightedKB` built in code is held to the same rules, degree and
``T(...)`` rules included, so :func:`serialize_kb` can write any KB back
as text that :func:`parse_kb` reads.
Namespaces (concept, role, individual) are inferred from position and
must not overlap; overlaps surface as validation diagnostics.
"""

from __future__ import annotations

import math
import re
from collections.abc import Collection
from pathlib import Path

from .concepts import (
    Assertion,
    Concept,
    ConditionalConstraint,
    DefeasibleInclusion,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyInclusion,
    Name,
    Nominal,
    ProbAssertion,
    RoleAssertion,
    Signature,
    StrictInclusion,
    Typ,
    _IDENT_RE,
    _Parser,
    _Token,
    _tokenize,
    axiom_to_text,
    is_el_concept,
    is_identifier,
    walk,
)
from .errors import InputError, ParseError
from .jsonin import read_text
from .values import Record, Value, _set, _set_key

__all__ = [
    "WeightedKB",
    "Diagnostic",
    "parse_kb",
    "serialize_kb",
    "load_kb",
    "validate_kb",
]

ExtraAxiom = FuzzyInclusion | FuzzyAssertion | ConditionalConstraint | ProbAssertion


class WeightedKB(Record):
    """A strict TBox, weighted defeasible blocks, and a crisp ABox.

    ``defeasible`` holds one entry per distinguished concept, in declaration
    order inside each block; repeated identical inclusions are kept.  Any
    content that ``.wkb`` text could not write back is an
    :class:`InputError`: a repeated, reserved or malformed distinguished
    name, a block keyed by a name that is not distinguished, an inclusion
    about another subject, a non-finite weight, ``T(...)`` outside the
    head of a ``def`` body, a degree or probability outside [0, 1], and an
    empty ``cc`` interval.
    """

    _fields = ("distinguished", "strict", "defeasible", "abox", "extra")

    def __init__(
        self,
        distinguished: tuple[str, ...] = (),
        strict: tuple[StrictInclusion, ...] = (),
        defeasible: dict[str, tuple[DefeasibleInclusion, ...]] | None = None,
        abox: tuple[Assertion | RoleAssertion, ...] = (),
        extra: tuple[ExtraAxiom, ...] = (),
    ) -> None:
        if len(set(distinguished)) < len(distinguished):
            twice = next(n for i, n in enumerate(distinguished) if n in distinguished[:i])
            raise InputError(f"distinguished name {twice!r} is listed twice")
        for name in distinguished:
            if not is_identifier(name):
                raise InputError(
                    f"distinguished name {name!r} is reserved or not an identifier"
                )
        blocks = dict(defeasible or {})
        for name, block in blocks.items():
            if name not in distinguished:
                raise InputError(f"defeasible block for {name!r} is not distinguished")
            for pos, d in enumerate(block, start=1):
                if d.subject != name:
                    problem = f"has subject {d.subject!r}"
                elif not math.isfinite(d.weight):
                    problem = "has a non-finite weight"
                elif _typ_in(d.consequent):
                    problem = "uses T(...) in its consequent"
                else:
                    continue
                raise InputError(f"defeasible inclusion {pos} in block {name!r} {problem}")
        for axiom in (*strict, *abox, *extra):
            problem = _unwritable(axiom)
            if problem:
                text = f"{_KEYWORD[type(axiom)]}: {axiom_to_text(axiom)}"
                raise InputError(f"{text!r} {problem}")
        for name in distinguished:
            blocks.setdefault(name, ())
        self.distinguished = distinguished
        self.strict = strict
        self.defeasible = blocks
        self.abox = abox
        self.extra = extra

    def defaults_for(self, concept_name: str) -> tuple[DefeasibleInclusion, ...]:
        return self.defeasible.get(concept_name, ())

    def all_concepts(self) -> list[Concept]:
        """Every concept expression stored anywhere in the KB."""
        out: list[Concept] = []
        for inc in self.strict:
            out.append(inc.left)
            out.append(inc.right)
        for name in self.distinguished:
            for d in self.defeasible.get(name, ()):
                out.append(d.consequent)
        for a in self.abox:
            if isinstance(a, Assertion):
                out.append(a.concept)
        for ax in self.extra:
            if isinstance(ax, FuzzyInclusion):
                out.append(ax.left)
                out.append(ax.right)
            elif isinstance(ax, FuzzyAssertion):
                out.append(ax.concept)
            elif isinstance(ax, ConditionalConstraint):
                out.append(ax.left)
                out.append(ax.given)
            elif isinstance(ax, ProbAssertion):
                out.append(ax.concept)
        return out

    def signature(self) -> Signature:
        """The vocabulary inferred from usage positions."""
        concepts: set[str] = set(self.distinguished)
        roles: set[str] = set()
        individuals: set[str] = set()
        for c in self.all_concepts():
            if type(c) is Name:
                concepts.add(c.name)
                continue
            for node in walk(c):
                if isinstance(node, Name):
                    concepts.add(node.name)
                elif isinstance(node, (Exists, Forall)):
                    roles.add(node.role)
                elif isinstance(node, Nominal):
                    individuals.add(node.individual)
        for a in self.abox:
            if isinstance(a, Assertion):
                individuals.add(a.individual)
            else:
                roles.add(a.role)
                individuals.add(a.subject)
                individuals.add(a.target)
        for ax in self.extra:
            if isinstance(ax, (FuzzyAssertion, ProbAssertion)):
                individuals.add(ax.individual)
        return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))


def _typ_in(concept: Concept) -> bool:
    """Whether ``T(...)`` occurs in the concept; a bare name is answered at once."""
    return type(concept) is not Name and any(isinstance(n, Typ) for n in walk(concept))


def _unwritable(axiom: object) -> str | None:
    """Why ``.wkb`` text could not hold a strict, ABox or extra axiom, or None."""
    fields = {f: getattr(axiom, f) for f in type(axiom).__slots__}
    if any(isinstance(v, Concept) and _typ_in(v) for v in fields.values()):
        return "uses T(...)"
    for field in ("degree", "prob", "lower", "upper"):
        if field in fields and not 0.0 <= fields[field] <= 1.0:
            return f"has {field} {fields[field]!r} outside [0,1]"
    if isinstance(axiom, ConditionalConstraint) and axiom.lower > axiom.upper:
        return "has an empty interval"
    return None


class Diagnostic(Value):
    __slots__ = ("level", "message", "line", "col")

    def __init__(
        self, level: str, message: str, line: int | None = None, col: int | None = None
    ) -> None:
        _set(self, "level", level)  # "error" or "warning"
        _set(self, "message", message)
        _set(self, "line", line)
        _set(self, "col", col)
        _set_key(self, (level, message, line, col))

    def to_json(self) -> dict:
        out: dict = {"level": self.level, "message": self.message}
        if self.line is not None:
            out["line"] = self.line
        if self.col is not None:
            out["col"] = self.col
        return out


# ---------------------------------------------------------------------------
# Parsing and serialization

_HEAD_RE = re.compile(
    rf"^\s*(?:def\s*\(\s*({_IDENT_RE.pattern})\s*\)|([A-Za-z_][A-Za-z0-9_-]*))\s*:"
)

# Statement keyword -> the axiom forms its body may take; ``def(<C>)``
# takes a defeasible inclusion and ``distinguished`` a list of names.
_FORMS = {
    "strict": (StrictInclusion,),
    "assert": (Assertion, RoleAssertion),
    "fuzzy": (FuzzyInclusion,),
    "fuzzy-assert": (FuzzyAssertion,),
    "cc": (ConditionalConstraint,),
    "passert": (ProbAssertion,),
}
_KEYWORD = {form: keyword for keyword, forms in _FORMS.items() for form in forms}


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def parse_kb(text: str, keywords: Collection[str] | None = None) -> WeightedKB:
    """Parse ``.wkb`` text into a :class:`WeightedKB`.

    ``keywords``, when given, names the only statement keywords the text
    may use (``def`` for defeasible lines).  Raises :class:`ParseError`
    with a line and column on syntax errors, on other keywords, on
    ``def`` subjects that are not declared distinguished, and on
    duplicate declarations.
    """
    distinguished: list[str] | None = None
    statements: list[tuple[object, _Token]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = _HEAD_RE.match(line)
        if m is None:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected a statement keyword followed by ':'", idx, col)
        subject, keyword = m.groups()
        forms = (DefeasibleInclusion,) if subject else _FORMS.get(keyword)
        if forms is None and keyword != "distinguished":
            raise ParseError(f"unknown statement keyword {keyword!r}", idx, 1)
        if keywords is not None and (keyword or "def") not in keywords:
            raise ParseError(
                f"{keyword or 'def'!r} statements are not allowed here;"
                f" expected {', '.join(keywords)}",
                idx,
                len(line) - len(line.lstrip()) + 1,
            )
        parser = _Parser(_tokenize(line[m.end() :], idx, m.end()))
        start = parser.peek()
        if forms is None:
            if distinguished is not None:
                raise ParseError("duplicate 'distinguished:' declaration", idx, 1)
            distinguished = []
            while True:
                tok = parser.name("concept")
                if tok.value in distinguished:
                    raise ParseError(
                        f"duplicate distinguished concept {tok.value!r}", tok.line, tok.col
                    )
                distinguished.append(tok.value)
                if parser.peek().kind != "COMMA":
                    break
                parser.next()
            parser.expect_end()
            continue
        axiom = parser.parse_axiom(forms)
        if subject and axiom.subject != subject:
            raise ParseError(
                f"subject {axiom.subject!r} does not match def({subject})",
                start.line,
                start.col,
            )
        statements.append((axiom, start))

    blocks: dict[str, list[DefeasibleInclusion]] = {
        name: [] for name in distinguished or ()
    }
    strict, abox, extra = [], [], []
    for axiom, start in statements:
        if isinstance(axiom, DefeasibleInclusion):
            if axiom.subject not in blocks:
                raise ParseError(
                    f"{axiom.subject!r} is not declared distinguished",
                    start.line,
                    start.col,
                )
            blocks[axiom.subject].append(axiom)
        elif isinstance(axiom, StrictInclusion):
            strict.append(axiom)
        elif isinstance(axiom, (Assertion, RoleAssertion)):
            abox.append(axiom)
        else:
            extra.append(axiom)
    return WeightedKB(
        distinguished=tuple(blocks),
        strict=tuple(strict),
        defeasible={k: tuple(v) for k, v in blocks.items()},
        abox=tuple(abox),
        extra=tuple(extra),
    )


def serialize_kb(kb: WeightedKB) -> str:
    """Emit canonical ``.wkb`` text: declaration, strict, def-blocks, ABox, extra."""
    out: list[str] = []
    if kb.distinguished:
        out.append("distinguished: " + ", ".join(kb.distinguished))
    out += [f"strict: {axiom_to_text(inc)}" for inc in kb.strict]
    for name in kb.distinguished:
        out += [f"def({name}): {axiom_to_text(d)}" for d in kb.defaults_for(name)]
    for ax in (*kb.abox, *kb.extra):
        out.append(f"{_KEYWORD[type(ax)]}: {axiom_to_text(ax)}")
    return "\n".join(out) + ("\n" if out else "")


def load_kb(path: str | Path, keywords: Collection[str] | None = None) -> WeightedKB:
    return parse_kb(read_text(path), keywords)


# ---------------------------------------------------------------------------
# Validation


def validate_kb(kb: WeightedKB) -> list[Diagnostic]:
    """Structural diagnostics, deterministic and independent of file order.

    Errors: namespace overlaps.  Warnings: defeasible consequents outside
    the existential-conjunctive fragment.  (:class:`WeightedKB` itself
    rejects what ``.wkb`` text could not hold, undeclared block subjects,
    subject mismatches and non-finite weights included.)
    """
    diags: list[Diagnostic] = []
    sig = kb.signature()
    for ident in sorted(sig.conflicts()):
        kinds = []
        if ident in sig.concept_names:
            kinds.append("concept")
        if ident in sig.role_names:
            kinds.append("role")
        if ident in sig.individual_names:
            kinds.append("individual")
        diags.append(
            Diagnostic(
                "error",
                f"identifier {ident!r} is used as more than one of: {', '.join(kinds)}",
            )
        )
    for name in kb.distinguished:
        for pos, d in enumerate(kb.defeasible[name], start=1):
            if not is_el_concept(d.consequent):
                diags.append(
                    Diagnostic(
                        "warning",
                        f"consequent of defeasible inclusion {pos} in block {name!r}"
                        f" uses constructs outside the existential-conjunctive"
                        f" fragment: {d.consequent}",
                    )
                )
    return diags
