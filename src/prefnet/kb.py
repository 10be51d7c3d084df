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

The typicality operator appears only on the left side of ``def`` lines.
Each ``def(<C>)`` subject must be declared distinguished, and a second
``distinguished:`` line is a duplicate-declaration error.  Namespaces
(concept, role, individual) are inferred from position and must not
overlap; overlaps surface as validation diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .concepts import (
    Assertion,
    Concept,
    ConditionalConstraint,
    DefeasibleInclusion,
    FuzzyAssertion,
    FuzzyInclusion,
    Name,
    ProbAssertion,
    RoleAssertion,
    Signature,
    StrictInclusion,
    _Parser,
    _tokenize,
    axiom_to_text,
    concept_names_in,
    individual_names_in,
    is_el_concept,
    is_rolefree_concept,
    role_names_in,
)
from .errors import ParseError

__all__ = [
    "WeightedKB",
    "Diagnostic",
    "parse_kb",
    "serialize_kb",
    "load_kb",
    "save_kb",
    "validate_kb",
    "classify_fragment",
]

ExtraAxiom = FuzzyInclusion | FuzzyAssertion | ConditionalConstraint | ProbAssertion


@dataclass
class WeightedKB:
    """A strict TBox, weighted defeasible blocks, and a crisp ABox.

    ``defeasible`` holds one entry per distinguished concept, in declaration
    order inside each block; repeated identical inclusions are kept.
    """

    distinguished: tuple[str, ...] = ()
    strict: tuple[StrictInclusion, ...] = ()
    defeasible: dict[str, tuple[DefeasibleInclusion, ...]] = field(default_factory=dict)
    abox: tuple[Assertion | RoleAssertion, ...] = ()
    extra: tuple[ExtraAxiom, ...] = ()

    def __post_init__(self) -> None:
        blocks = dict(self.defeasible)
        for name in self.distinguished:
            blocks.setdefault(name, ())
        self.defeasible = blocks

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
            concepts |= concept_names_in(c)
            roles |= role_names_in(c)
            individuals |= individual_names_in(c)
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


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" or "warning"
    message: str
    line: int | None = None
    col: int | None = None

    def to_json(self) -> dict:
        out: dict = {"level": self.level, "message": self.message}
        if self.line is not None:
            out["line"] = self.line
        if self.col is not None:
            out["col"] = self.col
        return out


# ---------------------------------------------------------------------------
# Parsing

_HEAD_RE = re.compile(r"^(\s*)([A-Za-z_][A-Za-z0-9_-]*|def\s*\(\s*[A-Za-z_]\w*\s*\))\s*:")
_DEF_HEAD_RE = re.compile(r"^def\s*\(\s*([A-Za-z_]\w*)\s*\)$")


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


class _KbBuilder:
    def __init__(self) -> None:
        self.distinguished: list[str] = []
        self.saw_distinguished = False
        self.strict: list[StrictInclusion] = []
        self.blocks: dict[str, list[DefeasibleInclusion]] = {}
        self.abox: list[Assertion | RoleAssertion] = []
        self.extra: list[ExtraAxiom] = []


def _body_parser(body: str, line_no: int, col_offset: int) -> _Parser:
    tokens = _tokenize(body, line=line_no, col_offset=col_offset)
    return _Parser(tokens, allow_typ=False)


def _parse_applied(parser: _Parser) -> tuple[Concept | None, str, list[str]]:
    """Parse ``<concept>(<ind>)`` or ``<role>(<a>,<b>)``; returns (concept, role, args)."""
    start = parser.peek()
    concept = parser.parse_or()
    parser.expect("LPAREN", "'('")
    first = parser.expect("IDENT", "an individual name")
    args = [first.value]
    if parser.peek().kind == "COMMA":
        parser.next()
        second = parser.expect("IDENT", "an individual name")
        args.append(second.value)
    parser.expect("RPAREN", "')'")
    if len(args) == 2:
        if not isinstance(concept, Name):
            raise ParseError(
                "a two-argument assertion needs a bare role name", start.line, start.col
            )
        return None, concept.name, args
    return concept, "", args


def parse_kb(text: str) -> WeightedKB:
    """Parse ``.wkb`` text into a :class:`WeightedKB`.

    Raises :class:`ParseError` with a line and column on syntax errors,
    on ``def`` subjects that are not declared distinguished, and on
    duplicate declarations.
    """
    builder = _KbBuilder()
    lines = text.splitlines()

    # First pass: the distinguished declaration, so def-blocks can appear
    # anywhere relative to it.
    for idx, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = _HEAD_RE.match(line)
        if m is None:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected a statement keyword followed by ':'", idx, col)
        head = m.group(2).strip()
        if head == "distinguished":
            if builder.saw_distinguished:
                raise ParseError("duplicate 'distinguished:' declaration", idx, 1)
            builder.saw_distinguished = True
            parser = _body_parser(line[m.end() :], idx, m.end())
            while True:
                tok = parser.expect("IDENT", "a concept name")
                if tok.value in builder.distinguished:
                    raise ParseError(
                        f"duplicate distinguished concept {tok.value!r}", tok.line, tok.col
                    )
                builder.distinguished.append(tok.value)
                if parser.peek().kind == "COMMA":
                    parser.next()
                    continue
                parser.expect_end()
                break
            for name in builder.distinguished:
                builder.blocks[name] = []

    # Second pass: everything else, in file order.
    for idx, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = _HEAD_RE.match(line)
        assert m is not None
        head = m.group(2).strip()
        body = line[m.end() :]
        col0 = m.end()
        if head == "distinguished":
            continue
        parser = _body_parser(body, idx, col0)
        defm = _DEF_HEAD_RE.match(head)
        if defm is not None:
            _parse_def_line(parser, defm.group(1), idx, builder)
        elif head == "strict":
            left = parser.parse_or()
            parser.expect("SUBSUMES", "'[='")
            right = parser.parse_or()
            parser.expect_end()
            builder.strict.append(StrictInclusion(left, right))
        elif head == "assert":
            concept, role, args = _parse_applied(parser)
            parser.expect_end()
            if concept is None:
                builder.abox.append(RoleAssertion(role, args[0], args[1]))
            else:
                builder.abox.append(Assertion(concept, args[0]))
        elif head == "fuzzy":
            left = parser.parse_or()
            parser.expect("SUBSUMES", "'[='")
            right = parser.parse_or()
            theta = parser.expect("THETA", "a comparison (>=, <=, >, <)").value
            degree = parser.parse_degree()
            parser.expect_end()
            builder.extra.append(FuzzyInclusion(left, right, theta, degree))
        elif head == "fuzzy-assert":
            concept, role, args = _parse_applied(parser)
            if concept is None:
                raise ParseError("fuzzy assertions take a single individual", idx, col0)
            theta = parser.expect("THETA", "a comparison (>=, <=, >, <)").value
            degree = parser.parse_degree()
            parser.expect_end()
            builder.extra.append(FuzzyAssertion(concept, args[0], theta, degree))
        elif head == "cc":
            parser.expect("LPAREN", "'('")
            left = parser.parse_or()
            parser.expect("PIPE", "'|'")
            given = parser.parse_or()
            parser.expect("RPAREN", "')'")
            parser.expect("LBRACKET", "'['")
            lo_tok = parser.peek()
            lower = parser.parse_degree()
            parser.expect("COMMA", "','")
            upper = parser.parse_degree()
            parser.expect("RBRACKET", "']'")
            parser.expect_end()
            if lower > upper:
                raise ParseError(
                    f"empty interval [{lower}, {upper}]", lo_tok.line, lo_tok.col
                )
            builder.extra.append(ConditionalConstraint(left, given, lower, upper))
        elif head == "passert":
            p_tok = parser.expect("IDENT", "'P'")
            if p_tok.value != "P":
                raise ParseError("expected 'P'", p_tok.line, p_tok.col)
            parser.expect("LPAREN", "'('")
            concept, role, args = _parse_applied(parser)
            if concept is None:
                raise ParseError(
                    "probabilistic assertions take a single individual", idx, col0
                )
            parser.expect("RPAREN", "')'")
            parser.expect("LBRACKET", "'['")
            prob = parser.parse_degree("a probability in [0,1]")
            parser.expect("RBRACKET", "']'")
            parser.expect_end()
            builder.extra.append(ProbAssertion(concept, args[0], prob))
        else:
            raise ParseError(f"unknown statement keyword {head!r}", idx, 1)

    return WeightedKB(
        distinguished=tuple(builder.distinguished),
        strict=tuple(builder.strict),
        defeasible={k: tuple(v) for k, v in builder.blocks.items()},
        abox=tuple(builder.abox),
        extra=tuple(builder.extra),
    )


def _parse_def_line(
    parser: _Parser, head_subject: str, line_no: int, builder: _KbBuilder
) -> None:
    t_tok = parser.expect("IDENT", "'T'")
    if t_tok.value != "T":
        raise ParseError("expected 'T(...)'", t_tok.line, t_tok.col)
    parser.expect("LPAREN", "'('")
    subj_tok = parser.expect("IDENT", "a concept name")
    parser.expect("RPAREN", "')'")
    if subj_tok.value != head_subject:
        raise ParseError(
            f"subject {subj_tok.value!r} does not match def({head_subject})",
            subj_tok.line,
            subj_tok.col,
        )
    if head_subject not in builder.distinguished:
        raise ParseError(
            f"{head_subject!r} is not declared distinguished",
            subj_tok.line,
            subj_tok.col,
        )
    parser.expect("SUBSUMES", "'[='")
    consequent = parser.parse_or()
    at_tok = parser.expect("AT", "'@'")
    weight = parser.parse_number("a weight")
    parser.expect_end()
    if weight != weight or weight in (float("inf"), float("-inf")):
        raise ParseError("weight must be finite", at_tok.line, at_tok.col)
    builder.blocks[head_subject].append(
        DefeasibleInclusion(head_subject, consequent, weight)
    )


# ---------------------------------------------------------------------------
# Serialization and file IO


def serialize_kb(kb: WeightedKB) -> str:
    """Emit canonical ``.wkb`` text: declaration, strict, def-blocks, ABox, extra."""
    out: list[str] = []
    if kb.distinguished:
        out.append("distinguished: " + ", ".join(kb.distinguished))
    for inc in kb.strict:
        out.append(f"strict: {axiom_to_text(inc)}")
    for name in kb.distinguished:
        for d in kb.defeasible.get(name, ()):
            out.append(f"def({name}): {axiom_to_text(d)}")
    for a in kb.abox:
        out.append(f"assert: {axiom_to_text(a)}")
    for ax in kb.extra:
        if isinstance(ax, FuzzyInclusion):
            out.append(f"fuzzy: {axiom_to_text(ax)}")
        elif isinstance(ax, FuzzyAssertion):
            out.append(f"fuzzy-assert: {axiom_to_text(ax)}")
        elif isinstance(ax, ConditionalConstraint):
            out.append(f"cc: {axiom_to_text(ax)}")
        elif isinstance(ax, ProbAssertion):
            out.append(f"passert: {axiom_to_text(ax)}")
    return "\n".join(out) + ("\n" if out else "")


def load_kb(path: str | Path) -> WeightedKB:
    return parse_kb(Path(path).read_text(encoding="utf-8"))


def save_kb(kb: WeightedKB, path: str | Path) -> None:
    Path(path).write_text(serialize_kb(kb), encoding="utf-8")


# ---------------------------------------------------------------------------
# Validation and fragment classification


def validate_kb(kb: WeightedKB) -> list[Diagnostic]:
    """Structural diagnostics, deterministic and independent of file order.

    Errors: namespace overlaps, defeasible blocks for undeclared subjects,
    subject mismatches, non-finite weights.  Warnings: defeasible
    consequents outside the existential-conjunctive fragment.
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
    declared = set(kb.distinguished)
    for name in sorted(kb.defeasible):
        if name not in declared:
            diags.append(
                Diagnostic(
                    "error",
                    f"defeasible block for {name!r} lacks a distinguished declaration",
                )
            )
    for name in kb.distinguished:
        for pos, d in enumerate(kb.defeasible.get(name, ()), start=1):
            if d.subject != name:
                diags.append(
                    Diagnostic(
                        "error",
                        f"defeasible inclusion {pos} in block {name!r} has subject"
                        f" {d.subject!r}",
                    )
                )
            if d.weight != d.weight or d.weight in (float("inf"), float("-inf")):
                diags.append(
                    Diagnostic(
                        "error",
                        f"defeasible inclusion {pos} in block {name!r} has a"
                        f" non-finite weight",
                    )
                )
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


def classify_fragment(kb: WeightedKB) -> str:
    """Classify the KB's concept language: ``"EL"``, ``"boolean"``, or ``"ALC"``.

    EL means every concept uses only Top, names, conjunction, and exists;
    boolean means no roles, quantifiers, or nominals occur anywhere.
    """
    concepts = kb.all_concepts()
    if all(is_el_concept(c) for c in concepts):
        return "EL"
    if all(is_rolefree_concept(c) for c in concepts):
        return "boolean"
    return "ALC"
