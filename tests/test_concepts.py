import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefnet import (
    And,
    Assertion,
    BOTTOM,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyInclusion,
    Name,
    Nominal,
    Not,
    Or,
    ParseError,
    Signature,
    StrictInclusion,
    TOP,
    Typ,
    axiom_to_text,
    concept_names_in,
    concept_to_text,
    is_el_concept,
    is_rolefree_concept,
    parse_concept,
    parse_query_axiom,
)
from prefnet.concepts import MAX_DEPTH, _tokenize
from genutil import oracle_tokenize, random_alc_concept


def test_atoms():
    assert parse_concept("Top") is TOP
    assert parse_concept("Bottom") is BOTTOM
    assert parse_concept("Young") == Name("Young")
    assert parse_concept("{tom}") == Nominal("tom")


def test_precedence_not_binds_tightest():
    c = parse_concept("not A and B")
    assert c == And(Not(Name("A")), Name("B"))


def test_precedence_and_over_or():
    c = parse_concept("A or B and C")
    assert c == Or(Name("A"), And(Name("B"), Name("C")))


def test_and_left_associative():
    c = parse_concept("A and B and C")
    assert c == And(And(Name("A"), Name("B")), Name("C"))


def test_parens_override():
    c = parse_concept("(A or B) and C")
    assert c == And(Or(Name("A"), Name("B")), Name("C"))


def test_quantifier_scope_is_tight():
    c = parse_concept("exists r.A and B")
    assert c == And(Exists("r", Name("A")), Name("B"))
    c = parse_concept("exists r.(A and B)")
    assert c == Exists("r", And(Name("A"), Name("B")))


def test_quantifier_takes_negation():
    c = parse_concept("forall r.not A")
    assert c == Forall("r", Not(Name("A")))


def test_typicality_parses():
    ax = parse_query_axiom("T(A and B) [= C")
    assert ax == StrictInclusion(Typ(And(Name("A"), Name("B"))), Name("C"))


def test_typicality_cannot_nest():
    with pytest.raises(ParseError):
        parse_concept("T(T(A))")


def test_typicality_disabled():
    with pytest.raises(ParseError, match="may only begin") as exc:
        parse_concept("A and T(A)")
    assert (exc.value.line, exc.value.col) == (1, 7)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "A" + ")" * n,
        lambda n: "not " * n + "A",
        lambda n: "exists r." * n + "A",
        lambda n: " or ".join(["A"] * (n + 1)),
        lambda n: "not " * (n - n // 2) + "(" * (n // 2) + "A" + ")" * (n // 2),
    ],
    ids=["parentheses", "not", "exists", "or", "mixed"],
)
def test_depth_bound(nest):
    concept = parse_concept(nest(MAX_DEPTH))
    assert parse_concept(concept_to_text(concept)) == concept
    assert hash(concept) == hash(parse_concept(nest(MAX_DEPTH)))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_concept(nest(MAX_DEPTH + 1))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_query_axiom(f"T({nest(MAX_DEPTH)}) [= B")


def test_reserved_words_are_not_names():
    for bad in ["and", "or", "not", "exists", "forall"]:
        with pytest.raises(ParseError):
            parse_concept(bad)


def _lex(tokenize, text, line, col_offset):
    """The tokens, or the error's message and position."""
    try:
        return tokenize(text, line, col_offset)
    except ParseError as e:
        return (e.message, e.line, e.col)


# Fragments that start, end or cut across every token kind, characters
# no token takes (including a non-ASCII letter and the comment sign) and
# every way the position moves.
_LEX_ALPHABET = [
    "A", "b_1", "_", "e", "E", "and", "T", "0", "7", "٣", "é", "+", "-", ".",
    "1.5", "2e-3", "4E+", "[=", "[", "]", ">=", "<=", ">", "<", "=", "(",
    ")", "{", "}", ",", "|", "@", " ", "  ", "\t", "\r", "\f", "\n", "#", "?",
]


def test_tokenizer_matches_character_scanner():
    rng = random.Random(11)
    for _ in range(20_000):
        text = "".join(rng.choices(_LEX_ALPHABET, k=rng.randint(0, 12)))
        line, col_offset = rng.randint(1, 5), rng.randint(0, 30)
        assert _lex(_tokenize, text, line, col_offset) == _lex(
            oracle_tokenize, text, line, col_offset
        ), text


def test_error_position_is_reported():
    with pytest.raises(ParseError) as exc:
        parse_concept("A and ?")
    assert exc.value.line == 1
    assert exc.value.col == 7


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_concept("A and B) or C")


def test_signature_checks_names():
    sig = Signature(
        concept_names=frozenset({"A"}),
        role_names=frozenset({"r"}),
        individual_names=frozenset({"a"}),
    )
    assert parse_concept("exists r.A", sig) == Exists("r", Name("A"))
    with pytest.raises(ParseError, match="unknown concept name"):
        parse_concept("B", sig)
    with pytest.raises(ParseError, match="unknown role name"):
        parse_concept("exists s.A", sig)
    with pytest.raises(ParseError, match="unknown individual name"):
        parse_concept("{b}", sig)


def test_signature_kind_mismatch():
    sig = Signature(
        concept_names=frozenset({"A"}),
        role_names=frozenset({"r"}),
        individual_names=frozenset({"a"}),
    )
    with pytest.raises(ParseError, match="is a concept name; expected a role"):
        parse_concept("exists A.A", sig)
    with pytest.raises(ParseError, match="is a role name; expected a concept"):
        parse_concept("r", sig)


def test_query_axiom_forms():
    ax = parse_query_axiom("T(A) [= B")
    assert ax == StrictInclusion(Typ(Name("A")), Name("B"))
    ax = parse_query_axiom("A [= B >= 0.4")
    assert ax == FuzzyInclusion(Name("A"), Name("B"), ">=", 0.4)
    ax = parse_query_axiom("A(tom)")
    assert ax == Assertion(Name("A"), "tom")
    ax = parse_query_axiom("A(tom) > 0.5")
    assert ax == FuzzyAssertion(Name("A"), "tom", ">", 0.5)


def test_query_axiom_rejects_typ_on_right():
    with pytest.raises(ParseError):
        parse_query_axiom("A [= T(B)")
    with pytest.raises(ParseError):
        parse_query_axiom("T(A)(tom)")


def test_degree_out_of_range():
    with pytest.raises(ParseError):
        parse_query_axiom("A [= B >= 1.5")


def test_fragment_predicates():
    assert is_el_concept(parse_concept("A and exists r.Top"))
    assert not is_el_concept(parse_concept("not A"))
    assert not is_el_concept(parse_concept("forall r.A"))
    assert is_rolefree_concept(parse_concept("not (A or B)"))
    assert not is_rolefree_concept(parse_concept("exists r.A"))
    assert not is_rolefree_concept(parse_concept("{tom}"))


def test_name_collectors():
    c = parse_concept("exists r.(A and not B) or {tom}")
    assert concept_names_in(c) == {"A", "B"}


def test_serializer_minimal_parens():
    cases = [
        "A and B or C",
        "(A or B) and C",
        "not (A and B)",
        "exists r.(A or B)",
        "forall r.exists s.A",
        "not not A",
    ]
    for text in cases:
        c = parse_concept(text)
        assert parse_concept(concept_to_text(c)) == c
    assert concept_to_text(parse_query_axiom("T(A and B) [= C").left) == "T(A and B)"


def test_axiom_serialization_round_trip():
    for text in ["T(A) [= B", "A [= B >= 0.3", "A(tom)", "A(tom) <= 0.7"]:
        ax = parse_query_axiom(text)
        assert parse_query_axiom(axiom_to_text(ax)) == ax


# ---------------------------------------------------------------------------
# Property tests


names_st = st.sampled_from(["A", "B", "Cc", "D_1"])


def concepts_st(with_roles: bool = True):
    leaves = st.one_of(
        st.builds(Name, names_st),
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(Nominal, st.sampled_from(["tom", "bob"])),
    )

    def extend(inner):
        options = [
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ]
        if with_roles:
            options.append(st.builds(Exists, st.sampled_from(["r", "s"]), inner))
            options.append(st.builds(Forall, st.sampled_from(["r", "s"]), inner))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(concepts_st())
def test_print_parse_round_trip(concept):
    assert parse_concept(concept_to_text(concept)) == concept


@settings(max_examples=300, deadline=None)
@given(concepts_st())
def test_round_trip_with_typicality(concept):
    wrapped = StrictInclusion(Typ(concept), concept)
    assert parse_query_axiom(axiom_to_text(wrapped)) == wrapped


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=40))
def test_parser_totality(text):
    # Arbitrary input either parses or raises a positioned ParseError.
    try:
        parse_concept(text)
    except ParseError as e:
        assert e.line >= 1
        assert e.col >= 1


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(max_size=40),
        st.text(alphabet="AP Tr(){}[],.|@[=<>-0.5e9 andornotexists", max_size=40),
    )
)
def test_query_parser_totality(text):
    try:
        parse_query_axiom(text)
    except ParseError as e:
        assert e.line >= 1
        assert e.col >= 1


def test_generator_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        c = random_alc_concept(rng, ["A", "B", "C"], ["r", "s"], ["tom"], 4)
        assert parse_concept(concept_to_text(c)) == c
