import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefnet import (
    And,
    Assertion,
    ConditionalConstraint,
    DefeasibleInclusion,
    FuzzyAssertion,
    FuzzyInclusion,
    InputError,
    Name,
    Not,
    ParseError,
    ProbAssertion,
    RoleAssertion,
    StrictInclusion,
    Typ,
    WeightedKB,
    load_kb,
    parse_kb,
    serialize_kb,
    validate_kb,
)
from genutil import random_full_kb, random_rolefree_kb


def test_parse_employee_kb(employee_kb):
    assert employee_kb.distinguished == ("Employee", "Student")
    assert len(employee_kb.strict) == 3
    assert len(employee_kb.defaults_for("Employee")) == 3
    assert len(employee_kb.defaults_for("Student")) == 3
    d3 = employee_kb.defaults_for("Employee")[2]
    assert d3.weight == -70.0
    assert str(d3.consequent) == "exists has_classes.Top"


def test_comments_and_blank_lines():
    kb = parse_kb(
        """
        # header comment
        distinguished: A

        def(A): T(A) [= B @ 1.5  # trailing note
        """
    )
    assert kb.defaults_for("A")[0].weight == 1.5


def test_abox_statements():
    kb = parse_kb(
        """
        distinguished: A
        assert: A(tom)
        assert: r(tom, sue)
        """
    )
    assert kb.abox == (
        Assertion(Name("A"), "tom"),
        RoleAssertion("r", "tom", "sue"),
    )


def test_missing_distinguished_line():
    with pytest.raises(ParseError):
        parse_kb("def(A): T(A) [= B @ 1")


def test_duplicate_distinguished_line():
    with pytest.raises(ParseError, match="distinguished"):
        parse_kb("distinguished: A\ndistinguished: B")


def test_duplicate_distinguished_name():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A, A")


def test_def_head_must_match_subject():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A, B\ndef(A): T(B) [= C @ 1")


def test_def_block_needs_declaration():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A\ndef(B): T(B) [= C @ 1")
    # The declaration may come after the block.
    kb = parse_kb("def(B): T(B) [= C @ 1\ndistinguished: A, B")
    assert kb.defaults_for("B")[0].weight == 1.0


def test_typicality_not_allowed_in_bodies():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A\nstrict: T(A) [= B")
    with pytest.raises(ParseError):
        parse_kb("distinguished: A\ndef(A): T(A) [= T(B) @ 1")


def test_weight_must_be_finite():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A\ndef(A): T(A) [= B @ inf")


def test_parse_error_carries_position():
    text = "distinguished: A\ndef(A): T(A) [= B @@ 1"
    with pytest.raises(ParseError) as exc:
        parse_kb(text)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "statement, word, col",
    [
        ("distinguished: T, and", "T", 16),
        ("distinguished: A, and", "and", 19),
        ("assert: A(and)", "and", 11),
        ("assert: r(Top, b)", "Top", 11),
        ("passert: P(A(not))[0.5]", "not", 14),
        ("fuzzy-assert: A(Bottom) >= 0.5", "Bottom", 17),
        ("def(or): T(or) [= B @ 1", "or", 12),
    ],
)
def test_reserved_words_name_nothing(statement, word, col):
    # One identifier rule covers every position a statement names
    # something in, as it already did in concepts: {and} is no nominal.
    with pytest.raises(ParseError, match=f"reserved word '{word}' cannot name") as exc:
        parse_kb(f"# every position\n{statement}")
    assert (exc.value.line, exc.value.col) == (2, col)


def test_serialize_round_trip(employee_kb, employee_kb_text):
    text = serialize_kb(employee_kb)
    again = parse_kb(text)
    assert again == employee_kb
    assert serialize_kb(again) == text


def test_save_load_round_trip(tmp_path, employee_kb):
    path = tmp_path / "kb.wkb"
    path.write_text(serialize_kb(employee_kb), encoding="utf-8")
    assert load_kb(path) == employee_kb


def test_random_kb_round_trips():
    rng = random.Random(11)
    for _ in range(100):
        kb = random_rolefree_kb(rng)
        assert parse_kb(serialize_kb(kb)) == kb


def test_weighted_kb_accepts_only_what_serialize_kb_writes_back():
    # serialize_kb writes only distinguished blocks, as def(<key>) lines whose
    # subject parse_kb checks against the key, and prints every weight as a number.
    stray = DefeasibleInclusion("B", Name("C"), 1.0)
    with pytest.raises(InputError, match="block for 'B' is not distinguished"):
        WeightedKB(distinguished=("A",), defeasible={"B": (stray,)})
    mismatched = DefeasibleInclusion("Z", Name("C"), 2.0)
    with pytest.raises(InputError, match="inclusion 2 in block 'A' has subject 'Z'"):
        WeightedKB(
            distinguished=("A",),
            defeasible={"A": (DefeasibleInclusion("A", Name("C"), 1.0), mismatched)},
        )
    for weight in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InputError, match="non-finite weight"):
            WeightedKB(("A",), defeasible={"A": (DefeasibleInclusion("A", Name("C"), weight),)})
    kb = WeightedKB(distinguished=("A", "B"), defeasible={"B": (stray,)})
    assert kb.defeasible == {"A": (), "B": (stray,)}
    assert parse_kb(serialize_kb(kb)) == kb


A, B, C = Name("A"), Name("B"), Name("C")


@pytest.mark.parametrize(
    "parts, text, message",
    [
        ({"distinguished": ("A", "A")}, "distinguished: A, A", "'A' is listed twice"),
        ({"distinguished": ("and",)}, "distinguished: and", "'and' is reserved or not"),
        ({"distinguished": ("a b",)}, "distinguished: a b", "'a b' is reserved or not"),
        (
            {"strict": (StrictInclusion(Typ(A), B),)},
            "strict: T(A) [= B",
            "'strict: T(A) [= B' uses T(...)",
        ),
        (
            {"distinguished": ("A",),
             "defeasible": {"A": (DefeasibleInclusion("A", And(B, Typ(C)), 1.0),)}},
            "distinguished: A\ndef(A): T(A) [= B and T(C) @ 1",
            "inclusion 1 in block 'A' uses T(...) in its consequent",
        ),
        (
            {"abox": (Assertion(Typ(A), "tom"),)},
            "assert: T(A)(tom)",
            "uses T(...)",
        ),
        (
            {"extra": (FuzzyInclusion(Not(Typ(A)), B, ">=", 0.5),)},
            "fuzzy: not T(A) [= B >= 0.5",
            "uses T(...)",
        ),
        (
            {"extra": (FuzzyInclusion(A, B, ">=", 2.0),)},
            "fuzzy: A [= B >= 2",
            "has degree 2.0 outside",
        ),
        (
            {"extra": (FuzzyInclusion(A, B, ">=", float("nan")),)},
            "fuzzy: A [= B >= nan",
            "has degree nan outside",
        ),
        (
            {"extra": (FuzzyAssertion(A, "tom", ">", -0.5),)},
            "fuzzy-assert: A(tom) > -0.5",
            "has degree -0.5 outside",
        ),
        (
            {"extra": (ProbAssertion(A, "tom", 1.5),)},
            "passert: P(A(tom))[1.5]",
            "has prob 1.5 outside",
        ),
        (
            {"extra": (ConditionalConstraint(A, B, 0.9, 0.1),)},
            "cc: (A | B)[0.9,0.1]",
            "'cc: (A | B)[0.9,0.1]' has an empty interval",
        ),
    ],
    ids=[
        "duplicate-name", "reserved-name", "non-identifier-name", "typ-in-strict",
        "typ-in-def-consequent", "typ-in-assertion", "typ-in-extra", "fuzzy-degree",
        "nan-degree", "fuzzy-assert-degree", "passert-prob", "empty-cc",
    ],
)
def test_weighted_kb_rejects_what_parse_kb_would_not_read_back(parts, text, message):
    with pytest.raises(ParseError):
        parse_kb(text)
    with pytest.raises(InputError, match=re.escape(message)):
        WeightedKB(**parts)


def test_every_statement_form_round_trips():
    rng = random.Random(23)
    kinds = set()
    for _ in range(300):
        kb = random_full_kb(rng)
        kinds |= {type(ax) for ax in (*kb.strict, *kb.abox, *kb.extra)}
        kinds |= {type(d) for block in kb.defeasible.values() for d in block}
        assert parse_kb(serialize_kb(kb)) == kb
    assert len(kinds) == 8


KB_KEYWORDS = ["distinguished", "strict", "def(A)", "assert", "fuzzy", "fuzzy-assert", "cc", "passert"]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(
            st.builds(
                lambda keyword, body: f"{keyword}: {body}",
                st.sampled_from(KB_KEYWORDS),
                st.text(alphabet="ABPTr(){}[],.|@[=<>-0.5e9 andnotexists#", max_size=30),
            ),
            max_size=4,
        ).map("\n".join),
    )
)
def test_kb_parser_totality(text):
    # Arbitrary input either parses or raises a positioned ParseError.
    try:
        parse_kb(text)
    except ParseError as e:
        assert e.line >= 1
        assert e.col >= 1


def test_validate_clean_kb(employee_kb):
    assert validate_kb(employee_kb) == []


def test_validate_flags_namespace_conflict():
    kb = parse_kb(
        """
        distinguished: A
        def(A): T(A) [= exists A.Top @ 1
        """
    )
    diags = validate_kb(kb)
    assert any(d.level == "error" and "A" in d.message for d in diags)


def test_validate_el_warning_positions():
    kb = parse_kb(
        """
        distinguished: A
        def(A): T(A) [= B @ 1
        def(A): T(A) [= not B @ 2
        """
    )
    diags = validate_kb(kb)
    warnings = [d for d in diags if d.level == "warning"]
    assert len(warnings) == 1
    assert "A" in warnings[0].message
    assert "2" in warnings[0].message  # 1-based position inside the block


def test_validate_is_deterministic():
    text = """
    distinguished: A, B
    def(A): T(A) [= not C @ 1
    def(B): T(B) [= forall r.C @ 2
    """
    kb = parse_kb(text)
    first = validate_kb(kb)
    second = validate_kb(kb)
    assert first == second


def test_extra_statements_round_trip():
    text = """\
distinguished: A
fuzzy: A [= B >= 0.4
fuzzy-assert: A(tom) > 0.2
cc: (A | B)[0.1,0.9]
passert: P(A(tom))[0.5]
"""
    kb = parse_kb(text)
    assert len(kb.extra) == 4
    assert parse_kb(serialize_kb(kb)) == kb


def test_cc_bounds_validated():
    with pytest.raises(ParseError):
        parse_kb("distinguished: A\ncc: (A | B)[0.9,0.1]")


def test_signature_inference(employee_kb):
    sig = employee_kb.signature()
    assert "Employee" in sig.concept_names
    assert "has_boss" in sig.role_names
    assert sig.individual_names == frozenset()
