import random

import pytest

from prefnet import (
    Assertion,
    Name,
    ParseError,
    RoleAssertion,
    classify_fragment,
    load_kb,
    parse_kb,
    save_kb,
    serialize_kb,
    validate_kb,
)
from genutil import random_rolefree_kb


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


def test_serialize_round_trip(employee_kb, employee_kb_text):
    text = serialize_kb(employee_kb)
    again = parse_kb(text)
    assert again == employee_kb
    assert serialize_kb(again) == text


def test_save_load_round_trip(tmp_path, employee_kb):
    path = tmp_path / "kb.wkb"
    save_kb(employee_kb, path)
    assert load_kb(path) == employee_kb


def test_random_kb_round_trips():
    rng = random.Random(11)
    for _ in range(100):
        kb = random_rolefree_kb(rng)
        assert parse_kb(serialize_kb(kb)) == kb


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


def test_classify_el(employee_kb):
    assert classify_fragment(employee_kb) == "EL"


def test_classify_boolean():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= not B @ 1")
    assert classify_fragment(kb) == "boolean"


def test_classify_alc():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= forall r.B @ 1")
    assert classify_fragment(kb) == "ALC"
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= not exists r.B @ 1")
    assert classify_fragment(kb) == "ALC"


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
