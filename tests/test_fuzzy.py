import random

import pytest

from prefnet import (
    FAMILIES,
    FuzzyInterpretation,
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    ZADEH,
    EvaluationError,
    Name,
    Typ,
    UnknownNameError,
    UnsupportedAxiomError,
    check_axiom,
    compare,
    degrees,
    eval_concept,
    eval_inclusion,
    interpretation_from_json,
    interpretation_to_json,
    parse_concept,
    parse_query_axiom,
)
from genutil import (
    interp_to_sets,
    oracle_eval_concept,
    random_alc_concept,
    random_crisp_interp,
    random_fuzzy_interp,
    set_extension,
)

GRID = [i / 20 for i in range(21)]


# ---------------------------------------------------------------------------
# Truth-function laws


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
def test_tnorm_laws(family):
    for a in GRID:
        assert family.tnorm(a, 1.0) == pytest.approx(a, abs=1e-12)
        assert family.tnorm(a, 0.0) == pytest.approx(0.0, abs=1e-12)
        for b in GRID:
            t = family.tnorm(a, b)
            assert 0.0 <= t <= 1.0
            assert t == pytest.approx(family.tnorm(b, a), abs=1e-12)
            assert t <= min(a, b) + 1e-12


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
def test_snorm_laws(family):
    for a in GRID:
        assert family.snorm(a, 0.0) == pytest.approx(a, abs=1e-12)
        assert family.snorm(a, 1.0) == pytest.approx(1.0, abs=1e-12)
        for b in GRID:
            s = family.snorm(a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(family.snorm(b, a), abs=1e-12)
            assert s >= max(a, b) - 1e-12


@pytest.mark.parametrize("family", [ZADEH, GOEDEL, LUKASIEWICZ])
def test_tnorm_associativity(family):
    pts = [i / 10 for i in range(11)]
    for a in pts:
        for b in pts:
            for c in pts:
                left = family.tnorm(family.tnorm(a, b), c)
                right = family.tnorm(a, family.tnorm(b, c))
                assert left == pytest.approx(right, abs=1e-12)


def test_tnorm_monotone():
    for family in FAMILIES.values():
        for a in GRID:
            prev = None
            for b in GRID:
                t = family.tnorm(a, b)
                if prev is not None:
                    assert t >= prev
                prev = t


def test_negation_values():
    assert ZADEH.neg(0.3) == pytest.approx(0.7)
    assert LUKASIEWICZ.neg(0.3) == pytest.approx(0.7)
    assert GOEDEL.neg(0.0) == 1.0
    assert GOEDEL.neg(0.3) == 0.0
    assert GOEDEL.neg(1.0) == 0.0
    assert PRODUCT.neg(0.0) == 1.0
    assert PRODUCT.neg(0.5) == 0.0


def test_implication_values():
    # Kleene-Dienes
    assert ZADEH.impl(0.8, 0.3) == pytest.approx(max(1 - 0.8, 0.3))
    # residuals return 1 below the diagonal
    assert GOEDEL.impl(0.3, 0.8) == 1.0
    assert GOEDEL.impl(0.8, 0.3) == pytest.approx(0.3)
    assert LUKASIEWICZ.impl(0.8, 0.3) == pytest.approx(0.5)
    assert LUKASIEWICZ.impl(0.3, 0.8) == 1.0
    assert PRODUCT.impl(0.8, 0.4) == pytest.approx(0.5)
    assert PRODUCT.impl(0.0, 0.7) == 1.0


def test_known_combinations():
    assert LUKASIEWICZ.tnorm(0.7, 0.6) == pytest.approx(0.3)
    assert LUKASIEWICZ.snorm(0.7, 0.6) == 1.0
    assert PRODUCT.tnorm(0.5, 0.4) == pytest.approx(0.2)
    assert PRODUCT.snorm(0.5, 0.4) == pytest.approx(0.7)
    assert ZADEH.tnorm(0.7, 0.6) == pytest.approx(0.6)


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
def test_residuation_or_kd(family):
    # impl(a, b) = 1 exactly when a <= b for residuals; Kleene-Dienes
    # instead satisfies impl(a, b) >= b.
    for a in GRID:
        for b in GRID:
            v = family.impl(a, b)
            assert 0.0 <= v <= 1.0
            if family.name in ("goedel", "lukasiewicz", "product"):
                assert (v == 1.0) == (a <= b)
            else:
                assert v >= b - 1e-12


# ---------------------------------------------------------------------------
# Interpretations and evaluation


@pytest.fixture
def small_interp() -> FuzzyInterpretation:
    return FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.8, "y": 0.2}, "B": {"x": 0.5}},
        roles={"r": {("x", "y"): 0.9, ("y", "x"): 0.4}},
        individuals={"a": "x"},
    )


def test_concept_degree_defaults_to_zero(small_interp):
    assert degrees(small_interp, ZADEH, Name("B")) == (0.5, 0.0)
    with pytest.raises(UnknownNameError):
        degrees(small_interp, ZADEH, Name("Z"))


def test_eval_connectives(small_interp):
    A, B = parse_concept("A"), parse_concept("B")
    conj = parse_concept("A and B")
    assert eval_concept(small_interp, ZADEH, conj, "x") == pytest.approx(0.5)
    assert eval_concept(small_interp, PRODUCT, conj, "x") == pytest.approx(0.4)
    assert eval_concept(small_interp, LUKASIEWICZ, conj, "x") == pytest.approx(0.3)
    neg = parse_concept("not A")
    assert eval_concept(small_interp, ZADEH, neg, "y") == pytest.approx(0.8)
    assert eval_concept(small_interp, GOEDEL, neg, "y") == 0.0


def test_eval_quantifiers(small_interp):
    ex = parse_concept("exists r.A")
    # max over y of tnorm(r(x,y), A(y))
    assert eval_concept(small_interp, ZADEH, ex, "x") == pytest.approx(0.2)
    assert eval_concept(small_interp, PRODUCT, ex, "x") == pytest.approx(0.18)
    fa = parse_concept("forall r.B")
    # min over y of impl(r(x,y), B(y))
    assert eval_concept(small_interp, ZADEH, fa, "y") == pytest.approx(
        max(1 - 0.4, 0.5)
    )
    assert eval_concept(small_interp, GOEDEL, fa, "y") == pytest.approx(1.0)


def test_eval_nominal(small_interp):
    nom = parse_concept("{a}")
    assert eval_concept(small_interp, ZADEH, nom, "x") == 1.0
    assert eval_concept(small_interp, ZADEH, nom, "y") == 0.0


def test_eval_rejects_typicality(small_interp):
    with pytest.raises(EvaluationError):
        eval_concept(small_interp, ZADEH, Typ(Name("A")), "x")


def test_inclusion_degree(small_interp):
    A, B = parse_concept("A"), parse_concept("B")
    # min over x of impl(A(x), B(x))
    assert eval_inclusion(small_interp, ZADEH, A, B) == pytest.approx(
        min(max(1 - 0.8, 0.5), max(1 - 0.2, 0.0))
    )
    assert eval_inclusion(small_interp, GOEDEL, A, B) == pytest.approx(0.0)
    assert eval_inclusion(small_interp, LUKASIEWICZ, A, B) == pytest.approx(0.7)


def test_compare_tolerances():
    assert compare(0.5, ">=", 0.5 + 5e-10)
    assert compare(0.5, "<=", 0.5 - 5e-10)
    assert not compare(0.5, ">", 0.5)
    assert not compare(0.5, "<", 0.5)
    assert compare(0.5000001, ">", 0.5)


def test_check_axiom_kinds(small_interp):
    assert check_axiom(small_interp, ZADEH, parse_query_axiom("A [= B >= 0.2"))
    assert not check_axiom(small_interp, ZADEH, parse_query_axiom("A [= B >= 0.9"))
    assert check_axiom(small_interp, ZADEH, parse_query_axiom("A(a) >= 0.8"))
    assert check_axiom(small_interp, ZADEH, parse_query_axiom("A(a) <= 0.8"))
    assert not check_axiom(small_interp, ZADEH, parse_query_axiom("A(a) > 0.8"))


def test_check_axiom_strict_needs_full_degree(small_interp):
    ax = parse_query_axiom("A [= A")
    assert check_axiom(small_interp, GOEDEL, ax)
    ax2 = parse_query_axiom("A [= B")
    assert not check_axiom(small_interp, GOEDEL, ax2)


def test_check_axiom_rejects_defeasible(employee_kb, small_interp):
    d = employee_kb.defaults_for("Employee")[0]
    with pytest.raises(UnsupportedAxiomError):
        check_axiom(small_interp, ZADEH, d)


def test_crisp_interpretation_is_crisp(employee_interp):
    assert employee_interp.is_crisp
    assert employee_interp.concepts["Employee"]["tom"] == 1.0
    assert "tom" not in employee_interp.concepts["Young"]


def test_crisp_embedding_matches_set_semantics():
    rng = random.Random(23)
    names = ["A", "B", "C"]
    roles = ["r", "s"]
    for _ in range(60):
        interp = random_crisp_interp(rng, names, size=5, roles=roles)
        domain, members, succ = interp_to_sets(interp)
        inds = dict(interp.individuals)
        for _ in range(10):
            concept = random_alc_concept(
                rng, names, roles, list(inds) or None, 3
            )
            expected = set_extension(concept, domain, members, succ, inds)
            for family in FAMILIES.values():
                for x in domain:
                    got = eval_concept(interp, family, concept, x)
                    assert got in (0.0, 1.0)
                    assert (got == 1.0) == (x in expected), (
                        f"{family.name} disagrees on {concept} at {x}"
                    )


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
def test_zero_role_degree_is_neutral_for_quantifiers(family):
    # degrees() folds quantifiers over role successors only.  That is exact
    # because a zero role degree yields the fold's start value, which no
    # other witness can undercut: t-norms stay >= 0, implications <= 1.
    for a in GRID:
        assert family.tnorm(0.0, a) == 0.0
        assert family.impl(0.0, a) == 1.0
        for b in GRID:
            assert family.tnorm(a, b) >= 0.0
            assert family.impl(a, b) <= 1.0


def test_degrees_match_recursive_oracle():
    rng = random.Random(31)
    names = ["A", "B", "C"]
    roles = ["r", "s"]
    for _ in range(40):
        interp = random_fuzzy_interp(rng, names, size=6, roles=roles)
        inds = list(interp.individuals)
        for _ in range(10):
            concept = random_alc_concept(rng, names, roles, inds, 3)
            for family in FAMILIES.values():
                expected = [
                    oracle_eval_concept(interp, family, concept, x)
                    for x in interp.domain
                ]
                assert list(degrees(interp, family, concept)) == expected, (
                    f"{family.name} disagrees on {concept}"
                )


def test_de_morgan_exact_for_zadeh():
    rng = random.Random(5)
    names = ["A", "B"]
    for _ in range(50):
        from genutil import random_fuzzy_interp

        interp = random_fuzzy_interp(rng, names, size=4)
        a, b = parse_concept("A"), parse_concept("B")
        lhs = parse_concept("not (A and B)")
        rhs = parse_concept("not A or not B")
        for x in interp.domain:
            assert eval_concept(interp, ZADEH, lhs, x) == eval_concept(
                interp, ZADEH, rhs, x
            )


def test_interpretation_json_round_trip(small_interp):
    blob = interpretation_to_json(small_interp)
    again = interpretation_from_json(blob)
    assert again == small_interp


def test_interpretation_validation():
    with pytest.raises(ValueError):
        FuzzyInterpretation(
            domain=("x",), concepts={"A": {"x": 1.5}}, roles={}, individuals={}
        )
    with pytest.raises(ValueError):
        FuzzyInterpretation(
            domain=("x",), concepts={"A": {"z": 0.5}}, roles={}, individuals={}
        )
    with pytest.raises(ValueError):
        FuzzyInterpretation(
            domain=("x",),
            concepts={},
            roles={},
            individuals={"a": "missing"},
        )
