import random

import pytest

from prefnet import (
    Distribution,
    FuzzyInterpretation,
    FuzzyProbInterp,
    Name,
    Not,
    UndefinedConditionalError,
    UndefinedSubsethoodError,
    check_conditional,
    conditional_prob,
    fuzzy_cardinality,
    fuzzy_event_prob,
    nominal_conditional,
    parse_concept,
    subsethood,
)
from genutil import crisp_interpretation, random_fuzzy_interp, relative_cardinality


@pytest.fixture
def tall_interp() -> FuzzyInterpretation:
    return FuzzyInterpretation(
        domain=("ann", "ben", "cal", "dia"),
        concepts={
            "Tall": {"ann": 1.0, "ben": 0.8, "cal": 0.4},
            "Rich": {"ann": 0.5, "ben": 1.0, "dia": 0.7},
        },
        individuals={"ann": "ann", "ben": "ben"},
    )


def test_uniform_event_probability(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    # (1.0 + 0.8 + 0.4 + 0) / 4
    assert fuzzy_event_prob(fpi, Name("Tall")) == pytest.approx(0.55)


def test_weighted_event_probability(tall_interp):
    dist = Distribution({"ann": 0.5, "ben": 0.25, "cal": 0.25, "dia": 0.0})
    fpi = FuzzyProbInterp(interp=tall_interp, dist=dist)
    assert fuzzy_event_prob(fpi, Name("Tall")) == pytest.approx(
        0.5 * 1.0 + 0.25 * 0.8 + 0.25 * 0.4
    )


def test_event_probability_of_compound(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    both = parse_concept("Tall and Rich")
    assert fuzzy_event_prob(fpi, both) == pytest.approx(
        (min(1.0, 0.5) + min(0.8, 1.0) + min(0.4, 0.0) + 0.0) / 4
    )


def test_conditional_probability(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    # P(Tall | Rich) = P(Tall and Rich) / P(Rich)
    num = (0.5 + 0.8 + 0.0 + 0.0) / 4
    den = (0.5 + 1.0 + 0.0 + 0.7) / 4
    assert conditional_prob(fpi, Name("Tall"), Name("Rich")) == pytest.approx(
        num / den
    )


def test_conditional_undefined_on_zero(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    # note "Rich and not Rich" is NOT empty under zadeh; Bottom is
    with pytest.raises(UndefinedConditionalError):
        conditional_prob(fpi, Name("Tall"), parse_concept("Bottom"))


def test_zadeh_contradiction_is_not_empty(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    p = fuzzy_event_prob(fpi, parse_concept("Rich and not Rich"))
    assert p == pytest.approx((0.5 + 0.0 + 0.0 + 0.3) / 4)


def test_check_conditional(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    assert check_conditional(fpi, Name("Tall"), Name("Rich"), 0.0, 1.0)
    assert not check_conditional(fpi, Name("Tall"), Name("Rich"), 0.9, 1.0)


def test_cardinalities(tall_interp):
    assert fuzzy_cardinality(tall_interp, Name("Tall")) == pytest.approx(2.2)
    assert relative_cardinality(
        tall_interp, parse_concept("Tall and Rich"), Name("Rich")
    ) == pytest.approx((0.5 + 0.8) / 2.2)


def test_uniform_conditional_equals_cardinality_ratio(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    lhs = conditional_prob(fpi, Name("Rich"), Name("Tall"))
    inter = parse_concept("Rich and Tall")
    rhs = fuzzy_cardinality(tall_interp, inter) / fuzzy_cardinality(
        tall_interp, Name("Tall")
    )
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_subsethood(tall_interp):
    sub = parse_concept("Tall and Rich")
    assert subsethood(tall_interp, sub, Name("Tall")) == 1.0
    val = subsethood(tall_interp, Name("Tall"), Name("Rich"))
    assert val == pytest.approx((0.5 + 0.8 + 0.0) / 2.2)
    with pytest.raises(UndefinedSubsethoodError):
        subsethood(tall_interp, parse_concept("Bottom"), Name("Rich"))


def test_nominal_conditional_is_membership(tall_interp):
    fpi = FuzzyProbInterp(
        interp=tall_interp, dist=Distribution.uniform(tall_interp.domain)
    )
    assert nominal_conditional(fpi, Name("Tall"), "ben") == pytest.approx(0.8)
    assert nominal_conditional(fpi, Name("Rich"), "ann") == pytest.approx(0.5)


def test_nominal_conditional_undefined_at_zero_mass(tall_interp):
    dist = Distribution({"ann": 0.0, "ben": 0.5, "cal": 0.25, "dia": 0.25})
    fpi = FuzzyProbInterp(interp=tall_interp, dist=dist)
    with pytest.raises(UndefinedConditionalError):
        nominal_conditional(fpi, Name("Tall"), "ann")


def test_complement_law_zadeh():
    rng = random.Random(71)
    for _ in range(50):
        interp = random_fuzzy_interp(rng, ["A"], size=5)
        mu = [rng.random() for _ in interp.domain]
        total = sum(mu)
        dist = Distribution(
            {x: m / total for x, m in zip(interp.domain, mu)}
        )
        fpi = FuzzyProbInterp(interp=interp, dist=dist)
        p = fuzzy_event_prob(fpi, Name("A"))
        q = fuzzy_event_prob(fpi, Not(Name("A")))
        assert p + q == pytest.approx(1.0, abs=1e-9)


def test_event_prob_monotone_under_inclusion():
    rng = random.Random(72)
    for _ in range(30):
        interp = random_fuzzy_interp(rng, ["A", "B"], size=5)
        fpi = FuzzyProbInterp(
            interp=interp, dist=Distribution.uniform(interp.domain)
        )
        smaller = parse_concept("A and B")
        assert fuzzy_event_prob(fpi, smaller) <= fuzzy_event_prob(
            fpi, Name("A")
        ) + 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution({"x": 0.5, "y": 0.6})
    with pytest.raises(ValueError):
        Distribution({"x": -0.1, "y": 1.1})
    ok = Distribution({"x": 0.5, "y": 0.5 + 1e-10})
    assert ok.prob("x") == 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_distribution_rejects_nonfinite_or_negative_mass(bad):
    with pytest.raises(ValueError, match="'a'"):
        Distribution({"a": bad, "b": 1.0})


def test_distribution_subset_means_zero_mass(tall_interp):
    fpi = FuzzyProbInterp(interp=tall_interp, dist=Distribution({"ann": 1.0}))
    assert fuzzy_event_prob(fpi, Name("Tall")) == pytest.approx(1.0)
    assert fuzzy_event_prob(fpi, Name("Rich")) == pytest.approx(0.5)


def test_distribution_rejects_unknown_elements(tall_interp):
    with pytest.raises(ValueError):
        FuzzyProbInterp(interp=tall_interp, dist=Distribution({"ghost": 1.0}))


def test_crisp_case_is_counting():
    interp = crisp_interpretation(
        ["a", "b", "c", "d"], {"E": {"a", "b", "c"}}, {}, {}
    )
    fpi = FuzzyProbInterp(interp=interp, dist=Distribution.uniform(interp.domain))
    assert fuzzy_event_prob(fpi, Name("E")) == pytest.approx(0.75)

