import itertools
import random
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from prefnet import (
    Assertion,
    DefeasibleInclusion,
    EnumerationLimitError,
    FAMILIES,
    FragmentError,
    FuzzyInterpretation,
    GOEDEL,
    LUKASIEWICZ,
    NEG_INF,
    Name,
    Not,
    RoleAssertion,
    StrictInclusion,
    Typ,
    WeightedKB,
    ZADEH,
    build_fuzzy_interp,
    build_preferences,
    check_typicality_axiom,
    coherence_report,
    concept_names_in,
    consistent_valuations,
    counter_model,
    crisp_weight,
    entails_rolefree,
    extract_kb,
    fuzzy_weight,
    is_crisp_model,
    is_fuzzy_model,
    parse_concept,
    parse_kb,
    parse_query_axiom,
    typicality_global,
    typicality_induced,
)
from prefnet import ENUMERATION_LIMIT, preferences
from genutil import (
    bool_eval,
    crisp_interpretation,
    duplicate_element,
    interp_to_sets,
    oracle_crisp_weight,
    oracle_minimal,
    oracle_weights,
    random_alc_concept,
    random_boolean_concept,
    random_crisp_interp,
    random_cyclic_net,
    random_feedforward_net,
    random_fuzzy_interp,
    random_rolefree_kb,
    random_stimuli,
    set_extension,
)


# ---------------------------------------------------------------------------
# Weights


def test_employee_weights(employee_kb, employee_interp):
    assert crisp_weight(employee_kb, employee_interp, "Employee", "tom") == -70.0
    assert crisp_weight(employee_kb, employee_interp, "Employee", "bob") == 50.0
    assert crisp_weight(employee_kb, employee_interp, "Employee", "ssn1") == NEG_INF
    assert crisp_weight(employee_kb, employee_interp, "Student", "tom") == NEG_INF


def test_weights_against_oracle(employee_kb, employee_interp):
    domain, members, succ = interp_to_sets(employee_interp)
    for subject in employee_kb.distinguished:
        for x in domain:
            assert crisp_weight(
                employee_kb, employee_interp, subject, x
            ) == oracle_crisp_weight(employee_kb, subject, x, domain, members, succ)


def test_weights_match_the_per_default_oracle_bit_for_bit():
    rng = random.Random(81)
    names = ["A", "B", "C", "D"]
    empty = gated = 0
    for family in FAMILIES.values():
        for _ in range(60):
            distinguished = tuple(rng.sample(names, rng.randint(1, 3)))
            blocks = {
                c: tuple(
                    DefeasibleInclusion(
                        c, random_boolean_concept(rng, names, 2), rng.uniform(-3.0, 3.0)
                    )
                    for _ in range(rng.randint(0, 4))
                )
                for c in distinguished
            }
            kb = WeightedKB(distinguished=distinguished, defeasible=blocks)
            interp = random_fuzzy_interp(rng, names, size=rng.randint(1, 7))
            for c in distinguished:
                got = preferences._weights(kb, interp, family, c)
                want = oracle_weights(kb, interp, family, c)
                assert [w.hex() for w in got] == [w.hex() for w in want]
                empty += not blocks[c]
                gated += NEG_INF in got
    assert empty and gated


def test_fuzzy_weight_gates_on_positive_membership():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 4")
    from prefnet import FuzzyInterpretation

    interp = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.5}, "B": {"x": 0.9, "y": 1.0}},
    )
    assert fuzzy_weight(kb, interp, ZADEH, "A", "x") == pytest.approx(3.6)
    assert fuzzy_weight(kb, interp, ZADEH, "A", "y") == NEG_INF


def test_fuzzy_weight_scales_by_degree():
    kb = parse_kb(
        """
        distinguished: A
        def(A): T(A) [= B @ 2
        def(A): T(A) [= C @ -3
        """
    )
    from prefnet import FuzzyInterpretation

    interp = FuzzyInterpretation(
        domain=("x",),
        concepts={"A": {"x": 1.0}, "B": {"x": 0.25}, "C": {"x": 0.5}},
    )
    assert fuzzy_weight(kb, interp, ZADEH, "A", "x") == pytest.approx(
        2 * 0.25 - 3 * 0.5
    )


def test_crisp_weight_requires_two_valued():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    rng = random.Random(0)
    fuzzy = random_fuzzy_interp(rng, ["A", "B"], size=3)
    with pytest.raises(ValueError):
        crisp_weight(kb, fuzzy, "A", fuzzy.domain[0])


def test_crisp_fuzzy_weight_agreement(employee_kb, employee_interp):
    for family in (ZADEH, GOEDEL, LUKASIEWICZ):
        for subject in employee_kb.distinguished:
            for x in employee_interp.domain:
                assert fuzzy_weight(
                    employee_kb, employee_interp, family, subject, x
                ) == crisp_weight(employee_kb, employee_interp, subject, x)


# ---------------------------------------------------------------------------
# Preference relations


def test_employee_preference(employee_model):
    w = employee_model.preferences["Employee"].weights
    assert w["bob"] > w["tom"]  # bob is strictly more typical
    # ssn1 and class1 sit at -inf together
    assert w["ssn1"] == w["class1"] == NEG_INF


def _vectors(model):
    """Each element's weight vector over the model's distinguished concepts."""
    rows = [model.preferences[c].weights for c in model.concepts]
    return {x: tuple(w[x] for w in rows) for x in model.interp.domain}


def test_global_preference(employee_model):
    vec = _vectors(employee_model)
    assert preferences._dominates(vec["bob"], vec["tom"])
    assert not preferences._dominates(vec["tom"], vec["tom"])


def test_build_rejects_missing_concept_rows():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    interp = crisp_interpretation(["x"], {"A": {"x"}}, {}, {})
    with pytest.raises(Exception):
        build_preferences(kb, interp)


def test_typicality_global(employee_model):
    assert typicality_global(employee_model, Name("Employee")) == ["bob"]
    assert typicality_global(employee_model, Name("Student")) == []
    assert typicality_global(
        employee_model, parse_concept("Employee and not Young")
    ) == ["tom"]


def test_typicality_induced_fuzzy():
    from prefnet import FuzzyInterpretation

    interp = FuzzyInterpretation(
        domain=("x", "y", "z"),
        concepts={"A": {"x": 0.9, "y": 0.9, "z": 0.4}},
    )
    assert typicality_induced(interp, ZADEH, Name("A")) == ["x", "y"]
    empty = FuzzyInterpretation(domain=("x",), concepts={"A": {}})
    assert typicality_induced(empty, ZADEH, Name("A")) == []


def test_check_typicality_axiom(employee_model):
    ax = parse_query_axiom("T(Employee) [= exists has_boss.Employee")
    assert check_typicality_axiom(employee_model, ax)
    ax2 = parse_query_axiom("T(Employee) [= exists has_classes.Top")
    assert not check_typicality_axiom(employee_model, ax2)
    # vacuous: no typical students
    ax3 = parse_query_axiom("T(Student) [= Young")
    assert check_typicality_axiom(employee_model, ax3)


def test_check_typicality_axiom_fuzzy_semantics():
    from prefnet import FuzzyInterpretation

    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    interp = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.8, "y": 0.3}, "B": {"x": 0.6, "y": 0.9}},
    )
    model = build_preferences(kb, interp, ZADEH)
    # typical A-elements: argmax of A = {x}; B(x) = 0.6
    ax = parse_query_axiom("T(A) [= B >= 0.6")
    assert check_typicality_axiom(model, ax)
    assert check_typicality_axiom(model, ax, fuzzy_semantics="containment")
    ax_low = parse_query_axiom("T(A) [= B >= 0.7")
    assert not check_typicality_axiom(model, ax_low)
    with pytest.raises(ValueError):
        check_typicality_axiom(model, ax, fuzzy_semantics="nope")


def test_crisp_typicality_axiom_rejects_unknown_semantics():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    interp = crisp_interpretation(["x", "y"], {"A": {"x", "y"}, "B": {"x"}})
    model = build_preferences(kb, interp)
    ax = parse_query_axiom("T(A) [= B")
    assert check_typicality_axiom(model, ax)
    with pytest.raises(ValueError):
        check_typicality_axiom(model, ax, fuzzy_semantics="nope")


def test_typicality_global_matches_pairwise_oracle():
    # Integer weights in [-2, 2] make equal weight vectors common, and every
    # non-instance of a distinguished concept weighs -inf there.
    rng = random.Random(2718)
    names = ["A", "B", "C", "D", "E"]
    seen_duplicate = seen_neg_inf = False
    for trial in range(300):
        count = 0 if trial % 10 == 0 else rng.randint(3, 5)
        distinguished = tuple(rng.sample(names, count))
        kb = WeightedKB(
            distinguished=distinguished,
            defeasible={
                c: tuple(
                    DefeasibleInclusion(
                        c, random_boolean_concept(rng, names, 2), float(rng.randint(-2, 2))
                    )
                    for _ in range(rng.randint(1, 3))
                )
                for c in distinguished
            },
        )
        interp = random_crisp_interp(rng, names, size=rng.randint(1, 12))
        domain, members, _ = interp_to_sets(interp)
        weights = {
            c: {x: oracle_crisp_weight(kb, c, x, domain, members) for x in domain}
            for c in distinguished
        }
        subject = random_boolean_concept(rng, names, 2)
        extension = set_extension(subject, domain, members)
        expected = oracle_minimal(sorted(extension), weights)
        got = typicality_global(build_preferences(kb, interp), subject)
        assert got == [x for x in domain if x in expected]
        if distinguished:
            vectors = [tuple(weights[c][x] for c in distinguished) for x in extension]
            seen_duplicate |= len(set(vectors)) < len(vectors)
            seen_neg_inf |= any(NEG_INF in v for v in vectors)
    assert seen_duplicate and seen_neg_inf


def test_typicality_semantics_diverge_on_upper_bounds():
    from prefnet import FuzzyInterpretation

    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    interp = FuzzyInterpretation(
        domain=("x", "y", "z"),
        concepts={"A": {"x": 0.9, "y": 0.9, "z": 0.1}, "B": {"x": 0.2, "y": 0.8}},
    )
    model = build_preferences(kb, interp, ZADEH)
    # typical set {x, y}; B straddles 0.5 there
    upper = parse_query_axiom("T(A) [= B <= 0.5")
    assert check_typicality_axiom(model, upper)
    assert not check_typicality_axiom(model, upper, fuzzy_semantics="containment")
    # lower bounds agree: both reduce to the worst typical degree
    for bound in ("0.1", "0.2", "0.5", "0.8"):
        ax = parse_query_axiom(f"T(A) [= B >= {bound}")
        impl_verdict = check_typicality_axiom(model, ax)
        cont_verdict = check_typicality_axiom(model, ax, fuzzy_semantics="containment")
        assert impl_verdict == cont_verdict == (float(bound) <= 0.2)


def test_model_checks(employee_kb, employee_interp):
    assert is_crisp_model(employee_kb, employee_interp)
    assert is_fuzzy_model(employee_kb, employee_interp, ZADEH)
    # drop an SSN edge: Adult [= exists has_SSN.Top now fails
    broken = crisp_interpretation(
        domain=["tom"],
        concept_members={
            "Employee": {"tom"},
            "Student": set(),
            "PhdStudent": set(),
            "Adult": {"tom"},
            "Young": set(),
        },
        role_pairs={},
        individuals={},
    )
    assert not is_crisp_model(employee_kb, broken)


def test_crisp_model_check_is_exact_on_two_valued_interps():
    # Every degree is 0 or 1, so the tolerant fuzzy check under zadeh
    # must give the exact set-semantics verdict.
    rng = random.Random(4242)
    names, roles, inds = ["A", "B", "C"], ["r", "s"], ["a", "b"]
    seen = set()
    for _ in range(300):
        base = random_crisp_interp(rng, names, rng.randint(1, 6), roles)
        individuals = {i: rng.choice(base.domain) for i in inds}
        interp = FuzzyInterpretation(base.domain, base.concepts, base.roles, individuals)

        def concept():
            return random_alc_concept(rng, names, roles, inds, depth=2)

        strict = tuple(
            StrictInclusion(concept(), concept()) for _ in range(rng.randint(0, 2))
        )
        abox = tuple(
            Assertion(concept(), rng.choice(inds))
            if rng.random() < 0.7
            else RoleAssertion(rng.choice(roles), rng.choice(inds), rng.choice(inds))
            for _ in range(rng.randint(0, 2))
        )
        kb = WeightedKB(strict=strict, abox=abox)
        domain, members, succ = interp_to_sets(interp)

        def ext(c):
            return set_extension(c, domain, members, succ, individuals)

        expected = all(ext(ax.left) <= ext(ax.right) for ax in strict) and all(
            individuals[ax.individual] in ext(ax.concept)
            if isinstance(ax, Assertion)
            else individuals[ax.target]
            in succ[ax.role].get(individuals[ax.subject], set())
            for ax in abox
        )
        assert is_crisp_model(kb, interp) == expected
        assert is_fuzzy_model(kb, interp, ZADEH) == expected
        seen.add(expected)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Coherence


def test_coherence_report_flags():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    from prefnet import FuzzyInterpretation

    # degrees strictly ordered like weights: coherent
    good = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.9, "y": 0.5}, "B": {"x": 1.0, "y": 0.2}},
    )
    model = build_preferences(kb, good, ZADEH)
    rep = coherence_report(model)
    assert rep.coherent and rep.weakly_coherent and rep.violations == []

    # same membership degree but different weights: strictly incoherent,
    # weakly fine (no degree gap points the wrong way)
    weak_only = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.9, "y": 0.9}, "B": {"x": 1.0, "y": 0.2}},
    )
    model2 = build_preferences(kb, weak_only, ZADEH)
    rep2 = coherence_report(model2)
    assert not rep2.coherent
    assert rep2.weakly_coherent
    assert rep2.violations

    # degree gap against the weight order: not even weakly coherent
    bad = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.9, "y": 0.5}, "B": {"x": 0.2, "y": 1.0}},
    )
    model3 = build_preferences(kb, bad, ZADEH)
    rep3 = coherence_report(model3)
    assert not rep3.coherent
    assert not rep3.weakly_coherent


def test_coherence_report_cap(monkeypatch):
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    from prefnet import FuzzyInterpretation

    n = 30
    domain = tuple(f"d{i}" for i in range(n))
    interp = FuzzyInterpretation(
        domain=domain,
        concepts={
            "A": {x: 0.9 for x in domain},
            "B": {x: i / n for i, x in enumerate(domain)},
        },
    )
    model = build_preferences(kb, interp, ZADEH)
    full = coherence_report(model)
    monkeypatch.setattr(preferences, "MAX_VIOLATIONS", 5)
    capped = coherence_report(model)
    assert capped.coherent == full.coherent
    assert capped.weakly_coherent == full.weakly_coherent
    assert len(capped.violations) <= 5 or capped.truncated
    assert len(full.violations) > len(capped.violations)


def _oracle_coherence(model):
    """Coherence by its definitions, pair by pair, for each distinguished C:
    strict is ``W(x) > W(y)`` iff ``C(x) > C(y)``, weak is ``C(x) > C(y)``
    implies ``W(x) > W(y)``; and every pair that breaks one, in report order."""
    coherent = weakly = True
    pairs = []
    for c in model.concepts:
        weight, degree = model.preferences[c].weights, model.interp.concepts[c]
        for x in model.interp.domain:
            for y in model.interp.domain:
                heavier = weight[x] > weight[y]
                higher = degree.get(x, 0.0) > degree.get(y, 0.0)
                if higher and not heavier:
                    coherent = weakly = False
                    pairs.append((c, x, y, "weak"))
                elif heavier and not higher:
                    coherent = False
                    pairs.append((c, x, y, "strict"))
    return coherent, weakly, pairs


def _coherence_models():
    """Random fuzzy models under every family, degrees on a grid and integer
    weights so that ties and -inf occur; then models of random nets."""
    rng = random.Random(53)
    for family in FAMILIES.values():
        for _ in range(150):
            names = ["A", "B", "C", "D"][: rng.randint(1, 4)]
            distinguished = rng.sample(names, rng.randint(1, min(2, len(names))))
            blocks = {
                c: tuple(
                    DefeasibleInclusion(
                        c, random_boolean_concept(rng, names, 2), float(rng.randint(-2, 2))
                    )
                    for _ in range(rng.randint(1, 3))
                )
                for c in distinguished
            }
            domain = tuple(f"d{i}" for i in range(rng.randint(1, 6)))
            interp = FuzzyInterpretation(
                domain=domain,
                concepts={n: {x: rng.choice((0.0, 0.5, 1.0)) for x in domain} for n in names},
            )
            kb = WeightedKB(distinguished=tuple(distinguished), defeasible=blocks)
            yield build_preferences(kb, interp, family)
    for activation in ("sigmoid", "softplus01", "hard-sigmoid", "step", "linear-clamp"):
        for _ in range(20):
            net = random_feedforward_net(rng, activation, max_layers=3, max_width=4)
            stimuli = random_stimuli(rng, net, rng.randint(2, 8))
            yield build_preferences(extract_kb(net), build_fuzzy_interp(net, stimuli), ZADEH)


def test_coherence_report_matches_pairwise_oracle(monkeypatch):
    monkeypatch.setattr(preferences, "MAX_VIOLATIONS", 10**9)
    verdicts, neg_inf, ties = set(), False, False
    for model in _coherence_models():
        report = coherence_report(model)
        coherent, weakly, pairs = _oracle_coherence(model)
        assert (report.coherent, report.weakly_coherent) == (coherent, weakly)
        assert [(v.concept, v.x, v.y, v.kind) for v in report.violations] == pairs
        assert not report.truncated
        verdicts.add((coherent, weakly))
        for pref in model.preferences.values():
            finite = [w for w in pref.weights.values() if w != NEG_INF]
            neg_inf = neg_inf or len(finite) < len(pref.weights)
            ties = ties or len(set(finite)) < len(finite)
    assert verdicts == {(True, True), (False, True), (False, False)}
    assert neg_inf and ties


def test_strict_coherence_implies_weak_coherence():
    rng = random.Random(83)
    models = list(_coherence_models())
    for activation in ("sigmoid", "hard-sigmoid"):
        for _ in range(10):
            net = random_cyclic_net(rng, activation, max_width=4)
            stimuli = random_stimuli(rng, net, rng.randint(2, 8), spread=0.5)
            interp = build_fuzzy_interp(net, stimuli)
            models.append(build_preferences(extract_kb(net), interp, ZADEH))
    verdicts = set()
    for model in models:
        report = coherence_report(model)
        assert report.weakly_coherent or not report.coherent
        verdicts.add((report.coherent, report.weakly_coherent))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_coherence_json_shape():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1")
    from prefnet import FuzzyInterpretation

    interp = FuzzyInterpretation(
        domain=("x", "y"),
        concepts={"A": {"x": 0.9, "y": 0.9}, "B": {"x": 1.0, "y": 0.2}},
    )
    rep = coherence_report(build_preferences(kb, interp, ZADEH))
    blob = rep.to_json()
    assert set(blob) == {
        "coherent",
        "weakly_coherent",
        "violations",
        "violation_count",
        "truncated",
    }
    assert blob["violation_count"] == len(rep.violations)
    assert len(blob["violations"]) <= 10


# ---------------------------------------------------------------------------
# Canonical models and entailment


def test_consistent_valuations_respect_strict():
    kb = parse_kb("distinguished: A\nstrict: A [= B\ndef(A): T(A) [= B @ 1")
    assert set(consistent_valuations(kb, ["A", "B"])) == {"w00", "w01", "w11"}


def test_consistent_valuations_check_every_strict_inclusion():
    # Two to four strict inclusions over up to five names, against a
    # brute-force check of each assignment.
    rng = random.Random(41)
    later_inclusion_excludes = False
    for _ in range(200):
        names = ["A", "B", "C", "D", "E"][: rng.randint(2, 5)]
        strict = tuple(
            StrictInclusion(
                random_boolean_concept(rng, names, 2),
                random_boolean_concept(rng, names, 2),
            )
            for _ in range(rng.randint(2, 4))
        )
        expected = []
        for bits in itertools.product("01", repeat=len(names)):
            valuation = {n: b == "1" for n, b in zip(names, bits)}
            holds = [
                not bool_eval(inc.left, valuation) or bool_eval(inc.right, valuation)
                for inc in strict
            ]
            if all(holds):
                expected.append("w" + "".join(bits))
            elif holds[0]:
                later_inclusion_excludes = True
        kb = WeightedKB(strict=strict)
        assert consistent_valuations(kb, names) == expected
    assert later_inclusion_excludes


def test_entailment_basics():
    kb = parse_kb(
        """
        distinguished: Bird
        def(Bird): T(Bird) [= Fly @ 10
        def(Bird): T(Bird) [= Wings @ 5
        """
    )
    assert entails_rolefree(kb, Name("Bird"), Name("Bird"))
    assert entails_rolefree(kb, Name("Bird"), Name("Fly"))
    assert entails_rolefree(kb, Name("Bird"), parse_concept("Fly and Wings"))
    assert not entails_rolefree(kb, Name("Bird"), Not(Name("Fly")))
    # the single preference is global: typical Fly-elements maximize the
    # Bird defaults and hence are Birds, but not non-Birds
    assert entails_rolefree(kb, Name("Fly"), Name("Bird"))
    assert not entails_rolefree(kb, Name("Fly"), Not(Name("Bird")))


def test_entailment_pareto_is_cautious():
    # competing blocks leave incomparable minima, so neither conclusion
    # about flying is forced for birds or penguins
    kb = parse_kb(
        """
        distinguished: Bird, Penguin
        strict: Penguin [= Bird
        def(Bird): T(Bird) [= Fly @ 10
        def(Bird): T(Bird) [= Wings @ 5
        def(Penguin): T(Penguin) [= not Fly @ 20
        def(Penguin): T(Penguin) [= Wings @ 5
        """
    )
    assert not entails_rolefree(kb, Name("Bird"), Name("Fly"))
    assert not entails_rolefree(kb, Name("Penguin"), Not(Name("Fly")))
    # both blocks reward wings, so that conclusion survives
    assert entails_rolefree(kb, Name("Bird"), Name("Wings"))
    assert entails_rolefree(kb, Name("Penguin"), Name("Wings"))


def test_entailment_vacuous_on_unsat_strict():
    kb = parse_kb("distinguished: A\nstrict: Top [= Bottom\ndef(A): T(A) [= A @ 1")
    assert entails_rolefree(kb, Name("A"), Name("B"))


def test_entailment_uses_strict_axioms():
    kb = parse_kb(
        """
        distinguished: A
        strict: A [= B
        def(A): T(A) [= C @ 1
        """
    )
    assert entails_rolefree(kb, Name("A"), Name("B"))
    assert entails_rolefree(kb, Name("A"), parse_concept("B and C"))


def test_entailment_rejects_roles(employee_kb):
    with pytest.raises(FragmentError):
        entails_rolefree(employee_kb, Name("Employee"), Name("Young"))


def test_entailment_rejects_abox():
    kb = parse_kb("distinguished: A\ndef(A): T(A) [= B @ 1\nassert: A(tom)")
    with pytest.raises(FragmentError):
        entails_rolefree(kb, Name("A"), Name("B"))


@pytest.mark.parametrize(
    "line, keyword",
    [
        ("fuzzy: A [= not B >= 1", "fuzzy"),
        ("fuzzy-assert: A(tom) >= 0.5", "fuzzy-assert"),
        ("cc: (C | A)[1,1]", "cc"),
        ("passert: P(A(tom))[0.5]", "passert"),
    ],
)
def test_entailment_rejects_statements_it_does_not_read(line, keyword):
    # Entailment reads only the strict TBox and the defaults, so a
    # statement it would ignore is refused rather than silently dropped.
    kb = parse_kb(f"distinguished: A\ndef(A): T(A) [= B @ 1\n{line}")
    with pytest.raises(FragmentError, match=f"'{keyword}:'"):
        entails_rolefree(kb, Name("A"), Name("B"))
    with pytest.raises(FragmentError, match=f"'{keyword}:'"):
        counter_model(kb, Name("A"), Not(Name("B")))


def test_entailment_enumeration_guard():
    lines = ["distinguished: A"]
    body = " and ".join(f"N{i}" for i in range(21))
    lines.append(f"def(A): T(A) [= {body} @ 1")
    kb = parse_kb("\n".join(lines))
    with pytest.raises(EnumerationLimitError):
        entails_rolefree(kb, Name("A"), Name("A"))


def test_entailment_matches_bruteforce_oracle():
    rng = random.Random(99)
    verdicts = set()
    for _ in range(500):
        kb = random_rolefree_kb(rng, max_names=6, max_defaults=4)
        pool = _names_of_kb(kb)
        subject = random_boolean_concept(rng, pool, 2)
        consequent = random_boolean_concept(rng, pool, 2)
        entailed = not _check_counter_model(kb, subject, consequent, pool)
        assert _per_element_entails(kb, subject, consequent, pool) == entailed
        verdicts.add(entailed)
    assert verdicts == {True, False}


def test_entailment_matches_oracle_across_blocks(monkeypatch):
    # KBs of 7-10 names with 2-4 strict inclusions, and one KB whose
    # weights 2^k give every instance of A its own weight vector, decided
    # with blocks of 1, 2, 8 and 4096 assignments.
    rng = random.Random(1234)
    cases = []
    for _ in range(60):
        kb = random_rolefree_kb(
            rng, max_names=10, max_defaults=4, min_names=7, strict_count=(2, 4)
        )
        pool = _names_of_kb(kb)
        cases.append(
            (kb, random_boolean_concept(rng, pool, 2), random_boolean_concept(rng, pool, 2))
        )
    names = list("ABCDEFGHI")
    distinct = WeightedKB(
        distinguished=("A", "B"),
        defeasible={
            "A": tuple(
                DefeasibleInclusion("A", Name(n), (-1) ** k * 2.0**k)
                for k, n in enumerate(names[1:])
            ),
            "B": (DefeasibleInclusion("B", Name("C"), 1.0),),
        },
    )
    for subject in (Name("A"), parse_concept("A and not C"), parse_concept("A or D")):
        for consequent in (Name("C"), Name("D"), parse_concept("E or not F")):
            cases.append((distinct, subject, consequent))
    rows = [v for v in _all_valuations(names) if v["A"]]
    vectors = {
        tuple(
            sum(d.weight for d in distinct.defaults_for(c) if v[d.consequent.name])
            if v[c]
            else NEG_INF
            for c in distinct.distinguished
        )
        for v in rows
    }
    assert len(vectors) == len(rows)
    verdicts = set()
    for bits in (0, 1, 3, 12):
        monkeypatch.setattr(preferences, "_BLOCK_BITS", bits)
        for kb, subject, consequent in cases:
            verdicts.add(_check_counter_model(kb, subject, consequent, _names_of_kb(kb)))
    assert verdicts == {True, False}


def test_entailment_is_in_the_canonical_model_not_every_model():
    kb = parse_kb("distinguished: Bird\ndef(Bird): T(Bird) [= Fly @ 2")
    query = parse_query_axiom("T(Bird) [= Fly")
    assert entails_rolefree(kb, Name("Bird"), Name("Fly"))
    # A model with one non-flying bird: that bird is typical, so the
    # entailed axiom fails there.
    lone = crisp_interpretation(["x"], {"Bird": {"x"}, "Fly": set()})
    assert not check_typicality_axiom(build_preferences(kb, lone), query)


def test_enumeration_limit_bounds_time_and_memory():
    # Both 20-name KB shapes: one default over every name (few weight
    # vectors), and 19 defaults of weight 2^k (2^19 distinct vectors).
    assert ENUMERATION_LIMIT == 20
    names = [f"N{i:02d}" for i in range(20)]
    one_block = (
        f"distinguished: N00\nstrict: N01 [= N02\n"
        f"def(N00): T(N00) [= {' and '.join(names[1:])} @ 1\n"
    )
    distinct = "distinguished: N00\n" + "".join(
        f"def(N00): T(N00) [= {n} @ {2**k}\n" for k, n in enumerate(names[1:], 1)
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for text, query, expected in (
        (one_block, "T(N00) [= N03", "True"),
        (distinct, "T(N00) [= not N19", "False"),
    ):
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {src!r})
            from prefnet import entails_rolefree, parse_kb, parse_query_axiom
            q = parse_query_axiom({query!r})
            print(entails_rolefree(parse_kb({text!r}), q.left.arg, q.right))
            # The child's own peak: its ru_maxrss starts from the peak of the
            # process that spawned it.
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
            """
        )
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert out.returncode == 0, out.stderr
        verdict, peak_kb = out.stdout.split()
        assert verdict == expected
        cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        assert cpu_s < 10.0
        assert int(peak_kb) / 1024 < 250.0


def _names_of_kb(kb):
    return sorted(
        set(kb.distinguished) | {n for c in kb.all_concepts() for n in concept_names_in(c)}
    )


def _check_counter_model(kb, subject, consequent, names):
    """Compare counter_model and entails_rolefree with the oracle; True
    when a counter-model exists."""
    typical = _oracle_typical(kb, subject, names)
    witness = counter_model(kb, subject, consequent)
    assert entails_rolefree(kb, subject, consequent) == (witness is None)
    misses = [v for v in typical if not bool_eval(consequent, v)]
    if witness is None:
        assert misses == [], f"{subject} |~ {consequent} on {kb}"
        return False
    assert all(not bool_eval(s.left, witness) or bool_eval(s.right, witness) for s in kb.strict)
    assert bool_eval(subject, witness)
    assert not bool_eval(consequent, witness)
    assert witness in typical
    # The lowest one in counting order, the first name most significant.
    assert witness == misses[0]
    return True


def _oracle_typical(kb, subject, names):
    """Typical instances of the subject among the valuations that satisfy
    the strict TBox, in counting order; the Pareto scan runs over one
    instance per distinct weight vector."""
    rows = [
        v
        for v in _all_valuations(names)
        if bool_eval(subject, v)
        and all(not bool_eval(s.left, v) or bool_eval(s.right, v) for s in kb.strict)
    ]
    vectors = [
        tuple(
            sum(d.weight for d in kb.defaults_for(ci) if bool_eval(d.consequent, v))
            if v.get(ci, False)
            else NEG_INF
            for ci in kb.distinguished
        )
        for v in rows
    ]
    first = {}
    for idx, vec in enumerate(vectors):
        first.setdefault(vec, idx)
    weights = {
        ci: {idx: vec[k] for vec, idx in first.items()}
        for k, ci in enumerate(kb.distinguished)
    }
    minimal = {vectors[idx] for idx in oracle_minimal(list(first.values()), weights)}
    return [v for v, vec in zip(rows, vectors) if vec in minimal]


def _per_element_entails(kb, subject, consequent, names):
    """Typicality on the canonical model with one element per assignment."""
    elements = consistent_valuations(kb, names)
    if not elements:
        return True
    interp = crisp_interpretation(
        elements,
        {n: {x for x in elements if x[k + 1] == "1"} for k, n in enumerate(names)},
    )
    return check_typicality_axiom(
        build_preferences(kb, interp), StrictInclusion(Typ(subject), consequent)
    )


def _all_valuations(names):
    out = []
    for bits in itertools.product([False, True], repeat=len(names)):
        out.append(dict(zip(names, bits)))
    return out


# ---------------------------------------------------------------------------
# Order properties


def test_order_properties_random():
    rng = random.Random(17)
    for _ in range(60):
        kb = random_rolefree_kb(rng, max_names=4, max_defaults=5)
        names = _names_of_kb(kb)
        interp = random_crisp_interp(rng, names, size=6)
        model = build_preferences(kb, interp)
        domain = interp.domain
        for pref in model.preferences.values():
            # x <= y when w[x] >= w[y], and x < y when w[x] > w[y]
            w = pref.weights
            for x in domain:
                assert w[x] >= w[x]
                for y in domain:
                    assert w[x] >= w[y] or w[y] >= w[x]  # total
                    if w[x] > w[y]:
                        assert not w[y] > w[x]
                        # modularity: x < y forces x < z or z < y
                        for z in domain:
                            assert w[x] > w[z] or w[z] > w[y]
                    for z in domain:
                        if w[x] >= w[y] >= w[z]:
                            assert w[x] >= w[z]
        vec = _vectors(model)
        lt = preferences._dominates
        for x in domain:
            assert not lt(vec[x], vec[x])
            for y in domain:
                for z in domain:
                    if lt(vec[x], vec[y]) and lt(vec[y], vec[z]):
                        assert lt(vec[x], vec[z])


def test_duplicate_element_stability():
    rng = random.Random(31)
    for _ in range(30):
        kb = random_rolefree_kb(rng, max_names=3, max_defaults=4)
        names = _names_of_kb(kb)
        interp = random_crisp_interp(rng, names, size=4)
        source = interp.domain[0]
        bigger = duplicate_element(interp, source, "clone")
        model = build_preferences(kb, interp)
        model2 = build_preferences(kb, bigger, None)
        subject = Name(kb.distinguished[0])
        before = set(typicality_global(model, subject))
        after = set(typicality_global(model2, subject))
        # clones never change verdicts for the original elements
        assert before == after - {"clone"}
        if source in before:
            assert "clone" in after
        for ci in kb.distinguished:
            weights = model2.preferences[ci].weights
            assert weights["clone"] == weights[source]


def test_typicality_invariant_under_weight_scaling():
    rng = random.Random(41)
    for _ in range(20):
        kb = random_rolefree_kb(rng, max_names=3, max_defaults=4, with_strict=False)
        names = _names_of_kb(kb)
        interp = random_crisp_interp(rng, names, size=5)
        scaled_blocks = {
            ci: tuple(
                type(d)(d.subject, d.consequent, d.weight * 4.0)
                for d in block
            )
            for ci, block in kb.defeasible.items()
        }
        kb2 = WeightedKB(kb.distinguished, kb.strict, scaled_blocks, kb.abox, kb.extra)
        m1 = build_preferences(kb, interp)
        m2 = build_preferences(kb2, interp)
        for subject in kb.distinguished:
            assert typicality_global(m1, Name(subject)) == typicality_global(
                m2, Name(subject)
            )
