"""Acceptance gate: seven end-to-end checks with runtime budgets.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; the
test outcome itself mirrors it).  Budgets are generous for CI noise but
asserted, so a pathological slowdown fails loudly.
"""

import random
import time
from contextlib import contextmanager

import pytest

from prefnet import (
    And,
    BOTTOM,
    Distribution,
    FuzzyProbInterp,
    Name,
    NEG_INF,
    Not,
    Or,
    ZADEH,
    build_preferences,
    coherence_report,
    conditional_prob,
    crisp_weight,
    entails_rolefree,
    fuzzy_cardinality,
    fuzzy_event_prob,
    fuzzy_weight,
    nominal_conditional,
    typicality_global,
    verify_strict_coherence,
    verify_weak_coherence,
)
from prefnet.preferences import _dominates
from genutil import (
    crisp_interpretation,
    duplicate_element,
    random_boolean_concept,
    random_crisp_interp,
    random_feedforward_net,
    random_fuzzy_interp,
    random_rolefree_kb,
    random_stimuli,
    relative_cardinality,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {number} {label}: FAIL (took {elapsed:.2f}s)")
        pytest.fail(
            f"criterion {number} exceeded its {budget:.0f}s budget:"
            f" {elapsed:.2f}s"
        )
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Golden values from the employment example


def test_criterion_1_employee_golden_values(employee_kb):
    with criterion(1, "employee-golden-values", 1.0):
        base_members = {
            "Employee": {"tom", "bob"},
            "Student": set(),
            "PhdStudent": set(),
            "Adult": {"tom", "bob"},
        }
        base_roles = {
            "has_SSN": {("tom", "ssn1"), ("bob", "ssn2")},
            "has_boss": {("bob", "tom")},
            "hasScholarship": set(),
        }
        # tom always: employee with classes, no boss, not young.
        # bob rows: young employee with a boss, classes left open.
        for bob_young in (True, False):
            for bob_classes in (False, True):
                if not bob_young and not bob_classes:
                    young = set()
                else:
                    young = {"bob"} if bob_young else set()
                members = dict(base_members)
                members["Young"] = young
                roles = dict(base_roles)
                classes = {("tom", "class1")}
                if bob_classes:
                    classes = classes | {("bob", "class1")}
                roles["has_classes"] = classes
                interp = crisp_interpretation(
                    domain=["tom", "bob", "ssn1", "ssn2", "class1"],
                    concept_members=members,
                    role_pairs=roles,
                    individuals={"tom": "tom", "bob": "bob"},
                )
                w_tom = crisp_weight(employee_kb, interp, "Employee", "tom")
                assert w_tom == -70.0
                model = build_preferences(employee_kb, interp)
                weights = model.preferences["Employee"].weights
                assert weights["bob"] > weights["tom"]
        # the documented row: bob satisfies the Young and boss defaults only
        interp = crisp_interpretation(
            domain=["tom", "bob", "ssn1", "ssn2", "class1"],
            concept_members={**base_members, "Young": {"bob"}},
            role_pairs={**base_roles, "has_classes": {("tom", "class1")}},
            individuals={"tom": "tom", "bob": "bob"},
        )
        assert crisp_weight(employee_kb, interp, "Employee", "bob") == 50.0
        assert crisp_weight(employee_kb, interp, "Student", "tom") == NEG_INF


# ---------------------------------------------------------------------------
# 2. Sigmoid networks: exact weights and strict coherence


def test_criterion_2_sigmoid_verification():
    with criterion(2, "sigmoid-strict-coherence", 30.0):
        rng = random.Random(20260821)
        for i in range(200):
            net = random_feedforward_net(rng, activation="sigmoid")
            stimuli = random_stimuli(rng, net, 50)
            report = verify_strict_coherence(net, stimuli)
            assert report.ok, f"net {i} failed: {report.to_json()}"
            assert report.weight_identity_ok
            assert report.max_weight_error <= 1e-9
            assert report.coherence.coherent
            assert report.coherence.weakly_coherent


# ---------------------------------------------------------------------------
# 3. Monotone-only activations: weak coherence


def test_criterion_3_monotone_weak_coherence():
    with criterion(3, "monotone-weak-coherence", 30.0):
        rng = random.Random(31337)
        strict_failures = 0
        for i in range(100):
            for activation in ("hard-sigmoid", "step"):
                net = random_feedforward_net(rng, activation=activation)
                stimuli = random_stimuli(rng, net, 50)
                report = verify_weak_coherence(net, stimuli)
                assert report.ok, (
                    f"net {i} ({activation}) failed: {report.to_json()}"
                )
                assert report.coherence.weakly_coherent
                if activation == "step" and not report.coherence.coherent:
                    strict_failures += 1
        # plateaus collapse distinct fields, so step networks routinely
        # break strict coherence while staying weakly coherent
        assert strict_failures > 0

        # and one pinned witness
        from prefnet import Network, StimulusSet, Unit, build_fuzzy_interp, extract_kb, forward

        net = Network(
            inputs=("x0",),
            units=(
                Unit(id="u0", activation="step", bias=0.0, incoming=(("x0", 1.0),)),
            ),
            c_units=("u0",),
        )
        st = StimulusSet(
            ids=("s0", "s1"), values={"s0": {"x0": 0.25}, "s1": {"x0": 0.75}}
        )
        table = forward(net, st)
        interp = build_fuzzy_interp(net, st, table)
        model = build_preferences(extract_kb(net), interp, ZADEH)
        rep = coherence_report(model)
        assert not rep.coherent
        assert rep.weakly_coherent


# ---------------------------------------------------------------------------
# 4. KLM postulates of the entailment relation


def test_criterion_4_klm_postulates():
    with criterion(4, "klm-postulates", 60.0):
        rng = random.Random(4242)
        fired = {"REF": 0, "LLE": 0, "RW": 0, "AND": 0, "OR": 0, "CM": 0}
        for _ in range(500):
            kb = random_rolefree_kb(rng, max_names=4, max_defaults=6)
            pool = sorted(
                set(kb.distinguished)
                | {
                    n
                    for block in kb.defeasible.values()
                    for d in block
                    for n in _names(d.consequent)
                }
                | {
                    n
                    for s in kb.strict
                    for n in _names(s.left) | _names(s.right)
                }
            )
            c = random_boolean_concept(rng, pool, 2)
            d = random_boolean_concept(rng, pool, 2)
            e = random_boolean_concept(rng, pool, 2)

            # Reflexivity: C |~ C
            assert entails_rolefree(kb, c, c)
            fired["REF"] += 1

            c_d = entails_rolefree(kb, c, d)
            c_e = entails_rolefree(kb, c, e)

            # Left logical equivalence: syntactic variants of C agree
            for variant in (Not(Not(c)), And(c, c), Or(c, BOTTOM)):
                assert entails_rolefree(kb, variant, d) == c_d
            fired["LLE"] += 1

            # Right weakening: C |~ D entails C |~ D or E
            if c_d:
                assert entails_rolefree(kb, c, Or(d, e))
                fired["RW"] += 1

            # And: C |~ D, C |~ E entail C |~ D and E
            if c_d and c_e:
                assert entails_rolefree(kb, c, And(d, e))
                fired["AND"] += 1

            # Cautious monotonicity: C |~ D, C |~ E entail C and D |~ E
            if c_d and c_e:
                assert entails_rolefree(kb, And(c, d), e)
                fired["CM"] += 1

            # Or: C |~ E, D |~ E entail C or D |~ E
            d_e = entails_rolefree(kb, d, e)
            if c_e and d_e:
                assert entails_rolefree(kb, Or(c, d), e)
                fired["OR"] += 1
        # every postulate must have been exercised non-vacuously
        assert fired["REF"] == 500 and fired["LLE"] == 500
        for key in ("RW", "AND", "OR", "CM"):
            assert fired[key] >= 30, fired


def _names(concept):
    from prefnet import concept_names_in

    return concept_names_in(concept)


# ---------------------------------------------------------------------------
# 5. Probability identities


def test_criterion_5_probability_identities():
    with criterion(5, "probability-identities", 10.0):
        rng = random.Random(555)
        nominal_checked = 0
        for _ in range(200):
            interp = random_fuzzy_interp(rng, ["A", "B"], size=6)
            raw = [rng.random() + 1e-3 for _ in interp.domain]
            total = sum(raw)
            dist = Distribution(
                {x: m / total for x, m in zip(interp.domain, raw)}
            )
            fpi = FuzzyProbInterp(interp=interp, dist=dist)
            concept = random_boolean_concept(rng, ["A", "B"], 2)

            # singleton conditioning equals direct membership
            for ind in interp.individuals:
                x = interp.individuals[ind]
                from prefnet import Nominal

                ratio = conditional_prob(fpi, concept, Nominal(ind))
                value = nominal_conditional(fpi, concept, ind)
                from prefnet import eval_concept

                membership = eval_concept(interp, ZADEH, concept, x)
                assert abs(ratio - membership) <= 1e-9
                assert abs(value - membership) <= 1e-9
                nominal_checked += 1

            # uniform distribution: conditional equals cardinality ratio
            uni = FuzzyProbInterp(
                interp=interp, dist=Distribution.uniform(interp.domain)
            )
            given = Name("A")
            if fuzzy_cardinality(interp, given) > 0.0:
                lhs = conditional_prob(uni, concept, given)
                rhs = relative_cardinality(
                    interp, And(concept, given), given
                )
                assert abs(lhs - rhs) <= 1e-9

            # complement law under the zadeh negation
            p = fuzzy_event_prob(fpi, concept)
            q = fuzzy_event_prob(fpi, Not(concept))
            assert abs(p + q - 1.0) <= 1e-9
        assert nominal_checked >= 200


# ---------------------------------------------------------------------------
# 6. Structural order properties


def test_criterion_6_order_properties():
    with criterion(6, "order-properties", 30.0):
        rng = random.Random(666)
        for _ in range(200):
            kb = random_rolefree_kb(rng, max_names=4, max_defaults=5)
            names = sorted(
                set(kb.distinguished)
                | {
                    n
                    for block in kb.defeasible.values()
                    for d in block
                    for n in _names(d.consequent)
                }
                | {
                    n
                    for s in kb.strict
                    for n in _names(s.left) | _names(s.right)
                }
            )
            interp = random_crisp_interp(rng, names, size=6)
            model = build_preferences(kb, interp)
            domain = interp.domain
            for pref in model.preferences.values():
                w = pref.weights
                for x in domain:
                    assert w[x] >= w[x]
                    for y in domain:
                        assert w[x] >= w[y] or w[y] >= w[x]
                        if w[x] > w[y]:
                            for z in domain:
                                assert w[x] > w[z] or w[z] > w[y]
                        for z in domain:
                            if w[x] >= w[y] >= w[z]:
                                assert w[x] >= w[z]
            rows = [p.weights for p in model.preferences.values()]
            vec = {x: tuple(w[x] for w in rows) for x in domain}
            for x in domain:
                assert not _dominates(vec[x], vec[x])
                for y in domain:
                    for z in domain:
                        if _dominates(vec[x], vec[y]) and _dominates(vec[y], vec[z]):
                            assert _dominates(vec[x], vec[z])

            # duplicating an element never changes verdicts
            clone_src = domain[0]
            bigger = duplicate_element(interp, clone_src, "dup")
            model2 = build_preferences(kb, bigger)
            subject = Name(kb.distinguished[0])
            before = set(typicality_global(model, subject))
            after = set(typicality_global(model2, subject))
            assert before == after - {"dup"}
            if clone_src in before:
                assert "dup" in after


# ---------------------------------------------------------------------------
# 7. Crisp and fuzzy weights agree on two-valued interpretations


def test_criterion_7_crisp_fuzzy_weight_agreement():
    with criterion(7, "crisp-fuzzy-agreement", None):
        rng = random.Random(777)
        for _ in range(200):
            kb = random_rolefree_kb(rng, max_names=4, max_defaults=6)
            names = sorted(
                set(kb.distinguished)
                | {
                    n
                    for block in kb.defeasible.values()
                    for d in block
                    for n in _names(d.consequent)
                }
                | {
                    n
                    for s in kb.strict
                    for n in _names(s.left) | _names(s.right)
                }
            )
            interp = random_crisp_interp(rng, names, size=5)
            for subject in kb.distinguished:
                for x in interp.domain:
                    expected = crisp_weight(kb, interp, subject, x)
                    got = fuzzy_weight(kb, interp, ZADEH, subject, x)
                    assert got == expected  # exact, including -inf
