"""prefnet's hand-written value classes and records against their dataclass
definitions (``dataclass_oracle.py``), over a corpus of parsed concepts and
KBs, JSON-loaded interpretations, nets and stimuli, and what prefnet builds
from them."""

import copy
import dataclasses
import inspect
import random
from itertools import combinations

import pytest

from prefnet import (
    ACTIVATIONS,
    FAMILIES,
    And,
    Bottom,
    Distribution,
    Exists,
    Forall,
    FuzzyProbInterp,
    Name,
    Nominal,
    Not,
    Or,
    StrictInclusion,
    Top,
    Typ,
    build_cwm_interp,
    build_preferences,
    coherence_report,
    concept_to_text,
    concepts,
    degrees,
    extract_kb,
    forward,
    fuzzy,
    interpretation_from_json,
    interpretation_to_json,
    kb,
    mlp,
    network_from_json,
    parse_concept,
    parse_kb,
    parse_query_axiom,
    preferences,
    probability,
    serialize_kb,
    stimuli_from_json,
    validate_kb,
    verify_weak_coherence,
)
from dataclass_oracle import ORACLES, to_oracle
from genutil import (
    network_to_json,
    random_alc_concept,
    random_feedforward_net,
    random_full_kb,
    random_fuzzy_interp,
    random_rolefree_kb,
    random_stimuli,
    stimuli_to_json,
)

MODULES = (concepts, fuzzy, kb, preferences, mlp, probability)
CLASSES = {name: getattr(m, name) for m in MODULES for name in ORACLES if hasattr(m, name)}


def _twin(concept):
    """A node of a sibling class with the same fields, or None."""
    swap = {And: Or, Or: And, Exists: Forall, Forall: Exists, Not: Typ, Name: Nominal}
    if isinstance(concept, Top):
        return Bottom()
    if type(concept) in swap:
        return swap[type(concept)](*concept._key)
    return None


def _reachable(value, out, seen):
    """Every prefnet value and record inside ``value``, once each."""
    if type(value).__name__ in CLASSES and type(value).__module__.startswith("prefnet."):
        if id(value) in seen:
            return
        seen.add(id(value))
        out.append(value)
        for f in dataclasses.fields(ORACLES[type(value).__name__]):
            if f.compare:
                _reachable(getattr(value, f.name), out, seen)
    elif isinstance(value, (tuple, list, frozenset)):
        for v in value:
            _reachable(v, out, seen)
    elif isinstance(value, dict):
        for k, v in value.items():
            _reachable(k, out, seen)
            _reachable(v, out, seen)


def _corpus(seed=5):
    rng = random.Random(seed)
    roots = list(FAMILIES.values()) + list(ACTIVATIONS.values())
    for _ in range(40):
        text = concept_to_text(random_alc_concept(rng, ["A", "B"], ["r"], ["a"], 3))
        # two parses give equal, distinct trees
        first, second = parse_concept(text), parse_concept(text)
        roots += [first, second, _twin(first)]
        if isinstance(first, (And, Or)):
            roots.append(StrictInclusion(first.left, first.right))
        roots.append(parse_query_axiom(f"T({text}) [= B >= 0.5"))
    for _ in range(12):
        full = random_full_kb(rng)
        parsed = parse_kb(serialize_kb(full))
        roots += [parsed, parse_kb(serialize_kb(full)), parsed.signature(), validate_kb(parsed)]
    for _ in range(6):
        kb_ = parse_kb(serialize_kb(random_rolefree_kb(rng, max_names=4)))
        names = sorted(kb_.signature().concept_names)
        doc = interpretation_to_json(random_fuzzy_interp(rng, names, 4, ["r"]))
        interp, same = interpretation_from_json(doc), interpretation_from_json(doc)
        degrees(interp, FAMILIES["zadeh"], Name(names[0]))  # fills interp's memo only
        model = build_preferences(kb_, interp, FAMILIES["goedel"])
        dist = Distribution.uniform(interp.domain)
        roots += [kb_, interp, same, model, coherence_report(model)]
        roots += [dist, Distribution(dict(dist.mu)), FuzzyProbInterp(interp, dist)]
    for _ in range(3):
        net = network_from_json(network_to_json(random_feedforward_net(rng, max_width=4)))
        stimuli = stimuli_from_json(stimuli_to_json(random_stimuli(rng, net, 3)))
        roots += [net, network_from_json(network_to_json(net)), stimuli, forward(net, stimuli)]
        roots += [extract_kb(net), verify_weak_coherence(net, stimuli)]
        roots.append(build_cwm_interp(net, stimuli))
    out = []
    _reachable(roots, out, set())
    return out


CORPUS = _corpus()


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_corpus_covers_every_class():
    assert len(CLASSES) == len(ORACLES) == 35
    assert {type(v).__name__ for v in CORPUS} == set(ORACLES)


def test_constructor_signatures_match():
    for name, cls in CLASSES.items():
        ours = inspect.signature(cls).parameters
        theirs = inspect.signature(ORACLES[name]).parameters
        assert list(ours) == list(theirs), name
        for param, oracle in zip(ours.values(), theirs.values()):
            assert param.kind == oracle.kind, (name, param)
            if repr(oracle.default) == "<factory>":
                assert param.default is None, (name, param)
            else:
                assert param.default == oracle.default, (name, param)


def test_mutable_defaults_are_fresh():
    one, two = fuzzy.FuzzyInterpretation(("x",)), fuzzy.FuzzyInterpretation(("x",))
    assert one.concepts is not two.concepts and one.roles is not two.roles
    assert one.individuals is not two.individuals and one._memo is not two._memo
    assert kb.WeightedKB().defeasible is not kb.WeightedKB().defeasible
    report = preferences.CoherenceReport
    assert report(True, True).violations is not report(True, True).violations


def test_attributes_and_repr_match():
    for value in CORPUS:
        twin = to_oracle(value)
        assert repr(value) == repr(twin)
        for f in dataclasses.fields(twin):
            assert hasattr(value, f.name), (type(value).__name__, f.name)
            if not f.init and f.name != "_memo":
                assert to_oracle(getattr(value, f.name)) == getattr(twin, f.name)


def test_equality_and_hash_match():
    # Pairs whose fields print alike: equal copies, class twins such as
    # And(a, b) and Or(a, b), and interpretations that differ only in memo.
    groups = {}
    for value in CORPUS:
        groups.setdefault(repr(value).partition("(")[2], []).append(value)
    pairs = [p for group in groups.values() for p in combinations(group, 2)]
    assert any(type(a) is not type(b) for a, b in pairs)
    assert any(a._memo != b._memo for a, b in pairs if isinstance(a, fuzzy.FuzzyInterpretation))
    rng = random.Random(9)
    pairs += [(rng.choice(CORPUS), rng.choice(CORPUS)) for _ in range(3000)]
    for a, b in pairs:
        oracle_a, oracle_b = to_oracle(a), to_oracle(b)
        assert (a == b) == (oracle_a == oracle_b), (a, b)
        assert (a != b) == (oracle_a != oracle_b), (a, b)
        if a == b and _hashable(a):
            assert hash(a) == hash(b)
    for value in CORPUS:
        assert _hashable(value) == _hashable(to_oracle(value)), type(value).__name__
        assert value == value


def test_frozen_classes_are_immutable():
    for value in CORPUS:
        twin = to_oracle(value)
        if not type(twin).__dataclass_params__.frozen:
            continue
        for f in dataclasses.fields(twin):
            with pytest.raises(AttributeError):
                setattr(value, f.name, None)
            with pytest.raises(AttributeError):
                delattr(value, f.name)
        assert copy.copy(value) == value == copy.deepcopy(value)
