"""Multilayer perceptrons as interpretations and as weighted KBs.

A network is a directed graph of units over a list of input nodes.  Each
unit k computes an induced field ``u_k = bias_k + sum_j w_kj * s_j`` over
the activities of its synapse sources (listed order, left to right) and an
activity ``y_k = phi_k(u_k)``.  Acyclic networks are evaluated in one
topological sweep; cyclic ones run synchronous updates from all-zero unit
activities until the largest activity change drops below ``EPS_CMP``,
then record the stationary state.  After ``MAX_ITERATIONS`` rounds
without one, :class:`NonConvergenceError` reports the rounds run and the
last change.

Input activities are the stimulus values clamped to [0, 1].  The clamped
value is both the concept membership of the input node and the signal its
synapses carry, which keeps the extracted-KB weight identity below exact
even for out-of-range stimuli.

With stimuli as domain elements, activities give a fuzzy interpretation:
one concept name per node, membership = activity.  Thresholding activities
(nonzero, or > 0.5) gives a crisp interpretation whose per-unit preferences
order stimuli by raw activity, with non-members together at the top.

Each designated unit also reads as a block of weighted defeasible
inclusions: ``T(C_k) [= C_j @ w_kj`` per synapse, preceded by
``T(C_k) [= Top @ bias_k`` when the bias is nonzero.  Under the fuzzy
weight construction the block total reproduces ``u_k(x)`` exactly wherever
``y_k(x) > 0``, which is what the two verification routines assert:

* strictly increasing activations with range inside (0, 1] must yield a
  fully coherent model,
* monotone non-decreasing activations must yield a weakly coherent one.

The fold contract.  Verification computes every sum twice, as a field in
:func:`forward` and as a block weight in ``preferences._weights``, and
they must agree bit for bit.  Both fold left to right in listed order with
plain ``+=``: the field from the bias, the weight from ``0.0`` plus the
bias's ``Top`` default, which is the same float.  Neither may use
``sum()``: from Python 3.12 it sums floats with compensation, so
``sum([1e16, 1.0, -1e16])`` is ``1.0`` where the fold gives ``0.0``.
``tests/fold_guard.py`` checks the contract on every interpreter at
hand.  On a cyclic net the recorded field comes from the state before the
settling pass, so there the two agree only within ``EPS_CMP``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from . import jsonin
from .concepts import TOP, Name, is_identifier
from .errors import (
    ActivationPreconditionError,
    InputError,
    NonConvergenceError,
)
from .fuzzy import EPS_CMP, ZADEH, FuzzyInterpretation
from .kb import DefeasibleInclusion, WeightedKB
from .preferences import (
    NEG_INF,
    CoherenceReport,
    ConceptPreference,
    MultiprefModel,
    build_preferences,
    coherence_report,
)
from .values import Record, Value, _set, _set_key

__all__ = [
    "MAX_ITERATIONS",
    "Activation",
    "ACTIVATIONS",
    "get_activation",
    "Unit",
    "Network",
    "StimulusSet",
    "ActivityTable",
    "forward",
    "build_fuzzy_interp",
    "build_cwm_interp",
    "extract_kb",
    "VerificationReport",
    "verify_strict_coherence",
    "verify_weak_coherence",
    "network_from_json",
    "load_network",
    "stimuli_from_json",
    "load_stimuli",
]

MAX_ITERATIONS = 10000


# ---------------------------------------------------------------------------
# Activations


class Activation(Value):
    """An activation function with the properties verification relies on.

    The flags are claims about the mathematical function: strict increase,
    range contained in (0, 1], and monotone non-decrease.  They gate the
    two verification routines, so each registry entry keeps them truthful.
    """

    __slots__ = (
        "tag", "fn", "strictly_increasing", "range_in_unit_halfopen", "nondecreasing"
    )

    def __init__(
        self,
        tag: str,
        fn: Callable[[float], float],
        strictly_increasing: bool,
        range_in_unit_halfopen: bool,
        nondecreasing: bool,
    ) -> None:
        _set(self, "tag", tag)
        _set(self, "fn", fn)
        _set(self, "strictly_increasing", strictly_increasing)
        _set(self, "range_in_unit_halfopen", range_in_unit_halfopen)
        _set(self, "nondecreasing", nondecreasing)
        _set_key(
            self, (tag, fn, strictly_increasing, range_in_unit_halfopen, nondecreasing)
        )


def _sigmoid(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _softplus01(u: float) -> float:
    # log1p(exp(u)) rescaled onto (0, 1) by s / (1 + s), which is inf / inf at u = inf.
    if u == math.inf:
        return 1.0
    s = u + math.log1p(math.exp(-u)) if u > 30.0 else math.log1p(math.exp(u))
    return s / (1.0 + s)


def _hard_sigmoid(u: float) -> float:
    return min(1.0, max(0.0, 0.2 * u + 0.5))


def _step(u: float) -> float:
    # Threshold at zero; the boundary point fires.
    return 1.0 if u >= 0.0 else 0.0


def _linear_clamp(u: float) -> float:
    return min(1.0, max(0.0, u))


ACTIVATIONS = {
    a.tag: a
    for a in (
        Activation("sigmoid", _sigmoid, True, True, True),
        Activation("softplus01", _softplus01, True, True, True),
        Activation("hard-sigmoid", _hard_sigmoid, False, False, True),
        Activation("step", _step, False, False, True),
        Activation("linear-clamp", _linear_clamp, False, False, True),
    )
}


def get_activation(tag: str) -> Activation:
    try:
        return ACTIVATIONS[tag]
    except KeyError:
        options = ", ".join(sorted(ACTIVATIONS))
        raise InputError(
            f"unknown activation {tag!r}; choose one of: {options}"
        ) from None


# ---------------------------------------------------------------------------
# Network structure


class Unit(Value):
    __slots__ = ("id", "activation", "bias", "incoming")

    def __init__(
        self,
        id: str,
        activation: str,
        bias: float = 0.0,
        incoming: tuple[tuple[str, float], ...] = (),
    ) -> None:
        _set(self, "id", id)
        _set(self, "activation", activation)
        _set(self, "bias", bias)
        _set(self, "incoming", incoming)
        _set_key(self, (id, activation, bias, incoming))


class Network(Record):
    """Input nodes, units, and the designated concept units."""

    _fields = ("inputs", "units", "c_units")

    def __init__(
        self,
        inputs: tuple[str, ...],
        units: tuple[Unit, ...],
        c_units: tuple[str, ...] = (),
    ) -> None:
        self.inputs = tuple(inputs)
        self.units = tuple(units)
        self.c_units = tuple(c_units)
        ids = list(self.inputs) + [u.id for u in self.units]
        if len(set(ids)) != len(ids):
            raise InputError("node ids must be unique across inputs and units")
        for node_id in ids:
            if not is_identifier(node_id):
                raise InputError(
                    f"node id {node_id!r} is not a usable concept identifier"
                )
        known = set(ids)
        unit_ids = {u.id for u in self.units}
        for u in self.units:
            get_activation(u.activation)
            if not math.isfinite(u.bias):
                raise InputError(f"unit {u.id!r} has a non-finite bias")
            for src, w in u.incoming:
                if src not in known:
                    raise InputError(
                        f"unit {u.id!r} has a synapse from undeclared node {src!r}"
                    )
                if not math.isfinite(w):
                    raise InputError(
                        f"synapse {src!r} -> {u.id!r} has a non-finite weight"
                    )
        for cid in self.c_units:
            if cid not in unit_ids:
                raise InputError(f"designated unit {cid!r} is not a unit id")
        if len(set(self.c_units)) < len(self.c_units):
            twice = next(c for i, c in enumerate(self.c_units) if c in self.c_units[:i])
            raise InputError(f"designated unit {twice!r} is listed twice")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.inputs + tuple(u.id for u in self.units)

    def topological_units(self) -> list[Unit] | None:
        """Units in dependency order, or None when the graph has a cycle.

        Declaration order is kept among units whose dependencies are
        already satisfied, so evaluation order is deterministic.
        """
        unit_ids = {u.id for u in self.units}
        visited: set[str] = set()
        ordered: list[Unit] = []
        remaining = list(self.units)
        while remaining:
            progressed = False
            rest = []
            for u in remaining:
                if all(
                    src in visited or src not in unit_ids for src, _ in u.incoming
                ):
                    ordered.append(u)
                    visited.add(u.id)
                    progressed = True
                else:
                    rest.append(u)
            remaining = rest
            if not progressed:
                return None
        return ordered

class StimulusSet(Record):
    """Named input vectors; every stimulus assigns every input node."""

    _fields = ("ids", "values")

    def __init__(self, ids: tuple[str, ...], values: dict[str, dict[str, float]]) -> None:
        self.ids = ids = tuple(ids)
        self.values = values
        if len(set(ids)) != len(ids):
            raise InputError("stimulus ids must be unique")
        for sid in ids:
            if sid not in values:
                raise InputError(f"stimulus {sid!r} has no value row")
            for inp, value in values[sid].items():
                if not math.isfinite(value):
                    raise InputError(
                        f"stimulus {sid!r} gives input {inp!r} the non-finite"
                        f" value {value!r}"
                    )

    def check_against(self, net: Network) -> None:
        """Every row assigns exactly the net's inputs.

        A row's first missing input is reported before its first unknown
        key, each in its own order.
        """
        inputs = set(net.inputs)
        for sid in self.ids:
            row = self.values[sid]
            for inp in net.inputs:
                if inp not in row:
                    raise InputError(
                        f"stimulus {sid!r} assigns no value to input {inp!r}"
                    )
            for key in row:
                if key not in inputs:
                    raise InputError(
                        f"stimulus {sid!r} assigns a value to unknown input {key!r}"
                    )


class ActivityTable(Record):
    """Recorded activities (all nodes) and induced fields (units only)."""

    _fields = ("stimuli", "activity", "induced_field")

    def __init__(
        self,
        stimuli: tuple[str, ...],
        activity: dict[str, dict[str, float]],
        induced_field: dict[str, dict[str, float]],
    ) -> None:
        self.stimuli = stimuli
        self.activity = activity
        self.induced_field = induced_field

    def u(self, stimulus: str, unit: str) -> float:
        return self.induced_field[stimulus][unit]

    def to_json(self) -> dict:
        return {
            "stimuli": list(self.stimuli),
            "activity": {s: dict(row) for s, row in self.activity.items()},
            "induced_field": {
                s: dict(row) for s, row in self.induced_field.items()
            },
        }


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _field(
    bias: float, synapses: tuple[tuple[int, float], ...], signals: list[float]
) -> float:
    """The induced field ``bias + sum_j w_kj * s_j``, folded left to right."""
    total = bias
    for q, w in synapses:
        total += w * signals[q]
    return total


# ---------------------------------------------------------------------------
# Evaluation


def forward(net: Network, stimuli: StimulusSet) -> ActivityTable:
    """Evaluate the network on every stimulus.

    Acyclic graphs get a single topological sweep.  Cyclic graphs run
    synchronous updates from zero until stationary within ``EPS_CMP``,
    failing with :class:`NonConvergenceError` at the iteration cap; the
    recorded fields are recomputed at the fixed point so ``y = phi(u)``
    holds exactly.

    Each unit is resolved once into its position among the signals, its
    bias, its synapses as ``(source position, weight)`` and its activation
    function; a stimulus then runs over one flat list of signals, inputs
    first, then units in evaluation order, which is also the key order of
    the recorded rows.
    """
    stimuli.check_against(net)
    order = net.topological_units()
    cyclic = order is None
    if cyclic:
        order = list(net.units)
    n_in = len(net.inputs)
    keys = net.inputs + tuple(u.id for u in order)
    position = {node: p for p, node in enumerate(keys)}
    plan = [
        (
            position[u.id],
            u.bias,
            tuple((position[src], w) for src, w in u.incoming),
            get_activation(u.activation).fn,
        )
        for u in order
    ]
    unit_keys = keys[n_in:]
    idle = [0.0] * len(plan)
    activity: dict[str, dict[str, float]] = {}
    induced: dict[str, dict[str, float]] = {}
    for sid in stimuli.ids:
        row = stimuli.values[sid]
        signals = [_clamp01(row[inp]) for inp in net.inputs] + idle
        if not cyclic:
            fields = []
            for p, total, synapses, fn in plan:
                for q, w in synapses:
                    total += w * signals[q]
                fields.append(total)
                signals[p] = fn(total)
        else:
            for _ in range(MAX_ITERATIONS):
                new = [fn(_field(b, syn, signals)) for _p, b, syn, fn in plan]
                delta = max(abs(y - s) for y, s in zip(new, signals[n_in:]))
                signals[n_in:] = new
                if delta < EPS_CMP:
                    break
            else:
                raise NonConvergenceError(sid, MAX_ITERATIONS, delta)
            # One settling pass so recorded pairs satisfy y = phi(u) exactly.
            fields = [_field(b, syn, signals) for _p, b, syn, _fn in plan]
            signals[n_in:] = [fn(u) for (_p, _b, _s, fn), u in zip(plan, fields)]
        activity[sid] = dict(zip(keys, signals))
        induced[sid] = dict(zip(unit_keys, fields))
    return ActivityTable(
        stimuli=stimuli.ids, activity=activity, induced_field=induced
    )


def build_fuzzy_interp(
    net: Network,
    stimuli: StimulusSet,
    table: ActivityTable | None = None,
) -> FuzzyInterpretation:
    """Stimuli as domain, one concept per node, membership = activity.

    Every stimulus id doubles as an individual name for itself, so
    assertion-style queries can address single stimuli.
    """
    if not stimuli.ids:
        raise InputError("cannot interpret a network over zero stimuli")
    if table is None:
        table = forward(net, stimuli)
    return FuzzyInterpretation(
        domain=stimuli.ids,
        concepts={
            node: {sid: table.activity[sid][node] for sid in stimuli.ids}
            for node in net.node_ids
        },
        individuals={sid: sid for sid in stimuli.ids},
    )


def build_cwm_interp(
    net: Network,
    stimuli: StimulusSet,
    threshold_mode: str = "nonzero",
) -> MultiprefModel:
    """Crisp model: threshold memberships, preferences by raw activity.

    ``threshold_mode`` "nonzero" counts any positive activity as
    membership; "half" requires activity above 0.5.  Preferences order
    member stimuli by activity (higher first); non-members share the
    bottom spot via weight -inf.  The designated units combine into the
    Pareto global preference.
    """
    if threshold_mode not in ("nonzero", "half"):
        raise InputError("threshold_mode must be 'nonzero' or 'half'")
    if not stimuli.ids:
        raise InputError("cannot interpret a network over zero stimuli")
    activity = forward(net, stimuli).activity

    def member(value: float) -> bool:
        return value != 0.0 if threshold_mode == "nonzero" else value > 0.5

    concepts = {
        node: {
            sid: 1.0
            for sid in stimuli.ids
            if member(activity[sid][node])
        }
        for node in net.node_ids
    }
    interp = FuzzyInterpretation(
        domain=stimuli.ids,
        concepts=concepts,
        individuals={sid: sid for sid in stimuli.ids},
    )
    prefs: dict[str, ConceptPreference] = {}
    for cid in net.c_units:
        weights = {
            sid: activity[sid][cid]
            if member(activity[sid][cid])
            else NEG_INF
            for sid in stimuli.ids
        }
        prefs[cid] = ConceptPreference(cid, weights)
    return MultiprefModel(interp=interp, preferences=prefs)


# ---------------------------------------------------------------------------
# KB extraction and verification


def extract_kb(net: Network) -> WeightedKB:
    """Read each designated unit as a weighted defeasible block.

    The bias contributes a leading ``T(C_k) [= Top @ bias`` default when
    nonzero; synapses follow in listed order.  Summing the block with
    degree-weighted fuzzy weights then replays the induced-field sum
    term for term.
    """
    units = {u.id: u for u in net.units}
    names = {node: Name(node) for node in net.node_ids}
    blocks: dict[str, tuple[DefeasibleInclusion, ...]] = {}
    for cid in net.c_units:
        unit = units[cid]
        block: list[DefeasibleInclusion] = []
        if unit.bias != 0.0:
            block.append(DefeasibleInclusion(cid, TOP, unit.bias))
        for src, w in unit.incoming:
            block.append(DefeasibleInclusion(cid, names[src], w))
        blocks[cid] = tuple(block)
    return WeightedKB(distinguished=net.c_units, defeasible=blocks)


class VerificationReport(Record):
    """Outcome of checking the activity/weight identity plus coherence."""

    _fields = (
        "kind", "ok", "weight_identity_ok", "max_weight_error", "gated_pairs",
        "checked_pairs", "coherence",
    )

    def __init__(
        self,
        kind: str,  # "strict" or "weak"
        ok: bool,
        weight_identity_ok: bool,
        max_weight_error: float,
        gated_pairs: int,
        checked_pairs: int,
        coherence: CoherenceReport,
    ) -> None:
        self.kind = kind
        self.ok = ok
        self.weight_identity_ok = weight_identity_ok
        self.max_weight_error = max_weight_error
        self.gated_pairs = gated_pairs
        self.checked_pairs = checked_pairs
        self.coherence = coherence

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "weight_identity_ok": self.weight_identity_ok,
            "max_weight_error": self.max_weight_error,
            "gated_pairs": self.gated_pairs,
            "checked_pairs": self.checked_pairs,
            "coherence": self.coherence.to_json(),
        }


def _verify(net: Network, stimuli: StimulusSet, kind: str) -> VerificationReport:
    table = forward(net, stimuli)
    interp = build_fuzzy_interp(net, stimuli, table)
    kb = extract_kb(net)
    model = build_preferences(kb, interp, ZADEH)
    max_err = 0.0
    gated = 0
    checked = 0
    identity_ok = True
    for cid in kb.distinguished:
        weights = model.preferences[cid].weights
        for sid in stimuli.ids:
            w = weights[sid]
            if interp.concepts[cid][sid] == 0.0:
                # Zero activity turns the weight into -inf by construction;
                # the field comparison applies only where the gate passes.
                gated += 1
                if w != NEG_INF:
                    identity_ok = False
                continue
            checked += 1
            u = table.u(sid, cid)
            # Equal infinities agree although inf - inf is NaN; a NaN error fails.
            err = 0.0 if w == u else abs(w - u)
            if err > max_err:
                max_err = err
            if not err <= EPS_CMP:
                identity_ok = False
    report = coherence_report(model)
    coh_ok = report.coherent if kind == "strict" else report.weakly_coherent
    return VerificationReport(
        kind=kind,
        ok=identity_ok and coh_ok,
        weight_identity_ok=identity_ok,
        max_weight_error=max_err,
        gated_pairs=gated,
        checked_pairs=checked,
        coherence=report,
    )


def _require_flags(net: Network, kind: str) -> None:
    if kind == "strict":
        offenders = [
            u.id
            for u in net.units
            if not (
                ACTIVATIONS[u.activation].strictly_increasing
                and ACTIVATIONS[u.activation].range_in_unit_halfopen
            )
        ]
        needed = "strictly increasing activations with range inside (0, 1]"
    else:
        offenders = [
            u.id for u in net.units if not ACTIVATIONS[u.activation].nondecreasing
        ]
        needed = "monotone non-decreasing activations"
    if offenders:
        raise ActivationPreconditionError(
            f"{kind} coherence verification needs {needed};"
            f" offending units: {', '.join(offenders)}",
            offenders,
        )


def verify_strict_coherence(net: Network, stimuli: StimulusSet) -> VerificationReport:
    """Extracted KB on the activity interpretation must be fully coherent.

    Requires every activation strictly increasing with range in (0, 1].
    Also asserts the block-sum weight equals the recorded induced field
    within ``EPS_CMP`` at every designated unit and stimulus.
    """
    _require_flags(net, "strict")
    return _verify(net, stimuli, "strict")


def verify_weak_coherence(net: Network, stimuli: StimulusSet) -> VerificationReport:
    """Extracted KB on the activity interpretation must be weakly coherent.

    Requires every activation monotone non-decreasing.  The weight/field
    identity is asserted wherever the activity is positive; zero-activity
    pairs are counted as gated.
    """
    _require_flags(net, "weak")
    return _verify(net, stimuli, "weak")


# ---------------------------------------------------------------------------
# JSON interface


def network_from_json(obj: object) -> Network:
    doc = jsonin.obj(obj, (), ("units",), ("inputs", "C"))
    units = []
    for i, entry in enumerate(jsonin.array(doc["units"], ("units",))):
        entry = jsonin.obj(entry, ("units", i), ("id",), ("activation", "bias", "in"))
        activation = entry.get("activation", "sigmoid")
        synapses = jsonin.array(
            entry.get("in", []), ("units", i, "in"), (jsonin.string, jsonin.number)
        )
        units.append(
            Unit(
                id=jsonin.string(entry["id"], ("units", i, "id")),
                activation=jsonin.string(activation, ("units", i, "activation")),
                bias=jsonin.number(entry.get("bias", 0.0), ("units", i, "bias")),
                incoming=tuple(synapses),
            )
        )
    return Network(
        inputs=tuple(jsonin.array(doc.get("inputs", []), ("inputs",), jsonin.string)),
        units=tuple(units),
        c_units=tuple(jsonin.array(doc.get("C", []), ("C",), jsonin.string)),
    )


def load_network(path: str | Path) -> Network:
    return jsonin.load(path, network_from_json)


def stimuli_from_json(obj: object) -> StimulusSet:
    doc = jsonin.obj(obj, (), ("stimuli",), ())
    ids = []
    values = {}
    for i, entry in enumerate(jsonin.array(doc["stimuli"], ("stimuli",))):
        entry = jsonin.obj(entry, ("stimuli", i), ("id",), ("values",))
        sid = jsonin.string(entry["id"], ("stimuli", i, "id"))
        ids.append(sid)
        values[sid] = jsonin.obj(
            entry.get("values", {}), ("stimuli", i, "values"), of=jsonin.number
        )
    return StimulusSet(ids=tuple(ids), values=values)


def load_stimuli(path: str | Path) -> StimulusSet:
    return jsonin.load(path, stimuli_from_json)
