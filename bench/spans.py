"""Per-layer spans and counters for the traced run.

``Tracer`` wraps prefnet's public functions in every module namespace that
binds them, including names re-bound by ``from .x import y``, so calls
between modules are seen too.  A spanned function records
``(name, start, end, parent, op)`` in memory; a counted one (the
per-element hot paths ``eval_concept``, ``crisp_weight`` and
``fuzzy_weight``) only bumps a counter.  ``install`` and ``uninstall``
toggle the wrappers, so one process can interleave traced and untraced
ops.  ``report`` turns the spans into self times per layer, scaled like
the op's end-to-end time (see ``run.py``).
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "concepts", "fuzzy", "kb", "mlp", "preferences", "probability")

# Spanned function -> the per-layer metric its self time adds to.
SPANNED = {
    "cli.main": "cli.self_ms",
    "kb.load_kb": "kb.parse_ms",
    "kb.parse_kb": "kb.parse_ms",
    "concepts.parse_query_axiom": "concepts.parse_ms",
    "concepts.parse_concept": "concepts.parse_ms",
    "fuzzy.load_interpretation": "fuzzy.load_ms",
    "fuzzy.interpretation_from_json": "fuzzy.load_ms",
    "fuzzy.check_axiom": "fuzzy.check_ms",
    "fuzzy.eval_inclusion": "fuzzy.check_ms",
    "preferences.entails_rolefree": "preferences.entail_self_ms",
    "preferences.consistent_valuations": "preferences.enumerate_ms",
    "preferences.build_preferences": "preferences.build_ms",
    "preferences.typicality_global": "preferences.typicality_ms",
    "preferences.typicality_induced": "preferences.typicality_ms",
    "preferences.check_typicality_axiom": "preferences.typicality_ms",
    "preferences.is_crisp_model": "preferences.model_check_ms",
    "preferences.is_fuzzy_model": "preferences.model_check_ms",
    "preferences.coherence_report": "preferences.coherence_ms",
    "mlp.load_network": "mlp.load_ms",
    "mlp.network_from_json": "mlp.load_ms",
    "mlp.load_stimuli": "mlp.load_ms",
    "mlp.stimuli_from_json": "mlp.load_ms",
    "mlp.forward": "mlp.forward_ms",
    "mlp.build_fuzzy_interp": "mlp.build_interp_ms",
    "mlp.build_cwm_interp": "mlp.build_interp_ms",
    "mlp.extract_kb": "mlp.extract_ms",
    "mlp.verify_strict_coherence": "mlp.verify_self_ms",
    "mlp.verify_weak_coherence": "mlp.verify_self_ms",
    "probability.fuzzy_event_prob": "probability.event_ms",
    "probability.conditional_prob": "probability.event_ms",
    "probability.check_conditional": "probability.event_ms",
    "probability.subsethood": "probability.event_ms",
    "probability.nominal_conditional": "probability.event_ms",
}

# Counted function -> counter.
COUNTED = {
    "fuzzy.eval_concept": "fuzzy.eval_calls",
    "preferences.crisp_weight": "preferences.weight_calls",
    "preferences.fuzzy_weight": "preferences.weight_calls",
}

# Metric -> (unit, what it is), in report order.
PER_LAYER = {
    "cli.self_ms": ("ms/op", "cli.main minus its children: argparse and JSON in/out"),
    "kb.parse_ms": ("ms/op", "load_kb, parse_kb"),
    "concepts.parse_ms": ("ms/op", "parse_query_axiom, parse_concept"),
    "fuzzy.load_ms": ("ms/op", "load_interpretation with its validation"),
    "fuzzy.eval_calls": ("count/op", "eval_concept calls, recursion included"),
    "fuzzy.check_ms": ("ms/op", "check_axiom, eval_inclusion"),
    "preferences.entail_self_ms": ("ms/op", "entails_rolefree minus children"),
    "preferences.enumerate_ms": ("ms/op", "consistent_valuations"),
    "preferences.assignments_enumerated": ("count/op", "2^names per enumeration"),
    "preferences.assignments_kept": ("count/op", "assignments the strict TBox keeps"),
    "preferences.kept_ratio": ("ratio", "assignments kept / enumerated"),
    "preferences.build_ms": ("ms/op", "build_preferences, its weight calls included"),
    "preferences.weight_calls": ("count/op", "crisp_weight plus fuzzy_weight calls"),
    "preferences.domain_size": ("count", "domain of the built model, mean per build"),
    "preferences.distinct_weight_vectors": ("count", "distinct weight vectors, mean per build"),
    "preferences.typicality_ms": ("ms/op", "typicality_global/induced, check_typicality_axiom"),
    "preferences.typical_set_size": ("count", "typical set, mean per typicality call"),
    "preferences.model_check_ms": ("ms/op", "is_crisp_model, is_fuzzy_model"),
    "preferences.coherence_ms": ("ms/op", "coherence_report"),
    "mlp.load_ms": ("ms/op", "load_network, load_stimuli"),
    "mlp.forward_ms": ("ms/op", "forward"),
    "mlp.synapse_evals": ("count/op", "computed: stimuli x synapses per forward call"),
    "mlp.build_interp_ms": ("ms/op", "build_fuzzy_interp, build_cwm_interp"),
    "mlp.extract_ms": ("ms/op", "extract_kb"),
    "mlp.verify_self_ms": ("ms/op", "verify_*_coherence minus children"),
    "mlp.verify_over_forward": ("ratio", "verify time / its own forward time (traced ops;"
                                          " the eval_concept counter inflates verify)"),
    "mlp.verify_forward_base_ms": ("ms", "the forward time inside one verify, the ratio's base"),
    "probability.event_ms": ("ms/op", "fuzzy_event_prob, conditional_prob, subsethood, ..."),
    "trace.untraced_ops_per_s": ("1/s", "ops/s of the untraced half of the run"),
    "trace.traced_ops_per_s": ("1/s", "ops/s of the traced half of the run"),
    "trace.overhead_pct": ("%", "ops/s lost to tracing"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.models: list = []
        self.scale: dict[int, float] = {}  # op -> its time scale factor
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module("prefnet")]
        modules += [importlib.import_module(f"prefnet.{m}") for m in MODULES]
        wrappers = {}
        for qualname in list(SPANNED) + list(COUNTED):
            mod, fn = qualname.split(".")
            orig = getattr(importlib.import_module(f"prefnet.{mod}"), fn)
            wrappers[id(orig)] = (orig, self._wrap(qualname, orig))
        for module in modules:
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))

    def install(self, op: int) -> None:
        self._op = op
        self.ops += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self, scale: float) -> None:
        self.scale[self._op] = scale
        for module, attr, orig, _ in self._patches:
            setattr(module, attr, orig)
        # Sizes read from returned models are taken here, outside every span.
        for model in self.models:
            self.sizes["domain_size"].append(len(model.interp.domain))
            vectors = {
                tuple(model.preferences[c].weights[x] for c in model.concepts)
                for x in model.interp.domain
            }
            self.sizes["distinct_weight_vectors"].append(len(vectors))
        self.models.clear()

    def _wrap(self, qualname: str, fn):
        if qualname in COUNTED:
            counts, key = self.counts, COUNTED[qualname]

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (qualname, start, end, parent, self._op)
            self._observe(qualname, args, result)
            return result

        return spanned

    def _observe(self, qualname: str, args: tuple, result) -> None:
        if qualname == "preferences.consistent_valuations":
            self.counts["preferences.assignments_enumerated"] += 2 ** len(args[1])
            self.counts["preferences.assignments_kept"] += len(result)
        elif qualname == "preferences.build_preferences":
            self.models.append(result)
        elif qualname in ("preferences.typicality_global", "preferences.typicality_induced"):
            self.sizes["typical_set_size"].append(len(result))
        elif qualname == "mlp.forward":
            net, stimuli = args[0], args[1]
            synapses = sum(len(u.incoming) for u in net.units)
            self.counts["mlp.synapse_evals"] += len(stimuli.ids) * synapses

    def report(self) -> dict[str, float]:
        """Per-layer metrics, averaged over the traced ops."""
        ops = max(self.ops, 1)
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += (end - start) * self.scale[op]
        out = {name: 0.0 for name in PER_LAYER}
        verify_total = forward_in_verify = 0.0
        verify_calls = 0
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            took = (end - start) * self.scale[op]
            out[SPANNED[name]] += (took - child_time[k]) * 1e3 / ops
            if name.startswith("mlp.verify_"):
                verify_total += took
                verify_calls += 1
            if name == "mlp.forward" and parent >= 0 and \
                    self.spans[parent][0].startswith("mlp.verify_"):
                forward_in_verify += took
        for key, value in self.counts.items():
            out[key] = value / ops
        enumerated = self.counts["preferences.assignments_enumerated"]
        if enumerated:
            out["preferences.kept_ratio"] = self.counts["preferences.assignments_kept"] / enumerated
        for key, values in self.sizes.items():
            out[f"preferences.{key}"] = sum(values) / len(values)
        if forward_in_verify:
            out["mlp.verify_over_forward"] = verify_total / forward_in_verify
            out["mlp.verify_forward_base_ms"] = forward_in_verify * 1e3 / verify_calls
        return out
