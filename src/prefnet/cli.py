"""Command line front end.

Subcommands: ``validate``, ``check``, ``entail``, ``mlp forward``,
``mlp model``, ``mlp extract-kb``, ``mlp verify``, ``prob``.  Output goes
to stdout as JSON (``mlp extract-kb`` emits KB text) or to ``--out``.
Exit codes: 0 clean, 1 diagnostics or a failed verification, 2 usage
errors, bad input (any :class:`PrefnetError`) or IO errors.  Any other
exception is a bug and shows its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .concepts import (
    ConditionalConstraint,
    FuzzyInclusion,
    Signature,
    StrictInclusion,
    Typ,
    _Parser,
    _tokenize,
    axiom_to_text,
    parse_concept,
    parse_query_axiom,
)
from .errors import ParseError, PrefnetError
from .fuzzy import (
    EPS_CMP,
    FAMILIES,
    ZADEH,
    check_axiom,
    get_family,
    interpretation_to_json,
    load_interpretation,
)
from .jsonin import read_text
from .kb import load_kb, parse_kb, serialize_kb, validate_kb
from .mlp import (
    build_cwm_interp,
    build_fuzzy_interp,
    extract_kb,
    forward,
    load_network,
    load_stimuli,
    verify_strict_coherence,
    verify_weak_coherence,
)
from .preferences import (
    build_preferences,
    check_typicality_axiom,
    counter_model,
    is_fuzzy_model,
    typicality_global,
    typicality_induced,
)
from .probability import (
    Distribution,
    FuzzyProbInterp,
    check_conditional,
    conditional_prob,
    fuzzy_event_prob,
    load_distribution,
    nominal_conditional,
    subsethood,
)

__all__ = ["main"]


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj: object, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=False), out)


def _fail(message: str) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return 2


def _query_signature(sig: Signature, interp) -> Signature:
    """``sig`` widened by the names the interpretation declares."""
    return Signature(
        concept_names=sig.concept_names | frozenset(interp.concepts),
        role_names=sig.role_names | frozenset(interp.roles),
        individual_names=sig.individual_names | frozenset(interp.individuals),
    )


# ---------------------------------------------------------------------------
# Handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        kb = parse_kb(read_text(args.kb))
    except ParseError as e:
        _emit_json(
            {
                "diagnostics": [
                    {
                        "level": "error",
                        "message": e.message,
                        "line": e.line,
                        "col": e.col,
                    }
                ]
            },
            args.out,
        )
        return 1
    diags = validate_kb(kb)
    _emit_json({"diagnostics": [d.to_json() for d in diags]}, args.out)
    return 1 if diags else 0


def _cmd_check(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    interp = load_interpretation(args.interp)
    family = get_family(args.logic)
    axiom = parse_query_axiom(args.axiom, _query_signature(kb.signature(), interp))
    mode = args.mode
    if mode == "auto":
        mode = "crisp" if interp.is_crisp else "fuzzy"
    if mode == "crisp" and not interp.is_crisp:
        return _fail("the interpretation has proper degrees; crisp mode not possible")
    crisp = mode == "crisp"
    # Crisp mode has checked above that the interpretation is two-valued.
    details: dict = {
        "mode": mode,
        "is_model": is_fuzzy_model(kb, interp, ZADEH if crisp else family),
    }
    if isinstance(axiom, (StrictInclusion, FuzzyInclusion)) and isinstance(
        axiom.left, Typ
    ):
        model = build_preferences(kb, interp, None if crisp else family)
        subject = axiom.left.arg
        details["typicality_set"] = (
            typicality_global(model, subject)
            if crisp
            else typicality_induced(interp, family, subject)
        )
        holds = check_typicality_axiom(
            model, axiom, fuzzy_semantics=args.typ_fuzzy_sem
        )
    else:
        holds = check_axiom(interp, family, axiom)
    _emit_json(
        {"axiom": axiom_to_text(axiom), "holds": holds, "details": details}, args.out
    )
    return 0


def _cmd_entail(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    query = parse_query_axiom(args.query)
    if not isinstance(query, StrictInclusion) or not isinstance(query.left, Typ):
        return _fail("the query must have the form 'T(C) [= D'")
    witness = counter_model(kb, query.left.arg, query.right)
    result: dict = {"query": axiom_to_text(query), "entailed": witness is None}
    if witness is not None:
        result["counter_model"] = witness
    _emit_json(result, args.out)
    return 0


def _cmd_mlp_forward(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    stimuli = load_stimuli(args.stimuli)
    table = forward(net, stimuli)
    _emit_json(table.to_json(), args.out)
    return 0


def _cmd_mlp_model(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    stimuli = load_stimuli(args.stimuli)
    if args.kind == "fuzzy":
        interp = build_fuzzy_interp(net, stimuli)
    else:
        interp = build_cwm_interp(net, stimuli, args.threshold_mode).interp
    _emit_json(interpretation_to_json(interp), args.out)
    return 0


def _cmd_mlp_extract(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    kb = extract_kb(net)
    _emit(serialize_kb(kb), args.out)
    return 0


def _cmd_mlp_verify(args: argparse.Namespace) -> int:
    net = load_network(args.net)
    stimuli = load_stimuli(args.stimuli)
    verify = (
        verify_strict_coherence if args.coherence == "strict" else verify_weak_coherence
    )
    report = verify(net, stimuli)
    _emit_json(report.to_json(), args.out)
    return 0 if report.ok else 1


def _cmd_prob(args: argparse.Namespace) -> int:
    interp = load_interpretation(args.interp)
    if args.dist:
        dist = load_distribution(args.dist)
    else:
        dist = Distribution.uniform(interp.domain)
    fpi = FuzzyProbInterp(interp=interp, dist=dist)
    sig = _query_signature(Signature(), interp)
    results: list[dict] = []
    if args.event:
        concept = parse_concept(args.event, sig)
        results.append(
            {
                "event": str(concept),
                "probability": fuzzy_event_prob(fpi, concept),
            }
        )
    if args.cc:
        parser = _Parser(_tokenize(args.cc), sig)
        constraint = parser.parse_axiom((ConditionalConstraint,))
        ratio = conditional_prob(fpi, constraint.left, constraint.given)
        results.append(
            {
                "constraint": axiom_to_text(constraint),
                "ratio": ratio,
                "holds": check_conditional(
                    fpi,
                    constraint.left,
                    constraint.given,
                    constraint.lower,
                    constraint.upper,
                ),
            }
        )
    if args.subsethood:
        left = parse_concept(args.subsethood[0], sig)
        right = parse_concept(args.subsethood[1], sig)
        results.append(
            {
                "left": str(left),
                "right": str(right),
                "subsethood": subsethood(interp, left, right),
            }
        )
    if args.queries:
        qkb = load_kb(args.queries, keywords=("cc", "passert"))
        for ax in qkb.extra:
            entry: dict = {"axiom": axiom_to_text(ax)}
            if isinstance(ax, ConditionalConstraint):
                entry["ratio"] = conditional_prob(fpi, ax.left, ax.given)
                entry["holds"] = check_conditional(
                    fpi, ax.left, ax.given, ax.lower, ax.upper
                )
            else:
                value = nominal_conditional(fpi, ax.concept, ax.individual)
                entry["value"] = value
                entry["holds"] = abs(value - ax.prob) <= EPS_CMP
            results.append(entry)
    if not results:
        return _fail("nothing to evaluate: pass --event, --cc, --subsethood, or --queries")
    _emit_json({"results": results}, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefnet",
        description=(
            "Preference models over weighted defeasible knowledge bases,"
            " fuzzy semantics, and multilayer perceptrons"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="parse and validate a .wkb file")
    p.add_argument("kb")
    _add_out(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("check", help="model-check one axiom")
    p.add_argument("--kb", required=True)
    p.add_argument("--interp", required=True, help="interpretation JSON file")
    p.add_argument("--axiom", required=True, help="axiom text, e.g. 'T(C) [= D'")
    p.add_argument("--mode", choices=["auto", "crisp", "fuzzy"], default="auto")
    p.add_argument(
        "--typ-fuzzy-sem",
        choices=["implication", "containment"],
        default="implication",
        help="semantics of degree-bounded typicality axioms in fuzzy mode",
    )
    p.add_argument(
        "--logic",
        choices=sorted(FAMILIES),
        default="zadeh",
        help="truth-function family for fuzzy evaluation",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser(
        "entail", help="role-free entailment in the KB's canonical model"
    )
    p.add_argument("--kb", required=True)
    p.add_argument("--query", required=True, help="query text 'T(C) [= D'")
    _add_out(p)
    p.set_defaults(handler=_cmd_entail)

    mlp = subs.add_parser("mlp", help="network commands")
    mlp_subs = mlp.add_subparsers(dest="mlp_command", required=True)

    p = mlp_subs.add_parser("forward", help="activities and induced fields")
    p.add_argument("--net", required=True)
    p.add_argument("--stimuli", required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_mlp_forward)

    p = mlp_subs.add_parser("model", help="interpretation from activities")
    p.add_argument("--net", required=True)
    p.add_argument("--stimuli", required=True)
    p.add_argument("--kind", choices=["fuzzy", "crisp"], default="fuzzy")
    p.add_argument(
        "--threshold-mode",
        choices=["nonzero", "half"],
        default="nonzero",
        help="crisp membership rule",
    )
    _add_out(p)
    p.set_defaults(handler=_cmd_mlp_model)

    p = mlp_subs.add_parser("extract-kb", help="designated units as a weighted KB")
    p.add_argument("--net", required=True)
    _add_out(p)
    p.set_defaults(handler=_cmd_mlp_extract)

    p = mlp_subs.add_parser("verify", help="coherence of the extracted model")
    p.add_argument("--net", required=True)
    p.add_argument("--stimuli", required=True)
    p.add_argument("--coherence", choices=["strict", "weak"], default="strict")
    _add_out(p)
    p.set_defaults(handler=_cmd_mlp_verify)

    p = subs.add_parser("prob", help="probabilities of fuzzy events")
    p.add_argument("--interp", required=True)
    p.add_argument("--dist", default=None, help="distribution JSON (default: uniform)")
    p.add_argument("--event", default=None, help="concept text")
    p.add_argument("--cc", default=None, help="constraint text '(C | D)[l,u]'")
    p.add_argument("--subsethood", nargs=2, default=None, metavar=("LEFT", "RIGHT"))
    p.add_argument("--queries", default=None, help=".wkb file with cc/passert lines")
    _add_out(p)
    p.set_defaults(handler=_cmd_prob)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PrefnetError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
