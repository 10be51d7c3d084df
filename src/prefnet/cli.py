"""Command line front end.

Subcommands: ``validate``, ``check``, ``entail``, ``mlp forward``,
``mlp model``, ``mlp extract-kb``, ``mlp verify``, ``prob``.  One table
holds them, with their help, arguments and handler; a call builds the
parser of the command it runs only (every command's when ``argv`` names
none), so usage, help and errors read as with the whole tree.

Output goes to stdout as JSON (``mlp extract-kb`` emits KB text) or to
``--out``; a NaN or infinite number in it is an error naming its JSON
path.  Exit codes: 0 clean, 1 diagnostics or a failed verification, 2 usage
errors, bad input (any :class:`PrefnetError`) or IO errors.  Any other
exception is a bug and shows its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .errors import InputError, ParseError, PrefnetError
from .fuzzy import (
    EPS_CMP,
    FAMILIES,
    ZADEH,
    check_axiom,
    get_family,
    interpretation_to_json,
    load_interpretation,
)
from .jsonin import read_text, where
from .kb import Diagnostic, load_kb, parse_kb, serialize_kb, validate_kb
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
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        path = _non_finite(obj, ())
        if path is None:
            raise
        raise InputError(f"{where(path)}: not a finite number") from None
    _emit(text, out)


def _non_finite(value: object, path: tuple) -> tuple | None:
    """The JSON path of the first NaN or infinite float in ``value``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite(item, (*path, key))
        if found is not None:
            return found
    return None


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
        diag = Diagnostic("error", e.message, e.line, e.col)
        _emit_json({"diagnostics": [diag.to_json()]}, args.out)
        return 1
    diags = validate_kb(kb)
    _emit_json({"diagnostics": [d.to_json() for d in diags]}, args.out)
    return 1 if diags else 0


def _cmd_check(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    interp = load_interpretation(args.interp)
    axiom = parse_query_axiom(args.axiom, _query_signature(kb.signature(), interp))
    mode = args.mode
    if mode == "auto":
        mode = "crisp" if interp.is_crisp else "fuzzy"
    if mode == "crisp" and not interp.is_crisp:
        return _fail("the interpretation has proper degrees; crisp mode not possible")
    crisp = mode == "crisp"
    # Crisp mode has checked above that the interpretation is two-valued, where
    # every family gives the same degrees, so it ignores --logic.
    family = ZADEH if crisp else get_family(args.logic)
    details: dict = {"mode": mode, "is_model": is_fuzzy_model(kb, interp, family)}
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


def _args_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument("kb")


def _args_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True)
    p.add_argument("--interp", required=True, help="interpretation JSON file")
    p.add_argument("--axiom", required=True, help="axiom text, e.g. 'T(C) [= D'")
    p.add_argument("--mode", choices=["auto", "crisp", "fuzzy"], default="auto")
    p.add_argument(
        "--typ-fuzzy-sem",
        choices=["implication", "containment"],
        default="implication",
        help="semantics of degree-bounded typicality axioms in fuzzy mode;"
        " ignored in crisp mode",
    )
    p.add_argument(
        "--logic",
        choices=sorted(FAMILIES),
        default="zadeh",
        help="truth-function family for fuzzy evaluation; ignored in crisp mode",
    )


def _args_entail(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kb", required=True)
    p.add_argument("--query", required=True, help="query text 'T(C) [= D'")


def _args_net(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", required=True)


def _args_net_stimuli(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", required=True)
    p.add_argument("--stimuli", required=True)


def _args_mlp_model(p: argparse.ArgumentParser) -> None:
    _args_net_stimuli(p)
    p.add_argument("--kind", choices=["fuzzy", "crisp"], default="fuzzy")
    p.add_argument(
        "--threshold-mode",
        choices=["nonzero", "half"],
        default="nonzero",
        help="crisp membership rule",
    )


def _args_mlp_verify(p: argparse.ArgumentParser) -> None:
    _args_net_stimuli(p)
    p.add_argument("--coherence", choices=["strict", "weak"], default="strict")


def _args_prob(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interp", required=True)
    p.add_argument("--dist", default=None, help="distribution JSON (default: uniform)")
    p.add_argument("--event", default=None, help="concept text")
    p.add_argument("--cc", default=None, help="constraint text '(C | D)[l,u]'")
    p.add_argument("--subsethood", nargs=2, default=None, metavar=("LEFT", "RIGHT"))
    p.add_argument("--queries", default=None, help=".wkb file with cc/passert lines")


# Command name -> (help, function adding its arguments, handler).  A table in
# place of the handler holds subcommands, parsed into ``<name>_command``.
_MLP_COMMANDS = {
    "forward": ("activities and induced fields", _args_net_stimuli, _cmd_mlp_forward),
    "model": ("interpretation from activities", _args_mlp_model, _cmd_mlp_model),
    "extract-kb": ("designated units as a weighted KB", _args_net, _cmd_mlp_extract),
    "verify": ("coherence of the extracted model", _args_mlp_verify, _cmd_mlp_verify),
}
_COMMANDS = {
    "validate": ("parse and validate a .wkb file", _args_validate, _cmd_validate),
    "check": ("model-check one axiom", _args_check, _cmd_check),
    "entail": (
        "role-free entailment in the KB's canonical model", _args_entail, _cmd_entail
    ),
    "mlp": ("network commands", None, _MLP_COMMANDS),
    "prob": ("probabilities of fuzzy events", _args_prob, _cmd_prob),
}


def _add_commands(
    parser: argparse.ArgumentParser, table: dict, dest: str, argv: list[str]
) -> None:
    """Add the command ``argv`` names first, or every command in ``table``
    when it names none."""
    if argv and argv[0] in table:
        names, rest = argv[:1], argv[1:]
        # Usage lines list every command, also when one parser is built.
        metavar = "{" + ",".join(table) + "}"
    else:
        # argparse derives the same list, and names the argument by ``dest``
        # in its errors.
        names, rest, metavar = list(table), [], None
    subs = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, run = table[name]
        p = subs.add_parser(name, help=help_text)
        if isinstance(run, dict):
            _add_commands(p, run, f"{name}_command", rest)
            continue
        add_arguments(p)
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(handler=run)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: below the root, only the command and
    subcommand ``argv`` names, or all of them where it names none."""
    parser = argparse.ArgumentParser(
        prog="prefnet",
        description=(
            "Preference models over weighted defeasible knowledge bases,"
            " fuzzy semantics, and multilayer perceptrons"
        ),
    )
    _add_commands(parser, _COMMANDS, "command", argv or [])
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except (PrefnetError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
