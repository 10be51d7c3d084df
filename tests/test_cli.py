import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from prefnet import cli, parse_kb
from prefnet.cli import main
from prefnet.concepts import MAX_DEPTH


@pytest.fixture
def kb_file(tmp_path, employee_kb_text):
    path = tmp_path / "emp.wkb"
    path.write_text(employee_kb_text, encoding="utf-8")
    return str(path)


@pytest.fixture
def interp_file(tmp_path):
    blob = {
        "domain": ["tom", "bob", "ssn1", "ssn2", "class1"],
        "concepts": {
            "Employee": {"tom": 1.0, "bob": 1.0},
            "Student": {},
            "PhdStudent": {},
            "Adult": {"tom": 1.0, "bob": 1.0},
            "Young": {"bob": 1.0},
        },
        "roles": {
            "has_SSN": [["tom", "ssn1", 1.0], ["bob", "ssn2", 1.0]],
            "has_boss": [["bob", "tom", 1.0]],
            "has_classes": [["tom", "class1", 1.0]],
            "hasScholarship": [],
        },
        "individuals": {"tom": "tom", "bob": "bob"},
    }
    path = tmp_path / "interp.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    return str(path)


@pytest.fixture
def net_file(tmp_path):
    blob = {
        "inputs": ["i1", "i2"],
        "units": [
            {
                "id": "h1",
                "activation": "sigmoid",
                "bias": 0.5,
                "in": [["i1", 1.0], ["i2", -2.0]],
            },
            {
                "id": "o",
                "activation": "sigmoid",
                "bias": -0.2,
                "in": [["h1", 2.0]],
            },
        ],
        "C": ["h1", "o"],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    return str(path)


@pytest.fixture
def stim_file(tmp_path):
    blob = {
        "stimuli": [
            {"id": "s1", "values": {"i1": 0.9, "i2": 0.1}},
            {"id": "s2", "values": {"i1": 0.2, "i2": 0.8}},
        ]
    }
    path = tmp_path / "stim.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_clean(capsys, kb_file):
    code, out, _ = run(capsys, "validate", kb_file)
    assert code == 0
    assert json.loads(out) == {"diagnostics": []}


def test_validate_diagnostics_exit_1(capsys, tmp_path):
    path = tmp_path / "warn.wkb"
    path.write_text(
        "distinguished: A\ndef(A): T(A) [= not B @ 1\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    blob = json.loads(out)
    assert blob["diagnostics"]


def test_validate_malformed_exit_1_with_position(capsys, tmp_path):
    path = tmp_path / "bad.wkb"
    path.write_text("distinguished: A\ndef(A): T(A) [= @ 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    blob = json.loads(out)
    assert blob["diagnostics"][0]["line"] == 2
    assert blob["diagnostics"][0]["level"] == "error"


def test_validate_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.wkb"))
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# check / entail


def test_check_typicality_holds(capsys, kb_file, interp_file):
    code, out, _ = run(
        capsys,
        "check",
        "--kb",
        kb_file,
        "--interp",
        interp_file,
        "--axiom",
        "T(Employee) [= exists has_boss.Employee",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["holds"] is True
    assert blob["details"]["mode"] == "crisp"
    assert blob["details"]["is_model"] is True
    assert blob["details"]["typicality_set"] == ["bob"]


def test_check_plain_axiom(capsys, kb_file, interp_file):
    code, out, _ = run(
        capsys,
        "check",
        "--kb",
        kb_file,
        "--interp",
        interp_file,
        "--axiom",
        "Employee [= Adult",
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_load_failure_exit_2(capsys, kb_file, tmp_path):
    code, _, err = run(
        capsys,
        "check",
        "--kb",
        kb_file,
        "--interp",
        str(tmp_path / "missing.json"),
        "--axiom",
        "Employee [= Adult",
    )
    assert code == 2


def test_check_unknown_name_exit_2(capsys, kb_file, interp_file):
    code, _, err = run(
        capsys,
        "check",
        "--kb",
        kb_file,
        "--interp",
        interp_file,
        "--axiom",
        "Martian [= Adult",
    )
    assert code == 2
    assert "error" in json.loads(err)


def test_entail_reflexivity(capsys, tmp_path):
    path = tmp_path / "ref.wkb"
    path.write_text(
        "distinguished: A\ndef(A): T(A) [= B @ 1\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "entail", "--kb", str(path), "--query", "T(A) [= A")
    assert code == 0
    assert json.loads(out)["entailed"] is True


def test_entail_prints_a_counter_model(capsys, tmp_path):
    path = tmp_path / "birds.wkb"
    path.write_text(
        "distinguished: Bird\ndef(Bird): T(Bird) [= Fly @ 2\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "entail", "--kb", str(path), "--query", "T(Bird) [= not Fly")
    assert code == 0
    assert json.loads(out) == {
        "query": "T(Bird) [= not Fly",
        "entailed": False,
        "counter_model": {"Bird": True, "Fly": True},
    }
    code, out, _ = run(capsys, "entail", "--kb", str(path), "--query", "T(Bird) [= Fly")
    assert json.loads(out) == {"query": "T(Bird) [= Fly", "entailed": True}


def test_entail_fragment_error_exit_2(capsys, kb_file):
    code, _, err = run(
        capsys, "entail", "--kb", kb_file, "--query", "T(Employee) [= Adult"
    )
    assert code == 2
    assert "role" in json.loads(err)["error"]


def test_entail_rejects_statements_it_does_not_read(capsys, tmp_path):
    path = tmp_path / "fuzzy.wkb"
    path.write_text(
        "distinguished: A\ndef(A): T(A) [= B @ 1\ncc: (C | A)[1,1]\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "entail", "--kb", str(path), "--query", "T(A) [= B")
    assert code == 2
    assert out == ""
    assert "'cc:'" in json.loads(err)["error"]


@pytest.fixture
def small_files(tmp_path):
    """A one-default KB and a two-element interpretation with a role."""
    kb = tmp_path / "small.wkb"
    kb.write_text("distinguished: A\ndef(A): T(A) [= B @ 1\n", encoding="utf-8")
    interp = tmp_path / "small.json"
    interp.write_text(
        json.dumps(
            {
                "domain": ["x", "y"],
                "concepts": {"A": {"x": 1.0}, "B": {"x": 1.0, "y": 1.0}, "C": {}},
                "roles": {"r": [["x", "y", 1.0], ["y", "y", 1.0]]},
            }
        ),
        encoding="utf-8",
    )
    return str(kb), str(interp)


@pytest.mark.parametrize(
    "axiom, col",
    [
        ("T(A) and C [= B", 6),
        ("not T(A) [= B", 5),
        ("C or T(A) [= B", 6),
        ("(T(A)) [= B", 2),
        ("A [= T(B)", 6),
        ("T(T(A)) [= B", 3),
        ("T(A)(x)", 5),
    ],
)
def test_check_reads_t_only_where_a_query_inclusion_begins(capsys, small_files, axiom, col):
    kb, interp = small_files
    code, out, err = run(capsys, "check", "--kb", kb, "--interp", interp, "--axiom", axiom)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"line 1, col {col}: ")


@pytest.mark.parametrize("axiom", ["T(A) [= B", "T(A) [= B >= 0.5"])
def test_check_typicality_queries_still_hold(capsys, small_files, axiom):
    kb, interp = small_files
    code, out, _ = run(capsys, "check", "--kb", kb, "--interp", interp, "--axiom", axiom)
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_t_outside_a_query_or_def_body_is_a_parse_error(capsys, tmp_path, small_files):
    kb, interp = small_files
    code, out, err = run(capsys, "prob", "--interp", interp, "--event", "T(A)")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("line 1, col 1: T(...) may only begin")
    strict = tmp_path / "strict.wkb"
    strict.write_text("distinguished: A\nstrict: T(A) [= B\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--kb", str(strict), "--interp", interp,
                         "--axiom", "A [= B")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith("line 2, col 9: T(...) may only begin")


def _and_chain(name, links):
    return " and ".join([name] * (links + 1))


@pytest.mark.parametrize(
    "event, col",
    [
        ("(" * 200 + "A" + ")" * 200, MAX_DEPTH + 1),
        ("not " * 500 + "A", 4 * MAX_DEPTH + 1),
        (_and_chain("A", 600), 6 * MAX_DEPTH + 3),
    ],
    ids=["parentheses", "not", "and"],
)
def test_prob_rejects_concepts_past_the_depth_bound(capsys, small_files, event, col):
    _, interp = small_files
    code, out, err = run(capsys, "prob", "--interp", interp, "--event", event)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        f"line 1, col {col}: concept nested deeper than {MAX_DEPTH}"
    )


def test_entail_rejects_a_def_body_past_the_depth_bound(capsys, tmp_path):
    path = tmp_path / "deep.wkb"
    head = "def(A): T(A) [= "
    path.write_text(
        f"distinguished: A\n{head}{_and_chain('B', 1999)} @ 1\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "entail", "--kb", str(path), "--query", "T(A) [= B")
    assert (code, out) == (2, "")
    col = len(head) + 6 * MAX_DEPTH + 3
    assert json.loads(err)["error"].startswith(f"line 2, col {col}: concept nested deeper")


def test_concepts_at_the_depth_bound_still_evaluate(capsys, tmp_path, small_files):
    kb, interp = small_files
    parens = "(" * MAX_DEPTH + "A" + ")" * MAX_DEPTH
    for event in (parens, "not " * MAX_DEPTH + "A", _and_chain("A", MAX_DEPTH)):
        code, out, _ = run(capsys, "prob", "--interp", interp, "--event", event)
        assert code == 0
        assert json.loads(out)["results"][0]["probability"] == 0.5
    inner = "(" * (MAX_DEPTH - 1) + "A" + ")" * (MAX_DEPTH - 1)
    axiom = f"T({inner}) [= {'exists r.' * MAX_DEPTH}B"
    code, out, _ = run(capsys, "check", "--kb", kb, "--interp", interp, "--axiom", axiom)
    assert code == 0
    assert json.loads(out)["holds"] is True
    path = tmp_path / "bound.wkb"
    path.write_text(
        f"distinguished: A\ndef(A): T(A) [= {_and_chain('B', MAX_DEPTH)} @ 1\n",
        encoding="utf-8",
    )
    query = f"T({inner}) [= {'not ' * MAX_DEPTH}B"
    code, out, _ = run(capsys, "entail", "--kb", str(path), "--query", query)
    assert code == 0
    assert json.loads(out)["entailed"] is True


def test_entail_requires_typicality_query(capsys, tmp_path):
    path = tmp_path / "ref.wkb"
    path.write_text("distinguished: A\ndef(A): T(A) [= B @ 1\n", encoding="utf-8")
    code, _, err = run(capsys, "entail", "--kb", str(path), "--query", "A [= B")
    assert code == 2


# ---------------------------------------------------------------------------
# mlp


def test_mlp_forward_json(capsys, net_file, stim_file):
    code, out, _ = run(
        capsys, "mlp", "forward", "--net", net_file, "--stimuli", stim_file
    )
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"stimuli", "activity", "induced_field"}
    assert "h1" in blob["activity"]["s1"]


def test_mlp_model_kinds(capsys, net_file, stim_file):
    code, out, _ = run(
        capsys,
        "mlp",
        "model",
        "--net",
        net_file,
        "--stimuli",
        stim_file,
        "--kind",
        "fuzzy",
    )
    assert code == 0
    fuzzy = json.loads(out)
    assert 0.0 < fuzzy["concepts"]["o"]["s1"] < 1.0

    code, out, _ = run(
        capsys,
        "mlp",
        "model",
        "--net",
        net_file,
        "--stimuli",
        stim_file,
        "--kind",
        "crisp",
        "--threshold-mode",
        "half",
    )
    assert code == 0
    crisp = json.loads(out)
    assert crisp["concepts"]["o"]["s1"] == 1.0


def test_mlp_extract_kb_parses(capsys, net_file):
    code, out, _ = run(capsys, "mlp", "extract-kb", "--net", net_file)
    assert code == 0
    kb = parse_kb(out)
    assert kb.distinguished == ("h1", "o")
    assert len(kb.defaults_for("h1")) == 3  # bias + two synapses


def test_mlp_rejects_a_net_that_designates_a_unit_twice(capsys, tmp_path, net_file, stim_file):
    # Such a net used to print "distinguished: h1, h1", which validate rejects,
    # and made verify check every pair of the repeated unit twice.
    blob = json.loads(Path(net_file).read_text(encoding="utf-8"))
    blob["C"] = ["h1", "h1"]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    for argv in (("extract-kb",), ("verify", "--stimuli", stim_file)):
        code, out, err = run(capsys, "mlp", *argv, "--net", str(path))
        assert (code, out) == (2, "")
        assert "designated unit 'h1' is listed twice" in json.loads(err)["error"]


def test_mlp_verify_ok(capsys, net_file, stim_file):
    code, out, _ = run(
        capsys, "mlp", "verify", "--net", net_file, "--stimuli", stim_file
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["weight_identity_ok"] is True
    assert blob["coherence"]["coherent"] is True


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_mlp_rejects_non_finite_stimulus_values(capsys, tmp_path, net_file, value):
    blob = {"stimuli": [{"id": "s1", "values": {"i1": 0.5, "i2": value}}]}
    path = tmp_path / "stim.json"
    path.write_text(json.dumps(blob), encoding="utf-8")  # NaN / Infinity literals
    code, out, err = run(
        capsys, "mlp", "forward", "--net", net_file, "--stimuli", str(path)
    )
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert "'s1'" in message and "'i2'" in message and "non-finite" in message


def test_mlp_output_never_holds_a_non_finite_number(capsys, tmp_path):
    # 1e308 + 1e308 overflows the induced field to inf.
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "inputs": ["a", "b"],
        "units": [{"id": "u", "activation": "softplus01",
                   "in": [["a", 1e308], ["b", 1e308]]}],
        "C": ["u"],
    }), encoding="utf-8")
    stim = tmp_path / "stim.json"
    stim.write_text(
        json.dumps({"stimuli": [{"id": "s", "values": {"a": 1, "b": 1}}]}),
        encoding="utf-8",
    )
    files = ("--net", str(net), "--stimuli", str(stim))
    code, out, err = run(capsys, "mlp", "forward", *files)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "induced_field.s.u: not a finite number"}
    # Weight and field are both inf there: the identity holds.
    code, out, _ = run(capsys, "mlp", "verify", *files)
    assert code == 0
    report = json.loads(out)
    assert (report["weight_identity_ok"], report["max_weight_error"]) == (True, 0.0)
    code, out, _ = run(capsys, "mlp", "model", "--kind", "crisp", *files)
    assert code == 0
    assert json.loads(out)["concepts"]["u"] == {"s": 1.0}


def test_mlp_verify_step_precondition_exit_2(capsys, tmp_path, stim_file):
    net = {
        "inputs": ["i1", "i2"],
        "units": [
            {"id": "o", "activation": "step", "bias": -0.5, "in": [["i1", 1.0]]}
        ],
        "C": ["o"],
    }
    path = tmp_path / "step.json"
    path.write_text(json.dumps(net), encoding="utf-8")
    code, _, err = run(
        capsys, "mlp", "verify", "--net", str(path), "--stimuli", stim_file
    )
    assert code == 2
    assert "o" in json.loads(err)["error"]

    code, out, _ = run(
        capsys,
        "mlp",
        "verify",
        "--net",
        str(path),
        "--stimuli",
        stim_file,
        "--coherence",
        "weak",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# prob


def test_prob_event_uniform(capsys, interp_file):
    code, out, _ = run(
        capsys, "prob", "--interp", interp_file, "--event", "Employee"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["results"][0]["probability"] == pytest.approx(2 / 5)


def test_prob_cc_full_interval(capsys, interp_file):
    code, out, _ = run(
        capsys, "prob", "--interp", interp_file, "--cc", "(Young | Top)[0,1]"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["holds"] is True


def test_prob_cc_error_points_into_the_argument(capsys, interp_file):
    code, _, err = run(
        capsys, "prob", "--interp", interp_file, "--cc", "(Young | Top)[0.9,0.1]"
    )
    assert code == 2
    assert json.loads(err)["error"] == "line 1, col 15: empty interval [0.9, 0.1]"


def test_prob_cc_names_are_checked_against_the_interpretation(capsys, interp_file):
    code, _, err = run(
        capsys, "prob", "--interp", interp_file, "--cc", "(Young | Martian)[0,1]"
    )
    assert code == 2
    assert json.loads(err)["error"] == "line 1, col 10: unknown concept name 'Martian'"


def test_prob_queries_take_only_cc_and_passert_lines(capsys, interp_file, tmp_path):
    queries = tmp_path / "q.wkb"
    queries.write_text(
        "cc: (Young | Employee)[0.5,0.5]\npassert: P(Young(bob))[1]\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "prob", "--interp", interp_file, "--queries", str(queries))
    assert code == 0
    assert [r["holds"] for r in json.loads(out)["results"]] == [True, True]
    for line, message in (
        ("strict: Young [= Employee", "'strict' statements"),
        ("  assert: Young(tom)", "'assert' statements"),
        ("def(Young): T(Young) [= Adult @ 1", "'def' statements"),
    ):
        queries.write_text(f"cc: (Young | Employee)[0,1]\n{line}\n", encoding="utf-8")
        code, _, err = run(capsys, "prob", "--interp", interp_file, "--queries", str(queries))
        assert code == 2
        col = len(line) - len(line.lstrip()) + 1
        assert json.loads(err)["error"] == (
            f"line 2, col {col}: {message} are not allowed here; expected cc, passert"
        )


def test_prob_passert_at_a_subnormal_mass(capsys, tmp_path):
    # P(A and {b}) underflows to 0 here; the answer is still A(b).
    interp = tmp_path / "i.json"
    interp.write_text(json.dumps({
        "domain": ["a", "b"], "concepts": {"A": {"b": 0.3}}, "individuals": {"b": "b"},
    }), encoding="utf-8")
    dist = tmp_path / "d.json"
    dist.write_text('{"mu": {"a": 1.0, "b": 5e-324}}', encoding="utf-8")
    queries = tmp_path / "q.wkb"
    queries.write_text("passert: P(A(b))[0.3]\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "prob", "--interp", str(interp), "--dist", str(dist),
        "--queries", str(queries),
    )
    assert code == 0
    [result] = json.loads(out)["results"]
    assert result["value"] == 0.3
    assert result["holds"] is True


def test_prob_requires_a_query(capsys, interp_file):
    code, _, err = run(capsys, "prob", "--interp", interp_file)
    assert code == 2


def test_out_flag_writes_file(capsys, kb_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", kb_file, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8")) == {"diagnostics": []}


def test_invalid_json_is_named(capsys, kb_file, tmp_path):
    truncated = tmp_path / "cut.json"
    truncated.write_text('{"domain": ["a", ', encoding="utf-8")
    code, _, err = run(
        capsys, "check", "--kb", kb_file, "--interp", str(truncated),
        "--axiom", "Employee [= Adult",
    )
    assert code == 2
    assert json.loads(err)["error"].startswith(f"{truncated}: invalid JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["entail", "--kb", "k.wkb", "--query", "T(A) [= B"],
        ["prob", "--interp", "i.json", "--event", "A"],
        ["validate", "k.wkb"],
        ["mlp", "verify", "--net", "n.json", "--stimuli", "s.json"],
    ],
)
def test_logic_flag_only_on_check(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--logic", "goedel"])
    assert exc.value.code == 2


@pytest.mark.parametrize("logic", ["zadeh", "goedel", "lukasiewicz", "product"])
def test_check_accepts_every_logic(capsys, kb_file, interp_file, logic):
    code, out, _ = run(
        capsys, "check", "--kb", kb_file, "--interp", interp_file,
        "--axiom", "Employee [= Adult", "--mode", "fuzzy", "--logic", logic,
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from"
                         " 'validate', 'check', 'entail', 'mlp', 'prob')"),
        ([], "the following arguments are required: command"),
        (["mlp"], "the following arguments are required: mlp_command"),
    ],
)
def test_usage_errors_name_the_command_argument(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


@pytest.mark.parametrize(
    "axiom", ["T(Employee) [= Adult", "T(Student) [= Young >= 0.5", "Employee [= Adult"]
)
def test_check_ignores_fuzzy_flags_in_crisp_mode(capsys, kb_file, interp_file, axiom):
    argv = ["check", "--kb", kb_file, "--interp", interp_file, "--axiom", axiom,
            "--mode", "crisp"]
    plain = run(capsys, *argv)
    assert plain[0] == 0
    assert run(capsys, *argv, "--logic", "product", "--typ-fuzzy-sem", "containment") \
        == plain


# ---------------------------------------------------------------------------
# parsers: each call builds only the parser of the command it runs


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace, code = vars(parser.parse_args(argv)), None
        except SystemExit as e:
            namespace, code = None, e.code
    return code, out.getvalue(), err.getvalue(), namespace


def _without(argv, i):
    """``argv`` less the option at ``i`` and its values."""
    end = next((j for j in range(i + 1, len(argv)) if argv[j].startswith("--")), len(argv))
    return argv[:i] + argv[end:]


_VALID = [
    ["validate", "k.wkb"],
    ["check", "--kb", "k.wkb", "--interp", "i.json", "--axiom", "a"],
    ["check", "--kb", "k.wkb", "--interp", "i.json", "--axiom", "a", "--mode", "crisp",
     "--typ-fuzzy-sem", "containment", "--logic", "product", "--out", "o.json"],
    ["entail", "--kb", "k.wkb", "--query", "q"],
    ["mlp", "forward", "--net", "n.json", "--stimuli", "s.json"],
    ["mlp", "model", "--net", "n.json", "--stimuli", "s.json", "--kind", "crisp",
     "--threshold-mode", "half"],
    ["mlp", "extract-kb", "--net", "n.json", "--out", "o.wkb"],
    ["mlp", "verify", "--net", "n.json", "--stimuli", "s.json", "--coherence", "weak"],
    ["prob", "--interp", "i.json", "--dist", "d.json", "--event", "e", "--cc", "c",
     "--subsethood", "l", "r", "--queries", "q.wkb"],
]
_COMMANDS = ["validate", "check", "entail", "mlp", "prob"]
_MLP_COMMANDS = ["forward", "model", "extract-kb", "verify"]
_COMMAND_WORDS = [[name] for name in _COMMANDS if name != "mlp"] + [
    ["mlp", name] for name in _MLP_COMMANDS
]
_CORPUS = (
    _VALID
    + [["validate"]]
    + [_without(argv, i) for argv in _VALID for i, w in enumerate(argv) if w[:2] == "--"]
    + [argv + [flag, "x"] for argv, flag in [
        (_VALID[1], "--mode"), (_VALID[1], "--typ-fuzzy-sem"), (_VALID[1], "--logic"),
        (_VALID[5], "--kind"), (_VALID[5], "--threshold-mode"),
        (_VALID[7], "--coherence"),
    ]]
    + [argv + ["extra"] for argv in _VALID]
    + [argv + ["--logic", "goedel"] for argv in _VALID if argv[0] != "check"]
    + [["-h"], ["mlp", "-h"]] + [words + ["-h"] for words in _COMMAND_WORDS]
    + [["frobnicate"], [], ["mlp"], ["mlp", "frobnicate"], ["--out", "x", "entail"],
       ["-h", "entail"]]
)


@pytest.mark.parametrize("argv", _CORPUS, ids=" ".join)
def test_a_parser_for_argv_parses_it_as_the_full_parser_does(argv):
    full = _parse(cli.build_parser(), argv)
    assert _parse(cli.build_parser(argv), argv) == full
    if argv in _VALID:
        assert full[3] is not None


@pytest.mark.parametrize(
    "argv, count",
    [(["entail", "--kb", "k", "--query", "q"], 2), (["mlp", "verify"], 3), (["mlp"], 6),
     (["-h"], 10), ([], 10)],
)
def test_build_parser_builds_only_the_named_command(monkeypatch, argv, count):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__",
        lambda self, *a, **k: built.append(init(self, *a, **k)),
    )
    cli.build_parser(argv)
    assert len(built) == count


def test_the_console_script_parses_sys_argv(capsys, monkeypatch, tmp_path):
    kb = tmp_path / "birds.wkb"
    kb.write_text("distinguished: Bird\ndef(Bird): T(Bird) [= Fly @ 2\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")
    cases = [
        ["-h"],
        ["mlp", "-h"],
        ["entail", "--kb", str(kb), "--query", "T(Bird) [= not Fly"],
        ["frobnicate"],
    ]
    results = []
    for argv in cases:
        done = subprocess.run(
            [sys.executable, "-m", "prefnet.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (
            code, captured.out, captured.err
        ), argv
        results.append((code, done.stdout))
    (help_code, root_help), (_, mlp_help), entail, (usage_code, _) = results
    assert help_code == 0 and usage_code == 2
    assert "{validate,check,entail,mlp,prob}" in root_help
    assert all(f"\n    {name} " in root_help for name in _COMMANDS)
    assert "{forward,model,extract-kb,verify}" in mlp_help
    assert all(f"\n    {name} " in mlp_help for name in _MLP_COMMANDS)
    assert entail[0] == 0
    assert json.loads(entail[1])["counter_model"] == {"Bird": True, "Fly": True}


# ---------------------------------------------------------------------------
# bad input files


SIGMOID_UNIT = {"id": "o", "activation": "sigmoid", "in": [["i1", 1.0]]}
STEP_UNIT_MISSPELT = {"id": "o", "activaton": "step", "in": [["i1", 1.0]]}
NET = {"inputs": ["i1", "i2"], "units": [SIGMOID_UNIT], "C": ["o"]}
STIMULUS = {"id": "s1", "values": {"i1": 0.5, "i2": 0.5}}


@pytest.mark.parametrize(
    "flag, doc, path",
    [
        ("--net", {**NET, "units": [STEP_UNIT_MISSPELT]}, "units[0].activaton"),
        ("--net", {"inputs": ["i1", "i2"], "units": [SIGMOID_UNIT], "c": ["o"]}, "c"),
        ("--net", {**NET, "units": [{**SIGMOID_UNIT, "bias": True}]}, "units[0].bias"),
        ("--net", {**NET, "units": [{"activation": "sigmoid"}]}, "units[0].id"),
        ("--net", {**NET, "units": SIGMOID_UNIT}, "units"),
        ("--stimuli", {"stimuli": [{**STIMULUS, "id": 1}]}, "stimuli[0].id"),
        ("--stimuli", {"stimuli": [{"id": "s1", "values": {"i1": "abc", "i2": 0.5}}]},
         "stimuli[0].values.i1"),
        ("--stimuli", {"stimuli": [{"id": "s1", "values": [1, 2]}]}, "stimuli[0].values"),
        ("--stimuli", {"stimuli": 5}, "stimuli"),
    ],
    ids=[
        "misspelt-activation", "misspelt-C", "bool-bias", "missing-id", "units-object",
        "int-stimulus-id", "string-value", "values-list", "stimuli-number",
    ],
)
def test_mlp_input_errors_name_the_json_path(capsys, tmp_path, flag, doc, path):
    files = {"--net": tmp_path / "net.json", "--stimuli": tmp_path / "stim.json"}
    files["--net"].write_text(json.dumps(NET), encoding="utf-8")
    files["--stimuli"].write_text(json.dumps({"stimuli": [STIMULUS]}), encoding="utf-8")
    files[flag].write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "mlp", "verify",
        "--net", str(files["--net"]), "--stimuli", str(files["--stimuli"]),
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"{files[flag]}: {path}: ")


@pytest.mark.parametrize(
    "flag, doc, path",
    [
        ("--interp", {"domain": "ab", "concepts": {"A": {"a": 1.0}}}, "domain"),
        ("--interp", {"domain": ["a", "b"], "concepts": {"A": {}}, "roles": {"r": [5]}},
         "roles.r[0]"),
        ("--dist", {"mu": [1]}, "mu"),
    ],
    ids=["string-domain", "role-entry-number", "mu-list"],
)
def test_prob_input_errors_name_the_json_path(capsys, tmp_path, flag, doc, path):
    files = {"--interp": tmp_path / "interp.json", "--dist": tmp_path / "dist.json"}
    files["--interp"].write_text(
        json.dumps({"domain": ["a", "b"], "concepts": {"A": {"a": 1.0}}}), encoding="utf-8"
    )
    files["--dist"].write_text(json.dumps({"mu": {"a": 1.0}}), encoding="utf-8")
    files[flag].write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "prob", "--interp", str(files["--interp"]),
        "--dist", str(files["--dist"]), "--event", "A",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"{files[flag]}: {path}: ")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[]", "top level: expected an object, got a list"),
        (b'{"mu": ', "invalid JSON: "),
        ('{"x": "caf\xe9"}'.encode("latin-1"), "not UTF-8 text"),
    ],
    ids=["list", "truncated", "latin1"],
)
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["prob", "--event", "Employee"], "--dist"),
        (["prob", "--event", "Employee"], "--interp"),
        (["mlp", "forward"], "--stimuli"),
        (["mlp", "forward"], "--net"),
    ],
    ids=["prob-dist", "prob-interp", "forward-stimuli", "forward-net"],
)
def test_loader_errors_name_the_file(
    capsys, tmp_path, interp_file, net_file, stim_file, argv, flag, content, message
):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"mu": {"tom": 1.0}}), encoding="utf-8")
    files = {"--interp": interp_file, "--dist": str(dist), "--net": net_file,
             "--stimuli": stim_file}
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files[flag] = str(bad)
    reads = ("--interp", "--dist") if argv[0] == "prob" else ("--net", "--stimuli")
    code, out, err = run(capsys, *argv, *(x for f in reads for x in (f, files[f])))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error.startswith(f"{bad}: {message}")
    assert error.count(str(bad)) == 1


def test_files_that_are_not_utf8_exit_2(capsys, tmp_path):
    latin1 = tmp_path / "latin1.wkb"
    latin1.write_bytes("distinguished: Caf\xe9\n".encode("latin-1"))
    code, _, err = run(capsys, "validate", str(latin1))
    assert code == 2
    assert "not UTF-8" in json.loads(err)["error"]


def test_main_lets_bugs_through(monkeypatch, net_file, stim_file):
    def broken(net, stimuli):
        raise KeyError("h1")

    monkeypatch.setattr(cli, "forward", broken)
    with pytest.raises(KeyError):
        main(["mlp", "forward", "--net", net_file, "--stimuli", stim_file])
