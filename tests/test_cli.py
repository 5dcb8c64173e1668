"""Command-line contract: exit codes, output shapes, report determinism."""

import hashlib
import inspect
import json
import random
import subprocess
import sys
from collections import Counter

import pytest

from conftest import child_env
from substkit import cli
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen
from substkit.cbv.surface import pretty
from substkit.cbv.types import MAX_NESTING, parse_fragment, type_to_str
from substkit.cli import main
from substkit.semantics import OptionMonad, model
from substkit.suites import SUITES

PY = [sys.executable, "-m", "substkit.cli"]


def run_cli(*args, **kw):
    return subprocess.run(PY + list(args), capture_output=True, text=True,
                          env=child_env(), **kw)


def test_run_identity_table(tmp_path):
    prog = tmp_path / "prog.cbv"
    prog.write_text("val x\n")
    out = run_cli("run", str(prog), "--context", "x: b", "--expect", "C b",
                  "--monad", "identity")
    assert out.returncode == 0
    assert "('b0',) -> 'b0'" in out.stdout
    assert "('b1',) -> 'b1'" in out.stdout


def test_run_parse_error_exit_1(tmp_path):
    prog = tmp_path / "bad.cbv"
    prog.write_text("let = in\n")
    out = run_cli("run", str(prog))
    assert out.returncode == 1
    assert "error" in out.stderr


def test_run_unsupported_capability_exit_2(tmp_path):
    prog = tmp_path / "loop.cbv"
    prog.write_text("for i = val 0 do val (<Done: Nat, Cont: Nat>.Cont i)\n")
    out = run_cli("run", str(prog), "--fragment", "while,naturals",
                  "--monad", "identity", "--nat-bound", "3")
    assert out.returncode == 2


def test_run_divergence_marker(tmp_path):
    prog = tmp_path / "loop.cbv"
    prog.write_text("for i = val 0 do val (<Done: Nat, Cont: Nat>.Cont i)\n")
    out = run_cli("run", str(prog), "--fragment", "while,naturals",
                  "--monad", "option", "--nat-bound", "3")
    assert out.returncode == 0
    assert "('none',)" in out.stdout


def test_fragments_lists_128():
    out = run_cli("fragments")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("128 ")
    assert out.stdout.count("- base") == 128
    assert "strong monad over a Cartesian category" in out.stdout
    assert "Done" in out.stdout  # the while row shows the Done/Cont need


def test_fragments_ops_unknown_extension_is_one_error_line():
    out = run_cli("fragments", "--ops", "nosuch")
    assert_one_error_line(out)
    assert out.stderr == "error: unknown extensions ['nosuch']\n"
    assert out.stdout == ""


def test_default_model_sizes_every_base_type_of_the_fragment(tmp_path):
    prog = tmp_path / "prog.cbv"
    prog.write_text("val x\n")
    out = run_cli("run", str(prog), "--base-types", "c", "--context", "x: c")
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("sort: C c\n('c0',) -> ('some', 'c0')\n"
                          "('c1',) -> ('some', 'c1')\n")


def test_subst_identity_env_prints_term_and_passes(tmp_path):
    term = tmp_path / "t.cbv"
    term.write_text("fn z: b . (val f) ((val g) (val z))\n")
    sub = tmp_path / "s.subst"
    sub.write_text("target f: b -> b, g: b -> b\nf = f\ng = g\n")
    out = run_cli("subst", str(term), str(sub), "--fragment", "functions",
                  "--context", "f: b -> b, g: b -> b", "--expect", "b -> b",
                  "--monad", "option")
    assert out.returncode == 0
    assert "substitution lemma: PASS" in out.stdout
    assert "fn x2: b . (val x0) ((val x1) (val x2))" in out.stdout


def test_subst_merges_duplicate_assignment(tmp_path):
    term = tmp_path / "t.cbv"
    term.write_text("fn z: b . (val f) ((val g) (val z))\n")
    sub = tmp_path / "s.subst"
    sub.write_text("target h: b -> b\nf = h\ng = h\n")
    out = run_cli("subst", str(term), str(sub), "--fragment", "functions",
                  "--context", "f: b -> b, g: b -> b", "--expect", "b -> b",
                  "--monad", "option")
    assert out.returncode == 0
    assert "fn x1: b . (val x0) ((val x0) (val x1))" in out.stdout


@pytest.mark.parametrize("model", [(), ("--monad", "option"),
                                   ("--model", "{spec}")])
def test_subst_checks_the_lemma_only_with_a_model(tmp_path, model):
    term = tmp_path / "t.cbv"
    term.write_text("fn z: b . (val f) ((val g) (val z))\n")
    sub = tmp_path / "s.subst"
    sub.write_text("target f: b -> b, g: b -> b\nf = f\ng = g\n")
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"monad": "identity"}))
    out = run_cli("subst", str(term), str(sub), "--fragment", "functions",
                  "--context", "f: b -> b, g: b -> b", "--expect", "b -> b",
                  *(a.format(spec=spec) for a in model))
    assert out.returncode == 0
    lemma = [l for l in out.stdout.splitlines() if "substitution lemma" in l]
    assert lemma == (["substitution lemma: PASS"] if model else [])


def test_check_exit_0_and_report_determinism(tmp_path):
    args = ("check", "term-laws", "--fragment", "sequential,functions",
            "--count", "25", "--seed", "7")
    a = run_cli(*args, "--report", str(tmp_path / "a.jsonl"))
    b = run_cli(*args, "--report", str(tmp_path / "b.jsonl"))
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    record = json.loads((tmp_path / "a.jsonl").read_text().splitlines()[0])
    assert record["status"] == "pass"


def test_check_skew_reports_empty_witness_line():
    out = run_cli("check", "skew", "--structures", "2", "--seed", "3")
    assert out.returncode == 0
    assert "not invertible" in out.stdout
    assert "empty at second-class sorts" in out.stdout


def test_check_monad_laws_option():
    out = run_cli("check", "monad-laws", "--monad", "option")
    assert out.returncode == 0


def test_run_factorial_program(tmp_path):
    prog = tmp_path / "fact.cbv"
    prog.write_text("""
letrec fact[m: Nat]: Nat =
  case (unroll (val m)) of {
    0 z -> val 1
  | 1+ p -> let r = (val fact) (val {0 = p}) in
            fold[Nat] (val r) acc .
              case (val acc) of {
                0 z2 -> val 0
              | 1+ prev -> fold[Nat] (val m) acc2 .
                  case (val acc2) of {
                    0 z3 -> val prev
                  | 1+ q -> roll (<0: {}, 1+: Nat>.1+ (val q)) } } }
in (val fact) (val {0 = 3})
""")
    out = run_cli("run", str(prog), "--fragment", "full", "--monad", "option",
                  "--nat-bound", "25", "--type-depth", "4")
    assert out.returncode == 0
    assert "('some', 6)" in out.stdout


def assert_one_error_line(out):
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


# the last item of a case that is not a string is written to a JSON file,
# whose path replaces it
MALFORMED_RUN = {
    "missing model": ["--model", "missing.json"],
    "bad base size": ["--base-size", "b=x"],
    "unknown monad": ["--model", {"monad": "nope"}],
    "model is a list": ["--model", ["option"]],
    "base size not an integer": ["--model", {"base_sizes": {"b": "x"}}],
    # every base type of the fragment needs a size; the context's is 'b'
    "base size given for another type": ["--base-size", "c=2"],
    "model sizes another type": ["--model", {"base_sizes": {"c": 2}}],
    "second base type without a size": ["--base-types", "b,c", "--base-size",
                                        "b=2"],
    "state count not an integer": ["--model", {"monad": "state",
                                               "monad_params": {"states": "x"}}],
    "fragment config is a list": ["--fragment-config", ["sequential"]],
    "extensions not a list": ["--fragment-config", {"extensions": 5}],
    "point outside": ["--at", "zz"],
    "negative exception count": ["--monad", "exception", "--exceptions", "-2"],
    "negative state count": ["--monad", "state", "--states", "-1"],
    "600 nested parentheses": ["--fragment", "full"],
    "250 let bindings": ["--fragment", "full"],
    "2000 arrows in the context": ["--context", "x: " + " -> ".join(["b"] * 2001)],
    # context spaces past the enumeration cap; the second one's size has more
    # digits than Python converts to a string
    "context space too large": [
        "--fragment", "functions", "--context",
        "x: b, f: (b -> b) -> b, g: (b -> b) -> b, h: (b -> b) -> b"],
    "context space size too long to print": [
        "--fragment", "functions", "--context", "x: b, f: ((b -> b) -> b) -> b",
        "--type-depth", "4"],
    # types and contexts are read by the program parser: '--' starts a
    # comment, a label takes '+' only as 'N+', and a name is no keyword
    "comment in a type": ["--expect", "b --> b"],
    "plus in a row label": ["--context", "x: <A+: b>"],
    "context name missing": ["--context", ": b"],
    "keyword as a context name": ["--context", "val: b"],
}

# the program of a case that does not run "val x"
MALFORMED_PROGRAM = {
    "600 nested parentheses": "(" * 600 + "val x" + ")" * 600,
    "250 let bindings": "let y = val x in " * 250 + "val x",
}


@pytest.mark.parametrize("case", MALFORMED_RUN)
def test_malformed_input_is_one_error_line(tmp_path, case):
    prog = tmp_path / "prog.cbv"
    prog.write_text(MALFORMED_PROGRAM.get(case, "val x") + "\n")
    *extra, last = MALFORMED_RUN[case]
    if not isinstance(last, str):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(last))
        last = str(spec)
    out = run_cli("run", str(prog), "--context", "x: b", "--expect", "C b",
                  *extra, last, cwd=tmp_path)
    assert_one_error_line(out)


# substitution files for "val x" under --context "x: b", with the message
# each one ends in
MALFORMED_SUBST = {
    "entry for a variable the context lacks": (
        "target y: b\nx = y\nz = y\n",
        "the substitution assigns 'z', which --context does not name"),
    "variable assigned twice": (
        "target y: b, w: b\nx = y\nx = w\n",
        "the substitution assigns 'x' twice"),
}


@pytest.mark.parametrize("case", MALFORMED_SUBST)
def test_malformed_substitution_is_one_error_line(tmp_path, case):
    text, message = MALFORMED_SUBST[case]
    term = tmp_path / "t.cbv"
    term.write_text("val x\n")
    sub = tmp_path / "s.subst"
    sub.write_text(text)
    out = run_cli("subst", str(term), str(sub), "--context", "x: b",
                  "--expect", "C b")
    assert_one_error_line(out)
    assert out.stderr == f"error: {message}\n"


def test_synthesis_rejects_a_context_outside_the_fragment(tmp_path):
    prog = tmp_path / "q.cbv"
    prog.write_text("val x\n")
    out = run_cli("run", str(prog), "--context", "x: b, f: b -> b",
                  "--monad", "identity")
    assert_one_error_line(out)
    assert "a context of fragment types, found b -> b" in out.stderr


# without --expect a program is read as a term and then as a value; the
# reading that got further names the fault
FURTHEST_FAULT = {
    "val (x": ("base", "expected ')', found '' at position 6"),
    "val (fn y: (b . val y)": ("functions",
                               "expected ')', found '.' at position 14"),
}


@pytest.mark.parametrize("text", FURTHEST_FAULT)
def test_syntax_error_of_the_reading_that_got_further(tmp_path, capsys, text):
    fragment, message = FURTHEST_FAULT[text]
    prog = tmp_path / "prog.cbv"
    prog.write_text(text)
    assert main(["run", str(prog), "--context", "x: b",
                 "--fragment", fragment]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


DEEPEST = {  # MAX_NESTING levels each: a term level per let, record and paren
    "let chain": "let y = val x in " * (MAX_NESTING - 2) + "val x",
    "let in a binding": ("let y = " * (MAX_NESTING - 2) + "val x"
                         + " in val x" * (MAX_NESTING - 2)),
    "records": "{a = " * (MAX_NESTING - 2) + "val x" + "}" * (MAX_NESTING - 2),
    "parentheses": "(" * (MAX_NESTING - 2) + "val x" + ")" * (MAX_NESTING - 2),
}


@pytest.mark.parametrize("case", DEEPEST)
def test_deepest_accepted_program_typechecks_folds_and_denotes(tmp_path, capsys,
                                                               case):
    """The nesting bound leaves room on the stack: ``subst`` typechecks,
    substitutes, prints and denotes the deepest programs in this process."""
    prog, subst = tmp_path / "prog.cbv", tmp_path / "subst.txt"
    prog.write_text(DEEPEST[case])
    subst.write_text("target z: b\nx = z\n")
    assert main(["subst", str(prog), str(subst), "--context", "x: b",
                 "--fragment", "full", "--type-depth", str(MAX_NESTING),
                 "--monad", "option", "--base-size", "b=1"]) == 0
    assert capsys.readouterr().out.endswith("substitution lemma: PASS\n")
    prog.write_text("(" + DEEPEST[case] + ")")
    assert main(["subst", str(prog), str(subst), "--context", "x: b",
                 "--fragment", "full"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: nesting deeper than {MAX_NESTING} levels")


def mutate(text, rng):
    """``text`` with 1 to 3 seeded character edits: a deletion, or a character
    of ``text`` inserted or written over one."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        edit, c = rng.randrange(3), rng.choice(text)
        if edit == 0 or k == len(chars):
            chars.insert(k, c)
        elif edit == 1:
            del chars[k]
        else:
            chars[k] = c
    return "".join(chars)


def generated_runs(seed, count):
    """``count`` generated ``full``-fragment programs, each with its rendered
    ``--context`` and ``--expect``, and the generator's random source."""
    cfg = parse_fragment("full", 3)
    table = CbvOperatorTable(cfg)
    rng = random.Random(seed)
    gen = TermGen(cfg, table, rng, interp_cap=12,
                  model=model(OptionMonad(), {"b": 2}))
    for _ in range(count):
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        make = gen.random_value if target.is_first else gen.random_term
        text = pretty(make(ctx, target.ident, 3), table)
        context = ", ".join(f"x{i}: {type_to_str(t)}"
                            for i, t in enumerate(ctx.entries))
        expect = ("" if target.is_first else "C ") + type_to_str(target.ident)
        yield rng, text, context, expect


def run_full(prog, context, expect):
    return main(["run", str(prog), "--fragment", "full", "--nat-bound", "3",
                 "--monad", "option", "--context", context, "--expect", expect])


def test_mutated_generated_programs_end_in_exit_0_or_1(tmp_path, capsys):
    """Seeded mutation fuzz: pretty-printed generated ``full``-fragment
    programs with 1 to 3 character edits each, run in this process."""
    prog = tmp_path / "prog.cbv"
    codes = Counter()
    for rng, text, context, expect in generated_runs(20260810, 1000):
        prog.write_text(mutate(text, rng))
        code = run_full(prog, context, expect)
        assert code in (0, 1), prog.read_text()
        codes[code] += 1
        capsys.readouterr()
    # the edits leave some programs well formed and break most
    assert codes[0] and codes[1]


def test_mutated_contexts_and_expected_types_end_in_exit_0_or_1(tmp_path,
                                                                 capsys):
    """The same edits made to the ``--context`` or the ``--expect`` string of
    a generated program, which the program parser reads as well."""
    prog = tmp_path / "prog.cbv"
    codes = Counter()
    for rng, text, context, expect in generated_runs(20261019, 300):
        prog.write_text(text)
        if context and rng.randrange(2):
            context = mutate(context, rng)
        else:
            expect = mutate(expect, rng)
        code = run_full(prog, context, expect)
        assert code in (0, 1), (context, expect)
        codes[code] += 1
        capsys.readouterr()
    assert codes[0] and codes[1]


MALFORMED_CHECK = {
    "unknown extension": ["--fragment", "bogus"],
    "nat bound 0": ["--nat-bound", "0"],
    "negative context bound": ["--ctx-bound", "-1"],
    "negative count": ["--count", "-1"],
    "count 0": ["--count", "0"],
    "structures 0": ["--structures", "0"],
    "negative depth": ["--depth", "-5"],
}


@pytest.mark.parametrize("case", MALFORMED_CHECK)
def test_malformed_check_option_is_one_error_line(case):
    """Options are checked before any part runs: no record is printed."""
    out = run_cli("check", "term-laws", "--count", "1", *MALFORMED_CHECK[case])
    assert_one_error_line(out)
    assert out.stdout == ""


# sha256 of each report, recorded before the suites moved into one registry;
# the bytes do not depend on PYTHONHASHSEED.
GOLDEN_REPORTS = {
    "term-laws --all-fragments --count 2":
        "f04eae5d5205bce0fdb5dffa2f8bf32ee523cb268b8b8e39a705de6ad48947ae",
    "meta-laws --all-fragments --count 2":
        "1360aa56fe96745a226a83f613faebe0443356789f051bc0abbca3cd0876a350",
    "term-laws --fragment sequential,functions --count 2":
        "325b830b2dae7bd10b18832a61f3245304dda6b8fbccff7dbc1c1e18c605ac25",
    "presheaf-laws --structures 2":
        "51d996cabce97b641d81d9c18a9f2e689dddfab787dff1bf11ccc385e61a7bb1",
    "skew --structures 2":
        "2fe0b2fe0bacd9d160671fb75236c1776bf60976b0b8e354493939670e01a6f7",
    "pointed --structures 2":
        "b8314f0a865cdde80b9e1e2538e5a24e9ae56f4569ba566560b1688d4d68c7d4",
    "compatibility":
        "9502aa78a46f886c3009580279ed332a7fae0b8652892ea0c2fc442358d38cf9",
    "monad-laws --monad option":
        "6a0b9f9069db9d77dc8e6f9e46bdf648f4e8ed1d9c5af215f4c20b3a7f62f37b",
}


# sha256 of ``fragments --ops <fragment>`` stdout, recorded while the CBV
# table was a class of its own: operator labels, shapes and their order.
GOLDEN_OPS = {
    "base": "40359730fbe528b430f18044543c2a4805f287a5a9c030382a0cef0b4e952510",
    "functions":
        "f0b27161baae0cca84eaf8a2ad8623444cfaacc0cb39f890845af5e9a91ef004",
    "full": "147ffa3a6653f298934cb5179da347d1ed77cf14549b2da128481674cb11b4da",
}

# sha256 of ``fragments`` stdout (385 lines), recorded while the typing needs
# were described by the fulfillment class: the listing of all 128 fragments.
GOLDEN_FRAGMENTS = "16ad99bb3332983a97a9ab8de3476eaa148f1ee42e9a1b49e3407788618954cd"


def test_check_reports_match_golden_digests(tmp_path, capsys):
    got = {}
    for args in GOLDEN_REPORTS:
        report = tmp_path / "r.jsonl"
        assert main(["check", *args.split(), "--report", str(report)]) == 0
        got[args] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert got == GOLDEN_REPORTS


def test_fragment_ops_match_golden_digests(capsys):
    got = {}
    for fragment in GOLDEN_OPS:
        assert main(["fragments", "--ops", fragment]) == 0
        got[fragment] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_OPS


def test_fragments_listing_matches_golden_digest(capsys):
    assert main(["fragments"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 385
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FRAGMENTS


def test_check_report_dir_names_the_report_after_the_suite(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv("SUBSTKIT_REPORT_DIR", str(tmp_path))
    assert main(["check", "compatibility"]) == 0
    report = tmp_path / "compatibility.jsonl"
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == GOLDEN_REPORTS["compatibility"])


def test_every_suite_parameter_is_a_check_option(monkeypatch):
    """A part parameter that no check option names would silently keep its
    default; ``ctx_len`` is set only by the acceptance tests."""
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args) or 0)
    assert main(["check", "all"]) == 0
    options = set(vars(seen[0]))
    for parts in SUITES.values():
        for part in parts:
            params = set(inspect.signature(part).parameters) - {"rep", "ctx_len"}
            assert params <= options, (part.__name__, params - options)
