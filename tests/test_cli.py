"""Command-line contract: exit codes, output shapes, report determinism."""

import hashlib
import inspect
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import child_env
from substkit import cli
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen
from substkit.cbv.surface import pretty
from substkit.cbv.types import EXTENSIONS, MAX_NESTING, parse_fragment, type_to_str
from substkit.cli import main
from substkit.semantics import OptionMonad, model
from substkit.semantics.monads import BUNDLED
from substkit.semantics.finset import ENUM_CAP
from substkit.suites import SUITES

PY = [sys.executable, "-m", "substkit.cli"]


def run_cli(*args, timeout=60, **kw):
    """The CLI in a child process; one that runs past ``timeout`` seconds
    fails the test instead of hanging it."""
    return subprocess.run(PY + list(args), capture_output=True, text=True,
                          env=child_env(), timeout=timeout, **kw)


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


def test_run_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Powerset values are frozensets; ``run`` prints points and values as
    the monad-law witnesses do, with set elements sorted."""
    prog = tmp_path / "p.cbv"
    prog.write_text("val x\n")
    args = ["run", str(prog), "--context", "x: b -> b", "--fragment",
            "functions", "--expect", "C b -> b", "--monad", "powerset"]
    outs = {subprocess.run(PY + args, capture_output=True, text=True,
                           check=True,
                           env={**child_env(), "PYTHONHASHSEED": str(h)}).stdout
            for h in range(4)}
    assert len(outs) == 1
    assert "(({}, {'b0', 'b1'}),) -> {({}, {'b0', 'b1'})}\n" in outs.pop()


def test_a_failing_lemma_prints_its_witness_sorted(tmp_path, monkeypatch,
                                                   capsys):
    from substkit.semantics import checks
    witness = ((frozenset({"b1", "b0"}),), frozenset(), frozenset({"b0"}))
    monkeypatch.setattr(checks, "lemma_holds",
                        lambda t, env, interp: (False, witness))
    term = tmp_path / "t.cbv"
    term.write_text("val x\n")
    sub = tmp_path / "s.subst"
    sub.write_text("target y: b\nx = y\n")
    assert main(["subst", str(term), str(sub), "--context", "x: b",
                 "--expect", "C b", "--monad", "powerset"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "substitution lemma: FAIL (({'b0', 'b1'},), {}, {'b0'})")


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


@pytest.mark.parametrize("text", ["base+", "functions,full", "base,functions",
                                  "base+base"])
def test_a_whole_fragment_name_in_a_list_is_named_as_the_problem(text):
    """``base`` and ``full`` stand alone, but for the ``base+`` that starts a
    printed name before its extensions; an empty list item is skipped."""
    whole = "full" if "full" in text else "base"
    with pytest.raises(ValueError, match=f"{whole!r} names a whole fragment"):
        parse_fragment(text, 4)
    assert parse_fragment("+functions", 4) == parse_fragment("functions", 4)


def test_every_listed_fragment_name_parses_back_to_its_extensions():
    """``substkit fragments`` lists each configuration by ``cfg.name()``, and
    ``--fragment`` takes that name back."""
    from substkit.cbv.types import all_fragment_configs
    for cfg in all_fragment_configs(("b", "c"), 4):
        assert parse_fragment(cfg.name(), 4).extensions == cfg.extensions, \
            cfg.name()
    # as in a list, spaces around the '+' are allowed
    assert parse_fragment(" base + functions ", 4) == parse_fragment(
        "functions", 4)


def test_a_listed_fragment_name_runs(tmp_path):
    prog = tmp_path / "prog.cbv"
    prog.write_text("(val fn y: b . val y) (val x)\n")
    out = run_cli("run", str(prog), "--context", "x: b", "--expect", "C b",
                  "--fragment", "base+sequential+functions")
    assert out.returncode == 0, out.stderr


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
    "point with a doubled minus": ["--at=--0"],
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
    # a function space over a function space: its size, 26 ** (26 ** 25),
    # is compared with the cap without being computed
    "function space over a function space past the cap": [
        "--fragment", "functions,naturals", "--nat-bound", "25", "--context",
        "f: (Nat -> Nat) -> Nat", "--expect", "C (Nat -> Nat) -> Nat",
        "--monad", "option"],
    # types and contexts are read by the program parser: '--' starts a
    # comment, a label takes '+' only as 'N+', and a name is no keyword
    "comment in a type": ["--expect", "b --> b"],
    "plus in a row label": ["--context", "x: <A+: b>"],
    "context name missing": ["--context", ": b"],
    "keyword as a context name": ["--context", "val: b"],
    # each base type name is read as a type, and must read as a base type
    "empty base type name": ["--base-types", "b,"],
    "Nat as a base type name": ["--base-types", "b,Nat"],
    "function type as a base type name": ["--base-types", "b,b -> b"],
    "Nat as a configured base type": ["--fragment-config",
                                      {"base_types": ["b", "Nat"]}],
    # a base type is listed once
    "base type listed twice": ["--base-types", "b,b"],
    "configured base type listed twice": ["--fragment-config",
                                          {"base_types": ["b", "b"]}],
    # a sized name is read as a type too, and an unknown monad parameter is
    # named, not dropped
    "empty base size name": ["--base-size", "b=2", "--base-size", "=3"],
    "Nat given a base size": ["--base-size", "b=2", "--base-size", "Nat=3"],
    "function type given a base size": ["--base-size", "b -> b=2",
                                        "--base-size", "b=2"],
    "model sizes Nat": ["--model", {"base_sizes": {"b": 2, "Nat": 3}}],
    "model sizes an empty name": ["--model", {"base_sizes": {"b": 2, "": 3}}],
    # one base type gets one size, however its names are spelt
    "model sizes a base type twice": ["--model", {"base_sizes": {"b": 3, " b": 1}}],
    "base size given twice": ["--base-size", "b=3", "--base-size", "b=1"],
    "base size given twice in two spellings": ["--base-size", "b=3",
                                               "--base-size", " b=1"],
    "monad parameter the monad does not take": [
        "--model", {"monad": "state", "monad_params": {"exceptions": 3}}],
    # every size is checked against the enumeration cap before its set is
    # built: each case is one past the cap, and nothing of that size is made
    "base size past the cap": ["--base-size", f"b={ENUM_CAP + 1}"],
    "model base size past the cap": ["--model",
                                     {"base_sizes": {"b": ENUM_CAP + 1}}],
    "model state count past the cap": [
        "--model", {"monad": "state", "monad_params": {"states": ENUM_CAP + 1}}],
    "model exception count past the cap": [
        "--model", {"monad": "exception",
                    "monad_params": {"exceptions": ENUM_CAP + 1}}],
    "state count past the cap": ["--monad", "state", "--states",
                                 str(ENUM_CAP + 1)],
    "exception count past the cap": ["--monad", "exception", "--exceptions",
                                     str(ENUM_CAP + 1)],
    "nat bound past the cap": ["--fragment", "naturals", "--nat-bound",
                               str(ENUM_CAP + 1)],
    "configured nat bound past the cap": [
        "--fragment-config", {"extensions": ["naturals"],
                              "nat_bound": ENUM_CAP + 1}],
    # a key the file format does not have is named, not ignored
    "unknown model key": ["--model", {"monad": "option", "foo": 1}],
    "unknown fragment config key": ["--fragment-config",
                                    {"extensions": [], "foo": 1}],
    # 'base' and 'full' name whole fragments: neither is listed with others
    "base in a list of extensions": ["--fragment", "base+"],
    "full in a list of extensions": ["--fragment", "functions,full"],
}

# the program of a case that does not run "val x"
MALFORMED_PROGRAM = {
    "600 nested parentheses": "(" * 600 + "val x" + ")" * 600,
    "250 let bindings": "let y = val x in " * 250 + "val x",
    "function space over a function space past the cap": "val f",
}


def test_base_type_names_are_read_as_types(tmp_path):
    """A space after the comma of ``--base-types`` is no part of the name."""
    prog = tmp_path / "prog.cbv"
    prog.write_text("val x\n")
    out = run_cli("run", str(prog), "--base-types", "b, c", "--context",
                  "x: b, y: c", "--expect", "C b", "--monad", "identity")
    assert out.returncode == 0, out.stderr
    assert "('b0', 'c1') -> 'b0'" in out.stdout


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
    # the lemma's tables range over Nat -> Nat, too many functions to list
    "space too large for the lemma": (
        "target g: Nat -> Nat\nf = g\n",
        "too large to enumerate: product of more than 1000000 elements"),
    # 'target' is a word of its own
    "target keyword run into a name": (
        "targety: b\nx = y\n",
        "substitution file must start with a 'target' line"),
    "target keyword joined to a name": (
        "target_y: b\nx = y\n",
        "substitution file must start with a 'target' line"),
}

# the term and options of a case that does not substitute into "val x"
MALFORMED_SUBST_INPUT = {
    "space too large for the lemma": (
        "val f", ["--fragment", "naturals,functions",
                  "--context", "f: Nat -> Nat", "--monad", "option"]),
}


@pytest.mark.parametrize("case", MALFORMED_SUBST)
def test_malformed_substitution_is_one_error_line(tmp_path, case):
    text, message = MALFORMED_SUBST[case]
    program, options = MALFORMED_SUBST_INPUT.get(
        case, ("val x", ["--context", "x: b", "--expect", "C b"]))
    term = tmp_path / "t.cbv"
    term.write_text(program + "\n")
    sub = tmp_path / "s.subst"
    sub.write_text(text)
    out = run_cli("subst", str(term), str(sub), *options)
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


def mutate(text, rng, extra=""):
    """``text`` with 1 to 3 seeded character edits: a deletion, or a character
    of ``text`` (or of ``extra``) inserted or written over one."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        edit, c = rng.randrange(3), rng.choice(text + extra)
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
    gen = TermGen(table, rng, interp_cap=(model(OptionMonad(), {"b": 2}), 12))
    for _ in range(count):
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        text = pretty(gen.random_at(ctx, target, 3))
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


# the values and names a JSON mutation writes; every size among them is small
# or past the enumeration cap, so no case builds a large set
JSON_VALUES = [None, True, False, 0, -1, 1, 2, 3, 1.5, "", "x", "b", [], {},
               ["b"], {"b": 2}, ENUM_CAP + 1]
JSON_NAMES = ["b", "c", " b", "", "Nat", "b -> b", "{}", "nosuch", "b,b",
              "states", "exceptions", "foo", *EXTENSIONS]


def valid_json_inputs(rng):
    """A ``--fragment-config`` and a ``--model`` document that the CLI
    accepts together, each key present or left to its default."""
    cfg, spec = {}, {}
    bases = ["b"] if rng.randrange(2) else ["b", "c"]
    if rng.randrange(4):
        cfg["extensions"] = rng.sample(EXTENSIONS, rng.randint(0, 3))
    if len(bases) > 1 or rng.randrange(2):
        cfg["base_types"] = bases
    if rng.randrange(2):
        cfg["nat_bound"] = rng.randint(1, 4)
    if rng.randrange(2):
        cfg["type_depth"] = rng.randint(1, 3)
    monad = rng.choice(sorted(BUNDLED))
    if rng.randrange(4):
        spec["monad"] = monad
    if len(bases) > 1 or rng.randrange(2):
        spec["base_sizes"] = {b: rng.randint(0, 3) for b in bases}
    param = {"state": "states", "exception": "exceptions"}.get(spec.get("monad"))
    if param and rng.randrange(2):
        spec["monad_params"] = {param: rng.randint(1, 3)}
    return cfg, spec


def mutate_json(doc, rng):
    """``doc`` with 1 to 3 seeded edits of its keys, values and JSON types:
    a key dropped, renamed or added, a value or list item replaced by another
    JSON value or name, a list item repeated, or the whole document replaced."""
    for _ in range(rng.randint(1, 3)):
        # every container of the document, top level included
        spots = [doc] if isinstance(doc, (dict, list)) else []
        for spot in spots:
            items = spot.values() if isinstance(spot, dict) else spot
            spots += [v for v in items if isinstance(v, (dict, list))]
        if not spots or rng.randrange(10) == 0:
            doc = rng.choice(JSON_VALUES + JSON_NAMES)
            continue
        spot = rng.choice(spots)
        keys = list(spot) if isinstance(spot, dict) else list(range(len(spot)))
        edit = rng.randrange(4)
        if edit == 0 and keys:  # drop
            del spot[rng.choice(keys)]
        elif edit == 1 and keys and isinstance(spot, dict):  # rename
            key = rng.choice(keys)
            spot[rng.choice(JSON_NAMES)] = spot.pop(key)
        elif edit == 2 and keys:  # replace
            spot[rng.choice(keys)] = rng.choice(JSON_VALUES + JSON_NAMES)
        elif isinstance(spot, dict):  # add
            spot[rng.choice(JSON_NAMES)] = rng.choice(JSON_VALUES)
        else:  # add or repeat an item
            spot.append(spot[rng.choice(keys)] if keys and rng.randrange(2)
                        else rng.choice(JSON_NAMES))
    return doc


def assert_exit_0_or_1_and_one_error_line(code, err, case):
    assert code in (0, 1), case
    if code == 1:
        assert "Traceback" not in err, case
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, err)


def test_mutated_json_inputs_end_in_exit_0_or_1_and_one_error_line(tmp_path,
                                                                   capsys):
    """Seeded mutation fuzz of the ``--fragment-config`` and ``--model``
    files: a valid pair of documents with 1 to 3 edits to one of them or
    both, run in this process on ``val x``."""
    prog, cfg_path, spec_path = (tmp_path / name for name in
                                 ("prog.cbv", "cfg.json", "spec.json"))
    prog.write_text("val x\n")
    rng = random.Random(20261020)
    codes = Counter()
    for _ in range(400):
        cfg, spec = valid_json_inputs(rng)
        which = rng.randrange(3)
        if which != 1:
            cfg = mutate_json(cfg, rng)
        if which != 0:
            spec = mutate_json(spec, rng)
        cfg_path.write_text(json.dumps(cfg))
        spec_path.write_text(json.dumps(spec))
        code = main(["run", str(prog), "--context", "x: b", "--expect", "C b",
                     "--fragment-config", str(cfg_path), "--model", str(spec_path)])
        assert_exit_0_or_1_and_one_error_line(code, capsys.readouterr().err,
                                              (cfg, spec))
        codes[code] += 1
    # the edits leave some pairs valid and break most
    assert codes[0] and codes[1]


# per option: the valid strings a mutation starts from, the characters it may
# add besides theirs, and the rest of the ``run`` of ``val x``; the sizes a
# mutation can write stay far below the enumeration cap
OPTION_FUZZ = {
    "--fragment": (["base", "full", "functions", "sequential,functions",
                    "records+variants", "+naturals"], "+, ",
                   ["--context", "x: b"]),
    "--base-types": (["b", "b,c", "b, c", "c,b"], ", ", ["--context", "x: b"]),
    "--base-size": (["b=2", "b=3", " b=1", "b=0"], "=,- ",
                    ["--context", "x: b"]),
    "--at": (["b0,c0", "b1,c1", "b0, c1"], ",- ",
             ["--base-types", "b,c", "--context", "x: b, y: c"]),
}


@pytest.mark.parametrize("option", OPTION_FUZZ)
def test_mutated_option_strings_end_in_exit_0_or_1_and_one_error_line(
        tmp_path, capsys, option):
    """Seeded mutation fuzz of one option's string: a valid string with 1 to
    3 character edits, run in this process on ``val x``."""
    prog = tmp_path / "prog.cbv"
    prog.write_text("val x\n")
    valid, extra, rest = OPTION_FUZZ[option]
    rng = random.Random(f"20261021 {option}")
    codes = Counter()
    for _ in range(150):
        text = mutate(rng.choice(valid), rng, extra)
        # the '=' form keeps a string that starts with '-' an option value
        code = main(["run", str(prog), "--expect", "C b", *rest,
                     f"{option}={text}"])
        assert_exit_0_or_1_and_one_error_line(code, capsys.readouterr().err,
                                              text)
        codes[code] += 1
    # the edits leave some strings valid and break others
    assert codes[0] and codes[1]


# substitution files for "val x" under --context "x: b" and base types b, c
SUBST_FUZZ = ["target y: b\nx = y\n", "target y: b, z: c\nx = z\n",
              "target f: b -> b, y: b\n-- a comment\nx = y\n"]


def test_mutated_substitution_files_end_in_exit_0_or_1_and_one_error_line(
        tmp_path, capsys):
    """Seeded mutation fuzz of ``subst`` files: a valid file with 1 to 3
    character edits, substituted into ``val x`` and checked against the
    lemma in this process."""
    term, sub = tmp_path / "t.cbv", tmp_path / "s.subst"
    term.write_text("val x\n")
    rng = random.Random(20261021)
    codes = Counter()
    for _ in range(200):
        sub.write_text(mutate(rng.choice(SUBST_FUZZ), rng, " ,:=-\n"))
        code = main(["subst", str(term), str(sub), "--base-types", "b,c",
                     "--context", "x: b", "--expect", "C b", "--monad",
                     "option"])
        assert_exit_0_or_1_and_one_error_line(code, capsys.readouterr().err,
                                              sub.read_text())
        codes[code] += 1
    assert codes[0] and codes[1]


MALFORMED_CHECK = {
    "unknown extension": ["--fragment", "bogus"],
    "nat bound 0": ["--nat-bound", "0"],
    "nat bound past the cap": ["--nat-bound", str(ENUM_CAP + 1)],
    "negative context bound": ["--ctx-bound", "-1"],
    "negative count": ["--count", "-1"],
    "count 0": ["--count", "0"],
    "structures 0": ["--structures", "0"],
    "negative depth": ["--depth", "-5"],
    # generated terms nest as deep as --depth, within the nesting bound
    "depth past the nesting bound": ["--fragment", "full", "--depth", "400"],
    # the report is opened before any part runs
    "report path below a file": ["--report", str(Path(__file__) / "x.jsonl")],
}


@pytest.mark.parametrize("case", MALFORMED_CHECK)
def test_malformed_check_option_is_one_error_line(case):
    """Options are checked before any part runs: no record is printed."""
    out = run_cli("check", "term-laws", "--count", "1", *MALFORMED_CHECK[case])
    assert_one_error_line(out)
    assert out.stdout == ""


def test_check_takes_the_nesting_bound_as_its_deepest_depth():
    out = run_cli("check", "term-laws", "--depth", str(MAX_NESTING),
                  "--count", "1")
    assert out.returncode == 0, out.stderr
    out = run_cli("check", "term-laws", "--depth", str(MAX_NESTING + 1),
                  "--count", "1")
    assert_one_error_line(out)
    assert out.stderr == f"error: --depth must be at most {MAX_NESTING}\n"


def test_report_dir_naming_a_file_is_one_error_line(monkeypatch):
    monkeypatch.setenv("SUBSTKIT_REPORT_DIR", __file__)
    out = run_cli("check", "term-laws", "--count", "1")
    assert_one_error_line(out)
    assert out.stdout == ""


# sha256 of each report, recorded before the suites moved into one registry
# (compatibility's once its squares came from the operator enumeration); the
# bytes do not depend on PYTHONHASHSEED.
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
        "7d3dacbb38331602aaf34078918b58c7b36dbf77b52f2c3fa0b29f10ad73e53f",
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
    """A small part: the compatibility bytes are pinned by
    ``test_check_reports_match_golden_digests``."""
    monkeypatch.setenv("SUBSTKIT_REPORT_DIR", str(tmp_path))
    assert main(["check", "pointed", "--structures", "2"]) == 0
    report = tmp_path / "pointed.jsonl"
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == GOLDEN_REPORTS["pointed --structures 2"])


def test_every_suite_parameter_is_a_check_option(monkeypatch):
    """A part parameter that no check option names would silently keep its
    default."""
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args) or 0)
    assert main(["check", "all"]) == 0
    options = set(vars(seen[0]))
    for parts in SUITES.values():
        for part in parts:
            params = set(inspect.signature(part).parameters) - {"rep"}
            assert params <= options, (part.__name__, params - options)
