"""Command-line entry point: evaluate programs, apply substitutions, run suites.

Commands: ``run`` (parse, typecheck, and print a program's denotation table),
``subst`` (apply a substitution file, and verify the substitution lemma when
``--monad`` or ``--model`` names a model), ``check`` (the law suites, with
machine-readable reports), and ``fragments`` (the 128-row customisation
menu).  Reports are deterministic given the seed; ``SUBSTKIT_REPORT_DIR`` sets
the default report directory.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys

from .cbv.ops import CbvOperatorTable, DisabledConstruct
from .cbv.surface import (SurfaceSyntaxError, parse, parse_context, parse_type,
                           parse_value, pretty)
from .cbv.typecheck import (ArityMismatch, SortMismatch, UnknownVariable,
                            synthesize, typecheck)
from .cbv.types import (EXTENSIONS, MAX_NESTING, Base, DepthExceeded,
                        FragmentConfig, all_fragment_configs, config_from_dict,
                        parse_fragment, type_to_str, typing_needs)
from .report import Report
from .semantics.denote import Interpreter, denote
from .semantics.finset import ENUM_CAP, EnumerationTooLarge
from .semantics.model import model
from .semantics.monads import (BUNDLED, UnsupportedCapability, _show,
                               monad_by_name)
from .sorts import first, second
from .suites import SUITES
from .terms import SubstEnv, substitute

# Malformed input: each ends the command with exit 1 and one ``error:`` line.
INPUT_ERRORS = (ValueError, OSError, UnknownVariable, SortMismatch,
                ArityMismatch, DisabledConstruct, DepthExceeded)

MODEL_NEEDS = {
    "base": "strong monad over a Cartesian category",
    "sequential": "",
    "functions": "Kleisli exponentials",
    "records": "",
    "variants": "distributive category",
    "naturals": "distributed binary coproducts and a natural numbers object",
    "while": "complete Elgot structure for the monad",
    "recursion": "uniform parameterised monadic fixed-points, Kleisli exponentials",
}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_json_object(path: str, option: str, keys: tuple) -> dict:
    """The JSON object in ``path``, which ``option`` names; a key outside
    ``keys`` is an input error."""
    data = json.loads(_read(path))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in data:
        if key not in keys:
            raise ValueError(f"{option}: unknown key {key!r} (the keys are "
                             f"{', '.join(keys)})")
    return data


def _capped(n: int, what: str) -> int:
    """``n``, if it is at most ``ENUM_CAP``: every size names a set that is
    built before anything is enumerated, so a larger one is an input error
    before anything is built."""
    if n > ENUM_CAP:
        raise ValueError(f"{what} is {n}, more than the enumeration cap "
                         f"{ENUM_CAP}")
    return n


def build_model(args, cfg):
    """The model the options name for fragment ``cfg``.  By default every
    base type of the fragment has size 2; a model that leaves one without a
    size, sizes a non-base type or gives its monad a parameter it lacks is an
    input error."""
    for flag in ("exceptions", "states"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be at least 0")
        _capped(getattr(args, flag), f"--{flag}")
    monad_name = args.monad or "option"
    sizes, params = {}, {}
    if getattr(args, "model", None):
        spec = _read_json_object(args.model, "--model",
                                 ("monad", "base_sizes", "monad_params"))
        monad_name = spec.get("monad", monad_name)
        sizes, params = spec.get("base_sizes", {}), spec.get("monad_params", {})
        if not all(isinstance(d, dict) and all(type(n) is int and n >= 0
                                               for n in d.values())
                   for d in (sizes, params)):
            raise ValueError("base_sizes and monad_params must map names to "
                             "non-negative integers")
        for key, n in params.items():
            _capped(n, f"--model monad_params: {key!r}")
        read = {}
        for name, n in zip(_base_types(sizes, "--model base_sizes"),
                           sizes.values()):
            _capped(n, f"--model base_sizes: the size of {name!r}")
            _size_once(read, name, n, "--model base_sizes")
        sizes = read
    given = {}
    for item in (args.base_size or []):
        name, _, n = item.partition("=")
        if not n.strip().isdigit():
            raise ValueError(f"--base-size expects NAME=SIZE, got {item!r}")
        (name,) = _base_types([name], "--base-size")
        n = _capped(int(n), f"--base-size: the size of {name!r}")
        _size_once(given, name, n, "--base-size")
    sizes.update(given)
    sizes = sizes or dict.fromkeys(cfg.base_types, 2)
    for name in cfg.base_types:
        if name not in sizes:
            raise ValueError(f"the model gives no size to base type {name!r}")
    if not isinstance(monad_name, str) or monad_name not in BUNDLED:
        raise ValueError(f"unknown monad {monad_name!r}")
    param, prefix = {"exception": ("exceptions", "e"),
                     "state": ("states", "s")}.get(monad_name, (None, None))
    for key in params:
        if key != param:
            raise ValueError(f"--model monad_params: the {monad_name} monad "
                             f"takes no parameter {key!r}")
    kwargs = {}
    if param is not None:
        kwargs[param] = tuple(f"{prefix}{i}" for i in
                              range(params.get(param, getattr(args, param))))
    return model(monad_by_name(monad_name, **kwargs), sizes)


def _size_once(sizes: dict, name: str, n: int, option: str) -> None:
    """Enter size ``n`` for base type ``name``: two sizes for one base type,
    however its names are spelt, are an input error naming ``option``."""
    if name in sizes:
        raise ValueError(f"{option}: base type {name!r} is given two sizes")
    sizes[name] = n


def _base_types(names, option: str) -> tuple:
    """The base types ``names`` lists, each read by the type reader: a name
    it reads as anything but a base type is an input error naming ``option``."""
    read = []
    for name in names:
        try:
            t = parse_type(name)
        except SurfaceSyntaxError:
            t = None
        if not isinstance(t, Base):
            raise ValueError(f"{option}: {name!r} is not a base type name")
        read.append(t.name)
    return tuple(read)


def _elaborate(args, text):
    if getattr(args, "fragment_config", None):
        cfg = config_from_dict(_read_json_object(
            args.fragment_config, "--fragment-config",
            ("extensions", "base_types", "nat_bound", "type_depth")))
        cfg = FragmentConfig(cfg.extensions, _base_types(
            cfg.base_types, "--fragment-config base_types"), cfg.nat_bound,
            cfg.type_depth)
        _capped(cfg.nat_bound, "--fragment-config nat_bound")
    else:
        cfg = parse_fragment(args.fragment, args.nat_bound,
                             _base_types((args.base_types or "b").split(","),
                                         "--base-types"),
                             args.type_depth)
        _capped(cfg.nat_bound, "--nat-bound")
    table = CbvOperatorTable(cfg)
    names, ctx = parse_context(args.context or "")
    if args.expect:
        is_comp = args.expect.startswith("C ")
        expected = parse_type(args.expect[2:] if is_comp else args.expect)
        sort = second(expected) if is_comp else first(expected)
        surface = parse(text) if is_comp else parse_value(text)
        term = typecheck(surface, ctx, sort, table, names or None)
    else:
        surface, value = _parse_term_or_value(text)
        term, sort = synthesize(surface, ctx, table, names or None,
                                value=value)
    return table, names, ctx, term, sort


def _parse_term_or_value(text):
    """A term and ``False``, or else a value and ``True``; text that is
    neither reports the error of the reading that got further."""
    try:
        return parse(text), False
    except SurfaceSyntaxError as e:
        as_term = e
    try:
        return parse_value(text), True
    except SurfaceSyntaxError as as_value:
        raise max(as_value, as_term, key=lambda e: e.pos) from None


def _parse_value(text: str):
    """An integer if ``text`` is one, with at most one leading minus, else
    the text itself."""
    text = text.strip()
    return int(text) if text.removeprefix("-").isdecimal() else text


def _sort_to_str(sort) -> str:
    """A sort as the CLI prints it: ``C `` before a computation type."""
    return ("" if sort.is_first else "C ") + type_to_str(sort.ident)


def cmd_run(args) -> int:
    try:
        text = _read(args.program) if args.program != "-" else sys.stdin.read()
        table, _, _, term, sort = _elaborate(args, text)
        m = build_model(args, table.cfg)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"sort: {_sort_to_str(sort)}")
    try:
        d = denote(term, m, table.cfg)
        points = d.space
        if args.at is not None:
            points = [tuple(_parse_value(v) for v in args.at.split(",")
                            if v.strip())]
            if points[0] not in d.space:
                print(f"error: --at {args.at!r} is not a point of the context",
                      file=sys.stderr)
                return 1
        for p in points:
            print(f"{_show(p)} -> {_show(d.at(p))}")
    except UnsupportedCapability as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as e:
        print(f"error: too large to enumerate: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_subst(args) -> int:
    try:
        table, names, ctx, term, sort = _elaborate(args, _read(args.term))
        m = build_model(args, table.cfg) if args.monad or args.model else None
        lines = [l for l in _read(args.subst).splitlines()
                 if l.strip() and not l.strip().startswith("--")]
        keyword, *target = lines[0].split(maxsplit=1) if lines else ("",)
        if keyword != "target":
            raise ValueError("substitution file must start with a 'target' line")
        tnames, tctx = parse_context(" ".join(target))
        assignment = {}
        for line in lines[1:]:
            name, _, body = line.partition("=")
            name, value = name.strip(), parse_value(body)
            if name not in names:
                raise ValueError(f"the substitution assigns {name!r}, which "
                                 f"--context does not name")
            if name in assignment:
                raise ValueError(f"the substitution assigns {name!r} twice")
            assignment[name] = value
        entries = []
        for name, ty in zip(names, ctx.entries):
            if name not in assignment:
                raise ValueError(f"no entry for variable {name!r}")
            entries.append(typecheck(assignment[name], tctx, first(ty), table,
                                     tnames or None))
        env = SubstEnv(ctx, tctx, entries)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = substitute(term, env)
    print(pretty(out))
    if m is not None:
        from .semantics.checks import lemma_holds
        try:
            ok, diff = lemma_holds(term, env, Interpreter(m, table.cfg))
        except UnsupportedCapability as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except EnumerationTooLarge as e:
            print(f"error: too large to enumerate: {e}", file=sys.stderr)
            return 1
        print("substitution lemma: " + ("PASS" if ok else f"FAIL {_show(diff)}"))
        if not ok:
            return 3
    return 0


def cmd_fragments(args) -> int:
    if args.ops:
        try:
            cfg = parse_fragment(args.ops, 4)
        except INPUT_ERRORS as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        table = CbvOperatorTable(cfg)
        for op in table.operators():
            args_s = ", ".join(
                f"[{';'.join(type_to_str(e) for e in a.binder.entries)}]"
                f"{_sort_to_str(a.sort)}" for a in op.args)
            print(f"{op.label}: ({args_s}) -> {_sort_to_str(op.result_sort)}")
        return 0
    rows = all_fragment_configs()
    print(f"{len(rows)} fragment configurations")
    for cfg in rows:
        needs = typing_needs(cfg) or ["none"]
        models = [MODEL_NEEDS[e] for e in ("base",) + tuple(
            x for x in EXTENSIONS if cfg.has(x)) if MODEL_NEEDS[e]]
        print(f"- {cfg.name()}")
        print(f"    typing needs/fulfillments: {'; '.join(needs)}")
        print(f"    model needs: {'; '.join(models)}")
    return 0


def cmd_check(args) -> int:
    # every option is checked, and the report opened, before any part runs,
    # so a malformed one is an input error and a ValueError raised by a law
    # check stays a traceback
    report_path = args.report
    if report_path is None and os.environ.get("SUBSTKIT_REPORT_DIR"):
        report_path = os.path.join(os.environ["SUBSTKIT_REPORT_DIR"],
                                   f"{args.suite}.jsonl")
    try:
        _capped(parse_fragment(args.fragment, args.nat_bound).nat_bound,
                "--nat-bound")
        for flag, least in (("count", 1), ("structures", 1), ("depth", 0),
                            ("ctx_bound", 0)):
            if getattr(args, flag) < least:
                raise ValueError(f"--{flag.replace('_', '-')} must be at "
                                 f"least {least}")
        # the generated terms nest as deep as --depth
        if args.depth > MAX_NESTING:
            raise ValueError(f"--depth must be at most {MAX_NESTING}")
        report = None
        if report_path:
            os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
            report = open(report_path, "w")
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with report or contextlib.nullcontext():
        rep = Report()
        every = args.all_fragments or args.suite == "all"
        options = dict(vars(args), fragment=None if every else args.fragment)
        for name in SUITES if args.suite == "all" else (args.suite,):
            for part in SUITES[name]:
                # each part takes the check options its signature names
                wanted = inspect.signature(part).parameters
                part(rep, **{k: v for k, v in options.items() if k in wanted})

        print(rep.to_text())
        if report is not None:
            report.write(rep.to_json_lines() + "\n")
    if report is not None:
        print(f"report written to {report_path}")
    return 0 if rep.ok else 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="substkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--fragment", default="base",
                       help="extension list, e.g. 'sequential,functions', a "
                       "listed name such as 'base+functions', or 'full'")
        p.add_argument("--base-types", default="b")
        p.add_argument("--context", default="", help="e.g. 'x: b, f: b -> b'")
        p.add_argument("--expect", default=None,
                       help="expected sort, e.g. 'b -> b' or 'C b'")
        p.add_argument("--monad", default=None, choices=list(BUNDLED))
        p.add_argument("--fragment-config", default=None,
                       help="JSON fragment configuration file")
        p.add_argument("--model", default=None,
                       help="JSON model configuration file")
        p.add_argument("--base-size", action="append",
                       help="interpretation size, e.g. 'b=2'")
        p.add_argument("--exceptions", type=int, default=2)
        p.add_argument("--states", type=int, default=2)
        p.add_argument("--nat-bound", type=int, default=8)
        p.add_argument("--type-depth", type=int, default=3)

    p = sub.add_parser("run", help="evaluate a program file ('-' for stdin)")
    p.add_argument("program")
    common(p)
    p.add_argument("--at", default=None, help="evaluate at one context point")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("subst", help="apply a substitution file to a term file")
    p.add_argument("term")
    p.add_argument("subst")
    common(p)
    p.set_defaults(fn=cmd_subst)

    p = sub.add_parser("check", help="run a law suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--fragment", default="base")
    p.add_argument("--all-fragments", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--depth", type=int, default=4,
                   help="deepest nesting of a generated term, at most 100; "
                        "the time of the term suites follows term size, "
                        "which on fragments with many formers grows steeply "
                        "with depth (see README)")
    p.add_argument("--ctx-bound", type=int, default=3)
    p.add_argument("--nat-bound", type=int, default=4)
    p.add_argument("--structures", type=int, default=20)
    p.add_argument("--monad", default=None, choices=list(BUNDLED))
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fragments", help="list the 128 fragment configurations")
    p.add_argument("--ops", default=None, metavar="FRAGMENT",
                   help="print the bounded operator table of one fragment")
    p.set_defaults(fn=cmd_fragments)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        os.close(sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
