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
import inspect
import json
import os
import sys

from .cbv.ops import CbvOperatorTable, DisabledConstruct
from .cbv.surface import (SurfaceSyntaxError, parse, parse_context, parse_type,
                           parse_value, pretty)
from .cbv.typecheck import (ArityMismatch, SortMismatch, UnknownVariable,
                            synthesize, typecheck)
from .cbv.types import (EXTENSIONS, DepthExceeded, all_fragment_configs,
                        config_from_dict, parse_fragment, type_to_str,
                        typing_needs)
from .report import Report
from .semantics.denote import denote
from .semantics.finset import EnumerationTooLarge
from .semantics.model import model
from .semantics.monads import BUNDLED, UnsupportedCapability, monad_by_name
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


def _read_json_object(path: str) -> dict:
    data = json.loads(_read(path))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def build_model(args, cfg):
    """The model the options name for fragment ``cfg``.  By default every
    base type of the fragment has size 2; a model that leaves one of them
    without a size is an input error."""
    for flag in ("exceptions", "states"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be at least 0")
    monad_name = args.monad or "option"
    sizes, params = {}, {}
    if getattr(args, "model", None):
        spec = _read_json_object(args.model)
        monad_name = spec.get("monad", monad_name)
        sizes, params = spec.get("base_sizes", {}), spec.get("monad_params", {})
        if not all(isinstance(d, dict) and all(type(n) is int and n >= 0
                                               for n in d.values())
                   for d in (sizes, params)):
            raise ValueError("base_sizes and monad_params must map names to "
                             "non-negative integers")
    for item in (args.base_size or []):
        name, _, n = item.partition("=")
        if not n.strip().isdigit():
            raise ValueError(f"--base-size expects NAME=SIZE, got {item!r}")
        sizes[name.strip()] = int(n)
    sizes = sizes or dict.fromkeys(cfg.base_types, 2)
    for name in cfg.base_types:
        if name not in sizes:
            raise ValueError(f"the model gives no size to base type {name!r}")
    if not isinstance(monad_name, str) or monad_name not in BUNDLED:
        raise ValueError(f"unknown monad {monad_name!r}")
    kwargs = {}
    if monad_name == "exception":
        kwargs["exceptions"] = tuple(
            f"e{i}" for i in range(params.get("exceptions", args.exceptions)))
    if monad_name == "state":
        kwargs["states"] = tuple(
            f"s{i}" for i in range(params.get("states", args.states)))
    return model(monad_by_name(monad_name, **kwargs), sizes)


def _elaborate(args, text):
    if getattr(args, "fragment_config", None):
        cfg = config_from_dict(_read_json_object(args.fragment_config))
    else:
        cfg = parse_fragment(args.fragment, args.nat_bound,
                             tuple((args.base_types or "b").split(",")),
                             args.type_depth)
    table = CbvOperatorTable(cfg)
    names, ctx = parse_context(args.context or "")
    if args.expect:
        is_comp = args.expect.startswith("C ")
        expected = parse_type(args.expect[2:] if is_comp else args.expect)
        sort = second(expected) if is_comp else first(expected)
        surface = parse(text) if is_comp else parse_value(text)
        term = typecheck(surface, ctx, sort, cfg, table, names or None)
    else:
        surface, value = _parse_term_or_value(text)
        term, sort = synthesize(surface, ctx, cfg, table, names or None,
                                value=value)
    return cfg, table, names, ctx, term, sort


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
    text = text.strip()
    return int(text) if text.lstrip("-").isdigit() else text


def _sort_to_str(sort) -> str:
    """A sort as the CLI prints it: ``C `` before a computation type."""
    return ("" if sort.is_first else "C ") + type_to_str(sort.ident)


def cmd_run(args) -> int:
    try:
        text = _read(args.program) if args.program != "-" else sys.stdin.read()
        cfg, table, _, ctx, term, sort = _elaborate(args, text)
        m = build_model(args, cfg)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"sort: {_sort_to_str(sort)}")
    try:
        d = denote(term, m, cfg, table)
        points = d.space
        if args.at is not None:
            points = [tuple(_parse_value(v) for v in args.at.split(",")
                            if v.strip())]
            if points[0] not in d.space:
                print(f"error: --at {args.at!r} is not a point of the context",
                      file=sys.stderr)
                return 1
        for p in points:
            print(f"{p!r} -> {d.at(p)!r}")
    except UnsupportedCapability as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as e:
        print(f"error: too large to enumerate: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_subst(args) -> int:
    try:
        cfg, table, names, ctx, term, sort = _elaborate(args, _read(args.term))
        m = build_model(args, cfg) if args.monad or args.model else None
        lines = [l for l in _read(args.subst).splitlines()
                 if l.strip() and not l.strip().startswith("--")]
        if not lines or not lines[0].startswith("target"):
            print("error: substitution file must start with a 'target' line",
                  file=sys.stderr)
            return 1
        tnames, tctx = parse_context(lines[0][len("target"):])
        assignment = {}
        for line in lines[1:]:
            name, _, body = line.partition("=")
            name, value = name.strip(), parse_value(body)
            if name not in names:
                print(f"error: the substitution assigns {name!r}, which "
                      f"--context does not name", file=sys.stderr)
                return 1
            if name in assignment:
                print(f"error: the substitution assigns {name!r} twice",
                      file=sys.stderr)
                return 1
            assignment[name] = value
        entries = []
        for name, ty in zip(names, ctx.entries):
            if name not in assignment:
                print(f"error: no entry for variable {name!r}", file=sys.stderr)
                return 1
            entries.append(typecheck(assignment[name], tctx, first(ty), cfg,
                                     table, tnames or None))
        env = SubstEnv(ctx, tctx, entries)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = substitute(term, env)
    print(pretty(out, table))
    if m is not None:
        from .semantics.checks import lemma_holds
        try:
            ok, diff = lemma_holds(term, env, m, cfg, table, {})
        except UnsupportedCapability as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print("substitution lemma: " + ("PASS" if ok else f"FAIL {diff!r}"))
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
    # every option is checked before any part runs, so a malformed one is an
    # input error and a ValueError raised by a law check stays a traceback
    try:
        parse_fragment(args.fragment, args.nat_bound)
        for flag, least in (("count", 1), ("structures", 1), ("depth", 0),
                            ("ctx_bound", 0)):
            if getattr(args, flag) < least:
                raise ValueError(f"--{flag.replace('_', '-')} must be at "
                                 f"least {least}")
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    rep = Report()
    every = args.all_fragments or args.suite == "all"
    options = dict(vars(args), fragment=None if every else args.fragment)
    for name in SUITES if args.suite == "all" else (args.suite,):
        for part in SUITES[name]:
            # each part takes the check options its signature names
            wanted = inspect.signature(part).parameters
            part(rep, **{k: v for k, v in options.items() if k in wanted})

    text = rep.to_text()
    print(text)
    report_path = args.report
    if report_path is None and os.environ.get("SUBSTKIT_REPORT_DIR"):
        report_path = os.path.join(os.environ["SUBSTKIT_REPORT_DIR"],
                                   f"{args.suite}.jsonl")
    if report_path:
        os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
        with open(report_path, "w") as fh:
            fh.write(rep.to_json_lines() + "\n")
        print(f"report written to {report_path}")
    return 0 if rep.ok else 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="substkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--fragment", default="base",
                       help="extension list, e.g. 'sequential,functions', or 'full'")
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
    p.add_argument("--depth", type=int, default=4)
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
