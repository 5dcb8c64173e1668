"""Span tracing around substkit's layer entry points, installed from outside.

``Tracer.install`` replaces each public entry point with a wrapper in every
substkit module namespace that bound it at import (``substkit.suites.substitute``
and ``substkit.semantics.checks.substitute`` are both rebound to the wrapper of
``substkit.terms.substitute``), and replaces methods on their classes.  Spans
(name, start, end, parent) are kept in memory and written out at the end.  A
call that re-enters the layer it is already in (``inhabited`` recursing through
its fixpoint, ``random_term`` building sub-terms) folds into the enclosing span
and only adds to the call count.

Counting work (term nodes, compared points, tensor generators) runs after the
span has closed, and its time is taken off the trace clock, so it appears in
no span's duration.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter

MONADS = ("identity", "option", "exception", "writer", "state", "powerset")

SPANS = ("cbv.gen.inhabited", "cbv.gen.sample", "cbv.gen.enumerate",
         "cbv.ops.table", "terms.substitute", "terms.compose_subst",
         "terms.substitute_direct", "terms.meta_substitute",
         "suites.term_laws", "suites.meta_laws", "semantics.denote",
         "semantics.model.compare", "semantics.model.subst_denotation",
         "semantics.checks.lemma",
         *(f"semantics.monads.laws.{m}" for m in MONADS),
         "finpresheaf.structures.tensor", "finpresheaf.structures.free_structure",
         "finpresheaf.laws.action", "finpresheaf.laws.skew",
         "finpresheaf.laws.pointed", "finpresheaf.laws.strength",
         "termstruct.coend")

COUNTS = ("cbv.gen.inhabited.calls", "cbv.gen.sample.nodes", "cbv.ops.table.calls",
          "terms.substitute.calls", "terms.substitute.nodes_out",
          "terms.meta_substitute.calls", "semantics.denote.calls",
          "semantics.model.compare.points", "semantics.model.context_space.calls",
          "semantics.model.interpret_type.calls",
          *(f"semantics.monads.bind.{m}.calls" for m in MONADS),
          "finpresheaf.structures.tensor.calls",
          "finpresheaf.structures.tensor.generators",
          "finpresheaf.structures.tensor.classes")

RATIOS = ("cbv.gen.inhabited.distinct_ratio", "cbv.gen.accept_ratio")

# every per-layer metric a traced pass reports, with its unit
LAYER_METRICS = {**{f"{name}.self_s": "s" for name in SPANS},
                 **{name: "count" for name in COUNTS},
                 **{name: "ratio" for name in RATIOS}}


def count_nodes(term) -> int:
    """Tree size of a term: variables, operator nodes and metavariable nodes."""
    from substkit.terms import Meta, Op
    n, todo = 0, [term]
    while todo:
        t = todo.pop()
        n += 1
        if type(t) is Op:
            todo.extend(t.args)
        elif type(t) is Meta:
            todo.extend(t.env)
    return n


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.excluded = 0.0
        # avail sets seen per generator, dropped with the generator
        self._avails = weakref.WeakKeyDictionary()
        self._random_lemma_spans: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def open(self, name: str):
        stack = self.stack
        if stack and self.names[stack[-1]] == name:
            return None
        i = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(i)
        self.starts.append(self.now())
        return i

    def close(self, i) -> None:
        if i is not None:
            self.ends[i] = self.now()
            self.stack.pop()

    def span(self, name, fn, *, before=None, after=None):
        """Wrap ``fn`` in a span named ``name`` (or ``name(args)`` if callable).

        ``before(parent, args)`` runs before the span opens; ``after(span,
        args, result)`` runs after it closes, on time taken off the clock."""
        tracer = self
        calls = f"{name}.calls" if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if calls else name(args)
            tracer.counts[calls or f"{label}.calls"] += 1
            if before is not None:
                before(tracer.stack[-1] if tracer.stack else -1, args)
            i = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                t0 = time.perf_counter()
                after(i, args, result)
                tracer.excluded += time.perf_counter() - t0
            return result
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    @staticmethod
    def _rebind(module_name: str, attr: str, wrap) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("substkit"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    @staticmethod
    def _rewrap_method(cls, attr: str, wrap) -> None:
        setattr(cls, attr, wrap(cls.__dict__[attr]))

    def install(self) -> None:
        import importlib
        gen, ops, model, monads, terms = (importlib.import_module(f"substkit.{m}") for m in (
            "cbv.gen", "cbv.ops", "semantics.model", "semantics.monads", "terms"))
        for m in ("finpresheaf.laws", "finpresheaf.structures", "semantics.checks",
                  "suites", "termstruct"):
            importlib.import_module(f"substkit.{m}")

        span = self.span
        counts = self.counts

        # cbv.gen
        def note_avail(i, args, result):
            seen = self._avails.setdefault(args[0], set())
            if args[1] not in seen:
                seen.add(args[1])
                counts["inhabited.distinct"] += 1
        self._rewrap_method(gen.TermGen, "inhabited",
                            lambda f: span("cbv.gen.inhabited", f, after=note_avail))

        def note_sample(i, args, result):
            if i is None:  # nested sample call: its nodes are in the outer result
                return
            if isinstance(result, terms.Term):
                counts["cbv.gen.sample.nodes"] += count_nodes(result)
            elif isinstance(result, terms.SubstEnv):
                counts["cbv.gen.sample.nodes"] += sum(map(count_nodes, result.entries))

        def generated(parent, args):
            if parent in self._random_lemma_spans:
                counts["lemma.generated"] += 1
        for attr in ("random_context", "random_target", "random_value",
                     "random_term", "random_subst"):
            self._rewrap_method(gen.TermGen, attr, lambda f, attr=attr: span(
                "cbv.gen.sample", f, after=note_sample,
                before=generated if attr == "random_subst" else None))
        for attr in ("enumerate_terms", "enumerate_values"):
            self._rebind("substkit.cbv.gen", attr,
                         lambda f: span("cbv.gen.enumerate", f))
        self._rewrap_method(ops.CbvOperatorTable, "__init__",
                            lambda f: span("cbv.ops.table", f))

        # terms
        def checked(parent, args):
            if parent in self._random_lemma_spans:
                counts["lemma.checked"] += 1

        def nodes_out(i, args, result):
            counts["terms.substitute.nodes_out"] += count_nodes(result)
        self._rebind("substkit.terms", "substitute", lambda f: span(
            "terms.substitute", f, before=checked, after=nodes_out))
        for attr in ("compose_subst", "substitute_direct", "meta_substitute"):
            self._rebind("substkit.terms", attr,
                         lambda f, attr=attr: span(f"terms.{attr}", f))

        # suites
        self._rebind("substkit.suites", "check_term_laws",
                     lambda f: span("suites.term_laws", f))
        self._rebind("substkit.suites", "check_meta_laws",
                     lambda f: span("suites.meta_laws", f))

        # semantics
        self._rebind("substkit.semantics.denote", "denote",
                     lambda f: span("semantics.denote", f))

        def points(i, args, result):
            d = args[0]
            if result is None:
                counts["semantics.model.compare.points"] += d.space.size
            else:
                for n, p in enumerate(d.space, 1):
                    if p == result[0]:
                        counts["semantics.model.compare.points"] += n
                        break
        self._rewrap_method(model.Denotation, "difference_witness",
                            lambda f: span("semantics.model.compare", f, after=points))
        self._rebind("substkit.semantics.model", "subst_denotation",
                     lambda f: span("semantics.model.subst_denotation", f))
        for attr in ("context_space", "interpret_type"):
            self._rebind("substkit.semantics.model", attr, lambda f, attr=attr:
                         self.counter(f"semantics.model.{attr}.calls", f))
        self._rebind("substkit.semantics.checks", "check_substitution_lemma_exhaustive",
                     lambda f: span("semantics.checks.lemma", f))

        def random_lemma(parent, args):
            self._random_lemma_spans.add(len(self.names))
        self._rebind("substkit.semantics.checks", "check_substitution_lemma_random",
                     lambda f: span("semantics.checks.lemma", f, before=random_lemma))

        monad_names = {cls: key for key, cls in monads.BUNDLED.items()}
        self._rebind("substkit.semantics.monads", "check_monad_laws", lambda f: span(
            lambda args: f"semantics.monads.laws.{monad_names[type(args[0])]}", f))
        for key, cls in monads.BUNDLED.items():
            self._rewrap_method(cls, "bind", lambda f, key=key: self.counter(
                f"semantics.monads.bind.{key}.calls", f))

        # finpresheaf and the term structure
        def tensor_size(i, args, result):
            for (s, ctx), cell in result.structure.cells.items():
                counts["finpresheaf.structures.tensor.classes"] += len(cell)
                for rep in cell:
                    counts["finpresheaf.structures.tensor.generators"] += \
                        len(result.members(s, ctx, rep))
        self._rebind("substkit.finpresheaf.structures", "tensor", lambda f: span(
            "finpresheaf.structures.tensor", f, after=tensor_size))
        self._rebind("substkit.finpresheaf.structures", "free_structure",
                     lambda f: span("finpresheaf.structures.free_structure", f))
        for attr, name in (("check_action_axioms", "action"), ("check_skew", "skew"),
                           ("check_pointed_tensor", "pointed"),
                           ("check_shift_strength", "strength")):
            self._rebind("substkit.finpresheaf.laws", attr,
                         lambda f, name=name: span(f"finpresheaf.laws.{name}", f))
        for attr in ("cbv_term_structure", "motivating_identifications"):
            self._rebind("substkit.termstruct", attr,
                         lambda f: span("termstruct.coend", f))

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric; layers that did not run report 0."""
        child = [0.0] * len(self.names)
        self_s = Counter()
        # children always start after their parents, so a reverse sweep sees
        # every child before its parent
        for i in range(len(self.names) - 1, -1, -1):
            dur = self.ends[i] - self.starts[i]
            self_s[self.names[i]] += dur - child[i]
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur
        out = {f"{name}.self_s": self_s[name] for name in SPANS}
        out.update({name: self.counts[name] for name in COUNTS})
        calls = self.counts["cbv.gen.inhabited.calls"]
        out["cbv.gen.inhabited.distinct_ratio"] = (
            self.counts["inhabited.distinct"] / calls if calls else 0.0)
        gen = self.counts["lemma.generated"]
        out["cbv.gen.accept_ratio"] = self.counts["lemma.checked"] / gen if gen else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")
