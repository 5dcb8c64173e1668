"""Call-by-value types assembled a la carte, with fragment-gated formation.

A fragment configuration picks a subset of seven extensions over the base
calculus.  Each extension contributes type formers; extensions whose typing
needs mention types of an absent donor fragment get fused single constructors
instead (the empty record standing for the unit, the zero/successor option
variant, the Done/Cont variant, and the n-ary function type used by
recursion).  All of those fused shapes are expressed with the ordinary record,
variant, and function constructors, restricted to the exact shapes the need
demands.
"""

from __future__ import annotations

import itertools
import weakref

from ..sorts import Value

EXTENSIONS = ("sequential", "functions", "records", "variants", "naturals",
              "while", "recursion")


class DepthExceeded(Exception):
    pass


class TypeExpr(Value):
    """A type: the one live object of its class and fields.  Every
    constructor call, copy and unpickle returns the object already made of
    equal fields, so equal types are identical across the process, and a
    type compares and hashes by identity, in C: ``object``'s ``__eq__``
    and ``__hash__``, not the field tuple's of :class:`~substkit.sorts.Value`,
    whose immutability, copies and repr it keeps.  The table of live types
    holds each one weakly: a type nobody else holds is freed by reference
    counting, and its entry with it.  Each type computes its depth ``_d``
    when it is made, and stores its label (``_label``, of
    :func:`type_to_label`) and surface string (``_str``, of
    :func:`type_to_str`) the first time each is asked for.  A type keeps no
    sort: its sorts are pairs (:func:`~substkit.sorts.first`)."""
    # slots, not an instance dict, so that a type stays small
    __slots__ = ("_d", "_label", "_str", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        t = _live_get(key)
        if t is None:
            t = _new(cls)
            # the base's constructor refuses a wrong number of fields
            Value.__init__(t, *fields)
            d = 0
            for v in fields:
                # a field is a name, a type, or a row of (label, type) pairs
                row = (v if isinstance(v, tuple) else
                       (("", v),) if isinstance(v, TypeExpr) else ())
                for _, c in row:
                    if c._d > d:
                        d = c._d
            _set_d(t, 1 + d)
            _live[key] = t
        return t

    # __new__ has set the fields
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Base(TypeExpr):
    __slots__ = ("name",)


class Fun(TypeExpr):
    __slots__ = ("dom", "cod")


class Record(TypeExpr):
    __slots__ = ("row",)  # of (label, TypeExpr), label-sorted


class Variant(TypeExpr):
    __slots__ = ("row",)


class NatType(TypeExpr):
    __slots__ = ()


# the live type of each (class, *fields), held weakly
_live = weakref.WeakValueDictionary()
_live_get = _live.get
_new = object.__new__
_set_d = TypeExpr._d.__set__
_set_label = TypeExpr._label.__set__
_set_str = TypeExpr._str.__set__

NAT = NatType()
UNIT = Record(())


def _mk_row(pairs) -> tuple:
    pairs = tuple(sorted(pairs, key=lambda kv: kv[0]))
    labels = [k for k, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate row labels in {labels!r}")
    return pairs


def record(pairs) -> Record:
    return Record(_mk_row(pairs))


def variant(pairs) -> Variant:
    return Variant(_mk_row(pairs))


def fun(dom: TypeExpr, cod: TypeExpr) -> Fun:
    return Fun(dom, cod)


def maybe_shape(t: TypeExpr) -> Variant:
    return Variant((("0", UNIT), ("1+", t)))


def done_cont_shape(done: TypeExpr, cont: TypeExpr) -> Variant:
    return Variant((("Cont", cont), ("Done", done)))


def is_maybe_shape(t: TypeExpr) -> bool:
    return (isinstance(t, Variant) and len(t.row) == 2
            and t.row[0][0] == "0" and t.row[0][1] == UNIT
            and t.row[1][0] == "1+")


def is_done_cont_shape(t: TypeExpr) -> bool:
    return (isinstance(t, Variant) and len(t.row) == 2
            and t.row[0][0] == "Cont" and t.row[1][0] == "Done")


def is_context_row(t: TypeExpr) -> bool:
    """Rows minted from binder contexts label positions with numerals."""
    return (isinstance(t, Record)
            and sorted(l for l, _ in t.row) == sorted(str(i) for i in range(len(t.row))))


def type_depth(t: TypeExpr) -> int:
    return t._d


class FragmentConfig(Value):
    """A fragment: the extensions it enables over its base types, and the
    bounds of its models and operators.  The types it forms (``valid_type``)
    are its operators' sorts, first-class as values and second-class as
    computations; ``type_depth`` only limits what operators are minted."""

    # a table holds its configuration; tests watch it freed, by weak reference
    __slots__ = ("extensions", "base_types", "nat_bound", "type_depth", "_h",
                 "_valid", "_types", "__weakref__")

    def __init__(self, extensions: frozenset, base_types: tuple, nat_bound: int,
                 type_depth: int):
        bad = extensions - set(EXTENSIONS)
        if bad:
            raise ValueError(f"unknown extensions {sorted(bad)!r}")
        if not base_types:
            raise ValueError("at least one base type is required")
        if len(set(base_types)) != len(base_types):
            raise ValueError(f"base_types contains duplicates: {base_types!r}")
        if nat_bound < 1 or type_depth < 1:
            raise ValueError("bounds must be positive")
        super().__init__(extensions, base_types, nat_bound, type_depth)
        _set_cfg_h(self, hash((extensions, base_types, nat_bound, type_depth)))
        # valid_type's and types_upto's answers, owned by the configuration
        # they are about; a copy answers its own
        _set_valid(self, {})
        _set_types(self, {})

    def __hash__(self):
        return self._h

    def has(self, ext: str) -> bool:
        return ext in self.extensions

    def name(self) -> str:
        enabled = [e for e in EXTENSIONS if e in self.extensions]
        return "base" + ("" if not enabled else "+" + "+".join(enabled))


_set_cfg_h = FragmentConfig._h.__set__
_set_valid = FragmentConfig._valid.__set__
_set_types = FragmentConfig._types.__set__


def config(extensions=(), base_types=("b",), nat_bound=8, type_depth=3) -> FragmentConfig:
    return FragmentConfig(frozenset(extensions), tuple(base_types), nat_bound,
                          type_depth)


def all_fragment_configs(base_types=("b",), nat_bound=8):
    """All 128 extension subsets, in menu order, at the default type depth."""
    out = []
    for k in range(len(EXTENSIONS) + 1):
        for combo in itertools.combinations(EXTENSIONS, k):
            out.append(config(combo, base_types, nat_bound))
    return out


def valid_type(t: TypeExpr, cfg: FragmentConfig) -> bool:
    """Is the type derivable from the formation rules the fragment enables?"""
    try:
        return cfg._valid[t]
    except KeyError:
        ok = cfg._valid[t] = _derivable(t, cfg)
        return ok


def _derivable(t: TypeExpr, cfg: FragmentConfig) -> bool:
    if isinstance(t, Base):
        return t.name in cfg.base_types
    if isinstance(t, NatType):
        return cfg.has("naturals")
    if isinstance(t, Fun):
        if not valid_type(t.cod, cfg):
            return False
        if cfg.has("functions") and valid_type(t.dom, cfg):
            return True
        # the fused n-ary function type of the recursion fragment
        return (cfg.has("recursion") and is_context_row(t.dom)
                and all(valid_type(v, cfg) for _, v in t.dom.row))
    if isinstance(t, Record):
        if cfg.has("records") and all(valid_type(v, cfg) for _, v in t.row):
            return True
        if t == UNIT and cfg.has("naturals"):
            return True
        return (cfg.has("recursion") and is_context_row(t)
                and all(valid_type(v, cfg) for _, v in t.row))
    if isinstance(t, Variant):
        if cfg.has("variants") and all(valid_type(v, cfg) for _, v in t.row):
            return True
        if cfg.has("naturals") and is_maybe_shape(t) and valid_type(t.row[1][1], cfg):
            return True
        return (cfg.has("while") and is_done_cont_shape(t)
                and all(valid_type(v, cfg) for _, v in t.row))
    return False


def typing_needs(cfg: FragmentConfig) -> list[str]:
    """The fragment's type formers, one line each, marking the fused ones;
    which types are valid is decided by :func:`valid_type` alone."""
    out = []
    if cfg.has("functions"):
        out.append("function types (- -> -)")
    if cfg.has("records"):
        out.append("record types {Ci: -}")
    if cfg.has("variants"):
        out.append("variant types <Ci: ->")
    if cfg.has("naturals"):
        fused = "" if cfg.has("records") else " (fused unit)"
        fusedv = "" if cfg.has("variants") else " (fused)"
        out.append(f"Nat, unit {{}}{fused}, option <0: {{}}, 1+: ->{fusedv}")
    if cfg.has("while"):
        fused = "" if cfg.has("variants") else " (fused)"
        out.append(f"<Done: -, Cont: ->{fused}")
    if cfg.has("recursion"):
        if cfg.has("functions") and cfg.has("records"):
            out.append("({xi: -} -> -) from functions+records")
        else:
            out.append("({xi: -} -> -) fused n-ary functions")
    return out


ROW_LABELS = ("A", "B")


def types_upto(cfg: FragmentConfig, depth: int) -> tuple:
    """The fragment's valid types of depth at most ``depth``, by depth and
    then by rendering; no two types of a universe render alike at one depth,
    so that order is total and never follows the order of a set.  Each depth
    adds one layer of type formers to the types of the depth below.  A type
    is one object across the process, so equal types in any two universes,
    of one fragment or of two, are identical.

    One gap: with ``recursion`` and neither ``records`` nor ``naturals``,
    the empty record ``{}`` (depth 1) enters only as a component of the
    depth-2 layer, so the depth-2 types built on it, ``{} -> {}`` and
    ``{0: {}}``, first appear at depth 3."""
    try:
        return cfg._types[depth]
    except KeyError:
        pass
    if depth <= 1:
        seen = {Base(b) for b in cfg.base_types}
        if cfg.has("naturals"):
            seen.add(NAT)
        if cfg.has("records") or cfg.has("naturals"):
            seen.add(UNIT)
    else:
        below = types_upto(cfg, depth - 1)
        seen = set(below)
        smaller = sorted(below, key=type_to_str)
        layer = []
        if cfg.has("functions"):
            layer += [fun(a, b) for a in smaller for b in smaller]
        if cfg.has("records"):
            for k in (1, 2):
                for combo in itertools.product(smaller, repeat=k):
                    layer.append(record(tuple(zip(ROW_LABELS, combo))))
        if cfg.has("variants"):
            for k in (1, 2):
                for combo in itertools.product(smaller, repeat=k):
                    layer.append(variant(tuple(zip(ROW_LABELS, combo))))
        if cfg.has("naturals"):
            layer += [maybe_shape(a) for a in smaller]
        if cfg.has("while"):
            layer += [done_cont_shape(a, b) for a in smaller for b in smaller]
        if cfg.has("recursion"):
            for a in smaller:
                layer.append(record((("0", a),)))
                layer.append(fun(record((("0", a),)), a))
                layer += [fun(record(()), b) for b in smaller]
            layer.append(record(()))
        for t in layer:
            if type_depth(t) <= depth and valid_type(t, cfg):
                seen.add(t)
    out = cfg._types[depth] = tuple(
        sorted(seen, key=lambda t: (type_depth(t), type_to_str(t))))
    return out


# --- concrete type syntax -----------------------------------------------------

def type_to_str(t: TypeExpr) -> str:
    """Surface rendering; function arrows associate to the right."""
    try:
        return t._str
    except AttributeError:
        pass
    if isinstance(t, Base):
        out = t.name
    elif isinstance(t, NatType):
        out = "Nat"
    elif isinstance(t, Fun):
        dom = type_to_str(t.dom)
        if isinstance(t.dom, Fun):
            dom = f"({dom})"
        out = f"{dom} -> {type_to_str(t.cod)}"
    else:
        open_, close = ("{", "}") if isinstance(t, Record) else ("<", ">")
        out = open_ + ", ".join(f"{l}: {type_to_str(v)}" for l, v in t.row) + close
    _set_str(t, out)
    return out


def type_to_label(t: TypeExpr) -> str:
    """Canonical rendering for operator labels, with fully parenthesized
    arrows: equal types render equal and distinct types distinct, so one
    label names one operator."""
    try:
        return t._label
    except AttributeError:
        pass
    if isinstance(t, Base):
        out = t.name
    elif isinstance(t, NatType):
        out = "Nat"
    elif isinstance(t, Fun):
        out = f"({type_to_label(t.dom)}→{type_to_label(t.cod)})"
    else:
        open_, close = ("{", "}") if isinstance(t, Record) else ("<", ">")
        out = open_ + ",".join(f"{l}:{type_to_label(v)}" for l, v in t.row) + close
    _set_label(t, out)
    return out


# How deeply a program, a type or a context may nest: the surface parser
# (``cbv.surface``), the one reader of all three, counts one level per nested
# term, value, application and type, and refuses deeper input.  Every input
# within the bound is parsed, typechecked, folded and denoted within Python's
# default recursion limit.
MAX_NESTING = 100


def parse_fragment(text: str, nat_bound: int, base_types=("b",),
                   type_depth: int = 3) -> FragmentConfig:
    """A configuration from 'base', 'full', a list like 'sequential,functions',
    or a name as ``FragmentConfig.name`` prints it, such as
    'base+sequential+functions'."""
    text = text.strip()
    if text in ("base", ""):
        exts = ()
    elif text == "full":
        exts = EXTENSIONS
    else:
        exts = tuple(p.strip() for p in text.replace("+", ",").split(",") if p.strip())
        # a printed name puts 'base+' before the extensions it lists
        if text.split("+", 1)[0].strip() == "base" and len(exts) > 1:
            exts = exts[1:]
        whole = [e for e in exts if e in ("base", "full")]
        if whole:
            raise ValueError(f"fragment {text!r}: {whole[0]!r} names a whole "
                             f"fragment, not an extension, so it stands alone")
    return config(exts, base_types, nat_bound, type_depth)


def config_from_dict(data: dict) -> FragmentConfig:
    """A configuration from a parsed JSON object; a field of the wrong JSON
    type raises ``ValueError``."""
    exts, bases = data.get("extensions", []), data.get("base_types", ["b"])
    bounds = data.get("nat_bound", 8), data.get("type_depth", 3)
    if not (all(isinstance(x, list) and all(isinstance(n, str) for n in x)
                for x in (exts, bases)) and all(type(n) is int for n in bounds)):
        raise ValueError("extensions and base_types must be lists of names, "
                         "nat_bound and type_depth integers")
    return FragmentConfig(frozenset(exts), tuple(bases), *bounds)
