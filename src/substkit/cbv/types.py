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
from dataclasses import dataclass, fields

EXTENSIONS = ("sequential", "functions", "records", "variants", "naturals",
              "while", "recursion")


class DepthExceeded(Exception):
    pass


class TypeExpr:
    """A type; each one computes its hash ``_h`` and its depth ``_d`` once,
    when it is built, and stores its label (``_label``, of
    :func:`type_to_label`) and surface string (``_str``, of
    :func:`type_to_str`) the first time each is asked for.  A type keeps no
    sort: its sorts are pairs (:func:`~substkit.sorts.first`)."""
    __slots__ = ()

    def __reduce__(self):
        # copies and pickles are built from the fields, which derive the rest
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# what each type derives from its fields (see TypeExpr); slots, not an
# instance dict, so that a type stays small
_DERIVED = ("_h", "_d", "_label", "_str")


def _row_depth(row: tuple) -> int:
    return 1 + max((v._d for _, v in row), default=0)


@dataclass(frozen=True)
class Base(TypeExpr):
    __slots__ = ("name",) + _DERIVED
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("B", self.name)))
        object.__setattr__(self, "_d", 1)

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class Fun(TypeExpr):
    __slots__ = ("dom", "cod") + _DERIVED
    dom: TypeExpr
    cod: TypeExpr

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("F", self.dom, self.cod)))
        object.__setattr__(self, "_d", 1 + max(self.dom._d, self.cod._d))

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class Record(TypeExpr):
    __slots__ = ("row",) + _DERIVED
    row: tuple  # of (label, TypeExpr), label-sorted

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("R", self.row)))
        object.__setattr__(self, "_d", _row_depth(self.row))

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class Variant(TypeExpr):
    __slots__ = ("row",) + _DERIVED
    row: tuple

    def __post_init__(self):
        object.__setattr__(self, "_h", hash(("V", self.row)))
        object.__setattr__(self, "_d", _row_depth(self.row))

    def __hash__(self):
        return self._h


@dataclass(frozen=True)
class NatType(TypeExpr):
    __slots__ = _DERIVED

    def __post_init__(self):
        object.__setattr__(self, "_h", hash("NatType"))
        object.__setattr__(self, "_d", 1)

    def __hash__(self):
        return self._h


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


@dataclass(frozen=True)
class FragmentConfig:
    """A fragment: the extensions it enables over its base types, and the
    bounds of its models and operators.  The types it forms (``valid_type``)
    are its operators' sorts, first-class as values and second-class as
    computations; ``type_depth`` only limits what operators are minted."""

    extensions: frozenset
    base_types: tuple
    nat_bound: int = 8
    type_depth: int = 3

    def __post_init__(self):
        bad = self.extensions - set(EXTENSIONS)
        if bad:
            raise ValueError(f"unknown extensions {sorted(bad)!r}")
        if not self.base_types:
            raise ValueError("at least one base type is required")
        if len(set(self.base_types)) != len(self.base_types):
            raise ValueError(f"base_types contains duplicates: {self.base_types!r}")
        if self.nat_bound < 1 or self.type_depth < 1:
            raise ValueError("bounds must be positive")
        object.__setattr__(self, "_h", hash((self.extensions, self.base_types,
                                             self.nat_bound, self.type_depth)))
        # valid_type's and types_upto's answers, owned by the configuration
        # they are about
        object.__setattr__(self, "_valid", {})
        object.__setattr__(self, "_types", {})

    def __hash__(self):
        return self._h

    def has(self, ext: str) -> bool:
        return ext in self.extensions

    def name(self) -> str:
        enabled = [e for e in EXTENSIONS if e in self.extensions]
        return "base" + ("" if not enabled else "+" + "+".join(enabled))


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
    then by rendering.  Each depth adds one layer of type formers to the
    types of the depth below, so the universes of one fragment share their
    type objects, and equal types among them are identical.

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
        seen = set(types_upto(cfg, depth - 1))
        smaller = sorted(seen, key=type_to_str)
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
    object.__setattr__(t, "_str", out)
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
    object.__setattr__(t, "_label", out)
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
