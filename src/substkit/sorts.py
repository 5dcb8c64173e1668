"""Sorting systems, sorted contexts, renamings, and their enumeration.

Sorts come in two classes.  First-class sorts may appear in contexts and be
substituted for; second-class sorts have terms but no variables.  Contexts are
nameless: a variable is its 0-based position, leftmost first.

A renaming ``rho : g1 -> g2`` acts on variables *of g2*, producing variables
of ``g1`` (the mnemonic is the judgement ``g1 |- rho : g2``).  Consequently
renamings compose like functions in the opposite order, and structures indexed
by contexts are contravariant in renamings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, Hashable, Iterable, Sequence

FIRST = "first"
SECOND = "second"


class ContextMismatch(Exception):
    """Raised when composing renamings whose contexts do not line up."""


@dataclass(frozen=True)
class Sort:
    tag: str
    ident: Hashable
    _hash = None  # not a field: hash((tag, ident)), kept from the first hash

    def __post_init__(self):
        if self.tag not in (FIRST, SECOND):
            raise ValueError(f"bad sort tag {self.tag!r}")

    def __hash__(self):
        # sorts key every action lookup of the tensor, but the many sorts that
        # variables and projections build are never hashed
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.tag, self.ident)))
        return self._hash

    @property
    def is_first(self) -> bool:
        return self.tag == FIRST

    def __repr__(self):
        return f"{'Fst' if self.is_first else 'Snd'}({self.ident!r})"


def first(ident: Hashable) -> Sort:
    return Sort(FIRST, ident)


def second(ident: Hashable) -> Sort:
    return Sort(SECOND, ident)


@dataclass(frozen=True)
class SortingSystem:
    """A pair of finite sort sets; the total sort set is their tagged union.

    Tags are part of the ``Sort`` values, so the two components may reuse
    identifiers.
    """

    fst_sorts: tuple
    snd_sorts: tuple = ()

    def __post_init__(self):
        for name, comp in (("fst_sorts", self.fst_sorts), ("snd_sorts", self.snd_sorts)):
            if len(set(comp)) != len(comp):
                raise ValueError(f"{name} contains duplicates: {comp!r}")

    def __contains__(self, sort: Sort) -> bool:
        pool = self.fst_sorts if sort.is_first else self.snd_sorts
        return sort.ident in pool


class Context:
    """An ordered, possibly empty list of first-class sort identifiers."""

    __slots__ = ("entries", "_hash", "_ext")

    def __init__(self, entries: Iterable[Hashable] = ()):
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_hash", hash(self.entries))
        object.__setattr__(self, "_ext", None)

    def __setattr__(self, *a):
        raise AttributeError("Context is immutable")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, pos):
        return self.entries[pos]

    def sort_at(self, pos: int) -> Hashable:
        return self.entries[pos]

    def __eq__(self, other):
        return self is other or (isinstance(other, Context)
                                 and self.entries == other.entries)

    def __hash__(self):
        return self._hash

    def extend(self, binder: "Context") -> "Context":
        """This context followed by ``binder``: the context itself for an
        empty binder, else one shared extension per binder, kept in a table
        the context makes on its first extension and that dies with it."""
        if not binder.entries:
            return self
        ext = self._ext
        if ext is None:
            ext = {}
            object.__setattr__(self, "_ext", ext)
        got = ext.get(binder)
        if got is None:
            got = ext[binder] = Context(self.entries + binder.entries)
        return got

    def __repr__(self):
        return f"Context{list(self.entries)!r}"

    def validate(self, system: Container[Sort]) -> None:
        for e in self.entries:
            if first(e) not in system:
                raise ValueError(f"context entry {e!r} is not a first-class sort")


class Renaming:
    """A sort-preserving map from positions of ``target`` to positions of ``source``."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Context, target: Context, mapping: Sequence[int]):
        mapping = tuple(mapping)
        if len(mapping) != len(target):
            raise ValueError("renaming map must cover every target position")
        for y, x in enumerate(mapping):
            if not 0 <= x < len(source):
                raise ValueError(f"position {x} out of range for {source!r}")
            if source.entries[x] != target.entries[y]:
                raise ValueError(
                    f"sort mismatch: target position {y} has sort {target.entries[y]!r} "
                    f"but is sent to source position {x} of sort {source.entries[x]!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, *a):
        raise AttributeError("Renaming is immutable")

    def __call__(self, pos: int) -> int:
        return self.mapping[pos]

    def __eq__(self, other):
        return (isinstance(other, Renaming) and self.source == other.source
                and self.target == other.target and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        return f"Renaming({self.source!r} -> {self.target!r}, {self.mapping!r})"

    def key(self):
        return (self.source.entries, self.target.entries, self.mapping)

    def extend(self, binder: Context) -> "Renaming":
        """Extend identically on a binder appended to the right of both contexts."""
        n = len(self.source)
        src = Context(self.source.entries + binder.entries)
        tgt = Context(self.target.entries + binder.entries)
        return Renaming(src, tgt, self.mapping + tuple(range(n, n + len(binder))))


def identity_renaming(ctx: Context) -> Renaming:
    return Renaming(ctx, ctx, range(len(ctx)))


def compose_renamings(rho: Renaming, rho2: Renaming) -> Renaming:
    """The composite ``g1 -> g3`` of ``rho : g1 -> g2`` and ``rho2 : g2 -> g3``.

    Position maps compose the other way round: a g3-position goes through
    rho2's map into g2, then through rho's map into g1.
    """
    if rho.target != rho2.source:
        raise ContextMismatch(f"cannot compose: {rho.target!r} != {rho2.source!r}")
    return Renaming(rho.source, rho2.target, tuple(rho.mapping[y] for y in rho2.mapping))


def concat_contexts(g1: Context, g2: Context) -> tuple[Context, Renaming, Renaming]:
    """Concatenation with its two projection renamings (the chosen product)."""
    ctx = Context(g1.entries + g2.entries)
    pi1 = Renaming(ctx, g1, range(len(g1)))
    pi2 = Renaming(ctx, g2, range(len(g1), len(g1) + len(g2)))
    return ctx, pi1, pi2


def pair_renamings(f: Renaming, g: Renaming) -> Renaming:
    """The unique renaming into the concatenation with the given projections."""
    if f.source != g.source:
        raise ContextMismatch("pairing requires a common source context")
    tgt = Context(f.target.entries + g.target.entries)
    return Renaming(f.source, tgt, f.mapping + g.mapping)


def enumerate_contexts(sort_ids: Sequence[Hashable], max_len: int) -> list[Context]:
    """All contexts over the given alphabet up to the length bound, shortest
    first, entries in alphabet order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = []
    for k in range(max_len + 1):
        out.extend(Context(c) for c in itertools.product(sort_ids, repeat=k))
    return out


def _maps(g1: Context, g2: Context):
    """The position maps of :func:`enumerate_renamings`, in its order."""
    pools = [[i for i, e in enumerate(g1.entries) if e == s] for s in g2.entries]
    return itertools.product(*pools)


def enumerate_renamings(g1: Context, g2: Context) -> list[Renaming]:
    """All sort-preserving position maps from ``g2`` into ``g1``."""
    return [Renaming(g1, g2, m) for m in _maps(g1, g2)]
