"""Finite sets with guarded enumeration.

Function spaces can be astronomically large (a Kleisli exponential at a
natural-number bound of 25 has 26^25 elements), so sets know their size
exactly but only enumerate on demand, refusing past a cap.  Elements are
always hashable canonical values; functions are output tuples in domain
enumeration order.
"""

from __future__ import annotations

import itertools


class EnumerationTooLarge(Exception):
    pass


ENUM_CAP = 1_000_000


class FinSet:
    def __init__(self, elements):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self._index

    def index(self, e) -> int:
        return self._index[e]

    def __repr__(self):
        return f"FinSet({self.size})"


class FunSpace:
    """All functions dom -> cod, as output tuples; enumerated only when small."""

    def __init__(self, dom: FinSet, cod):
        self.dom = dom
        self.cod = cod

    @property
    def size(self) -> int:
        return _size(self.cod) ** self.dom.size

    def __len__(self):
        return self.size

    def __iter__(self):
        if self.size > ENUM_CAP:
            raise EnumerationTooLarge(
                f"function space of more than {ENUM_CAP} elements")
        return iter(itertools.product(tuple(self.cod), repeat=self.dom.size))

    def __contains__(self, f):
        return (isinstance(f, tuple) and len(f) == self.dom.size
                and all(v in self.cod for v in f))

    def index(self, f) -> int:
        base = _size(self.cod)
        out = 0
        for v in f:
            out = out * base + self.cod.index(v)
        return out

    def __repr__(self):
        return f"FunSpace({self.size})"


def _size(s) -> int:
    return s.size if hasattr(s, "size") else len(s)


class ProductSpace:
    """The product of component sets, enumerated lazily and guarded."""

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def size(self) -> int:
        out = 1
        for s in self.components:
            out *= _size(s)
        return out

    def __len__(self):
        return self.size

    def __iter__(self):
        if self.size > ENUM_CAP:
            raise EnumerationTooLarge(f"product of more than {ENUM_CAP} elements")
        return iter(itertools.product(*[tuple(s) for s in self.components]))

    def __contains__(self, point):
        return (isinstance(point, tuple) and len(point) == len(self.components)
                and all(v in s for v, s in zip(point, self.components)))

    def __repr__(self):
        return f"ProductSpace({self.size})"
