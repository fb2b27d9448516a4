"""Finite point sets over Z_q.

A PointSet holds distinct, reduced residue tuples (plain ints in dimension 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError
from .modring import Modulus, as_modulus


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite subset of Z_q^n.

    Dimension-1 elements are ints; higher dimensions use tuples of ints.
    Construct through :func:`point_set`, which reduces and validates.
    """

    modulus: Modulus
    dimension: int
    elements: frozenset

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements())

    def __contains__(self, el) -> bool:
        return el in self.elements

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.modulus.q == other.modulus.q
                and self.dimension == other.dimension
                and self.elements == other.elements)

    def __repr__(self) -> str:
        return (f"PointSet(q={self.modulus.q}, dim={self.dimension}, "
                f"size={len(self.elements)})")


def _reduce_element(el, q: int, dimension: int):
    if dimension == 1:
        if isinstance(el, tuple):
            if len(el) != 1:
                raise InvalidArgumentError(f"expected a scalar element, got {el!r}")
            el = el[0]
        return int(el) % q
    if not isinstance(el, tuple) or len(el) != dimension:
        raise InvalidArgumentError(f"expected a {dimension}-tuple, got {el!r}")
    return tuple(int(c) % q for c in el)


def point_set(q, elements, dimension: int | None = None) -> PointSet:
    """Build a PointSet, reducing componentwise into [0, q).  Inputs that
    reduce to the same residue are rejected rather than merged."""
    mod = as_modulus(q)
    raw = list(elements)
    if dimension is None:
        if not raw:
            raise InvalidArgumentError("dimension is required for an empty point set")
        dimension = len(raw[0]) if isinstance(raw[0], tuple) else 1
    if dimension < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {dimension}")

    reduced = [_reduce_element(el, mod.q, dimension) for el in raw]
    elems = frozenset(reduced)
    if len(elems) != len(reduced):
        raise InvalidArgumentError("elements collide after reduction mod q")
    return PointSet(mod, dimension, elems)
