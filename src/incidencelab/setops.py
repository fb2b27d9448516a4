"""Finite point sets over Z_q.

A PointSet holds its labels as one array: reduced residues, one row per
element, rows sorted lexicographically with no repeats.  The samplers build
that array and the counts read it, with no other form in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .modring import factorize


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite subset of Z_q^n.

    `labels` has shape (size, n) and holds the elements in [0, q), sorted
    and distinct: int64, or Python ints (an object array) when q >= 2^63.
    Iteration yields the elements in that order, as ints in dimension 1 and
    tuples beyond.  Construct through :func:`point_set`, which reduces,
    sorts and validates.
    """

    q: int
    labels: np.ndarray

    @property
    def dimension(self) -> int:
        return self.labels.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        if self.dimension == 1:
            return iter(self.labels[:, 0].tolist())
        return map(tuple, self.labels.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.q == other.q
                and np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return (f"PointSet(q={self.q}, dim={self.dimension}, "
                f"size={len(self)})")


def point_set(q, elements, dimension: int | None = None) -> PointSet:
    """Build a PointSet, reducing componentwise into [0, q).  `elements` are
    ints (dimension 1) or equal-length tuples, or an integer array with one
    row per element.  Inputs that reduce to the same residue are rejected
    rather than merged.  An array that is already reduced and sorted, as
    the samplers draw them, is held through a read-only view instead of a
    copy, so the caller must not write to it afterwards."""
    factorize(q)  # refuses a q that is not an integer >= 2
    if not isinstance(elements, np.ndarray):
        elements = list(elements)
        if len({np.shape(el) for el in elements}) > 1:
            raise InvalidArgumentError("elements mix scalars and tuples of different lengths")
        elements = np.array(elements, dtype=object)
    width = elements.shape[1] if elements.ndim == 2 else 1
    if dimension is None:
        if not len(elements):
            raise InvalidArgumentError("dimension is required for an empty point set")
        dimension = width
    if dimension < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {dimension}")
    if elements.ndim > 2 or (len(elements) and width != dimension):
        raise InvalidArgumentError(
            f"expected elements of dimension {dimension}, got shape {elements.shape[1:]}")

    dtype = np.int64 if q < 2 ** 63 else object
    labels = elements.reshape(len(elements), dimension)
    reduced = labels.dtype == dtype and (
        not len(labels) or 0 <= labels.min() <= labels.max() < q)
    if not reduced:
        exact = object if elements.dtype == object else dtype  # Python ints may exceed int64
        labels = (labels.astype(exact) % q).astype(dtype, copy=False)
    if not _is_sorted(labels):
        labels = labels[np.lexsort(labels.T[::-1])]
    if (labels[1:] == labels[:-1]).all(axis=1).any():
        raise InvalidArgumentError("elements collide after reduction mod q")
    labels.flags.writeable = False  # on the reshaped view, not the caller's array
    return PointSet(q, labels)


def _is_sorted(labels: np.ndarray) -> bool:
    """Whether the rows are in nondecreasing lexicographic order: each row
    is at least its predecessor in the first column where the two differ."""
    prev, nxt = labels[:-1], labels[1:]
    first = (prev != nxt).argmax(axis=1)
    rows = np.arange(len(first))
    return bool((nxt[rows, first] >= prev[rows, first]).all())
