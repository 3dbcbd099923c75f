"""Permutations of {0..d-1}: pair statistics, feature map, neighborhoods, sampling.

A permutation is a bijection pi on {0..d-1}, stored as the array of its
values (entry i is pi(i)). All objects are immutable after construction
and every operation here is a pure function.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import accel


class Permutation:
    """Validated bijection on {0..d-1}; the search-space element.

    Parameters
    ----------
    mapping : sequence of int
        Values pi(0), ..., pi(d-1). Must be a rearrangement of 0..d-1
        with d >= 2; floats are accepted only where integral.
    """

    __slots__ = ("values",)

    def __init__(self, mapping: Sequence[int]):
        raw = np.asarray(mapping)
        if raw.dtype.kind not in "biu" and not (
            raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (np.trunc(raw) == raw))
        ):
            raise ValueError(f"permutation entries must be integers, got {mapping!r}")
        values = raw.astype(np.int64)
        if values.ndim != 1 or values.shape[0] < 2:
            raise ValueError(f"permutation needs at least 2 entries, got {values!r}")
        d = values.shape[0]
        if not np.array_equal(np.sort(values), np.arange(d)):
            raise ValueError(f"not a bijection on 0..{d - 1}: {list(mapping)!r}")
        values.setflags(write=False)
        self.values = values

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "Permutation":
        # Fast path for values known to be valid (internal use only).
        obj = object.__new__(cls)
        values = np.ascontiguousarray(values, dtype=np.int64)
        values.setflags(write=False)
        obj.values = values
        return obj

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.values)

    def __getitem__(self, i: int) -> int:
        return int(self.values[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"Permutation([{', '.join(str(int(v)) for v in self.values)}])"

    def serialize(self) -> str:
        """Wire format: comma-separated 0-based integers, e.g. "2,0,1"."""
        return ",".join(str(int(v)) for v in self.values)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        try:
            mapping = [int(tok) for tok in text.strip().split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse permutation from {text!r}") from exc
        return cls(mapping)


def identity(d: int) -> Permutation:
    return Permutation._wrap(np.arange(d, dtype=np.int64))


def num_pairs(d: int) -> int:
    """C(d,2), the number of unordered object pairs."""
    return d * (d - 1) // 2


def random_permutation(d: int, rng: np.random.Generator) -> Permutation:
    """Uniform draw from S_d (Fisher-Yates shuffle); deterministic given the generator state."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return Permutation._wrap(rng.permutation(d).astype(np.int64))


def _check_same_d(a: Permutation, b: Permutation) -> None:
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")


def discordant_pairs(a: Permutation, b: Permutation) -> int:
    """Number of object pairs ordered oppositely by a and b (Kendall tau distance).

    Symmetric in its arguments; ranges over [0, C(d,2)]. The concordant
    count is C(d,2) minus this value.
    """
    _check_same_d(a, b)
    return accel.discordant_count(a.values, b.values)


def kendall_feature_map(p: Permutation) -> np.ndarray:
    """Explicit feature map of the Kendall kernel: length C(d,2), unit norm.

    Entry for pair (i, j), i < j, is +sqrt(1/C(d,2)) when p(i) > p(j)
    and -sqrt(1/C(d,2)) otherwise.
    """
    return kendall_feature_matrix(p.values[None, :])[0]


def kendall_feature_matrix(perms: np.ndarray) -> np.ndarray:
    """Stack of feature maps, one row per permutation row of `perms`."""
    signs = accel.pair_signs(perms)
    return signs / np.sqrt(signs.shape[1])


def swap_neighbor_matrix(values: np.ndarray) -> np.ndarray:
    """All C(d,2) single-transposition neighbors as rows, pairs in lexicographic order."""
    d = values.shape[0]
    iu, ju = accel.pair_indices(d)
    out = np.tile(values, (iu.shape[0], 1))
    rows = np.arange(iu.shape[0])
    out[rows, iu], out[rows, ju] = values[ju], values[iu]
    return out


def swap_neighbors(p: Permutation) -> list[Permutation]:
    """The C(d,2) distinct permutations differing from p by one position swap."""
    return [Permutation._wrap(row) for row in swap_neighbor_matrix(p.values)]


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a o b)(x) = a(b(x))."""
    _check_same_d(a, b)
    return Permutation._wrap(a.values[b.values])


def permutation_matrix(p: Permutation) -> np.ndarray:
    """0/1 matrix P with P[i, p(i)] = 1.

    This orientation makes Tr(W P A P^T) expand to
    sum_{i<j} W[i,j] * sign(p(i) - p(j)), the form used by the
    Thompson-sampling QAP construction.
    """
    P = np.zeros((p.d, p.d), dtype=np.float64)
    P[np.arange(p.d), p.values] = 1.0
    return P
