"""Exact integer graph invariants of a tree."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import _kernels
from .tree import Tree, degrees


class IndexBundle(NamedTuple):
    """The five invariants of one tree.

    irr: sum over edges of |d(u)-d(v)| (Albertson irregularity).
    irr_t: the same absolute difference over all unordered vertex pairs.
    sigma: sum over edges of (d(u)-d(v))^2.
    m1, m2: first and second Zagreb index.
    """

    irr: int
    irr_t: int
    sigma: int
    m1: int
    m2: int


def compute_indices(t: Tree) -> IndexBundle:
    """All five invariants in one pass; a single vertex yields all zeros."""
    irr, irr_t, sigma, m1, m2 = _kernels.index_bundle(t.n, t.edges)
    return IndexBundle(irr=irr, irr_t=irr_t, sigma=sigma, m1=m1, m2=m2)


def total_irregularity_by_sequence(t: Tree) -> int:
    """:func:`total_irregularity_by_degrees` of the tree's degrees."""
    return total_irregularity_by_degrees(degrees(t))


def total_irregularity_by_degrees(deg: Sequence[int]) -> int:
    """Total irregularity from the sorted degree sequence (a list or ``bytes``).

    Evaluates ``2(n+1)m - 2 * sum(i * d_i)`` with degrees sorted
    non-increasing and positions counted from 1. Agrees with the pairwise
    definition in :func:`compute_indices` on every tree.
    """
    n = len(deg)
    weighted = sum(i * d for i, d in enumerate(sorted(deg, reverse=True), start=1))
    return 2 * (n + 1) * (n - 1) - 2 * weighted
