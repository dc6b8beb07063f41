"""Set-system substrate: the ``(U, F)`` instances the paper operates on.

A :class:`SetSystem` holds a family of ``m`` sets over a ground set of
``n`` elements, with the conventions used throughout the paper and this
package: sets are identified by integers ``0..m-1`` and elements by
integers ``0..n-1``.  It provides exact coverage computation (the
quantity every streaming algorithm approximates), element frequencies
(the ``lambda``-common structure of Definition 2.1), and conversion to
edge-arrival streams.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["SetSystem"]


class SetSystem:
    """An explicit Max k-Cover instance ``(U, F)``.

    Parameters
    ----------
    sets:
        Sequence of element iterables; ``sets[j]`` is the ``j``-th set.
    n:
        Universe size.  Defaults to one past the largest element present;
        pass it explicitly when the instance has isolated elements.
    """

    def __init__(self, sets: Sequence[Iterable[int]], n: int | None = None):
        self._sets: list[frozenset[int]] = [
            frozenset(int(e) for e in s) for s in sets
        ]
        max_elem = -1
        for s in self._sets:
            for e in s:
                if e < 0:
                    raise ValueError(f"elements must be non-negative, got {e}")
                if e > max_elem:
                    max_elem = e
        inferred = max_elem + 1
        if n is None:
            n = inferred
        elif n < inferred:
            raise ValueError(
                f"n={n} is smaller than the largest element + 1 ({inferred})"
            )
        self.n = int(n)

    # -- basic shape ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of sets in the family."""
        return len(self._sets)

    def set_contents(self, set_id: int) -> frozenset[int]:
        """Elements of set ``set_id``."""
        return self._sets[set_id]

    def set_size(self, set_id: int) -> int:
        """Cardinality of set ``set_id``."""
        return len(self._sets[set_id])

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self):
        return iter(self._sets)

    def total_size(self) -> int:
        """Sum of set sizes = number of edges in the stream."""
        return sum(len(s) for s in self._sets)

    # -- coverage -------------------------------------------------------

    def coverage(self, set_ids: Iterable[int]) -> int:
        """``|C(Q)|``: number of elements covered by the given sets."""
        covered: set[int] = set()
        for j in set_ids:
            covered |= self._sets[j]
        return len(covered)

    def covered_elements(self, set_ids: Iterable[int]) -> set[int]:
        """``C(Q)``: the union of the given sets."""
        covered: set[int] = set()
        for j in set_ids:
            covered |= self._sets[j]
        return covered

    # -- frequency structure (Definition 2.1) ---------------------------

    def element_frequencies(self) -> Counter:
        """``freq(e)`` = number of sets containing ``e``, for present ``e``."""
        freq: Counter = Counter()
        for s in self._sets:
            freq.update(s)
        return freq

    def common_elements(self, threshold: float) -> set[int]:
        """Elements appearing in at least ``threshold`` sets.

        With ``threshold = scale * m / lam`` this is the paper's
        ``U^cmn_lam`` (Definition 2.1 via
        :func:`repro.sketch.set_sampling.common_element_threshold`).
        """
        freq = self.element_frequencies()
        return {e for e, f in freq.items() if f >= threshold}

    # -- stream conversion ----------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All ``(set_id, element)`` pairs, set-major order."""
        return [
            (j, e) for j, s in enumerate(self._sets) for e in sorted(s)
        ]

    def restricted(
        self,
        elements: Iterable[int] | None = None,
        set_ids: Iterable[int] | None = None,
    ) -> "SetSystem":
        """Induced sub-instance on the given elements and/or sets.

        Set ids are renumbered ``0..|set_ids|-1`` in the order given;
        elements keep their identities (the universe size is preserved)
        so coverage counts remain comparable.
        """
        keep_sets = (
            list(range(self.m)) if set_ids is None else list(set_ids)
        )
        if elements is None:
            chosen = [self._sets[j] for j in keep_sets]
        else:
            element_set = set(int(e) for e in elements)
            chosen = [self._sets[j] & element_set for j in keep_sets]
        return SetSystem(chosen, n=self.n)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], m: int | None = None, n: int | None = None
    ) -> "SetSystem":
        """Build a system from ``(set_id, element)`` pairs."""
        buckets: dict[int, set[int]] = {}
        max_set = -1
        for set_id, element in edges:
            set_id = int(set_id)
            if set_id < 0:
                raise ValueError(f"set ids must be non-negative, got {set_id}")
            buckets.setdefault(set_id, set()).add(int(element))
            if set_id > max_set:
                max_set = set_id
        if m is None:
            m = max_set + 1
        elif m < max_set + 1:
            raise ValueError(
                f"m={m} is smaller than the largest set id + 1 ({max_set + 1})"
            )
        sets = [buckets.get(j, set()) for j in range(m)]
        return cls(sets, n=n)

    @classmethod
    def from_arrays(
        cls,
        set_ids,
        elements,
        m: int | None = None,
        n: int | None = None,
    ) -> "SetSystem":
        """Build a system from parallel ``set_id`` / ``element`` arrays.

        The array form of :meth:`from_edges`: the same sets, ``m`` and
        ``n``, and the same ``ValueError``s, checked in this order --
        negative set id, ``m`` too small, negative element, ``n`` too
        small.  Edges are grouped by one sort on the set id and
        ``searchsorted`` boundaries, and each set is one ``frozenset``
        over a slice, so no per-edge Python work remains beyond the
        ``frozenset`` build itself.
        """
        set_ids = np.asarray(set_ids, dtype=np.int64)
        elements = np.asarray(elements, dtype=np.int64)
        if len(set_ids) != len(elements):
            raise ValueError(
                f"set_ids and elements differ in length: "
                f"{len(set_ids)} != {len(elements)}"
            )
        negative = np.flatnonzero(set_ids < 0)
        if len(negative):
            raise ValueError(
                f"set ids must be non-negative, got {set_ids[negative[0]]}"
            )
        max_set = int(set_ids.max()) if len(set_ids) else -1
        if m is None:
            m = max_set + 1
        elif m < max_set + 1:
            raise ValueError(
                f"m={m} is smaller than the largest set id + 1 ({max_set + 1})"
            )
        negative = np.flatnonzero(elements < 0)
        if len(negative):
            raise ValueError(
                f"elements must be non-negative, got {elements[negative[0]]}"
            )
        inferred = int(elements.max()) + 1 if len(elements) else 0
        if n is None:
            n = inferred
        elif n < inferred:
            raise ValueError(
                f"n={n} is smaller than the largest element + 1 ({inferred})"
            )
        # Order within a set is irrelevant (each becomes a frozenset),
        # so the faster unstable sort suffices.
        order = np.argsort(set_ids)
        bounds = np.searchsorted(set_ids[order], np.arange(m + 1)).tolist()
        grouped = elements[order].tolist()
        system = cls.__new__(cls)
        system._sets = [
            frozenset(grouped[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
        system.n = int(n)
        return system

    @classmethod
    def from_bipartite_graph(
        cls, adjacency: Sequence[Sequence[int]], n: int | None = None
    ) -> "SetSystem":
        """Treat adjacency lists as sets (vertex-neighbourhood coverage).

        The paper's footnote 2 motivates edge arrival with exactly this
        scenario: sets are neighbourhoods of vertices in a graph, whose
        edges need not arrive grouped by vertex.
        """
        return cls([set(row) for row in adjacency], n=n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SetSystem(m={self.m}, n={self.n}, edges={self.total_size()})"
