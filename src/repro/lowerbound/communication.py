"""One-way communication experiments for the lower bound (Section 5).

A single-pass streaming algorithm run over a player-ordered stream *is* a
one-way protocol: the algorithm's retained state is the message each
player forwards.  This module instruments that correspondence:

* :class:`L2Distinguisher` -- the paper's own observation that the hard
  instances are *distinguishable* in ``O(m/alpha^2)`` space: the set-size
  vector has ``L_inf = alpha`` in the No case versus 1 in the Yes case,
  and an ``F_2`` heavy-hitters sketch of width ``Theta(m/alpha^2)``
  detects the spike.  (This is what "suggested that it might be possible
  to solve the general problem with sketching" -- the genesis of the
  upper bound.)
* :func:`run_distinguisher_experiment` -- sweeps the sketch width across
  a range of space budgets and measures Yes/No classification accuracy
  over random instances, exhibiting the ``Theta(m/alpha^2)`` phase
  transition the matching bounds predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.base import StreamingAlgorithm
from repro.lowerbound.disjointness import make_disjointness_instance
from repro.sketch.countsketch import CountSketch

__all__ = [
    "L2Distinguisher",
    "DistinguisherReport",
    "run_distinguisher_experiment",
]


class L2Distinguisher(StreamingAlgorithm):
    """Decide DSJ hard instances with an ``L_2`` (CountSketch) sketch.

    Feeds each edge's *set id* to a CountSketch of the set-size vector
    and tracks a capped candidate pool by exact arrival counts.  The
    verdict compares the best candidate's estimated size against
    ``players / 2``: above means a common item exists (No case).

    Parameters
    ----------
    m:
        Number of sets (sketch domain).
    players:
        The instance's ``alpha``; fixes the decision threshold.
    width:
        CountSketch row width -- the space knob.  The phase transition
        sits at ``width = Theta(m / alpha^2)``.
    seed:
        Sketch randomness.
    """

    def __init__(self, m: int, players: int, width: int, depth: int = 5, seed=0):
        super().__init__()
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.m = int(m)
        self.players = int(players)
        self._sketch = CountSketch(width=width, depth=depth, seed=seed)
        self._candidates: dict[int, int] = {}
        self._capacity = max(8, 4 * players)

    def _process(self, set_id, _element) -> None:
        set_id = int(set_id)
        self._sketch.update(set_id, 1)
        self._candidates[set_id] = self._candidates.get(set_id, 0) + 1
        if len(self._candidates) > 2 * self._capacity:
            self._prune()

    def _process_batch(self, set_ids, _elements) -> None:
        self._sketch.update_batch(set_ids)
        unique, counts = np.unique(set_ids, return_counts=True)
        for item, count in zip(unique, counts):
            item = int(item)
            self._candidates[item] = self._candidates.get(item, 0) + int(count)
        if len(self._candidates) > 2 * self._capacity:
            self._prune()

    def _prune(self) -> None:
        top = sorted(
            self._candidates.items(), key=lambda kv: kv[1], reverse=True
        )[: self._capacity]
        self._candidates = dict(top)

    def max_set_size_estimate(self) -> float:
        """Finalise; the estimated ``L_inf`` of the set-size vector."""
        self.finalize()
        if not self._candidates:
            return 0.0
        candidates = np.fromiter(
            self._candidates, dtype=np.int64, count=len(self._candidates)
        )
        return float(self._sketch.query_many(candidates).max())

    def decide_no_case(self) -> bool:
        """Finalise; ``True`` when a common item is detected."""
        return self.max_set_size_estimate() > self.players / 2.0

    def space_words(self) -> int:
        return self._sketch.space_words() + 2 * len(self._candidates)


@dataclass(frozen=True)
class DistinguisherReport:
    """Result of one width level of the phase-transition sweep."""

    width: int
    space_words: int
    accuracy: float
    trials: int


def run_distinguisher_experiment(
    m: int,
    players: int,
    widths: list[int],
    trials: int = 20,
    seed=0,
) -> list[DistinguisherReport]:
    """Accuracy of :class:`L2Distinguisher` at each width.

    Each trial draws a fresh instance (Yes/No alternating) and a fresh
    sketch.  Accuracy ``~1/2`` means the space level carries no
    information; accuracy ``-> 1`` marks the ``Theta(m/alpha^2)``
    threshold.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for width in widths:
        correct = 0
        space = 0
        for trial in range(trials):
            no_case = trial % 2 == 0
            instance = make_disjointness_instance(
                m, players, no_case, seed=rng.integers(0, 2**63)
            )
            algo = L2Distinguisher(
                m, players, width, seed=rng.integers(0, 2**63)
            )
            algo.process_batch(*instance.stream.as_arrays())
            if algo.decide_no_case() == no_case:
                correct += 1
            space = max(space, algo.space_words())
        reports.append(
            DistinguisherReport(
                width=width,
                space_words=space,
                accuracy=correct / trials,
                trials=trials,
            )
        )
    return reports
