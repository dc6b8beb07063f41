"""Workload table and seeded input generation for the benchmark.

Every workload is one planted-cover instance streamed in random order
and answered once per repetition by ``EstimateMaxCover`` at alpha = 4.
The instance, its arrival order and the algorithm's hash seed all come
from the ``--seed`` argument, so one seed always means one input.  The
generated stream is written in the library's binary format and loaded
by the measuring process, which therefore never pays generator time or
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``executor`` is ``"single"`` (``StreamRunner`` over the whole
    stream) or ``"merged"`` (``PersistentShardExecutor`` with the
    in-process serial backend and two shards, then ``estimate()`` on
    the merged state).
    """

    name: str
    n: int
    m: int
    k: int
    coverage_frac: float
    alpha: float
    executor: str


# Why each workload exists: README.md here, and "why" in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref-single",
            n=4000,
            m=400,
            k=10,
            coverage_frac=0.9,
            alpha=4.0,
            executor="single",
        ),
        Workload(
            "large-domain",
            n=100_000,
            m=400,
            k=10,
            coverage_frac=0.04,
            alpha=4.0,
            executor="single",
        ),
        Workload(
            "ref-merged",
            n=4000,
            m=400,
            k=10,
            coverage_frac=0.9,
            alpha=4.0,
            executor="merged",
        ),
    )
}

# Shapes for the test suite's tiny mode: the same pipeline in seconds.
# large-domain keeps n above 2^16 so Horner still runs.
TINY = {
    "ref-single": dict(n=300, m=40, k=4, coverage_frac=0.9),
    "large-domain": dict(n=70_000, m=40, k=4, coverage_frac=0.004),
    "ref-merged": dict(n=300, m=40, k=4, coverage_frac=0.9),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    """The named workload, shrunk to its tiny shape when ``tiny``."""
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload


def derived_seeds(seed: int) -> dict[str, int]:
    """Generator, arrival-order and algorithm seeds for one ``--seed``.

    They depend on the seed only, not on the workload, so ``ref-single``
    and ``ref-merged`` on one seed process the same stream with the
    same hashes and must give the same state.
    """
    gen, order, algo = np.random.SeedSequence(seed).generate_state(3)
    return {"generator": int(gen), "order": int(order), "algorithm": int(algo)}


def generate(workload: Workload, seed: int, path) -> dict:
    """Write the workload's stream for ``seed`` to ``path``; its metadata."""
    from repro import EdgeStream, planted_cover

    seeds = derived_seeds(seed)
    instance = planted_cover(
        n=workload.n,
        m=workload.m,
        k=workload.k,
        coverage_frac=workload.coverage_frac,
        seed=seeds["generator"],
    )
    stream = EdgeStream.from_system(
        instance.system, order="random", seed=seeds["order"]
    )
    stream.save_binary(path)
    return {
        "edges": len(stream),
        "planted_coverage": int(instance.planted_coverage),
        "seeds": seeds,
    }
