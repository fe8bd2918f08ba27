"""Multi-chain graph synthesis.

MCMC synthesis is embarrassingly parallel across restarts: the paper's
workflow is a single long chain, but running N independent chains from the
same seed graph and keeping the best-scoring result hedges against a chain
stuck in a poor mode.  This module provides that driver:

* every chain gets an independent, reproducible RNG stream spawned from one
  :class:`numpy.random.SeedSequence` (so ``chains=4, rng=0`` is deterministic
  and no two chains share a stream);
* in-process chains run one after the other: the proposal loop holds the GIL,
  so threads only add contention (two thread chains measured 0.8-0.9x of the
  same two chains run in turn).  ``processes=N`` is the one way to use more
  than one core — whole chains move into worker processes;
* the result keeps every chain's trajectory and exposes the best chain — the
  quantity :meth:`~repro.inference.synthesizer.GraphSynthesizer.run` adopts
  when called with ``chains=N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..core.aggregation import NoisyCountResult
from ..graph.graph import Graph
from .mcmc import MCMCResult
from .synthesizer import DEFAULT_BACKEND, DEFAULT_POW, GraphSynthesizer

__all__ = ["ChainOutcome", "ParallelSynthesisResult", "run_chains", "spawn_generators"]


def spawn_generators(
    rng: np.random.Generator | int | None, count: int
) -> list[np.random.Generator]:
    """``count`` independent, reproducible generators derived from one seed.

    An integer (or ``None``) seeds a :class:`~numpy.random.SeedSequence`
    whose children are statistically independent streams; a ``Generator``
    contributes entropy drawn from it, so repeated calls advance it.
    """
    if isinstance(rng, np.random.Generator):
        entropy = int(rng.integers(0, 2**63 - 1))
    else:
        entropy = rng
    sequence = np.random.SeedSequence(entropy)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


@dataclass
class ChainOutcome:
    """One chain's final state and trajectory.

    ``synthesizer`` is ``None`` for chains that ran in a worker process —
    live engines do not cross the boundary; rebuild one from ``graph`` if
    needed (``GraphSynthesizer.run`` does exactly that when adopting).
    """

    index: int
    result: MCMCResult
    log_score: float
    graph: Graph
    distances: dict[str, float]
    synthesizer: "GraphSynthesizer | None" = field(default=None, repr=False)


@dataclass
class ParallelSynthesisResult:
    """Everything ``run_chains`` produces, best chain first-class."""

    chains: list[ChainOutcome]

    @property
    def best_index(self) -> int:
        """Index of the highest-scoring chain (ties go to the earliest)."""
        return max(
            range(len(self.chains)), key=lambda i: self.chains[i].log_score
        )

    @property
    def best(self) -> ChainOutcome:
        """The highest-scoring chain."""
        return self.chains[self.best_index]


def run_chains(
    measurements: Iterable[NoisyCountResult],
    seed_graph: Graph,
    steps: int,
    chains: int,
    pow_: float | None = None,
    backend: str = DEFAULT_BACKEND,
    rng: np.random.Generator | int | None = None,
    source_name: str = "edges",
    record_every: int | None = None,
    metrics: dict[str, Callable[[], float]] | None = None,
    processes: int | None = None,
    start_method: str | None = None,
) -> ParallelSynthesisResult:
    """Run ``chains`` independent synthesis chains; keep them all.

    Each chain builds its own :class:`~repro.inference.synthesizer
    .GraphSynthesizer` (own engine, own copy of the seed graph) with a
    spawned RNG stream and runs ``steps`` proposals.  Chains run in turn.

    ``processes=N`` moves whole chains into N worker *processes* (a
    :class:`~repro.shard.pool.ProcessPool`), so N chains use N cores.
    Results are bit-identical to the in-process path: each chain receives
    the very same spawned :class:`numpy.random.Generator` (pickled with its
    state) and the same released measurement values.  Constraints:
    measurement plans must be portable (:mod:`repro.shard.plan`) and live
    ``metrics`` callables cannot cross the boundary; process outcomes carry
    ``synthesizer=None``.
    """
    if chains < 1:
        raise ValueError("chains must be a positive integer")
    if processes is not None and processes < 1:
        raise ValueError("processes must be a positive integer")
    measurements = list(measurements)
    pow_ = DEFAULT_POW if pow_ is None else pow_
    generators = spawn_generators(rng, chains)

    if processes is not None:
        if metrics:
            raise ValueError(
                "metrics callables cannot cross a process boundary; run with "
                "record_every and compute metrics from the returned graphs, "
                "or run the chains in-process"
            )
        return _run_chains_processes(
            measurements,
            seed_graph,
            steps=steps,
            chains=chains,
            pow_=pow_,
            backend=backend,
            generators=generators,
            source_name=source_name,
            record_every=record_every,
            processes=processes,
            start_method=start_method,
        )

    def run_one(index: int) -> ChainOutcome:
        synthesizer = GraphSynthesizer(
            measurements,
            seed_graph,
            pow_=pow_,
            rng=generators[index],
            source_name=source_name,
            backend=backend,
        )
        result = synthesizer.run(steps, record_every=record_every, metrics=metrics)
        return ChainOutcome(
            index=index,
            result=result,
            log_score=synthesizer.log_score,
            graph=synthesizer.graph,
            distances=synthesizer.distances(),
            synthesizer=synthesizer,
        )

    return ParallelSynthesisResult([run_one(index) for index in range(chains)])


def _run_chains_processes(
    measurements: list[NoisyCountResult],
    seed_graph: Graph,
    *,
    steps: int,
    chains: int,
    pow_: float,
    backend: str,
    generators: list[np.random.Generator],
    source_name: str,
    record_every: int | None,
    processes: int,
    start_method: str | None,
) -> ParallelSynthesisResult:
    """Whole-chain fan-out over a worker-process pool (see ``run_chains``)."""
    from ..shard.chains import run_chain
    from ..shard.plan import encode_measurement
    from ..shard.pool import PoolTask, ProcessPool

    portable = [encode_measurement(measurement) for measurement in measurements]
    tasks = [
        PoolTask(
            run_chain,
            kwargs={
                "index": index,
                "measurements": portable,
                "seed_graph": seed_graph,
                "steps": steps,
                "pow_": pow_,
                "backend": backend,
                "source_name": source_name,
                "record_every": record_every,
                "rng": generators[index],
            },
        )
        for index in range(chains)
    ]
    with ProcessPool(workers=min(processes, chains), start_method=start_method) as pool:
        rows = pool.run_batch(tasks)
    outcomes = [
        ChainOutcome(
            index=row["index"],
            result=row["result"],
            log_score=row["log_score"],
            graph=row["graph"],
            distances=row["distances"],
        )
        for row in sorted(rows, key=lambda row: row["index"])
    ]
    return ParallelSynthesisResult(outcomes)
