"""Process-parallel MCMC chains: the worker-side task and its wire format.

In-process chains (:mod:`repro.inference.parallel`) run one after the other:
the proposal loop holds the GIL.  Process chains move the *entire* chain —
synthesizer construction, scoring engine, proposal loop — into a pool worker,
so N chains use N cores.

Bit-identical to in-process chains by construction:

* each chain receives the same :class:`numpy.random.Generator` object the
  in-process path would have used (``spawn_generators`` output pickles with
  its full state), so every proposal and acceptance draw matches;
* measurements travel as *released values* via
  :func:`~repro.shard.plan.encode_measurement` — the fixed targets every
  scoring backend reads — so worker-side scores equal coordinator-side
  scores exactly;
* the seed graph is a plain picklable adjacency structure.

What does not travel: live ``metrics`` callables (closures over
coordinator state cannot cross the boundary — ``run_chains`` rejects them
with ``processes=``) and the worker's synthesizer object (the coordinator
rebuilds one from the winning chain's graph when it needs to adopt it).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.graph import Graph
from .plan import PortableMeasurement, decode_measurement

__all__ = ["run_chain"]

#: fingerprint -> decoded plan, per worker process, shared across requests
#: so repeated benchmarking against one measurement set decodes plans once.
_CHAIN_PLANS: dict[str, Any] = {}


def run_chain(
    *,
    index: int,
    measurements: list[PortableMeasurement],
    seed_graph: Graph,
    steps: int,
    pow_: float,
    backend: str,
    source_name: str,
    record_every: int | None,
    proposal_batch: int | None,
    rng: np.random.Generator,
) -> dict:
    """Run one full synthesis chain inside a pool worker.

    Returns a picklable outcome row (no synthesizer object): the trajectory
    result, final score, final graph and per-measurement distances —
    everything :class:`~repro.inference.parallel.ChainOutcome` carries
    except the live synthesizer.
    """
    from ..inference.synthesizer import GraphSynthesizer

    rebuilt = [decode_measurement(m, _CHAIN_PLANS) for m in measurements]
    synthesizer = GraphSynthesizer(
        rebuilt,
        seed_graph,
        pow_=pow_,
        rng=rng,
        source_name=source_name,
        backend=backend,
    )
    result = synthesizer.run(
        steps,
        record_every=record_every,
        proposal_batch=proposal_batch,
    )
    return {
        "index": index,
        "result": result,
        "log_score": synthesizer.log_score,
        "graph": synthesizer.graph,
        "distances": synthesizer.distances(),
    }
