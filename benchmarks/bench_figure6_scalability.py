"""Figure 6: memory and throughput of the incremental engine versus Σ d².

Paper claim (Section 5.3): the memory needed by TbI-driven MCMC grows with
Σ d² (the number of candidate length-two paths the engine must index), and the
achievable MCMC steps/second falls correspondingly; Epinions, with the largest
Σ d² relative to its edge count, is the most demanding workload.

Absolute numbers are not comparable (C# on a 64 GB server vs pure Python on a
laptop-scale stand-in); the monotone relationships are what this benchmark
checks.  ``state_entries`` counts weighted records held by operator state and
is the platform-independent memory proxy; tracemalloc peak is also reported.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import figure6_scalability, format_table


def test_figure6_memory_and_throughput(config):
    results = figure6_scalability(config)
    emit(
        format_table(
            ["workload", "nodes", "edges", "sum d^2", "state entries", "peak MB", "build s", "MCMC steps/s"],
            [
                (
                    r["label"],
                    int(r["nodes"]),
                    int(r["edges"]),
                    int(r["degree_sum_of_squares"]),
                    int(r["state_entries"]),
                    r["peak_memory_mb"],
                    r["build_seconds"],
                    r["steps_per_second"],
                )
                for r in results
            ],
            title="Figure 6 — incremental TbI engine: memory and throughput vs sum of squared degrees",
        )
    )
    barabasi = [r for r in results if r["label"].startswith("barabasi")]
    assert len(barabasi) >= 2
    ordered = sorted(barabasi, key=lambda r: r["degree_sum_of_squares"])
    # Shape: operator state (the memory proxy) grows with sum d^2.
    assert ordered[-1]["state_entries"] > ordered[0]["state_entries"]
    # Shape: throughput falls as sum d^2 grows (allow a small tolerance for
    # timing jitter on the middle points; compare the endpoints).
    assert ordered[-1]["steps_per_second"] < ordered[0]["steps_per_second"] * 1.05
    # Shape: state also tracks sum d^2 in ratio terms: doubling sum d^2 should
    # not leave the state size unchanged.
    ratio_state = ordered[-1]["state_entries"] / ordered[0]["state_entries"]
    ratio_d2 = ordered[-1]["degree_sum_of_squares"] / ordered[0]["degree_sum_of_squares"]
    assert ratio_state > 1.0 + 0.25 * (ratio_d2 - 1.0)
