"""Dual-core programming-latency hiding on real ResNet-50 layer tiles.

The PCM array cannot compute while it is being reprogrammed, and a
reprogramming pass (~100 ns) costs ~1000 MAC cycles.  This example runs the
dataflow simulator on ResNet-50 at each batch size on a single-core and a
dual-core copy of the 32x32 default chip, reads each run's batch latency
from the chip clock, and shows how the speed-up from the second core shrinks
as the batch size grows — the trade-off behind Fig. 7c of the paper.

Usage::

    python examples/dual_core_scheduling.py
"""

from __future__ import annotations

from repro import build_resnet50, default_sweep_chip
from repro.core.report import format_table
from repro.scalesim import CrossbarDataflowSimulator


def main() -> None:
    network = build_resnet50()
    print("Dual-core programming-latency hiding on ResNet-50 (32x32 default chip)")
    print("-" * 78)

    rows = []
    for batch in (1, 2, 4, 8, 16, 32, 64):
        single, dual = (
            CrossbarDataflowSimulator(default_sweep_chip(batch_size=batch, num_cores=cores))
            .simulate(network)
            for cores in (1, 2)
        )
        rows.append(
            [
                batch,
                dual.total_programming_passes,
                f"{single.batch_latency_s * 1e3:.3f}",
                f"{dual.batch_latency_s * 1e3:.3f}",
                f"{single.batch_latency_s / dual.batch_latency_s:.2f}x",
                f"{dual.compute_time_s / dual.batch_latency_s * 100:.0f} %",
            ]
        )
    print(
        format_table(
            ["batch", "tiles", "1-core batch time (ms)", "2-core batch time (ms)", "speed-up", "compute util."],
            rows,
        )
    )
    print()
    print("At small batch sizes the second core nearly doubles throughput by")
    print("overlapping PCM programming with compute; at batch 32+ a single core")
    print("is already compute-bound and the dual core's benefit shrinks — which")
    print("is exactly why the paper pairs the dual-core scheme with batch 32.")


if __name__ == "__main__":
    main()
