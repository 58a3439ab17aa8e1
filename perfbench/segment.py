"""One segment of an end-to-end run, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/segment.py <workload> <seed> <start> <seconds> <block>

Runs the workload's items from list index <start> in a closed loop until
<seconds> of item time have passed, stopping at a multiple of <block>
items; scales each latency to the reference host speed; prints the
latencies, the scaled latencies, the gate verdicts and the reference times
as one JSON line.  ``run.py`` starts the segments of a run one after
another.
"""

import json
import sys

import reference
import run
import workloads


def main() -> None:
    workload, seed, start = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    seconds, block = float(sys.argv[4]), int(sys.argv[5])
    call = run.in_process_call(workload, run.import_package())
    items = workloads.build_items(workload, seed)
    # Warm-up, untimed, on the first item of the list's last block, which a
    # run reaches only once the program has become several times faster.
    run.call_item(call, items[-workloads.BLOCK_SIZE[workload]])
    host = reference.HostSpeed(workload)
    out = run.closed_loop(call, items, seconds, block, lambda *_: host.tick(), start)
    host.sample()
    print(json.dumps({
        "latencies": out.latencies,
        "scaled": host.scale(out.latencies, out.midpoints),
        "reasons": out.reasons,
        "reference_ms": [1e3 * t for t in host.seconds],
    }))


if __name__ == "__main__":
    main()
