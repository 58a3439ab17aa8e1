"""Set-up probe, run in a fresh interpreter: import the package, build the inputs.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this process from spawn to exit; the median over several
spawns is the benchmark's ``setup_s``.
"""

import sys

import thurston_willmore  # noqa: F401
import thurston_willmore.experiments  # noqa: F401
from workloads import build_items

build_items(sys.argv[1], int(sys.argv[2]))
