"""Set-up cost of one workload, timed in a fresh interpreter.

Imports plnc-sim (with its CLI), builds the configuration of each of the
8 variants and constructs its slot machine, then prints the seconds
taken.  Run by run.py; usage: setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from plnc_sim.buffer_protocol import SlotMachine  # noqa: E402
from plnc_sim.config import Scheme  # noqa: E402
from workloads import BUFFER_MODES, WORKLOADS  # noqa: E402

workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
for scheme in Scheme:
    for buffered in BUFFER_MODES:
        config = replace(workload.config(seed), nc_design=scheme,
                         buffers_enabled=buffered)
        SlotMachine(config, np.random.default_rng(seed))
print(f"{time.perf_counter() - START!r}")
