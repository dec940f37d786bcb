"""What the benchmark in perfbench/ uses of the package: the names its
tracer wraps, the slot machine as its set-up probe builds it and the
slot outcome its traced runs read.  perfbench/ is read, never changed."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plnc_sim import SlotMachine
from plnc_sim.config import Scheme

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("module,attr", sorted(
    set(tracer.FULL) | set(tracer.LIGHT), key=lambda p: (p[0].__name__, p[1])),
    ids=lambda x: getattr(x, "__name__", x))
def test_traced_names_resolve(module, attr):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_setup_probe_machines_construct_and_advance(name):
    # as setup_probe.py builds them, and as the traced slot hook reads them
    wl = workloads.WORKLOADS[name]
    for scheme in Scheme:
        for buffered in workloads.BUFFER_MODES:
            config = replace(wl.config(1), nc_design=scheme,
                             buffers_enabled=buffered)
            outcome = SlotMachine(config, np.random.default_rng(1)).advance()
            assert outcome.action in ("receive", "transmit", "idle")
            assert outcome.reselections >= 0
