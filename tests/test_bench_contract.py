"""What the benchmark in tpsim_bench/ reaches into, held in tier-1.

The benchmark traces tpsim's layers by replacing functions where their
callers look them up.  A renamed or removed name would otherwise break only
a traced benchmark run, so every patch site must still resolve here, and the
benchmark's self-test of its own correctness checks must pass.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import tpsim

BENCH = Path(__file__).resolve().parent.parent / "tpsim_bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("tpsim_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_resolves():
    tracer = _tracer()
    sites = tracer._patch_sites(tpsim)
    assert sites
    for owner, attr, name, _ in sites:
        assert callable(tracer._get(owner, attr)), f"{name}: {owner!r}.{attr} is gone"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
