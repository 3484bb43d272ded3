"""Determinism and gate checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Each case but the calibration check runs bench/run.py in a child process
with a one-second budget, which is one untraced pass plus, with --trace 1,
one traced pass.  Takes a few minutes.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "evals/call", "calls/iter")]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload on seed 1."""
    return {w: (bench(w, 1, trace=1), bench(w, 1, trace=1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["cli.run.calls"] > 0
    assert first["core.eval.calls"] > 0


def test_layers_land_on_their_workloads(traced):
    refine, check, radiation = (traced[w][0] for w in ("refine", "check", "radiation"))
    # predicted zero cells
    assert radiation["lightcone.cone_time.calls"] == 0
    assert refine["lightcone.far_cone_time.calls"] == 0
    assert check["lightcone.far_cone_time.calls"] == 0
    # each workload reaches the layers it was chosen for
    assert refine["optimizer.iterations"] > 0
    assert refine["action.frechet.calls"] > 0
    assert check["action.el_residual.calls"] > 0
    assert check["momentum.calls"] > 0
    assert radiation["farfield.sphere_flux.calls"] > 0
    assert radiation["farfield.gah_residual.calls"] > 0
    assert radiation["shortrange.construct_partner.calls"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_gate(workload):
    metrics = bench(workload, 2, trace=0)
    assert metrics["wall_ref_s"] > 0.0


def test_calibration_samples_inside_the_call_and_is_left_out():
    sys.path.insert(0, str(RUN.parent))
    from run import Calibration, timed

    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    with Calibration() as cal:
        units0, spent0 = cal.units, cal.seconds
        t0 = time.perf_counter()
        _, took = timed(cal, busy, 0.5)
        wall = time.perf_counter() - t0
    assert cal.units - units0 >= 3  # the timer fired during the call
    assert abs(took + (cal.seconds - spent0) - wall) < 1e-3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
