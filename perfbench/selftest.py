"""Self-tests of the benchmark (not of hb).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

- count-type per-layer metrics repeat exactly between two traced runs
  with the same seed, so a later change may cite them as counts;
- another seed changes the inputs but not the amount of work, and the
  decks that deal cost-setting choices hold every option once a round;
- a job's time is scaled by the calibration samples around it;
- the metric names printed match BENCHMARK.json;
- without src/ beside it the benchmark exits non-zero and prints no
  result.
These run the traced passes of every workload and take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "harmonicity", "fourier", "cli")
COUNT_SUFFIXES = (".calls", "_calls", "_ops", ".ops", ".lattice_points",
                  ".grid_points", ".ratf_new", ".witness_candidates",
                  ".window_retries")


def run(workload, seed, trace, cwd=ROOT):
    p = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def result(workload, seed, trace):
    p = run(workload, seed, trace)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_counts_repeat_with_the_same_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        first, second = result(workload, 5, 1), result(workload, 5, 1)
        assert set(first["metrics"]) == per_layer
        assert first["correct"] and second["correct"], workload
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        assert "fields.ops" in counts and "oracle.lattice_points" in counts
        for key in counts:
            assert first["metrics"][key] == second["metrics"][key], \
                (workload, key, first["metrics"][key], second["metrics"][key])


def test_end_to_end_names_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = result("fourier", 3, 0)
    assert {k: v["unit"] for k, v in got["metrics"].items()} == want
    assert got["correct"] and got["failed"] == 0


def test_seed_changes_inputs_not_work():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    for name in WORKLOADS:
        blocks = {}
        for seed in (1, 2):
            w = workloads.make(name, seed)
            blocks[seed] = [job for _ in range(2) for job in w.block()]
        labels = [[job.label for job in blocks[s]] for s in (1, 2)]
        shapes = [Counter((job.kind, job.shape) for job in blocks[s])
                  for s in (1, 2)]
        assert labels[0] != labels[1], name
        assert shapes[0] == shapes[1], name


def test_decks_deal_every_option_once_a_round():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import random
    import workloads
    options = list(range(7))
    for seed in (1, 2):
        decks = workloads._Decks(random.Random(seed))
        for _ in range(3):
            assert sorted(decks.draw("k", options) for _ in options) == options


def test_calibration_scales_by_the_local_kernel_time():
    sys.path.insert(0, str(HERE))
    from calibrate import REFERENCE_S, Speed
    speed = Speed()
    speed.samples = [(t, 2 * REFERENCE_S) for t in range(10)] + \
        [(t, REFERENCE_S / 2) for t in range(100, 110)]
    assert abs(speed.scale(5.0, 1.0) - 0.5) < 1e-12
    assert abs(speed.scale(105.0, 1.0) - 2.0) < 1e-12


def test_refuses_to_run_without_the_checkout():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = run("fourier", 1, 0, cwd=bare)
        assert p.returncode != 0
        assert '"correct"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
