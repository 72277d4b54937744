"""Benchmark of hb, the exact harmonic-cochain library in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): oracle, harmonicity, fourier, cli.  Each
is a closed loop with one client: one process runs one job at a time
and starts the next when the previous has returned.  Jobs come in
blocks with a fixed mix of shapes; the run executes whole blocks and
stops at the block boundary nearest to S seconds.  Every job's output
is checked against an independent route outside the timed region.
Times are scaled to a reference host speed measured between jobs by
calibrate.py; the raw times are printed and recorded beside them.

--trace 0 prints the end-to-end metrics; --trace 1 ignores S and runs a
fixed number of blocks three times (to warm lazy caches, untraced, and
traced by tracer.py), then prints the per-layer metrics, the tracing
overhead and what each metric should move.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run, with the environment and every job time,
is written under perfbench/out/.

The benchmark imports hb from this checkout's src/ (hb is not
installed), so two checkouts each measure their own code.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9        # set-ups timed per run; setup_s is their median
MIN_BLOCKS = 2          # so that every job shape is sampled more than once
CLI_PROBES = 3          # interpreter and import timings per traced cli run

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("oracle", "harmonicity", "fourier", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------ environment

def environment(seed):
    """What a result must be recorded with to be compared later."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy")}


# ---------------------------------------------------------------- running

def run_block(block, tracer=None, first_id=0, speed=None):
    """Run the jobs of one block back to back, sampling the host speed
    between jobs when `speed` is given; returns [job, seconds, result,
    error, start] records, unchecked."""
    clock = time.perf_counter
    records = []
    for i, job in enumerate(block):
        call = job.run
        if tracer is not None:
            tracer.job = first_id + i
            call = tracer.span("job", job.run)
        t0 = clock()
        try:
            result, error = call(), None
        except Exception as exc:      # a failing job is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append([job, clock() - t0, result, error, t0])
        if speed is not None:
            speed.tick()
    return records


def check_records(records):
    """Fill in the error of every record whose output is wrong."""
    for rec in records:
        if rec[3] is None:
            try:
                rec[3] = rec[0].check(rec[2])
            except Exception as exc:
                rec[3] = f"check raised {type(exc).__name__}: {exc}"
        rec[2] = None                 # results are not kept past the check


def measure(workload, seconds, speed):
    """Whole blocks, at least MIN_BLOCKS, until the boundary nearest to
    `seconds` of wall time."""
    blocks = []
    speed.sample()
    start = time.perf_counter()
    while True:
        records = run_block(workload.block(), speed=speed)
        check_records(records)
        blocks.append(records)
        elapsed = time.perf_counter() - start
        if len(blocks) >= MIN_BLOCKS and \
                elapsed + elapsed / len(blocks) / 2 >= seconds:
            return blocks


def setup_times(name, seed, speed):
    """Set-up time of fresh processes (import, first block, warm fields),
    raw and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        p = subprocess.run([sys.executable, str(HERE / "probe.py"), name,
                            str(seed)], cwd=ROOT, capture_output=True,
                           text=True, timeout=170)
        if p.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {p.stderr.strip()}")
        raw.append(float(p.stdout.split()[-1]))
        speed.sample()
        scaled.append(speed.scale(start, raw[-1]))
    return raw, scaled


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def job_samples(records, speed=None):
    return [[rec[0].kind, str(rec[0].shape), rec[1]]
            + ([speed.scale(rec[4], rec[1])] if speed else [])
            for rec in records]


# ----------------------------------------------------------- end to end

def timing_values(times, setups, pct):
    return {"jobs_per_s": len(times) / sum(times),
            "job_p50_ms": statistics.median(times) * 1e3,
            "job_tail_ms": percentile(times, pct) * 1e3,
            "setup_s": statistics.median(setups)}


def end_to_end(workload, seed, seconds):
    speed = calibrate.Speed()
    blocks = measure(workload, seconds, speed)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    raw_setups, setups = setup_times(workload.name, seed, speed)
    records = [rec for block in blocks for rec in block]
    raw = [rec[1] for rec in records]
    times = [speed.scale(rec[4], rec[1]) for rec in records]
    pct = workload.TAIL_PERCENTILE
    tail = percentile(times, pct)
    values = dict(timing_values(times, setups, pct), peak_rss_mb=peak_rss_mb)
    raw_values = timing_values(raw, raw_setups, pct)
    notes = {
        "jobs_per_s": f"{len(times)} jobs in {len(blocks)} blocks over "
                      f"their busy seconds",
        "job_p50_ms": f"median over {len(times)} jobs",
        "job_tail_ms": f"p{pct} over {len(times)} jobs, "
                       f"{sum(t > tail for t in times)} beyond it",
        "setup_s": f"median over {len(setups)} fresh processes",
        "peak_rss_mb": "max RSS of the query children" if workload.name == "cli"
                       else "max RSS of this process",
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    lines = [f"  {name:<13} {values[name]:>12.4f} {unit:<4} {notes[name]}"
             + (f"; raw {raw_values[name]:.4f}" if name in raw_values else "")
             for name, unit in END_TO_END]
    lines.append(f"  host speed: calibration kernel median "
                 f"{speed.median() * 1e3:.3f} ms over {len(speed.samples)} "
                 f"samples; times above are scaled to "
                 f"{calibrate.REFERENCE_S * 1e3:g} ms")
    samples = {"job_s": job_samples(records, speed),
               "setup_s": [raw_setups, setups],
               "calibration_s": speed.samples,
               "raw_metrics": raw_values}
    return records, metrics, lines, samples


# -------------------------------------------------------------- per layer

def cli_startup():
    """Interpreter start-up and import times of hb.cli, from children."""
    interp, imports, sympy = [], [], []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        p = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import hb.cli"], cwd=ROOT, capture_output=True,
                           text=True, timeout=120, check=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)))
        cumulative = {}
        for line in p.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)))
        imports.append(cumulative["hb.cli"] / 1e6)
        sympy.append(cumulative.get("sympy", 0) / 1e6)
    return {"cli.interp_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.import.sympy_ms": statistics.median(sympy) * 1e3}


def per_layer(name, seed):
    import workloads
    from tracer import Tracer, expected_effect, layer_metrics, unit_of

    kwargs = {"in_process": True} if name == "cli" else {}

    def blocks():
        """The same fixed blocks, with fresh evaluators, on every call."""
        w = workloads.make(name, seed, **kwargs)
        return [w.block() for _ in range(w.TRACE_BLOCKS)]

    for block in blocks():            # fill lazy caches before either pass
        run_block(block)
    records = [rec for b in blocks() for rec in run_block(b)]
    untraced_s = sum(rec[1] for rec in records)
    check_records(records)

    traced_blocks = blocks()
    nblocks = len(traced_blocks)
    tracer = Tracer().install()
    traced = []
    try:
        for block in traced_blocks:
            traced += run_block(block, tracer, first_id=len(traced))
    finally:
        tracer.uninstall()
    traced_s = sum(rec[1] for rec in traced)
    check_records(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{seed}")

    values = layer_metrics(tracer)
    cli = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0,
           "cli.import.sympy_ms": 0.0, "cli.compute_ms": 0.0}
    if name == "cli":
        cli.update(cli_startup())
        cli["cli.compute_ms"] = statistics.median(r[1] for r in records) * 1e3
    values.update(cli)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    lines = [f"  {k:<44} {v:>16.6g} {unit_of(k):<5} moves: {expected_effect(k)}"
             for k, v in values.items()]
    lines.insert(0, f"  traced pass: {len(traced)} jobs in {nblocks} blocks, "
                    f"{traced_s:.3f} s traced vs {untraced_s:.3f} s untraced")
    samples = {"untraced_job_s": job_samples(records),
               "traced_job_s": job_samples(traced)}
    return records + traced, metrics, lines, samples


# ------------------------------------------------------------------- main

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hb" / "__init__.py").is_file():
        print(f"error: no hb package under {SRC}; run this from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hb
    if Path(hb.__file__).resolve().parent != SRC / "hb":
        print(f"error: imported hb from {hb.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.trace:
        records, metrics, lines, samples = per_layer(args.workload, args.seed)
    else:
        workload = workloads.make(args.workload, args.seed)
        records, metrics, lines, samples = end_to_end(
            workload, args.seed, args.seconds)
    failures = [rec for rec in records if rec[3] is not None]
    env = environment(args.seed)

    print(f"hb benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(f"  {'failed_frac':<13} {len(failures) / len(records):>12.4f} frac "
          f"{len(failures)} of {len(records)} jobs attempted")
    for job, _t, _r, error, _s in failures:
        print(f"  FAILED {job.kind} [{job.label}]: {error}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"environment": env, "workload": args.workload,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, "samples": samples,
                   "failures": [[j.kind, j.label, e]
                                for j, _t, _r, e, _s in failures]}, fh)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
