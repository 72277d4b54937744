"""The benchmark's workloads (perfbench/workloads.py) import hb names and
call them with fixed signatures.  Loading the module and building one
block of each workload here, without running a job, makes a deleted or
re-signed name fail in the test suite instead of in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["oracle", "harmonicity", "fourier", "cli"])
def test_workload_builds_a_block(name):
    workloads = _load_workloads()
    jobs = workloads.make(name, 21).block()
    assert jobs
    assert all(callable(job.run) and callable(job.check) for job in jobs)
