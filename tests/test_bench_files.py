"""The committed benchmark records: every BENCH_*.json at the top of the
repository parses and says where and how it was measured, so that a
before/after figure can be traced to its machine, its Python version,
its command and the two commits it compares, and that its summary
covers every workload and every end-to-end metric that BENCHMARK.json
names (the file is read, never changed)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("machine", "python", "command", "parent_commit", "change_commit")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_parses_and_names_its_setting(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    missing = [k for k in REQUIRED if not doc.get(k)]
    assert missing == [], f"{path.name} lacks {missing}"
    version = str(doc["python"]).split(".")
    assert len(version) >= 2 and all(v.isdigit() for v in version[:2])


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summarizes_every_workload_and_metric(path):
    summary = json.loads(path.read_text()).get("summary")
    assert isinstance(summary, dict), f"{path.name} has no summary"
    missing = [(w["name"], m["name"]) for w in BENCHMARK["workloads"]
               for m in BENCHMARK["end_to_end"]
               if m["name"] not in summary.get(w["name"], {})]
    assert missing == [], f"{path.name} lacks {missing}"
