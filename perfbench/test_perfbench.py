"""Tests of the benchmark itself.

    python -m pytest perfbench

Smoke runs of every workload must print every metric named in
``BENCHMARK.json`` with its unit and no failures; corrupting the
reference of any one job must count exactly one failure; a broken
sigma-stack in pamsort must fail query-mix's machine queries; and
without the pamsort sources the benchmark must exit non-zero without a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.locate_source()
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(workload: str, trace: int,
                                   kind: str) -> None:
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                 "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], out.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH[kind]}
    for m in BENCH[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return {"true": "false", "false": "true"}.get(value, value + "1")
    if isinstance(value, tuple):
        return (_corrupt(value[0]),) + value[1:]
    raise TypeError(f"no corruption for {type(value).__name__}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_corrupted_reference_is_one_failure(name: str) -> None:
    workload = workloads.WORKLOADS[name](3, workloads.SMOKE)
    jobs = next(workload.passes())
    for job in jobs:
        clean = run.Run()
        run.execute(job, clean)
        assert clean.failures == []
        job.expected = _corrupt(job.expected)
        bad = run.Run()
        run.execute(job, bad)
        assert len(bad.failures) == 1, job.label


def test_broken_sigma_stack_fails_machine_queries(monkeypatch) -> None:
    import pamsort.machine as M
    workload = workloads.QueryMix(3, workloads.SMOKE)
    # always popping: the first stack passes its input through
    monkeypatch.setattr(M, "_must_pop", lambda stack, x, bodies: True)
    failed: dict[str, int] = {}
    for job in workload.pool:
        r = run.Run()
        run.execute(job, r)
        key = job.props["kind"] + ("-open" if job.props.get("fallback")
                                   else "")
        failed[key] = failed.get(key, 0) + len(r.failures)
    assert failed["sort"] and failed["trace"] and failed["sortable-open"]


def test_exits_nonzero_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, "--workload", BENCH["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
