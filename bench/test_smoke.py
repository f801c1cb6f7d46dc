"""Smoke test of the benchmark harness on a reduced input set.

    python3 -m pytest -q bench/test_smoke.py

Not part of the repository's test suite (pytest collects tests/ only);
it checks the harness, not the package.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())
REDUCED = {
    "certify-exact": functools.partial(wl.certify_exact, targets=wl.SMOKE_EXACT_TARGETS),
    "certify-large": functools.partial(wl.certify_large, targets=wl.SMOKE_LARGE_TARGETS),
    "oracle-random": functools.partial(wl.oracle_random, classes=wl.SMOKE_ORACLE_CLASSES),
}


def _run(tmp_path, name, builder, trace=False):
    return run.run(name, builder, seed=3, seconds=0, trace=trace, expected=EXPECTED,
                   work=tmp_path / "work")


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(REDUCED))
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    result, stamp = _run(tmp_path, name, REDUCED[name], trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, stamp["errors"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert (tmp_path / "work" / f"spans-{name}-3.json").is_file()


@pytest.mark.parametrize("field_name", wl.PLAN_FIELDS + wl.KEPT_PLAN_FIELDS)
def test_every_forgery_field_is_rejected(tmp_path, field_name):
    builder = functools.partial(wl.certify_large, targets=(("17/8", (field_name,)),))
    result, stamp = _run(tmp_path, "certify-large", builder)
    assert result["failed"] == 0, stamp["errors"]
    assert stamp["forgeries"] == [{"target": "17/8", "field": field_name}]


def test_an_accepted_forgery_raises_failed_share(tmp_path):
    builder = functools.partial(wl.certify_large, targets=(("9/5", ("none",)),))
    result, stamp = _run(tmp_path, "certify-large", builder)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert result["metrics"]["ok_share"]["value"] < 1
    assert any("was not rejected" in e for e in stamp["errors"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
