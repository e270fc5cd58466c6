"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Checks the span arithmetic on nested fake calls with a scripted clock, that
BENCHMARK.json lists exactly the metrics run.py prints, and that every
workload passes its checks at toy size, traced and untraced, in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import perlayer  # noqa: E402
import run  # noqa: E402
from spans import PARENT, REQUEST, Boundary, Tracer  # noqa: E402


@pytest.fixture
def fake_package():
    """fakepkg.mod defines inner/outer; fakepkg.user imported inner by name."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec("def inner(x):\n    return x\n\n"
         "def outer(x):\n    return inner(x) + inner(x)\n", vars(mod))
    user = types.ModuleType("fakepkg.user")
    user.inner = mod.inner
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    yield mod, user
    for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
        sys.modules.pop(name)


def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_self_time_is_exact(fake_package):
    mod, user = fake_package
    original_inner = mod.inner
    tracer = Tracer(clock=scripted_clock([0, 1, 3, 4, 8, 10, 20, 21, 26]))
    tracer.install([Boundary("outer", (("fakepkg.mod", "outer"),)),
                    Boundary("inner", (("fakepkg.mod", "inner"),)),
                    Boundary("gone", (("fakepkg.mod", "deleted_function"),))],
                   package="fakepkg")
    assert user.inner is not original_inner       # patched where it was imported too
    tracer.request = "r1"
    assert mod.outer(2) == 4                        # spans 0..10, inner 1..3 and 4..8
    tracer.request = "r2"
    assert user.inner(5) == 5                       # 20..21, a root span
    tracer.uninstall()
    assert mod.inner is original_inner and user.inner is original_inner

    stats = tracer.stats()
    outer, inner = stats["outer"], stats["inner"]
    assert (outer.calls, outer.busy_ns, outer.self_ns) == (1, 10, 4)
    assert (inner.calls, inner.busy_ns, inner.self_ns) == (3, 7, 7)
    assert tracer.absent == ["gone"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s[REQUEST] for s in tracer.spans] == ["r1", "r1", "r1", "r2"]
    assert perlayer.self_time_balance(tracer, stats) == (11, 11)


def test_span_closes_when_call_raises(fake_package):
    mod, _ = fake_package
    exec("def inner(x):\n    raise KeyError(x)\n", vars(mod))
    tracer = Tracer(clock=scripted_clock([0, 1, 2, 3]))
    tracer.install([Boundary("outer", (("fakepkg.mod", "outer"),)),
                    Boundary("inner", (("fakepkg.mod", "inner"),))], package="fakepkg")
    with pytest.raises(KeyError):
        mod.outer(1)
    tracer.uninstall()
    stats = tracer.stats()
    assert stats["outer"].self_ns == 2 and stats["inner"].busy_ns == 1


def test_tail_percentile():
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(1000) == 99
    assert run.nearest_rank(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == perlayer.metric_units()
    names = {m["name"] for m in bench["end_to_end"]}
    assert names == {"setup_s", "job_s", "model_load_s", "rtf_p50", "rtf_tail",
                     "frames_per_s", "final_valid_mse", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == {"synth-I", "train-E"}


def run_toy(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["synth-I", "train-E", "train-echo"])
def test_workload_passes_checks_at_toy_size(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, result = run_toy(workload, trace)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0, proc.stdout
        units = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-echo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
