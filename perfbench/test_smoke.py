"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
# every runnable workload, including those BENCHMARK.json leaves out
WORKLOADS = list(LAYERS["passes"])


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    if trace == "0":
        for name, unit in (("run_tail_s", "s"), ("error_rate", "ratio")):
            assert any(line.split()[1:4:2] == [name, unit] for line in lines), name
    if trace == "1":
        digests = re.findall(r"report digest untraced=(\w+) traced=(\w+)", proc.stdout)
        assert digests and all(plain == traced for plain, traced in digests)


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS["map"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
