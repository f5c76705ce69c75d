"""Tests of the benchmark itself: input generation, the reported metric
names and the output check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from adelicbrs.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_configs(workload):
    first = [op.config_bytes() for op in workloads.generate(workload, 7)]
    again = [op.config_bytes() for op in workloads.generate(workload, 7)]
    other = [op.config_bytes() for op in workloads.generate(workload, 8)]
    assert first == again
    assert first != other


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _run_bench(ROOT, "--workload", "certify_q23", "--seed", "103",
                      "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "verify_q2", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run_op(tmp_path, op):
    config = tmp_path / "config.json"
    config.write_bytes(op.config_bytes())
    out = tmp_path / "out"
    code = cli_main([op.command, "--config", str(config), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("use_reference", [True, False])
def test_check_flags_corrupted_output(tmp_path, use_reference):
    ops = workloads.generate("verify_q2", 0)
    op = ops[0]
    reference = checks.load_reference("verify_q2", 0, ops)[0] \
        if use_reference else None
    expected = None if use_reference else checks.expected_value(op)
    code, out = _run_op(tmp_path, op)
    assert checks.check_operation(op, code, out, reference, expected) == []

    csv = out / "discrepancy.csv"
    lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[1].split(",")
    row[3] = row[3] + " + 1"  # D_N_exact of the first checkpoint
    lines[1] = ",".join(row)
    csv.write_text("".join(lines), encoding="utf-8")
    assert checks.check_operation(op, code, out, reference, expected)


def test_check_flags_wrong_flag_or_exit_code(tmp_path):
    op = workloads.generate("verify_circle", 100)[0]
    code, out = _run_op(tmp_path, op)
    expected = checks.expected_value(op)
    assert checks.check_operation(op, code, out, None, expected) == []
    assert checks.check_operation(op, 1 - code, out, None, expected)
    assert checks.check_operation(op, 2, out, None, expected)

    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    verdict["flags"]["growth_detected"] = not verdict["flags"]["growth_detected"]
    (out / "verdict.json").write_text(json.dumps(verdict), encoding="utf-8")
    assert checks.check_operation(op, code, out, None, expected)
