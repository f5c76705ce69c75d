"""Benchmark for adelicbrs.

Run from the repository root:

    python3 bench/run.py --workload verify_q2 --seed 1 --seconds 40 --trace 0

The workload's configs are generated from the seed (see workloads.py)
and run through ``adelicbrs.cli.main`` in this process and as
``python -m adelicbrs.cli`` subprocesses, one at a time, and every
operation's outputs are checked (see checks.py).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run, measured in this process against an untraced run of the same
operations.  Everything is written under ``.perfbench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
SUBPROCESSES_PER_ROUND = 2
TAIL_BEYOND = 10

SETUP_SNIPPET = """\
import json, sys
import adelicbrs.cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        adelicbrs.cli.load_config(json.load(f))
"""


class Runner:
    """Runs and checks the operations of one workload and seed."""

    def __init__(self, workload: str, seed: int, cli):
        self.ops = workloads.generate(workload, seed)
        self.cli = cli
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.config_paths = []
        for i, op in enumerate(self.ops):
            path = self.dir / f"op{i}" / "config.json"
            path.parent.mkdir(parents=True)
            path.write_bytes(op.config_bytes())
            self.config_paths.append(path)
        self.reference = checks.load_reference(workload, seed, self.ops)
        self.expected = ([None] * len(self.ops) if self.reference
                         else [checks.expected_value(op) for op in self.ops])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _argv(self, i: int) -> list[str]:
        op = self.ops[i]
        return [op.command, "--config", str(self.config_paths[i]),
                "--out", str(self._outdir(i))]

    def _outdir(self, i: int) -> Path:
        return self.config_paths[i].parent / "out"

    def _check(self, i: int, code) -> None:
        self.attempted += 1
        ref = self.reference[i] if self.reference else None
        problems = checks.check_operation(self.ops[i], code, self._outdir(i),
                                          ref, self.expected[i])
        if problems:
            self.failed += 1
            self.problems.append(f"op{i} {self.ops[i].command}: "
                                 + "; ".join(problems))

    def run_in_process(self, i: int) -> float:
        shutil.rmtree(self._outdir(i), ignore_errors=True)
        t0 = perf_counter()
        try:
            code = self.cli.main(self._argv(i))
        except (Exception, SystemExit) as e:  # a crash is a failed operation
            code = f"crash {e!r}"
        dt = perf_counter() - t0
        self._check(i, code)
        return dt

    def run_pass(self) -> list[float]:
        """One in-process pass over every operation; per-op latencies."""
        return [self.run_in_process(i) for i in range(len(self.ops))]

    def run_subprocess(self, i: int) -> tuple[float, float]:
        """Wall seconds and peak RSS in MB of one CLI subprocess."""
        shutil.rmtree(self._outdir(i), ignore_errors=True)
        with open(self.dir / "stderr.txt", "ab") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "adelicbrs.cli", *self._argv(i)],
                cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._check(i, proc.returncode)
        return dt, usage.ru_maxrss / 1024

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and loading
        every config of the workload."""
        unique = {op.config_bytes(): str(path)
                  for op, path in zip(self.ops, self.config_paths)}
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *unique.values()],
                       cwd=ROOT, env=_child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def upper_decile(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and
    that percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def plain_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced run.  Each round makes one set-up probe, one in-process
    pass and two subprocess operations, so that every metric samples the
    whole run and a burst of load from elsewhere hits all of them alike.

    On a shared machine the speed alternates between a contended and an
    uncontended phase as other tenants come and go, for seconds to
    minutes at a time.  The median of a run's samples jumps by the whole
    difference between the phases when the share of one crosses a half;
    the upper decile follows the contended phase, which almost every run
    of 40 s contains and whose speed varies far less, so the times are
    reported as upper deciles (see README.md)."""
    runner.setup_probe()  # writes the bytecode caches; not measured
    setups, passes, walls, rss = [], [], [], []
    start = perf_counter()
    while len(passes) < MIN_ROUNDS or perf_counter() - start < seconds:
        setups.append(runner.setup_probe())
        passes.append(runner.run_pass())
        for _ in range(SUBPROCESSES_PER_ROUND):
            wall, mb = runner.run_subprocess(len(walls) % len(runner.ops))
            walls.append(wall)
            rss.append(mb)
    latencies = [t for p in passes for t in p]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "run_s": (upper_decile([sum(p) for p in passes]), "s"),
        "steps_per_s": (_rate(runner, passes, "orbit_steps"), "1/s"),
        "cmd_tail_ms": (1e3 * tail_s, "ms"),
        "cli_wall_s": (upper_decile(walls), "s"),
        "setup_s": (upper_decile(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    details = {"rounds": len(passes), "cmd_samples": len(latencies),
               "cmd_p50_ms": 1e3 * statistics.median(latencies),
               "cmd_tail_percentile": tail_pct,
               "samples": {"pass_s": [sum(p) for p in passes],
                           "cmd_s": latencies, "cli_wall_s": walls,
                           "setup_s": setups}}
    return metrics, details


def _rate(runner: Runner, passes, attr: str) -> float:
    """Work units per second of the operations that do that work: their
    work per pass over the upper decile of their time per pass."""
    work = sum(getattr(op, attr) for op in runner.ops)
    if not work:
        return 0.0
    times = [sum(t for op, t in zip(runner.ops, p) if getattr(op, attr))
             for p in passes]
    return work / upper_decile(times)


def trace_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    # untraced and traced passes alternate, as in plain_run
    while len(traced) < MIN_ROUNDS or perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.remove()
    trace_file = runner.dir / "trace.json"
    trace_file.write_text(
        json.dumps(tracer.summary(), indent=1) + "\n", encoding="utf-8")

    npass = len(traced)
    steps = npass * sum(op.orbit_steps for op in runner.ops)
    traced_s = sum(sum(p) for p in traced)

    def per(value, count, scale=1.0):
        return scale * value / count if count else 0.0

    t = tracer
    c = t.counts
    wm = "cutproject.window_multiplicity"
    metrics = {
        "candidates_per_s": (_rate(runner, plain, "candidates"), "1/s"),
        "solenoid.rotate.self_us_per_step":
            (per(t.self_time("solenoid.rotate"), steps, 1e6), "us"),
        "solenoid.reduce_to_fundamental.us_per_call":
            (per(t.total("solenoid.reduce_to_fundamental"),
                 t.calls("solenoid.reduce_to_fundamental"), 1e6), "us"),
        "exact.ExactReal.floor.calls":
            (per(t.calls("exact.ExactReal.floor"), npass), "count"),
        "exact.ExactReal._reduced.per_step":
            (per(c["exact.ExactReal._reduced"], steps), "count"),
        "exact.padic_fractional_part.calls":
            (per(t.calls("exact.padic_fractional_part"), npass), "count"),
        "exact.crt_coset.calls": (per(t.calls("exact.crt_coset"), npass), "count"),
        "exact.crt_coset.us_per_call":
            (per(t.total("exact.crt_coset"), t.calls("exact.crt_coset"), 1e6),
             "us"),
        "exact.orbit_max_bits": (c["exact.orbit_max_bits"], "bits"),
        "brs.box_lift_count.calls":
            (per(t.calls("brs.box_lift_count"), npass), "count"),
        "brs.box_lift_count.self_us_per_call":
            (per(t.self_time("brs.box_lift_count"),
                 t.calls("brs.box_lift_count"), 1e6), "us"),
        "brs.multiplicity.us_per_step":
            (per(t.total("brs.multiplicity"), steps, 1e6), "us"),
        "brs.series.self_us_per_step":
            (per(t.self_time("brs.series"), steps, 1e6), "us"),
        "brs.hit_ratio": (per(c["brs.multiplicity.hits"],
                              t.calls("brs.multiplicity")), "ratio"),
        "brs.construct.ms": (per(t.total("brs.construct"),
                                 t.calls("brs.construct"), 1e3), "ms"),
        f"{wm}.calls": (per(t.calls(wm), npass), "count"),
        f"{wm}.us_per_call": (per(t.total(wm), t.calls(wm), 1e6), "us"),
        "cutproject.hit_ratio": (per(c[f"{wm}.hits"], t.calls(wm)), "ratio"),
        "cutproject.correspondence_check.s":
            (per(t.total("cutproject.correspondence_check"), npass), "s"),
        "cli.load_config.ms": (per(t.total("cli.load_config"),
                                   t.calls("cli.load_config"), 1e3), "ms"),
        "cli.write_atomic.ms": (per(t.total("cli.write_atomic"),
                                    t.calls("cli.write_atomic"), 1e3), "ms"),
        "cli.bytes_written": (per(c["cli.bytes_written"], npass), "bytes"),
        "trace.overhead_frac":
            (statistics.median(sum(p) for p in traced)
             / statistics.median(sum(p) for p in plain) - 1, "ratio"),
        "trace.self_coverage":
            (sum(v[2] for v in t.stats.values()) / traced_s, "ratio"),
    }
    details = {"untraced_passes": len(plain), "traced_passes": npass,
               "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, details


def provenance(runner: Runner, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "adelicbrs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "git_commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "reference_digests": runner.reference is not None,
        "config_sha256": [hashlib.sha256(op.config_bytes()).hexdigest()
                          for op in runner.ops],
    }


def import_cli():
    """Import adelicbrs.cli from ./src and nowhere else."""
    if not (SRC / "adelicbrs" / "cli.py").is_file():
        raise SystemExit("error: no ./src/adelicbrs; run from the root of an "
                         "adelicbrs source tree")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("adelicbrs.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "adelicbrs").resolve():
        raise SystemExit(f"error: imported adelicbrs from {cli.__file__}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, import_cli())
    run = trace_run if args.trace else plain_run
    metrics, details = run(runner, args.seconds)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "details": details, "problems": runner.problems,
              "provenance": provenance(runner, args)}
    (runner.dir / "result.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in runner.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"details": details, "provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
