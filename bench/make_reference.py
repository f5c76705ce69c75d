"""Regenerate bench/reference.json: output digests for the shipped seeds.

Run from the repository root, at the commit whose outputs are to be the
reference:

    python3 bench/make_reference.py

Each operation is run once in-process and must pass the same checks the
benchmark applies to seeds without a reference before its digest is
stored.
"""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
import sys

import checks
import run
import workloads

SEEDS = range(16)


def main() -> int:
    cli = run.import_cli()
    scratch = run.WORK / "reference"
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = {}
        for seed in SEEDS:
            ops = workloads.generate(workload, seed)
            digests = []
            for i, op in enumerate(ops):
                shutil.rmtree(scratch, ignore_errors=True)
                scratch.mkdir(parents=True)
                config = scratch / "config.json"
                config.write_bytes(op.config_bytes())
                outdir = scratch / "out"
                code = cli.main([op.command, "--config", str(config),
                                 "--out", str(outdir)])
                problems = checks.check_operation(
                    op, code, outdir, None, checks.expected_value(op))
                if problems:
                    raise SystemExit(f"{workload} seed {seed} op{i}: {problems}")
                digests.append(checks.output_digest(outdir))
            out[workload][str(seed)] = {"configs": checks.configs_digest(ops),
                                        "outputs": digests}
            print(workload, seed, file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    data = {"commit": commit, "python": platform.python_version(),
            "workloads": out}
    checks.REFERENCE_PATH.write_text(json.dumps(data, indent=0) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
