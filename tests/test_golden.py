"""Golden outputs: every subcommand on every shipped config, byte for byte.

Each run goes in-process through cli.main: every single-experiment
subcommand, plain and with --svg, on every config in configs/ that is
not a batch, plus batch on configs/batch_example.json.  A run is pinned
by one sha256 over its exit code, its stdout, its stderr (with the
temporary output directory replaced by OUT) and the relative path and
bytes of every file it writes.  tests/golden_outputs.json holds the
digests; a refactor that must keep every output byte-identical keeps
this test green.  After a change that is meant to move an output,
rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from adelicbrs import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
BATCH = "batch_example"


def _runs() -> dict[str, list[str]]:
    """Run id -> cli arguments, without --out."""
    runs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = f"configs/{path.name}"
        if path.stem == BATCH:
            runs[f"batch {path.stem}"] = ["batch", "--config", config]
            continue
        for command in cli._COMMANDS:
            for extra in ([], ["--svg"]):
                runs[" ".join([command, path.stem, *extra])] = [
                    command, "--config", config, *extra]
    return runs


RUNS = _runs()


def _digest(argv: list[str], out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(),
                 stderr.getvalue().replace(str(out), "OUT")):
        h.update(part.encode() + b"\0")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("run", RUNS)
def test_golden_output(run, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(RUNS)
    assert _digest(RUNS[run], tmp_path / "out") == golden[run]


if __name__ == "__main__":
    digests = {}
    for run, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[run] = _digest(argv, Path(tmp) / "out")
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
