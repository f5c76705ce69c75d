"""Output checks for benchmark operations.

Every operation is checked; its own exit code alone never passes it.

- Every ``flags`` entry must hold: the exact identities must be true,
  and the finite-horizon ``bounded_plateau`` and ``growth_detected``
  must equal their definitions recomputed from ``discrepancy.csv``.
- ``pass`` in ``verdict.json`` and the exit code (0 or 1) must be the
  ones those flags imply.
- For a shipped seed, the sha256 of every output file must match
  ``reference.json``, generated from the package at the commit recorded
  in that file.
- For any other seed, a recomputation stands in for the digest: for
  ``verify`` the first checkpoint's ``D_N_exact`` by the scalar oracle
  (``orbit`` plus ``box_lift_count``), for ``cutproject`` the agreement
  of ``cutpoints.csv`` with its verdict and its candidate range.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def output_digest(outdir: Path) -> str:
    """sha256 over (name, sha256(bytes)) of every file the op wrote."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def configs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.command.encode() + b"\0" + op.config_bytes())
    return h.hexdigest()


def load_reference(workload: str, seed: int, ops) -> list[str] | None:
    """Reference output digests for this seed, or None if not shipped.

    Raises ValueError when the shipped entry was made from other
    configs than the generator now produces.
    """
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    entry = data["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["configs"] != configs_digest(ops):
        raise ValueError(f"reference.json for {workload} seed {seed} was "
                         "made from other configs; regenerate it")
    return entry["outputs"]


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _oracle_first_discrepancy(config: dict) -> str:
    """D_N at the first checkpoint by orbit + box_lift_count."""
    from adelicbrs import cli
    from adelicbrs.brs import box_lift_count, construct_brs
    from adelicbrs.solenoid import orbit

    cfg = cli.load_config(config)
    boxset = construct_brs(cfg.alpha, cfg.gamma, cfg.n)
    n = cfg.checkpoints[0]
    acc = 0
    for x in orbit(cfg.alpha, cli.starting_point(cfg), n):
        acc += sum(w * box_lift_count(box, x) for box, w in boxset.terms)
    return (boxset.claimed_volume * (-n) + acc).exact_str()


def expected_value(op) -> str | None:
    """The value an op's output is checked against when no reference
    digest is shipped.  Computed once, before any timing or tracing."""
    if op.command == "verify":
        return _oracle_first_discrepancy(op.config)
    return None


def _recompute(op, outdir: Path, verdict: dict, expected) -> list[str]:
    cfg = op.config
    if op.command == "verify":
        got = _csv_rows(outdir / "discrepancy.csv")[0][3]
        if got != expected:
            return [f"D_N_exact {got} != oracle {expected}"]
    elif op.command == "cutproject":
        rows = _csv_rows(outdir / "cutpoints.csv")
        g1 = [Fraction(r[0]) for r in rows]
        if (len(rows) != verdict.get("points")
                or g1 != sorted(set(g1))
                or any(not 0 <= g < cfg["cutproject_n"] for g in g1)
                or any(int(r[1]) < 1 for r in rows)):
            return ["cutpoints.csv disagrees with its verdict or range"]
    return []


def _expected_flags(op, outdir: Path, flags: dict) -> dict:
    """Every flag must be true, except the two finite-horizon verify
    flags, which must equal their definitions on the running sups."""
    want = {name: True for name in flags}
    if op.command == "verify":
        sups = [Decimal(r[2]) for r in _csv_rows(outdir / "discrepancy.csv")]
        want["bounded_plateau"] = sups[-1] * 10 <= sups[-2] * 11
        want["growth_detected"] = all(a < b for a, b in zip(sups, sups[1:]))
    return want


def check_operation(op, code, outdir: Path, reference: str | None,
                    expected: str | None) -> list[str]:
    """Problems found with one operation's result; empty means correct.

    A verify whose running sup still rises by more than 10% between the
    last two checkpoints exits 1 by the CLI's finite-horizon rule even
    for a bounded remainder set, so the exit code is checked against the
    verdict the flags imply rather than against 0.
    """
    if code not in (0, 1):
        return [f"exit code {code!r}"]
    try:
        verdict = json.loads((outdir / "verdict.json").read_text("utf-8"))
        flags = verdict.get("flags", {})
        want = _expected_flags(op, outdir, flags)
        want_pass = all(v for k, v in want.items() if k != "growth_detected")
        problems = [f"flag {k} is {flags[k]!r}, expected {v!r}"
                    for k, v in want.items() if flags[k] is not v]
        if verdict.get("pass") is not want_pass or code != 1 - want_pass:
            problems.append(f"pass {verdict.get('pass')!r} and exit code "
                            f"{code} where the flags imply {want_pass}")
        if reference is not None:
            if output_digest(outdir) != reference:
                problems.append("output digest differs from reference")
        else:
            problems += _recompute(op, outdir, verdict, expected)
        return problems
    except Exception as e:  # a malformed output is a failed operation
        return [f"unreadable output: {e!r}"]
