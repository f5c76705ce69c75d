"""Command line interface.

Subcommands: volumes, construct, verify, cutproject, weyl, batch.
A run is parse, compute, write.  Each cmd_* is a function of its config
that first rejects a config it cannot run (a cap on work with no other
bound, a plateau test with one checkpoint, a cut-and-project check with
nothing to check), then returns its output files as text and its verdict
fields; _run_single alone derives the verdict's pass, writes every file
into --out with verdict.json last, and turns pass into the exit code.  A
run exits 0 (all checks pass), 1 (a verified property failed), 2
(infeasible input), 3 (bad command line, bad config, an input above its
cap, or an output that cannot be written), or 4 (internal error: any
other exception, reported in one line without a traceback).  A run that
exits 2-4 writes no file.

Outputs are deterministic: identical config and seed produce
byte-identical CSV and verdict files.  Figures (--svg) are diagnostic
plain-SVG files and are not part of any verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable

from . import cutproject
from .brs import (AdelicBox, PAdicBall, WeightedBoxSet, _reduced_exponent,
                  construct_brs, construct_witness, discrepancy_series,
                  enumerate_volumes, reduce_to_finite, witness_flags)
from .errors import (NegativeIndicator, NegativeVolume, PrimeSetMismatch,
                     ZeroGamma)
from .exact import _MR_LIMIT, ExactReal, PrimeSet, is_prime, padic_valuation
from .solenoid import (AdeleVector, as_lattice, character_phase, is_minimal,
                       reduce_to_fundamental, weyl_sum)

DEFAULT_CHECKPOINTS = [100, 1000, 10000, 100000]
# largest radicand, and under infinite_q gamma denominator, a config may
# give: both are factored by trial division, about 0.04 s at this size
MAX_FACTORED = 10**12
# most bits of any integer a config gives (a numerator or denominator, an
# exact-real component, a count or checkpoint), and of the products that
# grow with |Q|: the reduced index denominator (prod Q)**ell of gamma, and
# the products of alpha_padic's p-power denominators and of the control-box
# ball measures p**|e|.  Outputs print products of a few of these, and
# Python prints no integer above 4300 digits: with all of them at the cap
# over Q = {2}, {2, 3} or 2..29, the longest has 2112 digits (0.3 s)
MAX_BITS = 1000
# longest orbit walk verify runs (its last checkpoint): about 1.3 s on
# configs/two_primes.json at about 0.13 us per step.  weyl is closed form and
# takes any N.
MAX_WALK = 10**7
# most candidate volumes (bound+1)**(|Q|+1) * (2*bound+1) volumes enumerates,
# and most lattice candidates cutproject counts: on the shipped configs
# volumes takes at most about 16 s and 100 MB, cutproject about 0.15 s and
# 26 MB
MAX_VOLUMES = 10**5
MAX_CUTPROJECT = 10**5

EXIT_PASS = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

_INFEASIBLE = (NegativeVolume, ZeroGamma)
_BROKEN = (NegativeIndicator,)


class ConfigError(Exception):
    pass


class UsageError(Exception):
    """A command line that argparse rejects."""


# the one map from an exception to its exit code and stderr prefix
_FAILURES = (
    ((UsageError,), EXIT_CONFIG, "usage error"),
    ((ConfigError,), EXIT_CONFIG, "config error"),
    (_BROKEN, EXIT_PROPERTY_FAILURE, "property failure"),
    (_INFEASIBLE, EXIT_INFEASIBLE, "infeasible"),
)


def _guarded(run: Callable[..., int], *args) -> int:
    """run(*args), or the exit code and one stderr line of its exception;
    an exception _FAILURES does not list is an internal error."""
    try:
        return run(*args)
    except Exception as e:
        for kinds, code, prefix in _FAILURES:
            if isinstance(e, kinds):
                print(f"{prefix}: {e}", file=sys.stderr)
                return code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage and exit 2, the infeasible-input code
    def error(self, message: str):
        raise UsageError(message)


# --- config parsing -------------------------------------------------------


# most characters of an input value that an error line echoes: with the
# count of the characters cut, a line echoing two values stays below 200
# bytes for ASCII input
ECHO_CHARS = 32


def _echo(value: Any, render: Callable[[Any], str] = repr) -> str:
    """render(value) for an error line, cut to ECHO_CHARS characters, and
    then saying how many characters it cut."""
    text = render(value)
    cut = len(text) - ECHO_CHARS
    return text if cut <= 0 else f"{text[:ECHO_CHARS]}... (+{cut} chars)"


def _require_bits(value: int, what: str) -> int:
    if value.bit_length() > MAX_BITS:
        raise ConfigError(f"{what} has more than {MAX_BITS} bits")
    return value


# the number grammar of config strings and of every number a flag gives:
# ASCII digits, checked before converting, as Fraction and int also take
# " ", "_", ".", "+", "١" and exponents, and Fraction("1e10000000") alone
# takes seconds.  A flag's range is checked with its config key's.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
# a lone surrogate, as a JSON escape such as "\ud800" gives: a string with
# one has no strict UTF-8 form, so as a path it fails or names raw bytes
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _parse_number(text: str, grammar: re.Pattern, what: str) -> Fraction:
    """text as a Fraction, if it matches grammar."""
    try:
        if grammar.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # n/0, or above 4300 digits
        pass
    raise ConfigError(f"bad {what} {_echo(text)}")


def _require_product(factors: Iterable[int], what: str) -> int:
    """The product of positive factors, refused once it passes MAX_BITS."""
    total = 1
    for factor in factors:
        total = _require_bits(total * factor, what)
    return total


def parse_rational(value: Any) -> Fraction:
    """A JSON integer, or a string "num" or "num/den"."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"expected a rational, got {_echo(value)}")
    x = (Fraction(value) if isinstance(value, int)
         else _parse_number(value, _RATIONAL, "rational"))
    _require_bits(max(abs(x.numerator), x.denominator),
                  "a rational's numerator or denominator")
    return x


def parse_int(value: Any, what: str, minimum: int | None = None) -> int:
    """A JSON integer, never a bool, float or string, at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {_echo(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {_echo(value)}")
    return _require_bits(value, what)


def parse_exact_real(value: Any) -> ExactReal:
    if isinstance(value, dict):
        _reject_unknown_keys(value, _EXACT_REAL_KEYS, " in an exact real")
        a, b, c, d = (parse_int(value.get(k, default), f"exact real {k!r}")
                      for k, default in (("a", 0), ("b", 0), ("c", 1),
                                         ("d", 0)))
        if d > MAX_FACTORED:
            raise ConfigError(f"exact real radicand {_echo(d)} is above "
                              f"{MAX_FACTORED}, too large to factor")
        try:
            return ExactReal(a, b, c, d)
        except (ValueError, ZeroDivisionError, TypeError) as e:
            raise ConfigError(f"bad exact real {_echo(value)}: {e}") from None
    return ExactReal.from_rational(parse_rational(value))


def _parse_prime_map(obj: Any, what: str,
                     parse_value: Callable[[Any], Any]) -> dict[int, Any]:
    """Keys are primes written as canonical decimals ("2", never "02",
    " 2" or "+2"), so no two keys name the same prime."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object mapping primes")
    out = {}
    for key, val in obj.items():
        try:
            p = int(key)
            prime = key == str(p) and is_prime(p)
        except ValueError:  # not an integer, or past is_prime's range
            prime = False
        if not prime:
            raise ConfigError(f"{what} key {_echo(key)} must be a prime below "
                              f"psi_12 = {_MR_LIMIT}, in canonical decimal")
        out[p] = parse_value(val)
    return out


def _require_lattice(g: Fraction, alpha: AdeleVector, what: str) -> None:
    """g must be a lattice rational: no denominator prime outside Q."""
    try:
        as_lattice(g, alpha.primes)
    except PrimeSetMismatch:
        raise ConfigError(f"{what} = {_echo(g, str)} has a denominator prime "
                          f"outside alpha's prime set {list(alpha.primes)}"
                          ) from None


def _require_field(value: ExactReal, alpha: AdeleVector,
                   what: str) -> ExactReal:
    if value.d not in (0, alpha.real.d):
        raise ConfigError(f"{what} lies in Q(sqrt({value.d})) but "
                          f"alpha_real in Q(sqrt({alpha.real.d}))")
    return value


_CONFIG_KEYS = frozenset({
    "alpha_real", "alpha_padic", "gamma", "infinite_q", "x0_real",
    "x0_padic", "checkpoints", "n", "seed", "bound", "cutproject_n",
    "control_box", "out"})
_CONTROL_BOX_KEYS = frozenset({"real_lo", "real_hi", "balls"})
_EXACT_REAL_KEYS = frozenset({"a", "b", "c", "d"})
_BATCH_KEYS = frozenset({"experiments", "out"})
_EXPERIMENT_KEYS = frozenset({"name", "command", "config"})


def _reject_unknown_keys(obj: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        keys = _echo(", ".join(map(repr, unknown)), str)
        raise ConfigError(f"unknown key{'s' * (len(unknown) > 1)} "
                          f"{keys}{where}")


class ExperimentConfig:
    __slots__ = ("alpha", "gamma", "n", "checkpoints", "x0", "seed", "bound",
                 "cutproject_n", "control_box")

    def __init__(self, alpha: AdeleVector, gamma: Fraction, n: int,
                 checkpoints: list[int], x0: AdeleVector, seed: int,
                 bound: int, cutproject_n: int, control_box: AdelicBox | None):
        self.alpha, self.gamma, self.n = alpha, gamma, n
        self.checkpoints, self.x0, self.seed = checkpoints, x0, seed
        self.bound, self.cutproject_n = bound, cutproject_n
        self.control_box = control_box


def load_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys(data, _CONFIG_KEYS, "")
    if "alpha_real" not in data:
        raise ConfigError("missing key alpha_real")
    alpha_real = parse_exact_real(data["alpha_real"])
    parts = _parse_prime_map(data.get("alpha_padic"), "alpha_padic",
                             parse_rational)
    gamma = parse_rational(data.get("gamma", 0))

    infinite_q = data.get("infinite_q", False)
    if not isinstance(infinite_q, bool):
        raise ConfigError(f"infinite_q must be true or false, "
                          f"got {_echo(infinite_q)}")
    if infinite_q:
        if gamma.denominator > MAX_FACTORED:
            raise ConfigError(f"gamma denominator {_echo(gamma.denominator)} "
                              f"is above {MAX_FACTORED}, too large to factor "
                              f"under infinite_q")
        alpha = reduce_to_finite(alpha_real, parts, gamma)
    else:
        alpha = AdeleVector(PrimeSet(parts), alpha_real, parts)
    if not is_minimal(alpha):
        raise ConfigError("alpha_real must be irrational (minimal rotation)")
    _require_lattice(gamma, alpha, "gamma")
    _require_product((p ** max(0, -padic_valuation(x, p))
                      for p, x in alpha.parts),
                     "the product of alpha_padic's p-power denominators")
    ell = _reduced_exponent(gamma, alpha.primes)
    _require_product((p for _ in range(ell) for p in alpha.primes),
                     f"gamma's reduced denominator (prod Q)**{ell}")
    x0_real = _require_field(parse_exact_real(data.get("x0_real", 0)),
                             alpha, "x0_real")
    x0_padic = _parse_prime_map(data.get("x0_padic"), "x0_padic",
                                parse_rational)
    outside = sorted(set(x0_padic) - set(alpha.primes))
    if outside:
        raise ConfigError(f"x0_padic has primes {outside} outside alpha's "
                          f"prime set {list(alpha.primes)}")

    checkpoints = data.get("checkpoints", DEFAULT_CHECKPOINTS)
    if (not isinstance(checkpoints, list) or not checkpoints
            or any(isinstance(c, bool) or not isinstance(c, int) or c < 1
                   for c in checkpoints)
            or sorted(set(checkpoints)) != checkpoints):
        raise ConfigError("checkpoints must be strictly increasing positive "
                          "integers")
    _require_bits(checkpoints[-1], "the last checkpoint")

    n = parse_int(data.get("n", 0), "n")
    seed = parse_int(data.get("seed", 0), "seed")
    bound = parse_int(data.get("bound", 3), "bound", 0)
    cut_n = parse_int(data.get("cutproject_n", 1000), "cutproject_n", 1)

    control_box = None
    if data.get("control_box") is not None:
        cb = data["control_box"]
        if not isinstance(cb, dict):
            raise ConfigError("control_box must be an object")
        _reject_unknown_keys(cb, _CONTROL_BOX_KEYS, " in control_box")
        balls = _parse_prime_map(
            cb.get("balls"), "control_box.balls",
            lambda e: parse_int(e, "control_box.balls exponent"))
        for p in alpha.primes:
            balls.setdefault(p, 0)
        if sorted(balls) != list(alpha.primes):
            raise ConfigError("control_box.balls must use alpha's primes")
        _require_product((p ** min(abs(e), MAX_BITS + 1)  # cap e, not p**e
                          for p, e in balls.items()),
                         "the product of the control_box ball measures")
        try:
            control_box = AdelicBox(
                _require_field(parse_exact_real(cb.get("real_lo", 0)),
                               alpha, "control_box.real_lo"),
                _require_field(parse_exact_real(cb.get("real_hi", 1)),
                               alpha, "control_box.real_hi"),
                tuple(PAdicBall(p, Fraction(0), balls[p])
                      for p in sorted(balls)))
        except ValueError as e:
            raise ConfigError(f"bad control_box: {e}") from None

    return ExperimentConfig(
        alpha=alpha, gamma=gamma, n=n, checkpoints=list(checkpoints),
        x0=AdeleVector(alpha.primes, x0_real, x0_padic), seed=seed,
        bound=bound, cutproject_n=cut_n, control_box=control_box)


def starting_point(cfg: ExperimentConfig):
    return reduce_to_fundamental(cfg.x0)[0]


# --- output helpers -------------------------------------------------------


def write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(outdir: Path, files: dict[str, str]) -> None:
    """Create outdir and write files into it, in order.  An output that
    cannot be written is a config error, and the files written before it
    are removed again."""
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            write_atomic(outdir / name, text)
            written.append(outdir / name)
    except OSError as e:
        for path in written:
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write output: {e}") from None


def _json(verdict: dict) -> str:
    return json.dumps(verdict, indent=2, sort_keys=True) + "\n"


def csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _sample_checkpoints(checkpoints: list[int]) -> list[int]:
    """Geometric grid of extra sample points for plotting."""
    goal = checkpoints[-1]
    marks = set(checkpoints)
    n = 1
    while n < goal:
        marks.add(n)
        n = max(n + 1, int(n * 1.12))
    return sorted(marks)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def svg_text(series, logx: bool = False, logy: bool = False) -> str:
    """Diagnostic figure as plain SVG text; the same data always gives
    the same bytes.

    series is a list of (label, kind, points): kind "line" draws a
    polyline and "dots" draws circles; points are (x, y) floats.  A log
    axis drops points that are not positive on it.
    """
    def tf(v, log):
        return math.log10(v) if log else v

    data = [(label, kind, [(tf(x, logx), tf(y, logy)) for x, y in points
                           if (x > 0 or not logx) and (y > 0 or not logy)])
            for label, kind, points in series]
    xs = [x for *_, pts in data for x, _ in pts] or [0.0]
    ys = [y for *_, pts in data for _, y in pts] or [0.0]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    w, h, pad = 640, 400, 48
    sx = (w - 2 * pad) / ((x1 - x0) or 1)
    sy = (h - 2 * pad) / ((y1 - y0) or 1)

    def at(x, y):
        return f"{pad + (x - x0) * sx:.2f}", f"{h - pad - (y - y0) * sy:.2f}"

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
           f'height="{h}" font-family="sans-serif" font-size="11">',
           f'<rect x="{pad}" y="{pad}" width="{w - 2 * pad}" '
           f'height="{h - 2 * pad}" fill="none" stroke="#888"/>',
           f'<text x="{pad}" y="{h - 16}">'
           f'x{" (log10)" * logx}: {x0:.6g} .. {x1:.6g}   '
           f'y{" (log10)" * logy}: {y0:.6g} .. {y1:.6g}</text>']
    for i, (label, kind, pts) in enumerate(data):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        if kind == "line":
            coords = " ".join(",".join(at(x, y)) for x, y in pts)
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'points="{coords}"/>')
        else:
            out.extend(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>'
                       for cx, cy in (at(x, y) for x, y in pts))
        out.append(f'<text x="{pad + 8}" y="{pad + 16 + 14 * i}" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- subcommands ----------------------------------------------------------


def cmd_volumes(cfg: ExperimentConfig, svg: bool) -> tuple[dict, dict]:
    k = len(cfg.alpha.primes)
    if (cfg.bound + 1) ** (k + 1) * (2 * cfg.bound + 1) > MAX_VOLUMES:
        raise ConfigError(f"bound {_echo(cfg.bound)} with |Q| = {k} gives "
                          f"more than {MAX_VOLUMES} candidate volumes "
                          f"(bound+1)**{k + 1} * (2*bound+1)")
    elements = enumerate_volumes(cfg.alpha, cfg.bound)
    rows = [[str(el.gamma), str(el.n), el.value.exact_str(),
             el.value.decimal_str()] for el in elements]
    return ({"volumes.csv": csv_text(
                ["gamma", "n", "volume_exact", "volume_decimal"], rows)},
            {"bound": cfg.bound, "count": len(elements)})


def _construction_verdict(cfg: ExperimentConfig) -> tuple[WeightedBoxSet, dict]:
    witness = None
    if cfg.gamma == 0:
        boxset = construct_brs(cfg.alpha, cfg.gamma, cfg.n)
        info: dict = {}
    else:
        witness = construct_witness(cfg.alpha, cfg.gamma, cfg.n)
        boxset = witness.result
        info = {
            "sign": witness.sign, "ell": witness.ell,
            "gamma_reduced": str(witness.gamma), "n_reduced": witness.n,
            "lam1": str(witness.lam1), "lam2": str(witness.lam2),
            "lam": str(witness.lam), "box_scale": witness.box_scale,
            "copies": witness.copies, "surplus": witness.surplus,
            "xi_reduced_exact": witness.xi.exact_str(),
        }
    info.update({
        "gamma": str(boxset.source_gamma), "n": boxset.source_n,
        "claimed_volume_exact": boxset.claimed_volume.exact_str(),
        "claimed_volume_decimal": boxset.claimed_volume.decimal_str(),
        "certificate": boxset.certificate,
        "flags": witness_flags(cfg.alpha, boxset, witness),
    })
    return boxset, info


def cmd_construct(cfg: ExperimentConfig, svg: bool) -> tuple[dict, dict]:
    boxset, info = _construction_verdict(cfg)
    return {"boxes.txt": boxset.serialize() + "\n"}, info


def cmd_verify(cfg: ExperimentConfig, svg: bool) -> tuple[dict, dict]:
    checkpoints = cfg.checkpoints
    if len(checkpoints) < 2:
        raise ConfigError("verify needs at least two checkpoints, as its "
                          "plateau test compares the last two")
    if checkpoints[-1] > MAX_WALK:
        raise ConfigError(f"last checkpoint {_echo(checkpoints[-1])} is above "
                          f"{MAX_WALK}, the longest orbit walk verify runs")
    if cfg.control_box is not None:
        box = cfg.control_box
        boxset = WeightedBoxSet(((box, 1),), box.volume(), 0)
        info: dict = {"mode": "control_box"}
    else:
        boxset, info = _construction_verdict(cfg)
        info["mode"] = "construction"

    wanted = _sample_checkpoints(checkpoints) if svg else checkpoints
    summary = discrepancy_series(boxset, cfg.alpha, starting_point(cfg),
                                 wanted)
    marks = set(checkpoints)
    records = [r for r in summary.records if r.n in marks]

    # one rendering of each checkpoint, for the CSV and the verdict
    header = ["N", "D_N", "running_sup", "D_N_exact", "running_sup_exact"]
    rendered = [{"N": r.n, "D_N": r.value.decimal_str(),
                 "running_sup": r.running_sup.decimal_str(),
                 "D_N_exact": r.value.exact_str(),
                 "running_sup_exact": r.running_sup.exact_str()}
                for r in records]
    files = {"discrepancy.csv": csv_text(
        header, ([str(c[k]) for k in header] for c in rendered))}
    if svg:
        files["discrepancy.svg"] = svg_text([
            ("D_N", "line",
             [(r.n, r.value.to_float()) for r in summary.records]),
            ("running sup |D_M|", "line",
             [(r.n, r.running_sup.to_float()) for r in summary.records]),
            ("checkpoints", "dots",
             [(r.n, r.value.to_float()) for r in records])], logx=True)

    sups = [r.running_sup for r in records]  # two or more, checked above
    return files, {
        **info, "flags": {
            **info.get("flags", {}),
            "bounded_plateau": sups[-1] * 10 <= sups[-2] * 11,
            "growth_detected": all(a < b for a, b in zip(sups, sups[1:]))},
        "checkpoints": rendered,
        "sup_attained_at": summary.sup_at,
        "finite_horizon_note": (
            "boundedness and growth verdicts are finite-horizon substitutes "
            "evaluated at the configured checkpoints; they certify the "
            "computed range only"),
    }


def cmd_cutproject(cfg: ExperimentConfig, svg: bool) -> tuple[dict, dict]:
    count = cfg.cutproject_n
    if count > MAX_CUTPROJECT:
        raise ConfigError(f"cutproject_n {_echo(count)} is above "
                          f"{MAX_CUTPROJECT}, the most candidates cutproject "
                          f"counts")
    if cfg.gamma == 0 and cfg.n == 0:
        raise ConfigError("cutproject needs a construction to cross-check,"
                          " and gamma 0 with n 0 builds the empty set")
    boxset, info = _construction_verdict(cfg)
    counts, agrees = cutproject.correspondence_check(boxset, cfg.alpha, count)
    files = {"cutpoints.csv": csv_text(
        ["gamma1", "multiplicity"],
        ([str(k), str(m)] for k, m in enumerate(counts) if m))}
    if svg:
        files["cutpoints.svg"] = svg_text([
            ("multiplicity", "dots",
             [(float(k), m) for k, m in enumerate(counts) if m])])
    return files, {
        "count": count, "points": len(counts) - counts.count(0),
        "flags": {"correspondence": agrees, **info["flags"]},
    }


def cmd_weyl(cfg: ExperimentConfig, svg: bool) -> tuple[dict, dict]:
    gamma = cfg.gamma
    phase = character_phase(gamma, cfg.alpha)
    norm = min(phase, 1 - phase)
    rows = []
    plot_rows = []
    for n in cfg.checkpoints:
        s = abs(weyl_sum(gamma, cfg.alpha, n))
        bound = (norm * (2 * n)).inverse()
        limit = bound.to_float()
        rows.append([str(n), repr(s), bound.decimal_str(), bound.exact_str(),
                     "pass" if s <= limit else "fail"])
        plot_rows.append((n, s, limit))
    files = {"weyl.csv": csv_text(
        ["N", "abs_weyl_sum", "bound", "bound_exact", "status"], rows)}
    if svg:
        files["weyl.svg"] = svg_text([
            ("|S_N|", "line", [(n, a) for n, a, _ in plot_rows]),
            ("1/(2N||theta||)", "line", [(n, b) for n, _, b in plot_rows])],
            logx=True, logy=True)
    return files, {
        "gamma": str(gamma), "phase_exact": phase.exact_str(),
        "phase_decimal": phase.decimal_str(),
        "flags": {"bound_satisfied": all(row[-1] == "pass" for row in rows)},
    }


# the one table of subcommands: each name's function, its help line and
# the (flag, help line) of any integer flag of its own.  batch, which runs
# a list of them, is not one of them.
_COMMANDS = {
    "volumes": (cmd_volumes, "enumerate allowable volumes up to a bound",
                ("--bound", "enumeration bound override")),
    "construct": (cmd_construct, "build a BRS box set with exact witnesses"),
    "verify": (cmd_verify, "run the exact discrepancy series at checkpoints"),
    "cutproject": (cmd_cutproject, "cross-check lift counts against the "
                   "cut-and-project counter",
                   ("--count", "number of gamma_1 candidates")),
    "weyl": (cmd_weyl,
             "evaluate Weyl character averages against the exact bound"),
}
_BATCH_HELP = "run a list of experiments from one config"
# each flag that gives an integer, and the config key it overrides
_INTEGER_FLAGS = {"--seed": "seed", "--bound": "bound",
                  "--count": "cutproject_n"}


def cmd_batch(data: dict, outdir: Path, svg: bool,
              overrides: dict) -> int:
    """Run every experiment, each with the command-line overrides
    applied to its own config."""
    _reject_unknown_keys(data, _BATCH_KEYS, " in batch config")
    experiments = data.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("batch config needs a nonempty experiments list")
    runs = {}
    for i, entry in enumerate(experiments):
        if not isinstance(entry, dict):
            raise ConfigError(f"experiment {i} is not an object")
        _reject_unknown_keys(entry, _EXPERIMENT_KEYS, f" in experiment {i}")
        name = entry.get("name", f"experiment_{i}")
        # each name is the experiment's own directory inside outdir, and
        # 255 bytes is the longest file name that common file systems take
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(c in name for c in ("/", os.sep, "\0"))
                or _SURROGATE.search(name) or len(name.encode()) > 255):
            raise ConfigError(f"experiment {i}: name must be one plain path "
                              f"component of at most 255 UTF-8 bytes, got "
                              f"{_echo(name)}")
        if name == "batch_verdict.json":  # the batch's own verdict file
            raise ConfigError(f"experiment {i}: name {_echo(name)} is taken "
                              f"by the batch verdict")
        if name in runs:
            raise ConfigError(f"experiment {i}: duplicate name {_echo(name)}")
        shown = _echo(name, str)
        command = entry.get("command")
        if not isinstance(command, str) or command not in _COMMANDS:
            raise ConfigError(f"experiment {shown}: unknown command "
                              f"{_echo(command)}")
        sub = entry.get("config")
        if not isinstance(sub, dict):
            raise ConfigError(f"experiment {shown}: missing config object")
        if "out" in sub:
            raise ConfigError(f"experiment {shown}: key 'out' is not allowed "
                              f"in a member config, which writes to "
                              f"OUT/{shown}")
        runs[name] = (command, sub)
    _write(outdir, {})  # an --out that cannot be made fails before any run
    results = {}
    worst = EXIT_PASS
    for name, (command, sub) in runs.items():
        code = _guarded(_run_single, command, {**sub, **overrides},
                        outdir / name, svg)
        results[name] = {"command": command, "exit_code": code,
                         "pass": code == EXIT_PASS}
        worst = max(worst, code)
    _write(outdir, {"batch_verdict.json": _json(
        {"command": "batch", "experiments": results,
         "pass": worst == EXIT_PASS})})
    return worst


def _run_single(command: str, data: dict, outdir: Path, svg: bool) -> int:
    """Parse, compute, write: the one place that derives a command's pass
    and exit code and writes its files.  pass holds when every flag does,
    except growth_detected, which reports growth."""
    cfg = load_config(data)
    files, fields = _COMMANDS[command][0](cfg, svg)
    passed = all(holds for flag, holds in fields.get("flags", {}).items()
                 if flag != "growth_detected")
    _write(outdir, {**files, "verdict.json": _json(
        {"command": command, "seed": cfg.seed, **fields, "pass": passed})})
    return EXIT_PASS if passed else EXIT_PROPERTY_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused: parsing
    leaves no state in it, as every parse starts from a fresh namespace."""
    parser = _Parser(
        prog="adelicbrs",
        description="Exact bounded remainder sets on p-adic solenoids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, *flags) in {
            **_COMMANDS, "batch": (cmd_batch, _BATCH_HELP)}.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="JSON config file")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (default: config key 'out' "
                             "or ./out)")
        sp.add_argument("--checkpoints", metavar="CSV-LIST",
                        help="comma-separated checkpoint overrides")
        sp.add_argument("--seed", help="seed recorded in the verdict")
        sp.add_argument("--svg", action="store_true",
                        help="also render diagnostic figures")
        for flag, flag_help in flags:
            sp.add_argument(flag, dest=_INTEGER_FLAGS[flag],
                            metavar=flag[2:].upper(), help=flag_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    return _guarded(lambda: _dispatch(build_parser().parse_args(argv)))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {_echo(key)}")
        obj[key] = value
    return obj


def _dispatch(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as f:
            data = json.load(f, object_pairs_hook=_unique_keys)
    # unreadable, not UTF-8, not JSON, or nested too deep to decode
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(str(e)) from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")

    overrides: dict[str, Any] = {}
    if args.checkpoints is not None:
        overrides["checkpoints"] = [
            int(_parse_number(tok, _INTEGER, "--checkpoints token"))
            for tok in args.checkpoints.split(",")]
    for flag, key in _INTEGER_FLAGS.items():
        text = getattr(args, key, None)
        if text is not None:
            overrides[key] = int(_parse_number(text, _INTEGER, flag))

    out = data.get("out", "out")
    if not isinstance(out, str) or _SURROGATE.search(out):
        raise ConfigError(f"out must be a UTF-8 string, got {_echo(out)}")
    outdir = Path(args.out or out)
    if args.command == "batch":
        return cmd_batch(data, outdir, args.svg, overrides)
    return _run_single(args.command, {**data, **overrides}, outdir, args.svg)


if __name__ == "__main__":
    sys.exit(main())
