import contextlib
import copy
import importlib
import io
import json
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelicbrs import brs, cli
from adelicbrs.cli import load_config, main
from adelicbrs.errors import FieldMismatch

ROOT = Path(__file__).resolve().parent.parent

WORKED = {
    "alpha_real": {"d": 2, "a": 0, "b": 1, "c": 1},
    "alpha_padic": {"2": "1/2"},
    "gamma": "1/2",
    "n": 1,
    "checkpoints": [50, 200, 800],
    "seed": 0,
}


def run(tmp_path, command, config, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_verdict(out: Path) -> dict:
    return json.loads((out / "verdict.json").read_text(encoding="utf-8"))


def shipped(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json")
                      .read_text(encoding="utf-8"))


def test_construct_worked_example(tmp_path):
    code, out = run(tmp_path, "construct", WORKED)
    assert code == 0
    boxes = (out / "boxes.txt").read_text(encoding="utf-8")
    assert boxes == "1 | 0 | 5/2 - sqrt(2) | 2:0:-1\n"
    v = read_verdict(out)
    assert v["pass"] is True
    assert v["lam"] == "-5/2"
    assert v["box_scale"] == 1
    assert v["claimed_volume_exact"] == "5/4 - (1/2)*sqrt(2)"
    assert all(v["flags"].values())


def test_verify_worked_example(tmp_path):
    code, out = run(tmp_path, "verify", WORKED)
    assert code == 0
    lines = (out / "discrepancy.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,D_N,running_sup,D_N_exact,running_sup_exact"
    assert len(lines) == 4
    assert lines[1].startswith("50,")
    v = read_verdict(out)
    assert v["flags"]["bounded_plateau"] is True
    assert v["pass"] is True
    assert "finite_horizon_note" in v
    assert v["checkpoints"][-1]["N"] == 800


def test_verify_control_box_exits_nonzero(tmp_path):
    config = {
        "alpha_real": {"d": 2, "a": 0, "b": 1, "c": 1},
        "alpha_padic": {"2": "1/2"},
        "control_box": {"real_lo": "0", "real_hi": "1/2", "balls": {"2": 0}},
        "checkpoints": [100, 1000, 10000],
        "seed": 0,
    }
    code, out = run(tmp_path, "verify", config)
    assert code == 1
    v = read_verdict(out)
    assert v["mode"] == "control_box"
    assert v["flags"]["growth_detected"] is True
    assert v["flags"]["bounded_plateau"] is False
    assert v["pass"] is False


def test_infeasible_negative_volume_exits_2(tmp_path, capsys):
    config = dict(WORKED, n=-5)
    capsys.readouterr()
    code, _ = run(tmp_path, "construct", config)
    assert code == 2
    assert capsys.readouterr().err == \
        "infeasible: claimed volume -19/4 - (1/2)*sqrt(2)\n"
    # the run makes no directory, parents included, and keeps one that
    # already existed
    for command in ("construct", "verify", "cutproject"):
        assert main([command, "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "a" / "b" / "out")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    # gamma 0 builds n full-domain boxes, so n -1 is the same refusal
    (tmp_path / "config.json").write_text(
        json.dumps(dict(WORKED, gamma="0", n=-1)), encoding="utf-8")
    for command in ("construct", "verify", "cutproject"):
        capsys.readouterr()
        assert main([command, "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "infeasible: claimed volume -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    (tmp_path / "kept").mkdir()
    assert main(["construct", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "kept")]) == 2
    assert (tmp_path / "kept").is_dir()


TEN = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
FIFTEEN = TEN + (31, 37, 41, 43, 47)


def _power_below(p: int, bits: int) -> int:
    """The largest k with p**k at most bits bits long."""
    k = 1
    while (p ** (k + 1)).bit_length() <= bits:
        k += 1
    return k


def test_config_errors_exit_3(tmp_path, capsys):
    code, _ = run(tmp_path, "construct", {"alpha_padic": {}})
    assert code == 3
    code, _ = run(tmp_path, "construct", dict(WORKED, gamma="1/0"))
    assert code == 3
    code, _ = run(tmp_path, "construct",
                  dict(WORKED, alpha_real="3/2"))
    assert code == 3
    code, _ = run(tmp_path, "construct",
                  dict(WORKED, checkpoints=[100, 100]))
    assert code == 3
    code, _ = run(tmp_path, "construct",
                  dict(WORKED, alpha_padic={"4": "1/2"}))
    assert code == 3
    missing = main(["construct", "--config", str(tmp_path / "nope.json")])
    assert missing == 3
    # values that would otherwise be truncated, accepted or crash
    control = {"real_lo": "0", "real_hi": "1/2", "balls": {"2": "1/2"}}
    sqrt3 = {"d": 3, "a": 0, "b": 1, "c": 3}
    for command, config in [
            ("construct", dict(WORKED, alpha_real={"d": 2, "a": 1.5,
                                                   "b": 1, "c": 1})),
            ("verify", dict(WORKED, control_box=control)),
            ("verify", dict(WORKED, checkpoints=[True])),
            # one checkpoint leaves the plateau test nothing to compare,
            # so a box of volume 1/2, which is not allowable, would pass
            ("verify", dict(WORKED, checkpoints=[10000], control_box={
                "real_lo": "0", "real_hi": "1/2", "balls": {"2": 0}})),
            ("volumes", dict(WORKED, bound="x")),
            ("volumes", dict(WORKED, bound=-1)),
            ("cutproject", dict(WORKED, cutproject_n="x")),
            ("cutproject", dict(WORKED, cutproject_n=-5)),
            # values that would otherwise be ignored or mix two fields
            ("verify", dict(WORKED, x0_padic={"3": "1"})),
            ("verify", dict(WORKED, x0_real=sqrt3)),
            ("verify", dict(WORKED, control_box=dict(control, balls={},
                                                     real_hi=sqrt3))),
            ("construct", dict(WORKED, gamma="1/3")),
            ("weyl", dict(WORKED, weyl_gamma="1/6")),
            # a flag that is not a JSON bool, exponents that are not
            # JSON integers, prime keys that are not canonical decimals
            ("construct", dict(WORKED, infinite_q="yes")),
            ("construct", dict(WORKED, infinite_q=0)),
            ("verify", dict(WORKED, control_box=dict(control,
                                                     balls={"2": "1/1"}))),
            ("verify", dict(WORKED, control_box=dict(control,
                                                     balls={"2": "2"}))),
            ("construct", dict(WORKED, alpha_padic={" 2": "1/2"})),
            ("construct", dict(WORKED, alpha_padic={"02": "1/2"})),
            ("construct", dict(WORKED, alpha_padic={"+2": "1/2"})),
            ("construct", dict(WORKED, alpha_padic={"2": "1/2",
                                                    "02": "1/4"})),
            ("verify", dict(WORKED, x0_padic={"2.0": "1"})),
            ("batch", {"experiments": [{"command": [], "config": WORKED}]}),
            # a zero denominator and a negative radicand, values of the
            # wrong type, a ball off alpha's primes, an empty real interval
            ("verify", dict(WORKED, x0_real={"b": 1, "c": 0, "d": 2})),
            ("verify", dict(WORKED, x0_real={"b": 1, "d": -2})),
            ("verify", dict(WORKED, x0_padic=[1])),
            ("verify", dict(WORKED, control_box=[1])),
            ("verify", dict(WORKED, control_box=dict(control,
                                                     balls={"3": 0}))),
            ("verify", dict(WORKED, control_box=dict(control, balls={},
                                                     real_lo="1/2"))),
            ("batch", {"experiments": [1]}),
            ("batch", {"experiments": [{"command": "construct"}]}),
            # a radicand or an infinite_q gamma denominator above 10**12,
            # which trial division would take hours to factor
            ("construct", dict(WORKED, alpha_real={
                "d": 1000000000000000000000007, "b": 1})),
            ("construct", dict(WORKED, infinite_q=True,
                               gamma="1/1000000000000000000000007")),
            # work with no other bound, each just above its cap: an orbit
            # walk, the (bound+1)**(|Q|+1) * (2*bound+1) candidate volumes
            # over Q = {2} and Q = {}, the cut-and-project candidates
            ("verify", dict(WORKED, checkpoints=[10, cli.MAX_WALK + 1])),
            ("volumes", dict(WORKED, bound=37)),
            ("volumes", dict(WORKED, alpha_padic={}, gamma="1", bound=223)),
            ("cutproject", dict(WORKED,
                                cutproject_n=cli.MAX_CUTPROJECT + 1)),
            # numbers above MAX_BITS, whose exact outputs would pass the
            # 4300 digits Python prints: a ball measure 2**-20000, a
            # 2**13000 denominator and a 4001-digit exact-real component
            ("verify", dict(shipped("control_box"), control_box=dict(
                shipped("control_box")["control_box"], balls={"2": -20000}))),
            ("weyl", dict(shipped("worked_example"),
                          alpha_padic={"2": f"1/{2 ** 13000}"})),
            ("weyl", dict(shipped("worked_example"),
                          alpha_real={"b": 1, "c": 10 ** 4000, "d": 2})),
            # products that grow with |Q|, each factor inside MAX_BITS: the
            # reduced index (2*3*...*29)**999, fifteen 1000-bit p-power
            # denominators, fifteen 1000-bit ball measures
            ("construct", dict(shipped("worked_example"),
                               alpha_padic=dict.fromkeys(map(str, TEN), "0"),
                               gamma=f"1/{2 ** 999}")),
            ("weyl", dict(shipped("worked_example"), alpha_padic={
                str(p): f"1/{p ** _power_below(p, 1000)}"
                for p in FIFTEEN})),
            ("verify", dict(shipped("control_box"),
                            alpha_padic=dict.fromkeys(map(str, FIFTEEN), "0"),
                            control_box=dict(
                                shipped("control_box")["control_box"],
                                balls={str(p): -_power_below(p, 1000)
                                       for p in FIFTEEN}))),
            # prime keys from psi_12 on, where is_prime's bases stop
            # deciding: psi_12 and psi_13 are composites that pass them
            # all, 2**89 - 1 is a prime
            *(("construct", dict(WORKED, alpha_padic={str(n): "0"},
                                 gamma=f"1/{n}"))
              for n in (318665857834031151167461,
                        3317044064679887385961981, 2 ** 89 - 1)),
            # strings off the number grammar that Fraction would take
            *(("construct", dict(WORKED, gamma=text))
              for text in ("1e3000000", "0.5", " 1/2", "1_0", "\u0661/\u0662",
                           "+1/2", "1/-2"))]:
        capsys.readouterr()
        code, out = run(tmp_path, command, config)
        err = capsys.readouterr().err
        assert code == 3, (command, config)
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists(), (command, config)
    # the grammar is checked before Fraction, which would spend about 11 s
    # expanding this exponent
    start = time.perf_counter()
    assert run(tmp_path, "construct", dict(WORKED, gamma="1e10000000"))[0] == 3
    assert time.perf_counter() - start < 0.5


def test_duplicate_config_keys_exit_3(tmp_path, capsys):
    # json.dumps cannot write a key twice, so these are raw JSON texts
    alpha = '"alpha_real": {"d": 2, "b": 1}'
    for command, text, key in [
            ("construct", '{%s, "alpha_padic": {"2": "1/2"}, "gamma": "1/2", '
                          '"n": 1, "n": 2}' % alpha, "n"),
            ("construct", '{%s, "alpha_padic": {"2": "1/2", "2": "1/4"}, '
                          '"gamma": "1/2", "n": 1}' % alpha, "2"),
            ("batch", '{"experiments": [{"command": "construct", '
                      '"config": {%s}, "command": "verify"}]}' % alpha,
             "command")]:
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3, text
        assert capsys.readouterr().err == \
            f"config error: duplicate key {key!r}\n"


def test_echo_cuts_long_values_and_keeps_short_ones():
    limit = cli.ECHO_CHARS
    assert cli._echo("abc") == "'abc'"
    assert cli._echo(12) == "12"
    assert cli._echo("x" * limit, str) == "x" * limit
    assert cli._echo("x" * (limit + 1), str) == "x" * limit + "... (+1 chars)"
    assert cli._echo("7" * 10 ** 6) == \
        "'" + "7" * (limit - 1) + f"... (+{10 ** 6 + 2 - limit} chars)"


def test_oversized_echoes_exit_3_with_a_short_line(tmp_path, capsys):
    """Every config error that echoes an input value cuts it, so a huge
    value gives one stderr line of at most 200 bytes, not one as long as
    the value (a 1,000,000-digit gamma printed 1,000,030 bytes)."""
    nested = []
    for _ in range(899):
        nested = [nested]
    long = "n" * 100_000
    # the longest name a batch member may have
    member = {"name": "n" * 255, "command": "construct", "config": WORKED}
    cases = [
        ("construct", dict(WORKED, gamma="7" * 10 ** 6), "bad rational"),
        ("construct", dict(WORKED, alpha_real=nested),
         "expected a rational, got [[["),
        ("construct", dict(WORKED, **{"k" * 100_000: 1}), "unknown key"),
        ("construct", dict(WORKED, alpha_padic={"4" * 100_000: "1/2"}),
         "alpha_padic key"),
        ("construct", dict(WORKED, n="9" * 100_000), "n must be an integer"),
        ("volumes", dict(WORKED, bound=-int("9" * 4000)),
         "bound must be >= 0"),
        ("construct", dict(WORKED, out=["x" * 100_000]), "out must be"),
        ("construct", dict(WORKED, infinite_q="y" * 100_000), "infinite_q"),
        ("construct", dict(WORKED, gamma="1/" + "3" * 300), "gamma = 1/"),
        ("construct", dict(WORKED, alpha_real={"b": 1, "c": 0, "d": 2,
                                               "a": 10 ** 200}),
         "bad exact real"),
        ("batch", {"experiments": [dict(member, name="a/" * 50_000)]},
         "experiment 0: name must be one plain path component"),
        ("batch", {"experiments": [member, member]}, "experiment 1"),
        ("batch", {"experiments": [dict(member, command=long)]},
         "experiment nnn"),
        ("batch", {"experiments": [dict(member, config=long)]},
         "experiment nnn"),
        ("batch", {"experiments": [dict(member, config=dict(WORKED,
                                                            out="o"))]},
         "experiment nnn")]
    for command, config, message in cases:
        capsys.readouterr()
        code, out = run(tmp_path, command, config)
        err = _one_line_error(capsys, "config error: ")
        assert code == 3 and message in err, err[:300]
        assert "chars)" in err and len(err.encode()) <= 200, err[:300]
        assert not out.exists()
    # a flag and a key given twice go through the same cut
    code, _ = run(tmp_path, "construct", WORKED, "--seed", "x" * 100_000)
    err = _one_line_error(capsys, "config error: bad --seed 'xxx")
    assert code == 3 and len(err.encode()) <= 200
    cfg = tmp_path / "twice.json"
    cfg.write_text('{"%s": 1, "%s": 2}' % (long, long), encoding="utf-8")
    assert main(["construct", "--config", str(cfg)]) == 3
    err = _one_line_error(capsys, "config error: duplicate key 'nnn")
    assert len(err.encode()) <= 200


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_usage_errors_exit_3(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(WORKED), encoding="utf-8")
    for argv, message in [
            (["verify"], "--config"),
            (["verify", "--config", str(cfg), "--count", "3"], "--count 3")]:
        capsys.readouterr()
        assert main(argv) == 3
        assert message in _one_line_error(capsys, "usage error:")
    # a flag's number goes through the config grammar, not argparse
    assert main(["verify", "--config", str(cfg), "--seed", "abc"]) == 3
    _one_line_error(capsys, "config error: bad --seed 'abc'")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("tokens", ["10,,60", "10,x", "1_0,2_0", " 10, 20",
                                    "\u0661\u0660,\u0662\u0660", "+10,20"])
def test_bad_checkpoints_flag_exits_3(tmp_path, capsys, tokens):
    # an empty token is an error too, never silently dropped
    capsys.readouterr()
    code, out = run(tmp_path, "verify", WORKED, "--checkpoints", tokens)
    assert code == 3
    _one_line_error(capsys, "config error: bad --checkpoints")
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("construct", "--seed"), ("volumes", "--bound"),
    ("cutproject", "--count")])
@pytest.mark.parametrize("text", ["1_0", " 2", "\u0663", "+2", "abc"])
def test_integer_flags_take_the_config_grammar(tmp_path, capsys, command,
                                               flag, text):
    # argparse's int would run 1_0 as 10 and " 2" and an Arabic-Indic 3
    # as 2 and 3
    capsys.readouterr()
    code, out = run(tmp_path, command, WORKED, flag, text)
    assert code == 3
    assert capsys.readouterr().err == f"config error: bad {flag} {text!r}\n"
    assert not out.exists()


def test_flag_ranges_are_the_config_key_ranges(tmp_path, capsys):
    for command, flag, message in [
            ("volumes", "--bound=-1", "bound must be >= 0, got -1"),
            ("cutproject", "--count=0", "cutproject_n must be >= 1, got 0"),
            ("verify", "--checkpoints=-5,10",
             "checkpoints must be strictly increasing positive integers")]:
        capsys.readouterr()
        code, out = run(tmp_path, command, WORKED, flag)
        assert code == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_deeply_nested_config_exits_3(tmp_path, capsys):
    # json.load raises RecursionError past the interpreter's depth limit
    deep = "[" * 100000 + "]" * 100000
    for command, text in [
            ("construct", deep),
            ("construct", '{"alpha_real": %s}' % deep),
            ("batch", '{"experiments": %s}' % deep)]:
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert "maximum recursion depth" in _one_line_error(capsys,
                                                            "config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    calls = []
    add_argument = cli.argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument", counting)
    cli.build_parser.cache_clear()
    cli.build_parser.__wrapped__()
    per_build = len(calls)
    calls.clear()
    for i in range(3):
        code, _ = run(tmp_path / str(i), "construct", WORKED)
        assert code == 0
    assert len(calls) == per_build


def test_parser_reuse_leaks_no_state(tmp_path):
    config = dict(WORKED, checkpoints=[20, 80], bound=2)
    for first, second, names in [
            (("verify", "--svg", "--seed", "7"), ("verify",),
             ("discrepancy.csv", "verdict.json")),
            (("volumes", "--bound", "1"), ("volumes",),
             ("volumes.csv", "verdict.json"))]:
        base = tmp_path / first[0]
        run(base / "first", first[0], config, *first[1:])
        _, reused = run(base / "reused", second[0], config)
        cli.build_parser.cache_clear()
        _, fresh = run(base / "fresh", second[0], config)
        # no figure: --svg did not carry over
        assert sorted(p.name for p in reused.iterdir()) == sorted(names)
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_output_path_errors_exit_3(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(WORKED, out=5)), encoding="utf-8")
    capsys.readouterr()
    assert main(["construct", "--config", str(cfg)]) == 3
    _one_line_error(capsys, "config error:")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    cfg.write_text(json.dumps(WORKED), encoding="utf-8")
    for command in ("construct", "batch"):
        assert main([command, "--config", str(cfg), "--out", str(taken)]) == 3
        _one_line_error(capsys, "config error:")
    # a batch member whose own directory is taken fails alone, with 3
    cfg.write_text(json.dumps({"experiments": [
        {"name": "a", "command": "construct", "config": WORKED},
        {"name": "b", "command": "construct", "config": WORKED}]}),
        encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "a").write_text("", encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 3
    _one_line_error(capsys, "config error:")
    v = json.loads((out / "batch_verdict.json").read_text(encoding="utf-8"))
    assert [v["experiments"][k]["exit_code"] for k in "ab"] == [3, 0]
    # an output file that cannot be written exits 3, not 4, and the run
    # removes the files it wrote before it
    cfg.write_text(json.dumps(WORKED), encoding="utf-8")
    blocked = tmp_path / "blocked"
    (blocked / "verdict.json").mkdir(parents=True)
    assert main(["construct", "--config", str(cfg), "--out", str(blocked)]) \
        == 3
    _one_line_error(capsys, "config error:")
    assert sorted(p.name for p in blocked.iterdir()) == ["verdict.json"]


def test_unknown_config_keys_exit_3(tmp_path, capsys):
    control = {"real_lo": "0", "real_hi": "1/2", "balls": {"2": 0}}
    member = {"name": "a", "command": "verify", "config": WORKED}
    for command, config, key in [
            ("verify", dict(WORKED, checkpoint=[10]), "'checkpoint'"),
            ("verify", dict(WORKED, control_box=dict(control, rel_hi="1")),
             "'rel_hi'"),
            ("verify", dict(WORKED, alpha_real={"d": 2, "b": 1, "e": 3}),
             "'e'"),
            ("batch", {"experimentz": [member]}, "'experimentz'"),
            ("batch", {"experiments": [member], "seed": 1}, "'seed'"),
            ("batch", {"experiments": [dict(member, comand="weyl")]},
             "'comand'")]:
        capsys.readouterr()
        code, _ = run(tmp_path, command, config)
        assert code == 3
        assert key in _one_line_error(capsys, "config error:")
    # the control box itself is fine
    code, _ = run(tmp_path, "verify", dict(WORKED, control_box=control))
    assert code in (0, 1)


def test_shipped_and_benchmark_configs_load(monkeypatch):
    for path in sorted((ROOT / "configs").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for entry in data.get("experiments", [{"config": data}]):
            load_config(entry["config"])
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 0):
            load_config(op.config)


# --- fuzzing the config boundary ---------------------------------------------

_COMMANDS = ("volumes", "construct", "verify", "cutproject", "weyl")
_KEYS = st.sampled_from(sorted(cli._CONFIG_KEYS | cli._CONTROL_BOX_KEYS
                               | cli._EXACT_REAL_KEYS | cli._BATCH_KEYS
                               | cli._EXPERIMENT_KEYS)
                        + ["2", "3", "5", "4", "02", " 2", "+2", "e"])


def _json(ints):
    """Small JSON values: every type a config can hold, with integers
    drawn from ints so that no run walks far."""
    scalars = (st.none() | st.booleans() | ints | st.floats(-3, 3)
               | st.sampled_from(["", "x", "1/2", "-1", "3/4", "1/0", "1/1",
                                  "2", "5/6", " 2", "02"])
               | st.text(max_size=3))
    return st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=3)),
        max_leaves=6)


_SMALL = _json(st.integers(-3, 20))
_TINY = _json(st.integers(-3, 2))  # for bound: volumes grows as bound**(|Q|+1)
# deleting one of these would restore a large default
_KEPT = {"checkpoints", "cutproject_n", "bound"}


def _shipped():
    """(command, config) pairs from configs/, shrunk to checkpoints <= 50,
    bound 2 and cutproject_n 20."""
    pairs = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("out", None)
        configs = [e["config"] for e in data.get("experiments", [])] or [data]
        for config in configs:
            config.update(checkpoints=[10, 50], bound=2, cutproject_n=20)
        pairs.append(("batch" if "experiments" in data else None, data))
    return pairs


@st.composite
def _mutated_config(draw):
    command, data = draw(st.sampled_from(_shipped()))
    data = copy.deepcopy(data)
    command = command or draw(st.sampled_from(_COMMANDS))
    node = data  # walk down to a random object inside the config
    while True:
        inner = [v for v in node.values() if isinstance(v, dict)]
        inner += [v for vs in node.values() if isinstance(vs, list)
                  for v in vs if isinstance(v, dict)]
        if not inner or draw(st.booleans()):
            break
        node = draw(st.sampled_from(inner))
    # mostly retype or drop a key that is there, sometimes add one
    if node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(node)))
    else:
        key = draw(_KEYS)
    if key not in _KEPT and draw(st.integers(0, 3)) == 0:
        node.pop(key, None)
    else:
        node[key] = draw(_TINY if key == "bound" else _SMALL)
    return command, data


@st.composite
def _random_config(draw):
    data = draw(st.dictionaries(_KEYS, _SMALL, max_size=6) | _SMALL)
    if isinstance(data, dict):  # keep _KEPT from large defaults and values
        data.setdefault("checkpoints", [10])
        data.setdefault("cutproject_n", 5)
        if isinstance(data.get("bound"), int) and data["bound"] > 2:
            data["bound"] = 2
    return draw(st.sampled_from(_COMMANDS + ("batch",))), data


@given(st.one_of(_mutated_config(), _mutated_config(), _random_config()))
def test_config_boundary_fuzz(case):
    """No config, however malformed, crashes the CLI: it exits 0-3 with
    at most one stderr line per run and never a traceback."""
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg),
                         "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    runs = 1
    members = data.get("experiments") if isinstance(data, dict) else None
    if command == "batch" and isinstance(members, list):
        runs = max(1, len(members))
    assert err.count("\n") <= runs, err


def test_failed_run_after_first_output_leaves_no_directory(tmp_path,
                                                          monkeypatch):
    # the CSV is rendered before the figure; nothing is written until
    # every output is rendered
    def broken(*_, **__):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "svg_text", broken)
    code, out = run(tmp_path, "verify", WORKED, "--svg")
    assert code == 4
    assert not out.exists()


def test_internal_error_exits_4_without_traceback(tmp_path, capsys,
                                                  monkeypatch):
    def broken(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.cutproject, "correspondence_check", broken)
    capsys.readouterr()
    code, _ = run(tmp_path, "cutproject", dict(WORKED, cutproject_n=5))
    assert code == 4
    err = _one_line_error(capsys, "internal error: RuntimeError: boom")
    assert "Traceback" not in err
    monkeypatch.setattr(cli, "cmd_batch", broken)
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": []}), encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    _one_line_error(capsys, "internal error: RuntimeError: boom")


@pytest.mark.parametrize("error, code, prefix", [
    pytest.param(error, code, prefix, id=type(error).__name__)
    for error, code, prefix in [
        (cli.UsageError("bad flag"), 3, "usage error: bad flag"),
        (cli.ConfigError("bad key"), 3, "config error: bad key"),
        *((kind("no"), 1, "property failure: no") for kind in cli._BROKEN),
        *((kind("no"), 2, "infeasible: no") for kind in cli._INFEASIBLE),
        # an AdelicError that the table does not list, and any other error
        (FieldMismatch("mixed"), 4, "internal error: FieldMismatch: mixed"),
        (RuntimeError("boom"), 4, "internal error: RuntimeError: boom")]])
def test_guarded_maps_each_failure_to_its_exit_code(capsys, error, code,
                                                    prefix):
    def fail(*args):
        assert args == (1, "two")
        raise error

    capsys.readouterr()
    assert cli._guarded(fail, 1, "two") == code
    assert capsys.readouterr().err == prefix + "\n"
    assert cli._guarded(lambda a, b: a + b, 1, 2) == 3
    assert capsys.readouterr().err == ""


def test_volumes_csv(tmp_path):
    code, out = run(tmp_path, "volumes", dict(WORKED, bound=2))
    assert code == 0
    lines = (out / "volumes.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,n,volume_exact,volume_decimal"
    assert "1/2,1,5/4 - (1/2)*sqrt(2),0.542893218813452475599155637895" \
        in lines
    v = read_verdict(out)
    assert v["count"] == len(lines) - 1


def test_weyl_bound_holds(tmp_path):
    code, out = run(tmp_path, "weyl", dict(WORKED, weyl_gamma="3/4"))
    assert code == 0
    lines = (out / "weyl.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,abs_weyl_sum,bound,bound_exact,status"
    assert len(lines) == 4
    assert all(line.endswith(",pass") for line in lines[1:])
    v = read_verdict(out)
    assert v["flags"]["bound_satisfied"] is True
    # the Weyl sum is closed form, so the orbit walk cap does not apply
    code, out = run(tmp_path / "far", "weyl",
                    dict(WORKED, checkpoints=[10**11]))
    assert code == 0 and read_verdict(out)["pass"] is True


# -p + q*sqrt(2) for the Pell pair with 27-digit q, about -1.606e-27: a
# valid irrational rotation whose components cancel in all but 27 digits
PELL = (311363698964240484013304163, 220167382952941249990598278)


def test_decimals_under_cancellation(tmp_path):
    """construct and weyl on the worked example with alpha_real the Pell
    value print correctly rounded decimals; mpmath at 80 digits, summing
    the Weyl average term by term, is the independent reference."""
    mpmath = pytest.importorskip("mpmath")
    p, q = PELL
    config = dict(WORKED, alpha_real={"a": -p, "b": q, "c": 1, "d": 2},
                  checkpoints=[1000])
    code, out = run(tmp_path / "construct", "construct", config)
    assert code == 0
    v = read_verdict(out)
    # the claimed volume is 5/4 - alpha/2, as for alpha = sqrt(2)
    assert v["claimed_volume_exact"] == f"{5 + 2 * p}/4 - {q // 2}*sqrt(2)"
    code, out = run(tmp_path / "weyl", "weyl", config)
    assert code == 0
    w = read_verdict(out)
    n, weyl, _ = (out / "weyl.csv").read_text(
        encoding="utf-8").splitlines()[1].split(",", 2)
    assert n == "1000"
    with mpmath.workdps(80):
        alpha = -p + q * mpmath.sqrt(2)
        volume = mpmath.mpf(5) / 4 - alpha / 2
        # phase = (-gamma*alpha_real + {gamma*alpha_2}_2) mod 1
        theta = mpmath.mpf(1) / 4 - alpha / 2
        want = abs(sum(mpmath.expjpi(2 * k * theta)
                       for k in range(1, 1001))) / 1000
        assert v["claimed_volume_decimal"] == mpmath.nstr(
            volume, 30, strip_zeros=False)
        assert w["phase_decimal"] == mpmath.nstr(theta, 30,
                                                 strip_zeros=False)
        assert abs(float(weyl) - want) <= 1e-12 * want
    # the 45-digit evaluation printed 1.2499999999999999995,
    # 0.2499999999999999995 and 4.44e-18 here
    assert v["claimed_volume_decimal"] == "1.25000000000000000000000000080"
    assert w["phase_decimal"] == "0.250000000000000000000000000803"
    assert 3.56e-27 < float(weyl) < 3.58e-27


def test_weyl_trivial_gamma_exits_2(tmp_path):
    code, _ = run(tmp_path, "weyl", dict(WORKED, gamma="0"))
    assert code == 2


def test_cutproject_correspondence(tmp_path):
    code, out = run(tmp_path, "cutproject",
                    dict(WORKED, cutproject_n=120))
    assert code == 0
    lines = (out / "cutpoints.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma1,multiplicity"
    assert lines[1] == "0,1"
    v = read_verdict(out)
    assert v["flags"]["correspondence"] is True
    assert v["count"] == 120


def test_cutproject_exits_1_on_a_bumped_lift_count(tmp_path, monkeypatch):
    lift_totals = cli.cutproject.brs._lift_totals

    def bumped(*args):
        for k, total in enumerate(lift_totals(*args)):
            yield total + (k == 7)

    monkeypatch.setattr(cli.cutproject.brs, "_lift_totals", bumped)
    code, out = run(tmp_path, "cutproject", dict(WORKED, cutproject_n=20))
    assert code == 1
    v = read_verdict(out)
    assert v["flags"]["correspondence"] is False
    assert v["pass"] is False


def test_cutproject_pass_needs_the_witness_flags(tmp_path, monkeypatch):
    witness_flags = cli.witness_flags

    def one_false(*args):
        return {**witness_flags(*args), "certificate_ok": False}

    monkeypatch.setattr(cli, "witness_flags", one_false)
    code, out = run(tmp_path, "cutproject", dict(WORKED, cutproject_n=20))
    assert code == 1
    v = read_verdict(out)
    assert v["flags"]["correspondence"] is True
    assert v["flags"]["certificate_ok"] is False
    assert v["pass"] is False


def test_short_certificate_exits_1_with_a_verdict(tmp_path, monkeypatch):
    # configs/two_primes.json takes 3 full boxes away (surplus -3) under a
    # certificate of 4, the floor of the fused box's volume; a volume of 2
    # gives a certificate of 2, which a verdict reports as a failed flag
    config = shipped("two_primes")
    code, out = run(tmp_path / "as_built", "construct", config)
    v = read_verdict(out)
    assert code == 0
    assert (v["surplus"], v["certificate"]) == (-3, 4)
    assert v["flags"]["certificate_ok"] is True
    monkeypatch.setattr(brs.AdelicBox, "volume",
                        lambda self: brs.ExactReal(2))
    code, out = run(tmp_path / "short", "construct", config)
    assert code == 1
    v = read_verdict(out)
    assert v["certificate"] == 2
    assert v["flags"]["certificate_ok"] is False
    assert v["pass"] is False


def test_failed_window_identity_exits_1(tmp_path, monkeypatch):
    # witness_flags is the one place that checks the window identity, so
    # a failure is a failed property, not an infeasible input
    window = brs._window
    monkeypatch.setattr(brs, "_window", lambda *args: window(*args) + 1)
    code, out = run(tmp_path, "construct", WORKED)
    assert code == 1
    v = read_verdict(out)
    assert v["flags"]["window_identity"] is False
    assert v["pass"] is False


def test_cutproject_counts_each_window_once(tmp_path, monkeypatch):
    config = dict(WORKED, cutproject_n=200)
    code, plain = run(tmp_path / "plain", "cutproject", config, "--svg")
    assert code == 0

    def oracle(*_):
        raise AssertionError("window_multiplicity is only a test oracle")

    monkeypatch.setattr(cli.cutproject, "window_multiplicity", oracle)
    code, out = run(tmp_path / "patched", "cutproject", config, "--svg")
    assert code == 0
    for name in ("cutpoints.csv", "cutpoints.svg", "verdict.json"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_cutproject_setup_does_not_grow_with_count(tmp_path, monkeypatch):
    orig = cli.cutproject.padic_fractional_part
    calls = []

    def counted(*args):
        calls.append(args)
        return orig(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("adelicbrs") and \
                getattr(mod, "padic_fractional_part", None) is orig:
            monkeypatch.setattr(mod, "padic_fractional_part", counted)
    made = []
    for count in (10, 200):
        calls.clear()
        code, _ = run(tmp_path / str(count), "cutproject",
                      dict(WORKED, cutproject_n=count))
        assert code == 0
        made.append(len(calls))
    assert made[0] > 0
    assert made[0] == made[1]


def test_batch_fans_out_and_aggregates(tmp_path):
    config = {
        "experiments": [
            {"name": "good", "command": "construct", "config": WORKED},
            {"name": "bad", "command": "construct",
             "config": dict(WORKED, n=-5)},
        ]
    }
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["batch", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    v = json.loads((out / "batch_verdict.json").read_text(encoding="utf-8"))
    assert v["experiments"]["good"]["exit_code"] == 0
    assert v["experiments"]["bad"]["exit_code"] == 2
    assert v["pass"] is False
    assert (out / "good" / "boxes.txt").exists()


def test_batch_applies_checkpoint_and_seed_overrides(tmp_path):
    config = {"experiments": [
        {"name": "v", "command": "verify", "config": WORKED}]}
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["batch", "--config", str(cfg), "--out", str(out),
                 "--checkpoints", "10,60", "--seed", "7"])
    assert code == 0
    v = read_verdict(out / "v")
    assert [c["N"] for c in v["checkpoints"]] == [10, 60]
    assert v["seed"] == 7


@pytest.mark.parametrize("names", [
    ["a", "a"], ["../x"], ["."], [".."], [""], ["a/b"], [3],
    ["experiment_1", None]], ids=["duplicate", "parent_dir", "dot", "dotdot",
                                  "empty", "slash", "not_string",
                                  "clashes_with_default"])
def test_batch_rejects_bad_experiment_names(tmp_path, capsys, names):
    experiments = [{"command": "construct", "config": WORKED}
                   for _ in names]
    for entry, name in zip(experiments, names):
        if name is not None:
            entry["name"] = name
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": experiments}), encoding="utf-8")
    out = tmp_path / "sub" / "out"
    capsys.readouterr()
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 3
    _one_line_error(capsys, "config error:")
    # nothing ran, and nothing was created: not --out, nor its parent
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.json"]


def test_batch_refuses_the_name_of_its_own_verdict(tmp_path, capsys):
    """A member named batch_verdict.json ran and wrote its files into
    OUT/batch_verdict.json, and then the batch verdict could not replace
    that directory: exit 3 with the member's files left behind.  The name
    is refused with the other name rules, before OUT is created."""
    first = {"name": "batch_verdict.json", "command": "construct",
             "config": WORKED}
    capsys.readouterr()
    code, out = run(tmp_path, "batch", {"experiments": [
        first, dict(first, name="second")]})
    err = _one_line_error(capsys, "config error: experiment 0: name ")
    assert code == 3 and "'batch_verdict.json'" in err
    assert not out.exists()


def test_batch_refuses_a_name_over_255_bytes_before_any_run(tmp_path,
                                                           capsys):
    """A name is a file name, so one the file system cannot take is
    refused with the other name rules, before any member runs, and its
    echo is cut: a 100,000-character name ran its member and then printed
    a 100,096-byte line."""
    first = {"name": "first", "command": "construct", "config": WORKED}
    for name in ("n" * 100_000, "n" * 256, "é" * 128):
        capsys.readouterr()
        code, out = run(tmp_path, "batch", {"experiments": [
            first, dict(first, name=name)]})
        err = _one_line_error(capsys, "config error: experiment 1: name ")
        assert code == 3 and "255 UTF-8 bytes" in err
        assert len(err.encode()) <= 200, err[:300]
        assert not out.exists()
    for name in ("n" * 255, "é" * 127):
        code, out = run(tmp_path, "batch", {"experiments": [
            dict(first, name=name)]})
        assert code == 0
        assert (out / name / "verdict.json").is_file()


@pytest.mark.parametrize("text", ["o\ud800", "\ud800", "\udc80"])
def test_a_lone_surrogate_path_exits_3_before_any_run(tmp_path, capsys,
                                                      monkeypatch, text):
    """A lone surrogate encodes as no UTF-8 path: as a config out it
    crashed the write (exit 4), and as a member name it ran the member
    and then crashed, or wrote a directory named by the raw byte 0x80.
    Both are config errors now, before any member runs or any file is
    made."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(WORKED, out=text)), encoding="utf-8")
    capsys.readouterr()
    assert main(["construct", "--config", str(cfg)]) == 3
    err = _one_line_error(capsys, "config error: out must be a UTF-8 string")
    assert repr(text) in err
    first = {"name": "first", "command": "construct", "config": WORKED}
    cfg.write_text(json.dumps({"experiments": [first, dict(first, name=text)]}),
                   encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--out", "out"]) == 3
    err = _one_line_error(capsys, "config error: experiment 1: name ")
    assert "255 UTF-8 bytes" in err and repr(text) in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_batch_rejects_a_member_out_key(tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"experiments": [
        {"name": "a", "command": "construct", "config": WORKED},
        {"name": "b", "command": "construct",
         "config": dict(WORKED, out=str(elsewhere))}]}), encoding="utf-8")
    out = tmp_path / "sub" / "out"
    capsys.readouterr()
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 3
    err = _one_line_error(capsys, "config error: experiment b: ")
    assert "'out'" in err
    # nothing ran, not even the valid member before it, and nothing was
    # created
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.json"]


def test_cutproject_rejects_an_empty_construction(tmp_path, capsys):
    # gamma 0 and n 0 build the empty set, so there is nothing to
    # cross-check; cutproject ignores a control box
    for config in (dict(WORKED, gamma="0", n=0),
                   json.loads((ROOT / "configs" / "control_box.json")
                              .read_text("utf-8"))):
        capsys.readouterr()
        code, out = run(tmp_path, "cutproject", config)
        assert code == 3
        _one_line_error(capsys, "config error: cutproject needs a "
                                "construction")
        assert not out.exists()
    # one full-domain box (gamma 0, n 1) is a construction
    code, out = run(tmp_path, "cutproject", dict(WORKED, gamma="0", n=1))
    assert code == 0
    assert read_verdict(out)["points"] > 0


def test_malformed_config_creates_no_output_directory(tmp_path, capsys):
    for command in _COMMANDS:
        capsys.readouterr()
        code, out = run(tmp_path / command, command, {"alpha_real": "1/2"})
        assert code == 3
        _one_line_error(capsys, "config error:")
        assert not out.exists()


def _verdict_matches(out: Path, code: int) -> None:
    """A run that exits 0 or 1 writes its verdict last, with pass true iff
    it exits 0 and iff every flag but growth_detected holds; a run that
    raised (2-4) leaves no verdict and no directory."""
    if code >= 2:
        assert not out.exists()
    else:
        v = read_verdict(out)
        assert v["pass"] is (code == 0)
        assert v["pass"] is all(holds for flag, holds in
                                v.get("flags", {}).items()
                                if flag != "growth_detected")


def test_pass_is_true_iff_exit_code_is_0(tmp_path):
    codes = set()
    for path in sorted((ROOT / "configs").glob("*.json")):
        is_batch = "experiments" in json.loads(path.read_text("utf-8"))
        for command in ("batch",) if is_batch else _COMMANDS:
            out = tmp_path / path.stem / command
            code = main([command, "--config", str(path), "--out", str(out)])
            codes.add(code)
            if not is_batch:
                _verdict_matches(out, code)
                continue
            v = json.loads((out / "batch_verdict.json").read_text("utf-8"))
            assert v["pass"] is (code == 0)
            for name, member in v["experiments"].items():
                assert member["pass"] is (member["exit_code"] == 0), name
                _verdict_matches(out / name, member["exit_code"])
                codes.add(member["exit_code"])
    # the shipped configs include a control box that fails on purpose, a
    # gamma = 0 that weyl rejects, and a control-box config whose empty
    # construction cutproject rejects
    assert codes == {0, 1, 2, 3}


def test_checkpoint_and_seed_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(WORKED), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out", str(out),
                 "--checkpoints", "10,60", "--seed", "7"])
    assert code == 0
    v = read_verdict(out)
    assert [c["N"] for c in v["checkpoints"]] == [10, 60]
    assert v["seed"] == 7


def test_byte_identical_outputs(tmp_path):
    _, out1 = run(tmp_path / "a", "verify", WORKED)
    _, out2 = run(tmp_path / "b", "verify", WORKED)
    for name in ("discrepancy.csv", "verdict.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
    assert b"\r" not in (out1 / "discrepancy.csv").read_bytes()


def test_svg_rendering(tmp_path):
    for command, figure, config in [
            ("verify", "discrepancy.svg", WORKED),
            ("weyl", "weyl.svg", WORKED),
            ("cutproject", "cutpoints.svg", dict(WORKED, cutproject_n=40))]:
        code, out = run(tmp_path / command / "a", command, config, "--svg")
        assert code == 0
        svg = (out / figure).read_bytes()
        root = ET.fromstring(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root) > 2
        # the same data gives the same bytes
        _, out2 = run(tmp_path / command / "b", command, config, "--svg")
        assert (out2 / figure).read_bytes() == svg
    # the CSV is unchanged by figure rendering
    plain_code, out3 = run(tmp_path / "p", "verify", WORKED)
    assert (tmp_path / "verify" / "a" / "out" / "discrepancy.csv"
            ).read_bytes() == (out3 / "discrepancy.csv").read_bytes()


def test_infinite_q_config(tmp_path):
    config = {
        "alpha_real": {"d": 2, "a": 0, "b": 1, "c": 1},
        "alpha_padic": {"2": "1/2", "3": "5"},
        "infinite_q": True,
        "gamma": "1/2",
        "n": 1,
        "checkpoints": [50, 200],
        "seed": 0,
    }
    code, out = run(tmp_path, "construct", config)
    assert code == 0
    boxes = (out / "boxes.txt").read_text(encoding="utf-8")
    # the 3-adic coordinate is integral, so the problem reduces to Q={2}
    assert boxes == "1 | 0 | 5/2 - sqrt(2) | 2:0:-1\n"


def test_x0_is_reduced_not_rejected(tmp_path):
    config = dict(WORKED, x0_real="7/5", x0_padic={"2": "9/4"})
    code, out = run(tmp_path, "verify", config)
    assert code == 0


def test_gamma_zero_construct(tmp_path):
    config = dict(WORKED, gamma="0", n=2)
    code, out = run(tmp_path, "construct", config)
    assert code == 0
    boxes = (out / "boxes.txt").read_text(encoding="utf-8")
    assert boxes == "2 | 0 | 1 | 2:0:0\n"
