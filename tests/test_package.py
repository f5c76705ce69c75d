import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import adelicbrs
from adelicbrs import (AdeleVector, ExactReal, PrimeSet, brs, cli,
                       construct_brs, discrepancy_series, errors, zero_point)

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    names = adelicbrs.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adelicbrs, name), name


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 3


def test_cli_startup_imports_neither_dataclasses_nor_inspect():
    """Importing the CLI adds neither module to a bare interpreter's
    sys.modules: together they pull a dozen stdlib modules the CLI never
    uses into every start."""
    probe = ("import sys; bare = set(sys.modules); import adelicbrs.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "adelicbrs.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_no_unused_imports():
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    assert name in used, f"{path.name} imports {name} unused"


def test_no_unused_private_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__"):
                    assert private in used, f"{name} defines {private} unused"


def test_one_writer_and_commands_that_write_nothing():
    """A run is parse, compute, write: write_atomic has one call site, the
    runner's writer, and no command takes an output directory or sets its
    own pass."""
    callers = []
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers.extend(
                (path.name, getattr(top, "name", None))
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and "write_atomic" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None)))
    assert callers == [("cli.py", "_write")]
    tree = ast.parse((ROOT / "src" / "adelicbrs" / "cli.py")
                     .read_text(encoding="utf-8"))
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_") and node.name != "cmd_batch"]
    assert sorted(node.name for node in commands) == sorted(
        "cmd_" + name for name in cli._COMMANDS)
    for node in commands:
        assert [arg.arg for arg in node.args.args] == ["cfg", "svg"], node.name
        keys = {key.value for d in ast.walk(node) if isinstance(d, ast.Dict)
                for key in d.keys if isinstance(key, ast.Constant)}
        assert "pass" not in keys, node.name


def test_every_domain_error_has_an_exit_code():
    """Each AdelicError is infeasible input (exit 2) or a failed property
    (exit 1), unless config validation rules it out, so a new error class
    cannot reach a user as an internal error (exit 4) unnoticed."""
    ruled_out_by_config = (errors.FieldMismatch, errors.PrimeSetMismatch)
    kinds = [kind for kind in vars(errors).values()
             if isinstance(kind, type) and issubclass(kind, errors.AdelicError)
             and kind is not errors.AdelicError]
    assert sorted(kind.__name__ for kind in kinds) == [
        "FieldMismatch", "NegativeIndicator", "NegativeVolume",
        "PrimeSetMismatch", "ZeroGamma"]
    for kind in kinds:
        assert kind in cli._INFEASIBLE + cli._BROKEN + ruled_out_by_config, \
            kind.__name__


def test_one_place_raises_field_mismatch():
    """The rule that two irrational reals share one radicand has one owner,
    exact._common_radicand, which every other caller asks."""
    raises = []
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = getattr(node.exc, "func", node.exc)
                if "FieldMismatch" in (getattr(exc, "id", None),
                                       getattr(exc, "attr", None)):
                    raises.append((path.name, getattr(top, "name", None)))
    assert raises == [("exact.py", "_common_radicand")]


def test_exact_real_is_canonicalised_in_one_routine():
    """Only ExactReal._reduced allocates an ExactReal and sets its slots,
    so every construction, public or arithmetic, ends in the same sign
    and gcd normalization."""
    tree = ast.parse((ROOT / "src" / "adelicbrs" / "exact.py")
                     .read_text(encoding="utf-8"))
    sites = []
    for top in tree.body:
        for scope in ([top] if not isinstance(top, ast.ClassDef)
                      else top.body):
            for node in ast.walk(scope):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "object"
                        and node.attr in ("__new__", "__setattr__")):
                    sites.append((getattr(top, "name", None),
                                  getattr(scope, "name", None), node.attr))
    assert sorted(set(sites)) == [
        ("ExactReal", "_reduced", "__new__"),
        ("ExactReal", "_reduced", "__setattr__")]


def test_one_square_root():
    """The exact floor exact._floor_a_plus_b_sqrt_d is the package's one
    square root: it alone calls math.isqrt, and no module calls any sqrt
    (Decimal's, math's, cmath's) or raises to the power 0.5, so every
    printed digit, float and fixed-point constant comes from it."""
    sites = []
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr",
                                   getattr(node.func, "id", None))
                elif (isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.Pow)
                      and isinstance(node.right, ast.Constant)
                      and node.right.value == 0.5):
                    name = "** 0.5"
                else:
                    continue
                if name in ("isqrt", "sqrt", "** 0.5"):
                    sites.append((path.name, getattr(top, "name", None),
                                  name))
    assert sites == [("exact.py", "_floor_a_plus_b_sqrt_d", "isqrt")]


def test_every_domain_error_is_raised():
    """An AdelicError subclass that nothing raises is a rule with no
    statement left: it belongs in neither errors.py nor the exit-code
    table."""
    raised = set()
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    kinds = [name for name, kind in vars(errors).items()
             if isinstance(kind, type) and issubclass(kind, errors.AdelicError)
             and kind is not errors.AdelicError]
    assert kinds
    for name in kinds:
        assert name in raised, name


def _cli_tree():
    return ast.parse((ROOT / "src" / "adelicbrs" / "cli.py")
                     .read_text(encoding="utf-8"))


def test_no_flag_is_converted_by_argparse():
    """Every number a flag gives goes through the config grammar, so no
    add_argument call passes type=, whose int takes "1_0" or " 2"."""
    calls = [node for node in ast.walk(_cli_tree())
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "add_argument"]
    assert calls
    for node in calls:
        assert "type" not in {kw.arg for kw in node.keywords}, node.lineno


def test_subcommands_are_dispatched_only_through_the_table():
    """No subcommand name of cli._COMMANDS is compared (== or in) in
    cli.py, so the table is the one dispatch on a name; batch is not in
    the table."""
    names = set(cli._COMMANDS)
    assert "batch" not in names
    for node in ast.walk(_cli_tree()):
        if not isinstance(node, ast.Compare):
            continue
        for side in (node.left, *node.comparators):
            for leaf in ast.walk(side):
                assert not (isinstance(leaf, ast.Constant)
                            and leaf.value in names), node.lineno


def test_one_place_raises_negative_volume():
    """The WeightedBoxSet constructor alone refuses a negative claimed
    volume; every construction reaches it."""
    sites = []
    for path in sorted((ROOT / "src" / "adelicbrs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "NegativeVolume" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    sites.append((path.name, top.name))
    assert sites == [("brs.py", "WeightedBoxSet")]


def _calls(module: str, function: str | None = None) -> list[str]:
    """The name of every call in src/adelicbrs/<module>, or in one of its
    top-level functions."""
    tree = ast.parse((ROOT / "src" / "adelicbrs" / module)
                     .read_text(encoding="utf-8"))
    if function is not None:
        tree, = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == function]
    return [getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_lift_totals_walks_the_unreduced_orbit():
    """brs._arcs splits the terms into a constant total and one arc per
    walked box, at x0 + k*alpha itself: it reduces no orbit point (no
    fractional_sum, no reduce_to_fundamental), and it floors nothing
    itself.  brs._lift_totals is the chain of brs._walk_arc stages over
    it (brs._chain).  A stage, and the one-arc loop of
    brs.discrepancy_series, rotate the point by an add and a compare,
    with no divmod, and take the exact route through brs._arc_hit, which
    holds the one call of the exact floor besides brs._fixed_point's
    floor of sqrt(d) * 2**P.  There is no walk over many arcs at once
    (no _walk_arcs)."""
    for name in ("_arcs", "_chain", "_lift_totals"):
        calls = _calls("brs.py", name)
        assert "fractional_sum" not in calls
        assert "reduce_to_fundamental" not in calls
        assert "_floor_a_plus_b_sqrt_d" not in calls
    assert {"_arcs", "_chain"} <= set(_calls("brs.py", "_lift_totals"))
    assert "_walk_arc" in _calls("brs.py", "_chain")
    assert not hasattr(brs, "_walk_arcs")
    for name in ("_walk_arc", "discrepancy_series"):
        calls = _calls("brs.py", name)
        assert "divmod" not in calls
        assert {"_arc_walk", "_arc_hit"} <= set(calls)
    tree = ast.parse((ROOT / "src" / "adelicbrs" / "brs.py")
                     .read_text(encoding="utf-8"))
    floors = [(top.name, node.lineno) for top in tree.body
              for node in ast.walk(top) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_floor_a_plus_b_sqrt_d"]
    assert [name for name, _ in floors] == ["_fixed_point", "_arc_hit"]


def test_one_arc_series_walks_no_chain(tmp_path, monkeypatch):
    """A set of one walked arc, as every construction and control box
    is, is walked inside discrepancy_series: no _walk_arc stage runs, in
    the library or in verify."""
    def refused(*args):
        raise AssertionError("a _walk_arc stage ran")

    monkeypatch.setattr(brs, "_walk_arc", refused)
    alpha = AdeleVector(PrimeSet([2]), ExactReal.sqrt(2), {2: Fraction(1, 2)})
    boxset = construct_brs(alpha, Fraction(1, 2), 1)
    summary = discrepancy_series(boxset, alpha, zero_point(alpha.primes),
                                 [10, 1000])
    assert [r.n for r in summary.records] == [10, 1000]
    out = tmp_path / "circle"
    assert cli.main(["verify", "--config", str(ROOT / "configs" / "circle.json"),
                     "--out", str(out)]) == 0
    assert (out / "verdict.json").is_file()


def test_cutproject_floors_only_through_the_walk_and_exact_real():
    """cutproject takes no floor of its own: its window counts are walked
    by one brs._walk_arc stage, and its oracle floors with
    ExactReal.floor."""
    calls = _calls("cutproject.py")
    assert "_floor_a_plus_b_sqrt_d" not in calls
    assert "divmod" not in calls
    assert "_walk_arc" in calls and "floor" in calls
    assert "_walk_arcs" not in calls


# the scalar route: one orbit point at a time, reduced and counted from
# scratch.  The tests keep it as the reference; the package runs none of it.
ORACLE = ("rotate", "orbit", "box_lift_count", "multiplicity",
          "count_coset_in_interval", "window_multiplicity", "ceil_exact")


def test_the_run_path_reaches_no_scalar_oracle():
    """The walk, the series, the cut-and-project pass and every command
    name no oracle function, reduce no orbit point and scale no vector;
    cli.starting_point reduces the configured start point once, outside
    them.  The oracle is not public, and every name bench/ imports or
    traces still resolves on its module."""
    refused = set(ORACLE) | {"reduce_to_fundamental", "scale"}
    guarded = {"brs.py": {"discrepancy_series", "_Discrepancy", "_arcs",
                          "_arc_walk", "_arc_hit", "_chain", "_lift_totals",
                          "_walk_arc"},
               "cutproject.py": {"_window_counts", "correspondence_check"},
               "cli.py": None}
    for module, names in guarded.items():
        tree = ast.parse((ROOT / "src" / "adelicbrs" / module)
                         .read_text(encoding="utf-8"))
        functions = [node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and (node.name in names if names
                          else node.name.startswith("cmd_"))]
        assert len(functions) == len(names or functions) > 0, module
        for function in functions:
            used = {getattr(node, "id", getattr(node, "attr", None))
                    for node in ast.walk(function)}
            assert not used & refused, (module, function.name)
    assert "reduce_to_fundamental" in _calls("cli.py", "starting_point")
    assert not set(adelicbrs.__all__) & set(ORACLE)
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text("utf-8"))
    traced = [(module, attr) for node in tracer.body
              if isinstance(node, ast.Assign) and
              getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")
              for module, attr, _ in ast.literal_eval(node.value)]
    checks = ast.parse((ROOT / "bench" / "checks.py").read_text("utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(checks)
                if isinstance(node, ast.ImportFrom)
                and node.module.startswith("adelicbrs.")
                for alias in node.names]
    assert {"rotate", "orbit", "multiplicity", "box_lift_count",
            "window_multiplicity"} <= {attr for _, attr in traced + imported}
    for module, attr in traced + imported:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
