"""In-memory call tracer for the adelicbrs layers.

The tracer replaces public functions of the package with timing
wrappers at every name they are reachable through (``brs`` imports
``crt_coset`` by name, so ``brs.crt_coset`` is patched as well as
``exact.crt_coset``), and puts the originals back on ``remove``.  Per
label it keeps the call count, total time and self time, where self
time is total time minus the time spent in traced callees.  Nothing is
written until the benchmark asks for ``summary``.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, label).  Several functions may share a label; a
# call made while that label is already active is not recorded twice.
TIMED = (
    ("adelicbrs.exact", "padic_fractional_part", "exact.padic_fractional_part"),
    ("adelicbrs.exact", "crt_coset", "exact.crt_coset"),
    ("adelicbrs.exact", "ExactReal.floor", "exact.ExactReal.floor"),
    ("adelicbrs.solenoid", "rotate", "solenoid.rotate"),
    ("adelicbrs.solenoid", "reduce_to_fundamental",
     "solenoid.reduce_to_fundamental"),
    ("adelicbrs.brs", "discrepancy_series", "brs.series"),
    ("adelicbrs.brs", "multiplicity", "brs.multiplicity"),
    ("adelicbrs.brs", "box_lift_count", "brs.box_lift_count"),
    ("adelicbrs.brs", "construct_witness", "brs.construct"),
    ("adelicbrs.brs", "construct_brs", "brs.construct"),
    ("adelicbrs.brs", "enumerate_volumes", "brs.construct"),
    ("adelicbrs.cutproject", "window_multiplicity",
     "cutproject.window_multiplicity"),
    ("adelicbrs.cutproject", "correspondence_check",
     "cutproject.correspondence_check"),
    ("adelicbrs.cli", "load_config", "cli.load_config"),
    ("adelicbrs.cli", "write_atomic", "cli.write_atomic"),
)

# Allocation fast path, called tens of times per orbit step: counted
# only, because timing it would cost more than it measures.
COUNTED = (("adelicbrs.exact", "ExactReal._reduced", "exact.ExactReal._reduced"),)

# labels whose results or arguments feed a count (see Tracer._observe)
OBSERVED = frozenset(("solenoid.rotate", "brs.multiplicity",
                      "cutproject.window_multiplicity", "cli.write_atomic"))


def _point_bits(point) -> int:
    real = point.real
    bits = max(abs(real.a).bit_length(), abs(real.b).bit_length(),
               real.c.bit_length())
    for _, x in point.parts:
        bits = max(bits, abs(x.numerator).bit_length(),
                   x.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {
            "brs.multiplicity.hits": 0, "cutproject.window_multiplicity.hits": 0,
            "cli.bytes_written": 0, "exact.orbit_max_bits": 0}
        self._stack: list[float] = []
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # observers: counts taken where the work happens, outside the span
    def _observe(self, label, args, result):
        c = self.counts
        if label == "solenoid.rotate":
            c["exact.orbit_max_bits"] = max(c["exact.orbit_max_bits"],
                                            _point_bits(result))
        elif label == "brs.multiplicity" and result > 0:
            c["brs.multiplicity.hits"] += 1
        elif label == "cutproject.window_multiplicity" and result > 0:
            c["cutproject.window_multiplicity.hits"] += 1
        elif label == "cli.write_atomic":
            c["cli.bytes_written"] += len(args[1].encode("utf-8"))

    def _timed(self, label, fn):
        rec = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack, active = self._stack, self._active
        observe = label in OBSERVED

        def wrapper(*args, **kwargs):
            if label in active:
                return fn(*args, **kwargs)
            active.add(label)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                active.discard(label)
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observe:
                t1 = perf_counter()
                self._observe(label, args, result)
                if stack:  # keep observer time out of the caller's self time
                    stack[-1] += perf_counter() - t1
            return result
        return wrapper

    def _counted(self, label, fn):
        counts = self.counts
        counts.setdefault(label, 0)

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:  # a method: one name, on its class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, classmethod):
                new = classmethod(make(orig.__func__))
            else:
                new = make(orig)
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, new)
            return
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "adelicbrs" and not name.startswith("adelicbrs."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self) -> None:
        for module, attr, label in TIMED:
            self._patch(module, attr, lambda fn, lb=label: self._timed(lb, fn))
        for module, attr, label in COUNTED:
            self._patch(module, attr, lambda fn, lb=label: self._counted(lb, fn))

    def remove(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def calls(self, label) -> int:
        return self.stats.get(label, [0])[0]

    def total(self, label) -> float:
        return self.stats.get(label, [0, 0.0])[1]

    def self_time(self, label) -> float:
        return self.stats.get(label, [0, 0.0, 0.0])[2]

    def summary(self) -> dict:
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "counts": dict(sorted(self.counts.items()))}
