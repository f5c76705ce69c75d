"""Seeded workload generation for the adelicbrs benchmark.

Every workload is a list of operations; an operation is one CLI command
on one config.  The configs are built from ``random.Random(seed)`` with
plain integer and Fraction arithmetic only, so the package under test
never influences its own inputs and the same seed always gives the same
config bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Orbit lengths: long enough for the exact integers to grow past their
# start-up size, short enough (about 0.2 s per operation on one core)
# that one run holds many passes over the workload, so that medians ride
# out bursts of load from other tenants of the machine.
VERIFY_N = 1000
CIRCLE_N = 1500
Q23_N = 500
CUTPROJECT_N = 200
CONFIGS_PER_SEED = 4

SQRT2 = {"d": 2, "a": 0, "b": 1, "c": 1}


@dataclass(frozen=True)
class Operation:
    command: str
    config: dict

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True, indent=1)
                + "\n").encode("utf-8")

    @property
    def orbit_steps(self) -> int:
        return self.config["checkpoints"][-1] if self.command == "verify" else 0

    @property
    def candidates(self) -> int:
        return self.config["cutproject_n"] if self.command == "cutproject" else 0


def _start_real(rng: random.Random) -> str:
    return str(Fraction(rng.randrange(1, 1000), 1000))


def _start_padic(rng: random.Random) -> str:
    return str(Fraction(rng.randrange(1, 256), rng.choice((1, 5, 7, 11))))


def verify_q2(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for _ in range(CONFIGS_PER_SEED):
        ops.append(Operation("verify", {
            "alpha_real": SQRT2, "alpha_padic": {"2": "1/2"},
            "gamma": "1/2", "n": 1,
            "x0_real": _start_real(rng), "x0_padic": {"2": _start_padic(rng)},
            "checkpoints": [100, 500, VERIFY_N], "seed": seed}))
    return ops


def verify_circle(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    return [Operation("verify", {
        "alpha_real": SQRT2, "alpha_padic": {}, "gamma": "1", "n": 2,
        "x0_real": _start_real(rng),
        "checkpoints": [100, 500, CIRCLE_N], "seed": seed})
        for _ in range(CONFIGS_PER_SEED)]


def certify_q23(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    ops = [Operation("verify", {
        "alpha_real": {"d": 5, "a": 1, "b": 1, "c": 2},
        "alpha_padic": {"2": "3/4", "3": "2/3"},
        "gamma": "5/6", "n": 2,
        "x0_real": _start_real(rng),
        "x0_padic": {"2": _start_padic(rng), "3": _start_padic(rng)},
        "checkpoints": [100, 250, Q23_N], "cutproject_n": CUTPROJECT_N,
        "seed": seed}) for _ in range(CONFIGS_PER_SEED)]
    # cutproject does not depend on the start point, so one run of it per
    # pass; verify operations stay the majority, so the latency median
    # falls inside one cluster of operation costs rather than between two
    return ops + [Operation("cutproject", ops[0].config)]


WORKLOADS = {
    "verify_q2": verify_q2,
    "verify_circle": verify_circle,
    "certify_q23": certify_q23,
}


def generate(workload: str, seed: int) -> list[Operation]:
    return WORKLOADS[workload](seed)
