"""Exact bounded remainder sets for rotations on p-adic solenoids.

The package builds weighted unions of adelic boxes whose orbit-count
discrepancy under an irrational rotation stays bounded, and certifies
them three independent ways: an exact discrepancy series, character
volume identities, and a cut-and-project counting oracle.  All decision
arithmetic is exact (integers, Fractions, quadratic irrationals);
floating point appears only in reports and Weyl averages.
"""

from .errors import (AdelicError, FieldMismatch, NegativeIndicator,
                     NegativeVolume, PrimeSetMismatch, ZeroGamma)
from .exact import (ExactReal, PrimeSet, crt_coset, factorize, is_prime,
                    padic_abs, padic_fractional_part, padic_valuation,
                    rational_residue)
from .solenoid import (AdeleVector, SolenoidPoint, as_lattice, character_phase,
                       is_minimal, reduce_to_fundamental, weyl_sum, zero_point)
from .brs import (AdelicBox, BRSConstruction, DiscrepancyRecord,
                  DiscrepancySummary, PAdicBall, VolumeElement,
                  WeightedBoxSet, allowable_volume, character_volume_identity,
                  choose_n, construct_brs, construct_witness,
                  discrepancy_series, enumerate_volumes, reduce_to_finite,
                  witness_flags)
from .cutproject import correspondence_check

__version__ = "0.1.0"

__all__ = [
    "AdelicError", "FieldMismatch", "NegativeIndicator", "NegativeVolume",
    "PrimeSetMismatch", "ZeroGamma",
    "ExactReal", "PrimeSet", "crt_coset", "factorize",
    "is_prime", "padic_abs", "padic_fractional_part",
    "padic_valuation", "rational_residue",
    "AdeleVector", "SolenoidPoint",
    "as_lattice", "character_phase", "is_minimal",
    "reduce_to_fundamental", "weyl_sum", "zero_point",
    "AdelicBox", "BRSConstruction", "DiscrepancyRecord",
    "DiscrepancySummary", "PAdicBall", "VolumeElement",
    "WeightedBoxSet", "allowable_volume",
    "character_volume_identity", "choose_n", "construct_brs",
    "construct_witness", "discrepancy_series", "enumerate_volumes",
    "reduce_to_finite", "witness_flags",
    "correspondence_check",
    "__version__",
]
