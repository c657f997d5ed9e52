"""Shared numeric constants.

Everything here is an exact rational or integer; nothing downstream is
allowed to re-derive these values with floats.
"""

from fractions import Fraction

# Farness margin for codeword reconfiguration paths.
FARNESS_MARGIN = Fraction(1, 400)

# Closeness radius used by robust circuits (clause one) and path checks.
QUARTER = Fraction(1, 4)

# Smallest block exponent for which the farness guarantee is promised.
MIN_SOUND_N = 9

# The partial-sum tail bound 0.9**N is only claimed for N above this.
PARTIAL_SUM_MIN_N = 100

# Default seed for every randomized command; printed by the CLI.
DEFAULT_SEED = 1729

# Default cap on the exact-search state space (product of alphabet sizes).
DEFAULT_BUDGET = 2**24


# Relative radius of the strict decoding clause of a robust circuit.
CLAUSE_TWO = QUARTER + FARNESS_MARGIN / 2


def clause_two_radius(n: int, weakened: bool = False) -> int:
    """Hamming radius of the decoding clause of a robust circuit.

    The strict variant uses relative radius 1/4 + FARNESS_MARGIN/2; the weakened
    variant (negative testing only) uses exactly 1/4.  Both are converted
    to a Hamming count with floor, which preserves "<=" on rationals.
    """
    radius = QUARTER if weakened else CLAUSE_TWO
    return (radius.numerator << n) // radius.denominator


def quarter_radius(n: int) -> int:
    """Hamming radius equal to relative distance 1/4 (n >= 2 keeps it integral)."""
    return 1 << (n - 2)


# Constants of the full construction with a constant-alphabet inner tester.
# The bundled reference tester does not achieve them; they are carried for
# reporting only and must always be labeled "theoretical" in output.
THEORETICAL = {
    "inner_alphabet": 8,
    "inner_rejection_rate": Fraction(1, 10000),
    "four_ary_loss": FARNESS_MARGIN**2 * Fraction(1, 10000) ** 2 / 64,
    "binary_loss": Fraction(1, 8000**4),
    "binary_alphabet": 36**4,
    "amplified_gap_lower_bound": Fraction(1, 8000**4) * Fraction(58, 10000),
}

assert THEORETICAL["four_ary_loss"] / 4 == THEORETICAL["binary_loss"]
