"""Every cap, tolerance and sampling constant of ddlab, and the checks that
enforce the caps.

The caps keep ddlab at desk scale. A request above one raises
`CapacityError` (CLI exit code 3) before the memory it would need is
allocated: a 2**n index range is made only by `table_indexes`, and every
program constructor, zoo program builder and lift calls `check_program` with
the level widths it is about to fill.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError

TABLE_CAP = 16                # largest n whose 2**n inputs are enumerated
SAMPLE_CAP = 1 << TABLE_CAP   # most seeded input samples drawn at once: one full table
STORAGE_CAP = 24              # largest n of a stored BoolFn or PartialBoolFn table
DP_CAP = 16                   # largest n of the exact-width search
ENUM_CAP = 8                  # largest n of the n! enumeration cross-check
COMMUTATIVITY_CAP = 12        # largest n of the sampled commutativity check
PROGRAM_CAP = 1 << 26         # most entries in a program's packed operators

TOL = 1e-9         # probabilities, unitarity, per-step norm conservation, report bounds
EXACT_TOL = 1e-12  # the initial quantum state's norm, multiplier-search targets

EXHAUSTIVE_PERM_CAP = 5       # up to this n, commutativity is checked on all n! orders
COMMUTATIVITY_ORDERS = 200    # orders `is_commutative` (and so the lift's gate) samples


def check(value, cap, what):
    """Raise CapacityError when `value` exceeds `cap`."""
    if value > cap:
        raise CapacityError("%s is %d, above the cap %d" % (what, value, cap))


def table_indexes(n):
    """The truth-table indexes 0 .. 2**n - 1 (int64), for n <= TABLE_CAP."""
    check(n, TABLE_CAP, "n of a 2**n table")
    return np.arange(1 << n, dtype=np.int64)


def check_program(levels, width, matrix):
    """Refuse a program whose packed operators would hold more than
    PROGRAM_CAP entries. Each of the `levels` levels holds two operators:
    index maps of `width` entries, or `width` x `width` matrices. `width` is
    the widest level, so the padded copy that the commutativity check and the
    lift build fits whenever the program does."""
    check(2 * levels * width * (width if matrix else 1), PROGRAM_CAP,
          "the operator entry count")
