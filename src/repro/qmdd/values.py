"""Canonicalization of complex edge weights.

QMDD canonicity (Section 2.4) requires that two equal matrices always
reduce to the *same* shared graph in memory.  With floating-point edge
weights, numerically-equal values must therefore be represented by the
same Python object, otherwise the unique table would treat
``0.7071067811865476`` and ``0.7071067811865475`` as different weights
and canonicity would silently break.

:class:`ValueTable` interns complex numbers with a tolerance: values are
bucketed on a grid of side ``tolerance`` and lookups probe the
neighbouring buckets, so any two values closer than ``tolerance`` map to
one canonical representative.  This is the same technique used by
production decision-diagram packages.

In front of the buckets sits an exact-value memo from a raw complex to
the representative it was given.  Decision-diagram arithmetic produces
the same raw products and quotients over and over (a few thousand
distinct values per equivalence check), so most lookups are one dict
hit instead of two divisions, two roundings and a bucket probe.  The
memo is bounded by :data:`MEMO_LIMIT` and cleared wholesale when full;
a cleared entry is simply recomputed from the buckets on its next
lookup.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Entry bound of :class:`ValueTable`'s exact-value memo.
MEMO_LIMIT = 1 << 14


class ValueTable:
    """Tolerance-based interning table for complex numbers."""

    def __init__(self, tolerance: float = 1e-9):
        self.tolerance = tolerance
        self._buckets: Dict[Tuple[int, int], complex] = {}
        self._memo: Dict[complex, complex] = {}
        # Seed exact anchors so common algebraic values stay pristine.
        for anchor in (0j, 1 + 0j, -1 + 0j, 1j, -1j):
            self.lookup(anchor)

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative of ``value``."""
        found = self._memo.get(value)
        if found is not None:
            return found
        value = complex(value)
        canonical = self._intern(value)
        memo = self._memo
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[value] = canonical
        return canonical

    def _intern(self, value: complex) -> complex:
        """The bucket probe behind :meth:`lookup`."""
        tol = self.tolerance
        base_re = round(value.real / tol)
        base_im = round(value.imag / tol)
        # Fast path: exact home bucket (the overwhelmingly common case).
        found = self._buckets.get((base_re, base_im))
        if found is not None and abs(found - value) <= tol:
            return found
        for dre in (0, -1, 1):
            for dim in (0, -1, 1):
                if dre == 0 and dim == 0:
                    continue
                key = (base_re + dre, base_im + dim)
                found = self._buckets.get(key)
                if found is not None and abs(found - value) <= tol:
                    return found
        self._buckets[(base_re, base_im)] = value
        return value

    def is_zero(self, value: complex) -> bool:
        """True when ``value`` is within tolerance of zero."""
        return abs(value) <= self.tolerance

    def is_one(self, value: complex) -> bool:
        """True when ``value`` is within tolerance of one."""
        return abs(value - 1.0) <= self.tolerance

    def equal(self, a: complex, b: complex) -> bool:
        """Tolerance equality of two canonical values."""
        return abs(a - b) <= self.tolerance

    def __len__(self) -> int:
        return len(self._buckets)
