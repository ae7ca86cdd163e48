"""Reduction from Q(z) to F_p[z], and the one modular engine for
denominator-cleared polynomial sequences.

Every computation in characteristic p (and modulo small prime powers) runs on
integer polynomials with numpy coefficient rows, low degree first, reduced
modulo m and trimmed of trailing zeros.  There is no F_p(z) arithmetic:
denominators are cleared once in characteristic zero, so no gcd is ever taken
modulo m.

The reduction map follows the Gauss-valuation convention: a rational function
reduces mod p iff its Gauss valuation is >= 0, after normalizing the
denominator to unit content.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadPrime
from .exact_arith import Poly, RatFn, as_fraction, gauss_valuation, poly_gauss_valuation, vp_int


# ---------------------------------------------------------------------------
# reduction from characteristic zero


def reduce_fraction_mod_p(q: Fraction, p: int) -> int:
    q = as_fraction(q)
    if q == 0:
        return 0
    if vp_int(q.denominator, p) > 0:
        raise BadPrime(p, f"{q} has p in its denominator")
    return (q.numerator * pow(q.denominator, p - 2, p)) % p


def reduce_poly_mod_p(f: Poly, p: int) -> list[int]:
    """Coefficients of f mod p, low degree first, trailing zeros trimmed."""
    out = [reduce_fraction_mod_p(c, p) for c in f.coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def reduce_ratfn_mod_p(f: RatFn, p: int) -> tuple[list[int], list[int]]:
    """(num, den) coefficient lists mod p of the representative with
    p-integral numerator and unit-content denominator; den is never zero.
    BadPrime iff the Gauss valuation of f is negative."""
    if f.is_zero():
        return [], [1]
    if gauss_valuation(f, p) < 0:
        raise BadPrime(p, "negative Gauss valuation")
    alpha = poly_gauss_valuation(f.den, p)
    scale = Fraction(1, p) ** alpha if alpha >= 0 else Fraction(p) ** (-alpha)
    return reduce_poly_mod_p(f.num * scale, p), reduce_poly_mod_p(f.den * scale, p)


# ---------------------------------------------------------------------------
# numpy polynomials mod m
#
# Coefficients are int64 in [0, m).  A product of two of them, or a sum of
# k such products in a convolution, can pass 2^63 once m is large (the
# valuation bound in growth works mod p^3); those products are taken with
# Python ints (object dtype) and reduced before going back to int64.

_INT64_BOUND = 2**63
_MAX_MODULUS = 2**62  # a sum of two residues must still fit in int64
_EMPTY = np.zeros(0, dtype=np.int64)


def _np_poly(coeffs: Sequence[int], m: int) -> np.ndarray:
    arr = np.array([c % m for c in coeffs], dtype=np.int64)
    return _np_trim(arr)


def _np_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if nz.size else _EMPTY


def _np_reduce(a: np.ndarray, m: int) -> np.ndarray:
    return _np_trim((a % m).astype(np.int64))


def _np_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        return _EMPTY
    if min(a.size, b.size) * (m - 1) ** 2 >= _INT64_BOUND:
        return _np_reduce(np.convolve(a.astype(object), b.astype(object)), m)
    return _np_trim(np.convolve(a, b) % m)


def _np_add(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] = (out[: b.size] + b) % m
    return _np_trim(out)


def _np_scale(a: np.ndarray, c: int, m: int) -> np.ndarray:
    c %= m
    if (m - 1) * c >= _INT64_BOUND:
        return _np_reduce(a.astype(object) * c, m)
    return _np_trim((a * c) % m)


def _np_deriv(a: np.ndarray, m: int) -> np.ndarray:
    if a.size <= 1:
        return _EMPTY
    k = np.arange(1, a.size, dtype=np.int64)
    if (m - 1) * (a.size - 1) >= _INT64_BOUND:
        return _np_reduce(a[1:].astype(object) * k.astype(object), m)
    return _np_trim((a[1:] * k) % m)


def _row_times(row, mat, m: int) -> list[np.ndarray]:
    """Row vector times square matrix of numpy polynomials mod m."""
    out = []
    for j in range(len(mat)):
        acc = _EMPTY
        for k, a in enumerate(row):
            if a.size:
                acc = _np_add(acc, _np_mul(a, mat[k][j], m), m)
        out.append(acc)
    return out


class FpMat:
    """Square matrix over F_p[z]: ``rows`` holds trimmed int64 coefficient
    arrays in [0, prime), low degree first."""

    def __init__(self, prime: int, rows):
        self.prime = prime
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return all(c.size == 0 for row in self.rows for c in row)

    def __mul__(self, other: "FpMat") -> "FpMat":
        return FpMat(self.prime, [_row_times(row, other.rows, self.prime) for row in self.rows])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMat)
            and self.prime == other.prime
            and len(self.rows) == len(other.rows)
            and all(
                len(ra) == len(rb) and all(np.array_equal(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __repr__(self):
        return f"FpMat(prime={self.prime}, {[[c.tolist() for c in row] for row in self.rows]})"


# ---------------------------------------------------------------------------
# the cleared sequence
#
# For a system y' = G y with T G polynomial and H_s := T^s G_s, the sequence
# satisfies H_{s+1} = H_s (TG) + T H_s' - s T' H_s with purely polynomial
# arithmetic.  Any block of rows of H obeys the same recurrence, so a caller
# may start from rows of its own at any index (the division test starts from
# the row e_0 of H_0 = identity).


class ClearedSequenceMod:
    """Iterator over rows of H_s mod m for a cleared system (T, TG).

    ``t_coeffs`` and the entries of ``tg`` (indexed [row][col]) and ``start``
    are integer coefficient lists.  ``start`` is the block of rows at index
    ``s``; by default the whole of H_1 = TG.  ``current`` is the block at
    index ``self.s``.
    """

    def __init__(
        self,
        t_coeffs: Sequence[int],
        tg: Sequence[Sequence[Sequence[int]]],
        m: int,
        start: Sequence[Sequence[Sequence[int]]] | None = None,
        s: int = 1,
    ):
        if not 2 <= m <= _MAX_MODULUS:
            raise ValueError(f"modulus must lie in [2, 2^62], got {m}")
        self.m = m
        self.t = _np_poly(t_coeffs, m)
        self.dt = _np_deriv(self.t, m)
        self.tg = [[_np_poly(c, m) for c in row] for row in tg]
        self.s = s
        rows = tg if start is None else start
        self.current = [[_np_poly(c, m) for c in row] for row in rows]

    def advance(self):
        """Step from H_s to H_{s+1}."""
        m = self.m
        out = []
        for h in self.current:
            row = _row_times(h, self.tg, m)
            for j, c in enumerate(h):
                if c.size:
                    acc = _np_add(row[j], _np_mul(self.t, _np_deriv(c, m), m), m)
                    row[j] = _np_add(acc, _np_scale(_np_mul(self.dt, c, m), -self.s, m), m)
            out.append(row)
        self.current = out
        self.s += 1

    def goto(self, s: int):
        if s < self.s:
            raise ValueError("sequence cannot rewind")
        while self.s < s:
            self.advance()
        return self.current

    def is_zero(self) -> bool:
        return all(c.size == 0 for row in self.current for c in row)
