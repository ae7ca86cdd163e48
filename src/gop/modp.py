"""Reduction from Q(z) to F_p[z], and the one modular engine for
denominator-cleared polynomial sequences.

Every computation in characteristic p (and modulo small prime powers) runs on
integer polynomial matrices reduced modulo m.  There is no F_p(z) arithmetic:
denominators are cleared once in characteristic zero, so no gcd is ever taken
modulo m.

A polynomial matrix is held as one numpy block of shape (degree+1, rows, n):
``block[e]`` is the matrix of z^e coefficients, each in [0, m), and the top
degree is nonzero (a zero matrix has no degrees at all).  The block is int64
while every sum a step forms stays below 2^63, and of dtype ``object``
(Python ints, exact for any modulus) otherwise.

numpy is imported by the first ``ClearedSequenceMod``, not with this module:
only the p-curvature and valuation paths run the engine, and most commands
never load it.

The reduction map follows the Gauss-valuation convention: a rational function
reduces mod p iff its Gauss valuation is >= 0, after normalizing the
denominator to unit content.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
# blocks of polynomial matrices mod m

_INT64_BOUND = 2**63


def _numpy():
    """numpy, loaded on first use rather than when gop is imported."""
    import numpy

    return numpy


def _dtype(terms: int, m: int):
    """int64 when a sum of ``terms`` products of residues mod m fits."""
    return object if terms * (m - 1) ** 2 >= _INT64_BOUND else "int64"


def _trim(block):
    """Drop the all-zero top degrees of a block."""
    if not len(block) or block[-1].any():
        return block
    nonzero = (block != 0).any(axis=(1, 2)).nonzero()[0]
    return block[: nonzero[-1] + 1] if nonzero.size else block[:0]


def _trim_list(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _block(entries: Sequence[Sequence[Sequence[int]]], m: int, dtype):
    """Block mod m of a matrix given as [row][col] integer coefficient lists."""
    degrees = max((len(c) for row in entries for c in row), default=0)
    out = _numpy().zeros((degrees, len(entries), len(entries[0])), dtype=dtype)
    for i, row in enumerate(entries):
        for j, c in enumerate(row):
            out[: len(c), i, j] = [x % m for x in c]
    return _trim(out)


def _entry_lengths(block) -> list[list[int]]:
    """[row][col] 1 + the degree of each entry of a nonempty block, 0 for a
    zero entry."""
    nonzero = block != 0
    return _numpy().where(nonzero.any(axis=0), len(block) - nonzero[::-1].argmax(axis=0), 0).tolist()


def block_entries(block) -> list[list[list[int]]]:
    """[row][col] coefficient lists of a block, low degree first, trailing
    zeros trimmed."""
    return [
        [_trim_list(block[:, i, j].tolist()) for j in range(block.shape[2])]
        for i in range(block.shape[1])
    ]


class FpMat:
    """Square matrix over F_p[z] held as one trimmed block of shape
    (degree+1, n, n) with coefficients in [0, prime)."""

    def __init__(self, prime: int, block):
        self.prime = prime
        self.block = block

    @property
    def n(self) -> int:
        return self.block.shape[1]

    def is_zero(self) -> bool:
        return len(self.block) == 0

    def __mul__(self, other: "FpMat") -> "FpMat":
        np = _numpy()
        a, b, p, n = self.block, other.block, self.prime, self.n
        if not (len(a) and len(b)):
            return FpMat(p, a[:0])
        dtype = _dtype(n * min(len(a), len(b)), p)
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        out = np.zeros((len(a) + len(b) - 1, n, n), dtype=dtype)
        # each entry is convolved only up to its own degree, so zero and short
        # entries cost little; at p = 1009 this product took a third of the
        # time of a matmul per degree of the left factor
        left, right = _entry_lengths(a), _entry_lengths(b)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    x, y = left[i][k], right[k][j]
                    if x and y:
                        out[: x + y - 1, i, j] += np.convolve(a[:x, i, k], b[:y, k, j])
        return FpMat(p, _trim(out % p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMat)
            and self.prime == other.prime
            and self.block.shape == other.block.shape
            and bool((self.block == other.block).all())
        )

    def __repr__(self):
        return f"FpMat(prime={self.prime}, {block_entries(self.block)})"


# ---------------------------------------------------------------------------
# the cleared sequence
#
# For a system y' = G y with T G polynomial and H_s := T^s G_s, the sequence
# satisfies H_{s+1} = H_s (TG) + T H_s' - s T' H_s with purely polynomial
# arithmetic.  Any block of rows of H obeys the same recurrence, so a caller
# may start from rows of its own at any index (the division test starts from
# the row e_0 of H_0 = identity).


class ClearedSequenceMod:
    """Iterator over a block of rows of H_s mod m for a cleared system (T, TG).

    ``t_coeffs`` and the entries of ``tg`` (indexed [row][col]) and ``start``
    are integer coefficient lists.  ``start`` is the block of rows at index
    ``s``; by default the whole of H_1 = TG.  ``current`` is the block at
    index ``self.s``, of shape (degree+1, rows, n).  Any modulus m >= 2 is
    exact: the block is int64 only while an output coefficient, a sum of
    n·len(TG) + len(T) + len(T') products of residues, stays below 2^63.
    """

    def __init__(
        self,
        t_coeffs: Sequence[int],
        tg: Sequence[Sequence[Sequence[int]]],
        m: int,
        start: Sequence[Sequence[Sequence[int]]] | None = None,
        s: int = 1,
    ):
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        self.m = m
        self.t = _trim_list([c % m for c in t_coeffs])
        self.dt = _trim_list([i * c % m for i, c in enumerate(t_coeffs)][1:])
        tg_len = max((len(c) for row in tg for c in row), default=0)
        dtype = _dtype(len(tg) * tg_len + len(self.t) + len(self.dt), m)
        self.tg = _block(tg, m, dtype)
        self.s = s
        self.current = _block(tg if start is None else start, m, dtype)

    def advance(self):
        """Step from H_s to H_{s+1}."""
        np = _numpy()
        h, m = self.current, self.m
        d = len(h)
        size = max(d + max(len(self.tg), len(self.t) - 1, len(self.dt)) - 1, 0)
        out = np.zeros((size,) + h.shape[1:], dtype=h.dtype)
        for e, coeff in enumerate(self.tg):
            out[e : e + d] += h @ coeff
        if d > 1:
            # T H': the coefficient t_i of T scales z^(k-1) by t_i k
            k = np.arange(1, d, dtype=h.dtype) % m
            for i, c in enumerate(self.t):
                if c:
                    out[i : i + d - 1] += (c * k % m).reshape(-1, 1, 1) * h[1:]
        for i, c in enumerate(self.dt):
            c = -self.s * c % m
            if c:
                out[i : i + d] += c * h
        out %= m
        self.current = _trim(out)
        self.s += 1

    def goto(self, s: int):
        if s < self.s:
            raise ValueError("sequence cannot rewind")
        while self.s < s:
            self.advance()
        return self.current

    def is_zero(self) -> bool:
        return len(self.current) == 0
