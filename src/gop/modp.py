"""Reduction from Q(z) to F_p[z], and the one modular engine for
denominator-cleared polynomial sequences.

Every computation in characteristic p (and modulo small prime powers) runs on
integer polynomial matrices reduced modulo m.  There is no F_p(z) arithmetic:
denominators are cleared once in characteristic zero, so no gcd is ever taken
modulo m.

A polynomial matrix is held as [row][col] coefficient lists, low degree
first, each coefficient in [0, m), trailing zeros trimmed.  ``FpMat``
multiplies such matrices by Kronecker substitution: each entry is packed
into byte-aligned slots of one Python integer, and one big-integer product
does a whole polynomial product.

``ClearedSequenceMod`` has two storages behind the one step.  It runs
``growth._step`` with a modulus on the lists until the process has done
``LIST_WORK_BUDGET`` coefficient-steps of list work, about the cost of one
numpy import; from then on that sequence and every later one step int64
numpy blocks of shape (degree+1, rows, n), where ``block[e]`` is the matrix
of z^e coefficients.  Blocks are only for a modulus at which every sum a
step forms stays below 2^63 (the int64 rule); a sequence built at a larger
modulus steps lists whatever the budget, since Python integers are exact at
any size and numpy blocks of them were several times slower than lists.
Short scans never import numpy, and long single primes pay for it once.

A sequence modulo M may switch to a divisor d of M (``reduce_modulus``):
reduction Z/M -> Z/d is a ring homomorphism and the step is a polynomial
map with integer coefficients, so reducing H_s mod M to Z/d gives H_s mod d
at every later s exactly as a run modulo d from the start would.  A scan
over many primes runs one sequence modulo their product and reads each
prime off it.  T and TG are held as signed residues, |c| <= M/2, which are
the small integer coefficients themselves once M is large; only the rows
carry coefficients as large as M.

The reduction map follows the Gauss-valuation convention: a rational function
reduces mod p iff its Gauss valuation is >= 0, after normalizing the
denominator to unit content.  No command runs it: the tests reduce by
``reduce_ratfn_mod_p``, and ``bench/spans.py`` counts its calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Sequence

from . import growth
from .errors import BadPrime
from .exact_arith import Poly, RatFn, gauss_valuation, poly_gauss_valuation


# ---------------------------------------------------------------------------
# reduction from characteristic zero


def reduce_poly_mod_p(f: Poly, p: int) -> list[int]:
    """Coefficients of f mod p, low degree first, trailing zeros trimmed:
    the numerators times the inverse of the one denominator, which p must
    not divide."""
    if f.den % p == 0:
        raise BadPrime(p, "p divides the denominator")
    inv = pow(f.den, p - 2, p)
    return _trim_list([c * inv % p for c in f.nums])


def reduce_ratfn_mod_p(f: RatFn, p: int) -> tuple[list[int], list[int]]:
    """(num, den) coefficient lists mod p of the representative with
    p-integral numerator and unit-content denominator; den is never zero.
    BadPrime iff the Gauss valuation of f is negative."""
    if f.is_zero():
        return [], [1]
    if gauss_valuation(f, p) < 0:
        raise BadPrime(p, "negative Gauss valuation")
    scale = Fraction(p) ** -poly_gauss_valuation(f.den, p)
    return reduce_poly_mod_p(f.num * scale, p), reduce_poly_mod_p(f.den * scale, p)


# ---------------------------------------------------------------------------
# matrices over F_p[z]


def _trim_list(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _reduce(coeffs: Sequence[int], m: int) -> list[int]:
    """Coefficients mod m, trailing zeros trimmed."""
    return _trim_list([c % m for c in coeffs])


def _pack(coeffs: list[int], width: int) -> int:
    """Kronecker substitution z -> 2^(8 width) of nonnegative coefficients
    below 2^(8 width)."""
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(width), repeat("little"))), "little")


def _unpack(x: int, width: int, p: int) -> list[int]:
    """Inverse of _pack, each coefficient reduced mod p."""
    data = x.to_bytes(-(-x.bit_length() // (8 * width)) * width, "little")
    return _reduce([int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)], p)


class FpMat:
    """Square matrix over F_p[z]: [row][col] coefficient lists in [0, prime),
    low degree first, trailing zeros trimmed (a zero entry is [])."""

    def __init__(self, prime: int, entries: list[list[list[int]]]):
        self.prime = prime
        self.entries = entries

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(c for row in self.entries for c in row)

    def __mul__(self, other: "FpMat") -> "FpMat":
        """Each entry of the product by Kronecker substitution (von zur
        Gathen-Gerhard, Modern Computer Algebra, 8.4): entries are packed
        once into byte-aligned slots of one integer, each output entry is a
        sum of n big-integer products, unpacked and reduced once."""
        a, b, p, n = self.entries, other.entries, self.prime, self.n
        len_a = max((len(c) for row in a for c in row), default=0)
        len_b = max((len(c) for row in b for c in row), default=0)
        if not (len_a and len_b):
            return FpMat(p, [[[] for _ in range(n)] for _ in range(n)])
        # a slot holds any output coefficient: a sum of n products of
        # polynomials, each coefficient a sum of at most min(len) products
        width = -(-(n * min(len_a, len_b) * (p - 1) ** 2).bit_length() // 8)
        left = [[_pack(c, width) for c in row] for row in a]
        right = [[_pack(c, width) for c in row] for row in b]
        return FpMat(p, [
            [_unpack(sum(left[i][k] * right[k][j] for k in range(n)), width, p) for j in range(n)]
            for i in range(n)
        ])

    def __repr__(self):
        return f"FpMat(prime={self.prime}, {self.entries})"


# ---------------------------------------------------------------------------
# numpy blocks of polynomial matrices mod m

_INT64_BOUND = 2**63


def _numpy():
    """numpy, loaded on first use rather than when gop is imported."""
    import numpy

    return numpy


def _signed(coeffs: Sequence[int], m: int) -> list[int]:
    """Coefficients as residues mod m in [-(m // 2), m - m // 2), trailing
    zeros trimmed."""
    half = m // 2
    return _trim_list([(c + half) % m - half for c in coeffs])


def _trim(block):
    """Drop the all-zero top degrees of a block."""
    if not len(block) or block[-1].any():
        return block
    nonzero = (block != 0).any(axis=(1, 2)).nonzero()[0]
    return block[: nonzero[-1] + 1] if nonzero.size else block[:0]


def _block(entries: Sequence[Sequence[Sequence[int]]]):
    """int64 block of a matrix given as [row][col] lists of residues."""
    degrees = max((len(c) for row in entries for c in row), default=0)
    out = _numpy().zeros((degrees, len(entries), len(entries[0])), dtype="int64")
    for i, row in enumerate(entries):
        for j, c in enumerate(row):
            out[: len(c), i, j] = c
    return out


def _block_entries(block) -> list[list[list[int]]]:
    """[row][col] coefficient lists of a block, trailing zeros trimmed."""
    return [
        [_trim_list(block[:, i, j].tolist()) for j in range(block.shape[2])]
        for i in range(block.shape[1])
    ]


# ---------------------------------------------------------------------------
# the cleared sequence
#
# For a system y' = G y with T G polynomial and H_s := T^s G_s, the sequence
# satisfies H_{s+1} = H_s (TG) + T H_s' - s T' H_s with purely polynomial
# arithmetic.  Any block of rows of H obeys the same recurrence, so a caller
# may start from rows of its own at any index (the division test starts from
# the row e_0 of H_0 = identity).
#
# Ski rental between the two storages: list steps cost nothing to start,
# numpy steps cost one import, so lists run until the process has done about
# one import's worth of list work, and nothing pays much more than one numpy
# import over either storage alone.  Work is counted in coefficient-steps:
# one step of a block with c stored coefficients counts c.  On a 2-core
# x86-64 machine (numpy 2.4) an import took 86-129 ms (medians of 7 fresh
# interpreters, over three sessions) and list steps took 0.68-0.99 us per
# coefficient-step on the catalog subjects with real work (polylog:2,
# polylog:3, gauss2f1, theta2m2, operators and systems, p <= 97), so the
# break-even lies between about 90 000 and 190 000.  The budget sits at the
# low end because what an input that outgrows it pays over numpy alone is
# the list work itself, which it keeps near 0.1 s.

LIST_WORK_BUDGET = 100_000
_list_work = 0  # coefficient-steps this process has done on lists


class ClearedSequenceMod:
    """Iterator over a block of rows of H_s mod m for a cleared system (T, TG).

    ``t_coeffs`` and the entries of ``tg`` (indexed [row][col]) and ``start``
    are integer coefficient lists.  ``start`` is the block of rows at index
    ``s``; by default the whole of H_1 = TG.  ``goto(s)`` returns the rows at
    index s as [row][col] coefficient lists in [0, m).  Any modulus m >= 2 is
    exact.  The sequence steps numpy blocks only if m passes the int64 rule:
    an output coefficient, a sum of n·len(TG) + len(T) + len(T') products of
    residues, stays below 2^63.  ``reduce_modulus(d)`` continues the run
    modulo a divisor d of m, on the storage it has.
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
        self._t_int, self._tg_int = t_coeffs, tg
        self._set_modulus(m)
        self.s = s
        self.rows = [[_reduce(c, m) for c in row] for row in (tg if start is None else start)]
        self.block = self.tg_block = None  # numpy storage, once over budget
        # a divisor of m passes the rule too: residues and lengths only shrink
        tg_len = max((len(c) for row in self.tg for c in row), default=0)
        self.int64 = (len(self.tg) * tg_len + len(self.t) + len(self.dt)) * (m - 1) ** 2 < _INT64_BOUND

    def _set_modulus(self, m: int):
        self.m = m
        self.t = _signed(self._t_int, m)
        self.dt = _signed([i * c for i, c in enumerate(self._t_int)][1:], m)
        self.tg = [[_signed(c, m) for c in row] for row in self._tg_int]

    def reduce_modulus(self, d: int):
        """Continue modulo d, a divisor of the modulus: the rows at the
        current index are reduced mod d, and every later step runs mod d."""
        if d < 2 or self.m % d:
            raise ValueError(f"{d} is not a divisor >= 2 of the modulus {self.m}")
        self._set_modulus(d)
        if self.block is None:
            self.rows = [[_reduce(c, d) for c in row] for row in self.rows]
        else:
            self.block = _trim(self.block % d)
            self.tg_block = _block(self.tg)

    def advance(self):
        """Step from H_s to H_{s+1}."""
        global _list_work
        if self.block is None and (_list_work < LIST_WORK_BUDGET or not self.int64):
            _list_work += sum(len(c) for row in self.rows for c in row)
            self.rows = growth._step(self.rows, self.s, self.t, self.tg, self.m)
        else:
            self._advance_block()
        self.s += 1

    def _advance_block(self):
        np = _numpy()
        m = self.m
        if self.block is None:
            self.tg_block = _block(self.tg)
            self.block = _block(self.rows)
            self.rows = None
        h = self.block
        d = len(h)
        size = max(d + max(len(self.tg_block), len(self.t) - 1, len(self.dt)) - 1, 0)
        out = np.zeros((size,) + h.shape[1:], dtype=h.dtype)
        for e, coeff in enumerate(self.tg_block):
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
        self.block = _trim(out)

    def goto(self, s: int) -> list[list[list[int]]]:
        if s < self.s:
            raise ValueError("sequence cannot rewind")
        while self.s < s:
            self.advance()
        return self.rows if self.block is None else _block_entries(self.block)

    def is_zero(self) -> bool:
        if self.block is not None:
            return len(self.block) == 0
        return not any(c for row in self.rows for c in row)
