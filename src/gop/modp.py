"""Reduction from Q(z) to F_p[z], and the runs modulo m of
denominator-cleared sequences.

Every computation in characteristic p (and modulo small prime powers) runs on
integer polynomial matrices reduced modulo m.  There is no F_p(z) arithmetic:
denominators are cleared once in characteristic zero, so no gcd is ever taken
modulo m.

A polynomial matrix is held as [row][col] coefficient lists, low degree
first, each coefficient in [0, m), trailing zeros trimmed.  ``FpMat``
multiplies such matrices by Kronecker substitution: each entry is packed
into byte-aligned slots of one Python integer, and one big-integer product
does a whole polynomial product.

``ClearedSequenceMod`` steps rows of H_s by ``growth._step`` with a
modulus; ``PointSequenceMod`` steps the values at an integer point, which
are constants.  A run modulo M may go on modulo a divisor d of M
(``reduce_modulus``): reduction Z/M -> Z/d is a ring homomorphism and each
step a polynomial map with integer coefficients, so the run reads mod d
as a run modulo d from the start would, and a scan over many primes reads
them all off one run modulo their product.  The integer coefficients are
held as signed residues, |c| <= M/2, the small integers themselves once M
is large; only the rows carry coefficients as large as M.

The reduction map follows the Gauss-valuation convention: a rational function
reduces mod p iff its Gauss valuation is >= 0, after normalizing the
denominator to unit content.  No command runs it: the tests reduce by
``reduce_ratfn_mod_p``, and ``bench/spans.py`` counts its calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
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
        if len_a == len_b == 1:  # constants, as the runs at integer points give
            left = [[c[0] if c else 0 for c in row] for row in a]
            right = [[c[0] if c else 0 for c in col] for col in zip(*b)]
            return FpMat(p, [[_reduce([sum(map(mul, x, y))], p) for y in right] for x in left])
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
# runs modulo m


def _signed(coeffs: Sequence[int], m: int) -> list[int]:
    """Coefficients as residues mod m in [-(m // 2), m - m // 2), trailing
    zeros trimmed."""
    half = m // 2
    return _trim_list([(c + half) % m - half for c in coeffs])


class _RunMod:
    """``goto(s)`` steps forward to the index s and returns the rows there,
    [row][col] lists in [0, m); ``reduce_modulus(d)`` goes on mod d | m."""

    def reduce_modulus(self, d: int):
        if d < 2 or self.m % d:
            raise ValueError(f"{d} is not a divisor >= 2 of the modulus {self.m}")
        self._set_modulus(d)

    def goto(self, s: int) -> list[list[list[int]]]:
        if s < self.s:
            raise ValueError("sequence cannot rewind")
        while self.s < s:
            self.advance()
        return self.rows


class ClearedSequenceMod(_RunMod):
    """Iterator over a block of rows of H_s = T^s G_s mod m for a cleared
    system (T, TG), by H_{s+1} = H_s (TG) + T H_s' - s T' H_s.

    ``t_coeffs`` and the entries of ``tg`` (indexed [row][col]) and ``start``
    are integer coefficient lists.  Any block of rows of H obeys the
    recurrence: ``start`` is the block at index ``s``, by default the whole
    of H_1 = TG (the division test starts from the row e_0 of H_0).
    """

    def __init__(self, t_coeffs: Sequence[int], tg, m: int, start=None, s: int = 1):
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        self._t_int, self._tg_int = t_coeffs, tg
        self.rows, self.s = tg if start is None else start, s
        self._set_modulus(m)

    def _set_modulus(self, m: int):
        self.m = m
        self.t = _signed(self._t_int, m)
        self.tg = [[_signed(c, m) for c in row] for row in self._tg_int]
        self.rows = [[_reduce(c, m) for c in row] for row in self.rows]

    def advance(self):
        """Step from H_s to H_{s+1}."""
        self.rows = growth._step(self.rows, self.s, self.t, self.tg, self.m)
        self.s += 1


# Let T Y^(N) = b_(N-1) Y^(N-1) + ... + b_0 Y with b_k r x r over Z[z], a an
# integer with T(a) != 0, and Y^(k)(a) the k-th block of r columns of the
# r x rN identity for k < N.  With tau_j and beta_(k,j) the Taylor
# coefficients at a of T and b_k, Leibniz's rule applied s times at a, times
# tau_0^(N+s-1), gives W_m = tau_0^m Y^(m)(a) in integers:
#
#     W_(N+s) = sum over k < N and j of s^(j) tau_0^(N-1-k+j) beta_(k,j) W_(k+s-j)
#               - sum over j >= 1 of s^(j) tau_0^(j-1) tau_j W_(N+s-j),
#
# a term reaching back i = N-k+j indices (k = N in the second sum).


class PointSequenceMod(_RunMod):
    """Iterator over W_s mod m, by the recurrence above, from s = N - 1.

    ``t`` is T and ``b`` lists b_0, ..., b_(N-1), r x r matrices of integer
    coefficient lists.  The rows of W_s are constants or zero ([]).
    """

    def __init__(self, t: Sequence[int], b, a: int, m: int):
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        order, r = len(b), len(b[0])
        tau = Poly(t).shift_argument(a).nums
        beta = [[[Poly(c).shift_argument(a).nums for c in row] for row in bk] for bk in b]
        beta.append([[[0, *(-x for x in tau[1:])] if u == l else () for l in range(r)] for u in range(r)])
        depth = max(order, *(order - k + len(c) - 1 for k, bk in enumerate(beta) for row in bk for c in row))
        width = max(len(c) for bk in beta for row in bk for c in row)
        # coeffs[u][(i-1) r + l][j] is the factor of s^(j) W_(N+s-i)[l] in row u
        self._coeffs_int = [[[0] * width for _ in range(depth * r)] for _ in range(r)]
        for k, bk in enumerate(beta):
            for u, row in enumerate(bk):
                for l, c in enumerate(row):
                    for j, x in enumerate(c):
                        if i := order - k + j:
                            self._coeffs_int[u][(i - 1) * r + l][j] = tau[0] ** (i - 1) * x
        # hist[c][(i-1) r + l] = W_(s+1-i)[l][c]: the last depth W, newest first
        self._hist = [
            [tau[0] ** (order - i) if c == (order - i) * r + l else 0 for i in range(1, depth + 1) for l in range(r)]
            for c in range(order * r)
        ]
        self.r, self.order, self.s, self._width = r, order, order - 1, width
        self._set_modulus(m)

    def _set_modulus(self, m: int):
        self.m = m
        self._coeffs = [[_signed(cs, m) for cs in row] for row in self._coeffs_int]
        self._hist = [[x % m for x in h] for h in self._hist]

    def advance(self):
        """Step from W_s to W_(s+1)."""
        m, sigma = self.m, self.s + 1 - self.order
        falling = list(accumulate(range(sigma, sigma + 1 - self._width, -1), mul, initial=1))
        out = []
        for row in self._coeffs:
            c = [sum(map(mul, falling, cs)) for cs in row]
            out.append([sum(map(mul, c, h)) % m for h in self._hist])
        self._hist = [[w[c] for w in out] + h[: -self.r] for c, h in enumerate(self._hist)]
        self.s += 1

    @property
    def rows(self) -> list[list[list[int]]]:
        return [[[h[u]] if h[u] else [] for h in self._hist] for u in range(self.r)]
