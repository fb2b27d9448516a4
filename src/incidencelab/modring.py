"""Exact arithmetic over Z_q.

Factorization, Jordan totients, modular inverses, discrete logarithms,
multiplicative characters, and small helpers for 2x2 matrices mod q.
A modulus is a plain int q everywhere; `Modulus` is only the record
`factorize(q)` returns, read where a prime factor is needed.  A character
mod p is its index, with the exponents taken base `primitive_root(p)`.
Labels of (Z_q)^n are rows of int64 arrays in lexicographic order, decoded
from their indices by `decode_labels`; `divide` and `mobius` act on whole
arrays of residues.  Integer quantities (totients, counts, tables) are
exact; only character values are floating point.  `factorize` divides out
the primes below 2^10 and splits what is left by Pollard's rho, proving
each factor prime by deterministic Miller-Rabin.

Every per-modulus table (discrete logs, inverses, roots of unity,
character rows) is a read-only numpy array with one entry per residue,
built on first use and refused above TABLE_CAP.  Each cache of such tables
keeps those of the last TABLES_KEPT moduli only, so a sweep holds no table
of a modulus it has left behind.  Every modular inverse of an array comes
from one routine, `_invert`, a lockstep extended Euclid over int64
entries: `_inverse_table(q)` holds its result for every residue of a q up
to TABLE_CAP, and `divide` reads that table, or past the cap inverts a
block's distinct denominators with it.  Only arrays of Python ints, for
moduli whose products overflow int64, invert with `pow`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, InvalidModulusError, TooLargeError

# Most entries a per-modulus table may hold: about a thousand times the
# largest character modulus the tests and benchmark sweeps use (1009), and
# far below the 10^9 entries of a modulus near 2^30 that exhaust memory.
TABLE_CAP = 2 ** 20

# Moduli whose tables each per-modulus cache keeps: a Kloosterman row reads
# the roots of unity mod p and mod p - 1, and a sweep moves on from one
# modulus to the next, never back.
TABLES_KEPT = 2


def _read_only(table: np.ndarray) -> np.ndarray:
    """table, marked read-only: a cached table is shared by every caller."""
    table.flags.writeable = False
    return table


def _check_table(what: str, n: int, entries: int | None = None) -> None:
    """Refuse a table mod n of `entries` entries, by default one per
    residue, above TABLE_CAP."""
    entries = n if entries is None else entries
    if entries > TABLE_CAP:
        raise TooLargeError(
            f"{what} mod {n}: {entries} entries exceed the table cap {TABLE_CAP}")


@dataclass(frozen=True)
class Modulus:
    """The prime factorization of a modulus q >= 2, as `factorize` returns it.

    ``factors`` holds (prime, exponent) pairs with primes increasing, so the
    smallest prime divisor is always ``factors[0][0]``.
    """

    q: int
    factors: tuple[tuple[int, int], ...]

    @property
    def least_prime(self) -> int:
        return self.factors[0][0]

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1


# Primes below 2^10, divided out of every modulus before anything else; a
# cofactor below 2^20 with no prime factor among them is itself prime.
_TRIAL_PRIMES = tuple(p for p in range(2, 2 ** 10)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))

# Miller-Rabin to these bases is a proof of primality below _MR_LIMIT
# (Sorenson and Webster 2015, the bound psi_13).
_MR_BASES = _TRIAL_PRIMES[:13]  # 2, 3, .., 41
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def factorize(q: int) -> Modulus:
    """Factor q >= 2 and return it as a Modulus.

    Small primes are divided out by trial division.  Each cofactor left is
    proven prime by deterministic Miller-Rabin, or split by Pollard's rho;
    a cofactor past _MR_LIMIT, where the fixed bases prove nothing, is
    refused with TooLargeError."""
    if not isinstance(q, int) or q < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {q!r}")
    n = q
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 2 ** 20 or _miller_rabin(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            f = _split(m)
            pending += [f, m // f]
    return Modulus(q, tuple(sorted(counts.items())))


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for an odd n > 41 below _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise TooLargeError(
            f"cannot factor {n}: primality is proven only below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle search, the gcd taken once per 128 steps, and a new constant c
    whenever a batch collapses to n itself."""
    root = math.isqrt(n)
    if root * root == n:  # a square splits at once
        return root
    for c in range(1, n):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # retrace the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"no divisor of {n} found")  # unreachable


def sorted_residues(s, q: int) -> list[int]:
    """Sorted distinct residues mod q of an iterable of ints."""
    return sorted({int(x) % q for x in s})


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).is_prime


def jordan_totient(k: int, q: int) -> int:
    """J_k(q): the number of k-tuples from [1, q] forming with q a coprime set.

    Computed exactly from the factorization as the product over p | q of
    p^(k(e-1)) * (p^k - 1).  J_k(1) = 1 by the empty product.
    """
    if k < 1:
        raise InvalidArgumentError(f"totient order must be >= 1, got {k}")
    if q == 1:
        return 1
    total = 1
    for p, e in factorize(q).factors:
        total *= p ** (k * (e - 1)) * (p ** k - 1)
    return total


def inv_mod(a: int, q: int) -> int | None:
    """Inverse of a mod q, or None when gcd(a, q) != 1."""
    try:
        return pow(a % q, -1, q)
    except ValueError:
        return None


def units(q: int) -> tuple[int, ...]:
    """The units of Z_q in increasing order; q above TABLE_CAP is refused
    with TooLargeError, as every table with an entry per residue is."""
    _check_table("units", q)
    return tuple(x for x in range(q) if math.gcd(x, q) == 1)


def decode_labels(indices: np.ndarray, q: int, width: int) -> np.ndarray:
    """The labels of (Z_q)^width at the given lexicographic indices, as the
    rows of an int64 array of base-q digits; q^width must fit in int64.
    The digits are reduced in place, so the output is the one array built."""
    out = indices[:, None] // q ** np.arange(width, dtype=np.int64)[::-1]
    out %= q
    return out


def coprime_tuples(q: int, n: int) -> np.ndarray:
    """All n-tuples of [0, q) jointly coprime with q, lexicographically, as
    the rows of an (J_n(q), n) int64 array."""
    if n < 1:
        raise InvalidArgumentError(f"tuple length must be >= 1, got {n}")
    labels = decode_labels(np.arange(q ** n, dtype=np.int64), q, n)
    return labels[np.gcd.reduce(np.gcd(labels, q), axis=1) == 1]


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root of the prime p >= 3."""
    if p < 3 or not is_prime(p):
        raise InvalidArgumentError(f"primitive roots need a prime p >= 3, got {p}")
    phi = p - 1
    prime_divs = [pr for pr, _ in factorize(phi).factors]
    for g in range(2, p):
        if all(pow(g, phi // d, p) != 1 for d in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")  # unreachable


@lru_cache(maxsize=TABLES_KEPT)
def dlog_table(p: int) -> np.ndarray:
    """Full discrete-log table base g = primitive_root(p) mod the prime p,
    as int64 entries.

    table[x] is the exponent e with g^e = x; table[0] = -1 as a sentinel.
    A prime above TABLE_CAP is refused with TooLargeError before anything
    is built.
    """
    _check_table("discrete logs", p)
    g = primitive_root(p)
    table = [-1] * p
    acc = 1
    for e in range(p - 1):
        table[acc] = e
        acc = acc * g % p
    return _read_only(np.array(table, dtype=np.int64))


@dataclass(frozen=True)
class Character:
    """Multiplicative character mod a prime p.

    chi(g^e) = exp(2 pi i * index * e / (p - 1)) for g = primitive_root(p),
    and chi(0) = 0.  index = 0 is the principal character.
    """

    p: int
    index: int

    @property
    def is_principal(self) -> bool:
        return self.index % (self.p - 1) == 0

    def values(self) -> np.ndarray:
        """chi(x) for x = 0..p-1 as a complex vector."""
        return _char_values(self.p, self.index).copy()


def make_character(p: int, index: int) -> Character:
    """Build the character of the given index (0 <= index <= p - 2) mod p."""
    primitive_root(p)  # refuses a p that is not a prime >= 3
    if not 0 <= index <= p - 2:
        raise InvalidArgumentError(f"character index must lie in [0, {p - 2}], got {index}")
    return Character(p, index)


@lru_cache(maxsize=TABLES_KEPT)
def _char_row(p: int, k: int) -> np.ndarray:
    """chi(x) for the character chi = Character(p, k) at index x < p: the
    root of unity of index k dlog(x) mod p - 1, and 0 at index 0."""
    row = _roots(p - 1)[k * dlog_table(p) % (p - 1)]
    row[0] = 0
    return _read_only(row)


_INVERT_CHUNK = 2 ** 16  # residues per lockstep pass of a table build


def _invert(x: np.ndarray, q: int) -> np.ndarray:
    """x^-1 mod q for every residue of the int64 array x, -1 where
    gcd(x, q) != 1.

    The extended Euclidean algorithm on (q, x) for all entries in lockstep,
    keeping lo = s_lo x mod q for the current remainder lo.  An entry whose
    next remainder is 0 has gcd(x, q) = lo, and the entries that finished
    are compacted away after each step.  Every coefficient stays within 2q
    in absolute value, so int64 holds them for every q below 2^62."""
    out = np.full(len(x), -1, dtype=np.int64)
    live = np.flatnonzero(x)
    hi = np.full(len(live), q, dtype=np.int64)
    lo = x[live].astype(np.int64)
    s_hi = np.zeros(len(live), dtype=np.int64)
    s_lo = np.ones(len(live), dtype=np.int64)
    while len(live):
        c, r = np.divmod(hi, lo)
        c *= s_lo
        s_hi -= c  # the coefficient of r, the next remainder
        if r.all():
            hi, lo, s_hi, s_lo = lo, r, s_lo, s_hi
            continue
        ended = np.flatnonzero(r == 0)
        unit = ended[lo[ended] == 1]
        out[live[unit]] = s_lo[unit] % q
        keep = np.flatnonzero(r)
        live, hi, lo = live[keep], lo[keep], r[keep]
        s_hi, s_lo = s_lo[keep], s_hi[keep]
    return out


@lru_cache(maxsize=TABLES_KEPT)
def _inverse_table(q: int) -> np.ndarray:
    """x^-1 mod q at index x, -1 where gcd(x, q) != 1: one read-only int64
    entry per residue.  `_invert` runs on the lower half a chunk of
    residues at a time, so the build's temporaries stay small, and
    (q - x)^-1 = q - x^-1 fills in the upper half."""
    _check_table("inverses", q)
    table = np.empty(q, dtype=np.int64)
    half = q // 2 + 1
    for start in range(0, half, _INVERT_CHUNK):
        stop = min(half, start + _INVERT_CHUNK)
        table[start:stop] = _invert(np.arange(start, stop, dtype=np.int64), q)
    mirror = table[q - np.arange(half, q)]
    table[half:] = np.where(mirror < 0, -1, q - mirror)
    return _read_only(table)


@lru_cache(maxsize=TABLES_KEPT)
def _roots(m: int) -> np.ndarray:
    """exp(2 pi i j / m) at index j, each evaluated by cmath exactly as a
    single term would be, so a sum that reads the table is bit identical
    to one that calls cmath.exp per term."""
    _check_table("roots of unity", m)
    return _read_only(np.array([cmath.exp(2j * math.pi * j / m) for j in range(m)]))


@lru_cache(maxsize=TABLES_KEPT)
def _char_values(p: int, k: int) -> np.ndarray:
    m = p - 1
    vals = np.exp(2j * np.pi * ((k * dlog_table(p)) % m) / m)
    vals[0] = 0.0
    return _read_only(vals)


def as_complex_vector(values, length: int | None = None) -> np.ndarray:
    """Validate and coerce to a finite 1-D complex vector."""
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidArgumentError("expected a nonempty 1-D vector")
    if length is not None and vec.size != length:
        raise InvalidArgumentError(f"expected length {length}, got {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise InvalidArgumentError("vector entries must be finite")
    return vec


# 2x2 matrices mod q are passed around as flat tuples (a, b, c, d) meaning
# the matrix [[a, b], [c, d]]: of ints, or of equal-length int64 arrays of
# residues with one matrix per position while q < 2^31.


def mat2_det(g, q: int) -> int:
    a, b, c, d = g
    return (a * d - b * c) % q


def mat2_mul(g, h, q: int):
    a, b, c, d = g
    e, f, i, j = h
    return ((a * e + b * i) % q, (a * f + b * j) % q,
            (c * e + d * i) % q, (c * f + d * j) % q)


def mat2_inv(g, q: int):
    """g^-1 mod q, for one matrix or entrywise over arrays."""
    det = mat2_det(g, q)
    if isinstance(det, np.ndarray):
        det_inv = _invert(det, q)
        singular = (det_inv < 0).any()
    else:
        det_inv = inv_mod(det, q)
        singular = det_inv is None
    if singular:
        raise InvalidArgumentError(f"matrix {g} is not invertible mod {q}")
    a, b, c, d = g
    return (d * det_inv % q, -b * det_inv % q, -c * det_inv % q, a * det_inv % q)


def divide(num: np.ndarray, den: np.ndarray, q: int) -> np.ndarray:
    """num / den mod q entrywise for residues den in [0, q), -1 where den is
    not a unit; overwrites num.

    An int64 num reads each inverse from `_inverse_table(q)` while q is at
    most TABLE_CAP, and beyond it inverts the distinct denominators by
    `_invert`.  An object num, for a q whose products overflow int64,
    inverts its distinct denominators with Python ints."""
    if num.dtype != object and q <= TABLE_CAP:
        inverses = _inverse_table(q)[den]
    else:
        distinct, where = np.unique(den.ravel(), return_inverse=True)
        if num.dtype == object:
            distinct = np.array([inv_mod(d, q) or -1 for d in distinct.tolist()],
                                dtype=object)
        else:
            distinct = _invert(distinct, q)
        inverses = distinct[where].reshape(num.shape)
    num *= inverses
    num %= q
    num[inverses < 0] = -1
    return num


def mobius(g, x: np.ndarray, q: int) -> np.ndarray:
    """(a x + b) / (c x + d) mod q at every residue of the array x, -1 where
    the denominator is not a unit (the image escapes to infinity)."""
    a, b, c, d = g
    return divide((a * x + b) % q, (c * x + d) % q, q)
