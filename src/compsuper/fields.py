"""Exact scalar arithmetic over Q, GF(p) and GF(p^2) for small p.

Finite field elements are plain ints (codes 0..q-1), rationals are
`fractions.Fraction`; a Field object interprets the raw values.  All
operations are pure and exact, so exhaustive axiom checks over q <= 9
are cheap table lookups.
"""

import re
from fractions import Fraction


class FieldError(ValueError):
    pass


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


class InfiniteField(FieldError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Base class; subclasses operate on raw element values."""

    name = "?"
    char = 0
    order = None  # None means infinite
    spelling = frozenset("0123456789+-/")  # the characters an element string may use

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def elements(self):
        raise NotImplementedError

    def fmt(self, a):
        raise NotImplementedError

    def parse_elt(self, s):
        """Raw value of a string such as "2", "-1/2" or "2x+1", or of an int
        (read as a string of its digits).  Raises FieldError for any other
        type, bool included, and for a string that names no element.

        A string may use only `spelling`: ASCII digits, "+", "-", "/" and,
        in GF(p^2), the generator "x".  So `int()`'s other spellings, such
        as "1_0", non-ASCII digits and surrounding spaces, are refused."""
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise FieldError(f"{self.name} value must be a string or an integer, "
                             f"got {type(s).__name__} {s!r}")
        s = str(s)
        if not self.spelling.issuperset(s):
            raise FieldError(f"{s!r} is not an element of {self.name}")
        try:
            return self._parse(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"{s!r} is not an element of {self.name}") from exc

    def _parse(self, s):
        raise NotImplementedError

    def primitive_cube_root_raw(self):
        """Raw value of a primitive cube root of 1, or None."""
        if self.order is None:
            return None
        for a in self.elements():
            if a != self.one and self.mul(self.mul(a, a), a) == self.one:
                return a
        return None

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class RationalField(Field):
    name = "Q"
    char = 0
    order = None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def elements(self):
        raise InfiniteField("Q is not enumerable")

    def fmt(self, a):
        return str(Fraction(a))

    def _parse(self, s):
        return Fraction(s)


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def fmt(self, a):
        return str(a)

    def _parse(self, s):
        return int(s) % self.p


class QuadraticField(Field):
    """GF(p^2) as GF(p)[x]/(x^2 + c1*x + c0); element a+bx coded as a + b*p."""

    spelling = Field.spelling | {"x"}

    def __init__(self, p, modulus):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        c0, c1 = modulus
        c0 %= p
        c1 %= p
        for t in range(p):  # irreducibility by trial roots
            if (t * t + c1 * t + c0) % p == 0:
                raise FieldError(f"x^2+{c1}x+{c0} is reducible over GF({p})")
        self.p = p
        self.modulus = (c0, c1)
        self.char = p
        self.order = p * p
        self.name = f"GF({p * p})"
        self.zero = 0
        self.one = 1
        q = self.order
        self._add = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._mul_raw(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._neg_raw(a) for a in range(q)]
        inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv = inv

    def _split(self, a):
        return a % self.p, a // self.p

    def _join(self, a0, a1):
        return (a0 % self.p) + (a1 % self.p) * self.p

    def _add_raw(self, a, b):
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join(a0 + b0, a1 + b1)

    def _neg_raw(self, a):
        a0, a1 = self._split(a)
        return self._join(-a0, -a1)

    def _mul_raw(self, a, b):
        # (a0+a1 x)(b0+b1 x) with x^2 = -c1 x - c0
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        c0, c1 = self.modulus
        hi = a1 * b1
        return self._join(a0 * b0 - hi * c0, a0 * b1 + a1 * b0 - hi * c1)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self.name}")
        return self._inv[a]

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.order)

    def fmt(self, a):
        a0, a1 = self._split(a)
        if a1 == 0:
            return str(a0)
        xs = "x" if a1 == 1 else f"{a1}x"
        return xs if a0 == 0 else f"{xs}+{a0}"

    # a1 x + a0 spelled [+|-][digits]x[(+|-)digits]; without "x", an integer
    _TERMS = re.compile(r"([+-]?)([0-9]*)x([+-][0-9]+)?")

    def _parse(self, s):
        if "x" not in s:
            return int(s) % self.p
        m = self._TERMS.fullmatch(s)
        if m is None:
            raise ValueError(f"{s!r} is not of the form a1x+a0")
        sign, a1, a0 = m.groups()
        return self._join(int(a0 or 0), int(sign + (a1 or "1")))


QQ = RationalField()
_CACHE = {}
# Orders from here up are refused before the primality test: trial division
# up to sqrt(q) stays under 46,341 steps below it.
MAX_ORDER = 2**31


def GF(q):
    """GF(q) for q prime below MAX_ORDER, or the fixed models
    GF(4)=GF(2)[x]/(x^2+x+1), GF(9)=GF(3)[x]/(x^2+1)."""
    if q in _CACHE:
        return _CACHE[q]
    if q >= MAX_ORDER:
        raise FieldError(f"field order {q} is too large: orders must be below {MAX_ORDER}")
    if q == 4:
        f = QuadraticField(2, (1, 1))
    elif q == 9:
        f = QuadraticField(3, (1, 0))
    else:
        f = PrimeField(q)
    _CACHE[q] = f
    return f


def field_from_string(s):
    """Parse a field name: "Q", or "GF(q)" with q in ASCII digits, such as
    "GF(2)", "GF(3)", "GF(4)", "GF(9)"."""
    s = s.strip()
    if s == "Q":
        return QQ
    m = re.fullmatch(r"GF\(([0-9]+)\)", s)
    if m:
        return GF(int(m.group(1)))
    raise FieldError(f"unknown field {s!r}")

