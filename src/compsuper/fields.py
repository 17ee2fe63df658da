"""Exact scalar arithmetic over Q, GF(p) and GF(p^k), k >= 2, for p^k
up to MAX_TABLE_ORDER.

Finite field elements are plain ints (codes 0..q-1), rationals are
`fractions.Fraction`; a Field object interprets the raw values.  All
operations are pure and exact; in GF(p^k) they are table lookups.

Besides the scalar operations, every field has three row kernels, which
`linalg` runs its row arithmetic on: `sub_scaled(v, c, w)` is v - c*w,
`add_scaled(v, c, w)` is v + c*w and `scaled(c, w)` is c*w, each entry
by entry as a new list, with v and w sequences of one length.  Each
gives exactly the list of the scalar loop, such as
`[sub(a, mul(c, b)) for a, b in zip(v, w)]`, in one pass per row:
- Q (and any field without its own) runs that scalar loop;
- GF(p) reduces each entry once, with one `% p`;
- GF(p^k) reads the product row `_mul[c]` and the sum table; for v - c*w
  it reads the row of -c, since -(c*b) = (-c)*b.
"""

import re
from fractions import Fraction
from math import isqrt


class FieldError(ValueError):
    pass


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


class InfiniteField(FieldError):
    pass


def _prime_power(q):
    """(p, k) with q = p^k for a prime p and k >= 1, or None; the trial
    division runs up to sqrt(q)."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 1
    while p**k < q:
        k += 1
    return (p, k) if p**k == q else None


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

    def sub_scaled(self, v, c, w):
        sub, mul = self.sub, self.mul
        return [sub(a, mul(c, b)) for a, b in zip(v, w)]

    def add_scaled(self, v, c, w):
        add, mul = self.add, self.mul
        return [add(a, mul(c, b)) for a, b in zip(v, w)]

    def scaled(self, c, w):
        mul = self.mul
        return [mul(c, b) for b in w]

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
        in GF(p^k) with k >= 2, the generator "x" and "^", as in "x^2+x+1".
        So `int()`'s other spellings, such as "1_0", non-ASCII digits and
        surrounding spaces, are refused."""
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
        if _prime_power(p) != (p, 1):
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

    def sub_scaled(self, v, c, w):
        p = self.p
        return [(a - c * b) % p for a, b in zip(v, w)]

    def add_scaled(self, v, c, w):
        p = self.p
        return [(a + c * b) % p for a, b in zip(v, w)]

    def scaled(self, c, w):
        p = self.p
        return [c * b % p for b in w]

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def fmt(self, a):
        return str(a)

    def _parse(self, s):
        return int(s) % self.p


class ExtensionField(Field):
    """GF(p^k) for k >= 2 as GF(p)[x]/(m), with m the first monic
    irreducible of degree k in the code order of its lower coefficients
    c_0 + c_1 p + ... + c_{k-1} p^(k-1): x^2+x+1 for GF(4), x^2+1 for
    GF(9), x^3+x+1 for GF(8), x^4+x+1 for GF(16), x^3+2x+1 for GF(27).
    The element a_0 + a_1 x + ... + a_{k-1} x^(k-1) is coded
    a_0 + a_1 p + ... + a_{k-1} p^(k-1); add, mul, neg and inv read
    tables built once.  GF(q) builds it for p prime and k >= 2."""

    spelling = Field.spelling | {"x", "^"}

    def __init__(self, p, k):
        q = p**k
        self.p, self.k = p, k
        self.char = p
        self.order = q
        self.name = f"GF({q})"
        self.zero = 0
        self.one = 1
        self._digits = digits = [[a // p**i % p for i in range(k)] for a in range(q)]

        def code(ds):
            return sum(d % p * p**i for i, d in enumerate(ds))

        self._add = add = [[code([s + t for s, t in zip(da, db)]) for db in digits]
                           for da in digits]
        scale = [[code([c * s for s in da]) for da in digits] for c in range(p)]
        self._neg = scale[p - 1]
        # The lower coefficients m of the modulus, in code order, until every
        # nonzero element has an inverse: a row of products without 1 is a
        # zero divisor, so x^k + m is reducible.
        for m in digits:
            # a*x: shift the digits up and replace x^k by -(m_0 + ... + m_{k-1} x^(k-1))
            xtimes = [code([s - da[-1] * c for s, c in zip([0, *da[:-1]], m)]) for da in digits]
            # a*b = b_0 a + x (a (b // p)), Horner's rule on the digits of b
            self._mul = [[0] * q]
            for a in range(1, q):
                row = [0]
                for b in range(1, q):
                    row.append(add[scale[b % p][a]][xtimes[row[b // p]]])
                if 1 not in row:
                    break
                self._mul.append(row)
            else:
                break
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

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

    def sub_scaled(self, v, c, w):
        add, row = self._add, self._mul[self._neg[c]]
        return [add[a][row[b]] for a, b in zip(v, w)]

    def add_scaled(self, v, c, w):
        add, row = self._add, self._mul[c]
        return [add[a][row[b]] for a, b in zip(v, w)]

    def scaled(self, c, w):
        row = self._mul[c]
        return [row[b] for b in w]

    from_int = PrimeField.from_int

    def elements(self):
        return range(self.order)

    def fmt(self, a):
        terms = []
        for e, c in reversed(list(enumerate(self._digits[a]))):
            if c:
                mono = "" if e == 0 else "x" if e == 1 else f"x^{e}"
                terms.append(mono if c == 1 and e else f"{c}{mono}")
        return "+".join(terms) or "0"

    # one term: a sign (required after the first term), digits, x or x^e
    _TERM = re.compile(r"([+-]?)([0-9]*)(x(?:\^([2-9]))?)?")

    def _parse(self, s):
        code, pos, top = 0, 0, self.k
        while True:
            m = self._TERM.match(s, pos)
            sign, coeff, mono, e = m.groups()
            deg = 0 if mono is None else int(e or 1)
            if not (coeff or mono) or (pos and not sign) or deg >= top:
                raise ValueError(f"{s!r} is not a sum of terms in falling degree below {self.k}")
            code += int(sign + (coeff or "1")) % self.p * self.p**deg
            pos, top = m.end(), deg
            if pos == len(s):
                return code


QQ = RationalField()
_CACHE = {}
# Orders from here up are refused before the prime-power test: trial
# division up to sqrt(q) stays under 46,341 steps below it.
MAX_ORDER = 2**31
# GF(p^k) with k >= 2 keeps q x q tables of sums and products; q = 256
# gives 2 x 65,536 entries, built in under a second.
MAX_TABLE_ORDER = 256


def GF(q):
    """GF(q) for q a prime below MAX_ORDER (a PrimeField), or a prime
    power p^k, k >= 2, up to MAX_TABLE_ORDER (an ExtensionField); raises
    FieldError for any other q."""
    if q in _CACHE:
        return _CACHE[q]
    if q >= MAX_ORDER:
        raise FieldError(f"field order {q} is too large: orders must be below {MAX_ORDER}")
    p, k = _prime_power(q) or (q, 0)
    if k == 0 or k > 1 and q > MAX_TABLE_ORDER:
        raise FieldError(f"GF({q}) is not supported: the order must be a prime, "
                         f"or a prime power up to {MAX_TABLE_ORDER}")
    _CACHE[q] = f = PrimeField(p) if k == 1 else ExtensionField(p, k)
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

