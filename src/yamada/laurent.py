"""Exact arithmetic for integer Laurent polynomials in one variable A.

LaurentPoly is the workhorse value type of the whole package: every graph
and diagram invariant lands in Z[A, A^-1], and edge replacement stays
there by clearing the denominators of the paper's rational substitutions.

All arithmetic is over the integers: division is one exact long-division
loop over Z that fails at the first coefficient the divisor's leading
coefficient does not divide, and the polynomial gcd is a primitive
polynomial remainder sequence.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Iterator

from .errors import YamadaError


class DivisionByZero(YamadaError):
    pass


class NonExactDivision(YamadaError):
    pass


class PoleAtZero(YamadaError):
    pass


class ParseError(YamadaError):
    pass


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as {exponent: coefficient} with no zero coefficients.  Instances
    are immutable by convention: every operation returns a new polynomial.

    >>> s = sigma()
    >>> print(s ** 2)
    A^2 + 2*A + 3 + 2*A^-1 + A^-2
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            c = data.get(e, 0) + c
            if c:
                data[e] = c
            elif e in data:
                del data[e]
        self.terms = data

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> LaurentPoly:
        return cls({0: c} if c else {})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        return cls({exp: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return max(self.terms)

    def span(self) -> int:
        """max_exp - min_exp; 0 for monomials and for the zero polynomial."""
        return 0 if not self.terms else max(self.terms) - min(self.terms)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.terms.items(), reverse=True))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + c
            if c:
                out[e] = c
            elif e in out:
                del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {e: c * other for e, c in self.terms.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        """self^n, with p^0 = 1 for every p (the zero polynomial too).

        A negative n is allowed only for a monomial with unit coefficient.
        A positive power is one integer power by Kronecker substitution
        (Harvey, JSC 2009): the dense coefficients c_i are packed into one
        Python int as sum c_i 2^(w i) (pack), that int is raised to the
        n-th power, and the coefficients of p^n are read back as its
        signed w-bit slots (signed_slots).  No coefficient of p^n exceeds
        B = (sum |c_i|)^n in modulus, so w is 8 times the number of bytes
        slot_width gives for B.
        """
        if not isinstance(n, int):
            raise ValueError("LaurentPoly powers must be integers")
        if n < 0:
            # only monomials with unit coefficient are invertible here
            if len(self.terms) == 1:
                (exp, coeff), = self.terms.items()
                if coeff in (1, -1):
                    return LaurentPoly.monomial(coeff if n % 2 else 1, exp * n)
            raise ValueError("negative power of a non-invertible Laurent polynomial")
        if n == 0:
            return LaurentPoly.one()
        if not self.terms:
            return LaurentPoly.zero()
        width = slot_width(sum(map(abs, self.terms.values())) ** n)
        lo = self.min_exp() * n
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {
            lo + j: c
            for j, c in enumerate(
                signed_slots(pack(self, width) ** n, width, self.span() * n + 1)
            )
            if c
        }
        return r

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by A^k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e + k: c for e, c in self.terms.items()}
        return r

    def mirror(self) -> LaurentPoly:
        """Substitute A -> A^-1."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {-e: c for e, c in self.terms.items()}
        return r

    def eval_complex(self, z: complex) -> complex:
        """Evaluate at a nonzero complex number (zero is fine if no negative
        exponents occur).  Horner on the shifted ordinary polynomial."""
        if not self.terms:
            return 0j
        lo = self.min_exp()
        if z == 0:
            if lo < 0:
                raise PoleAtZero("negative exponents cannot be evaluated at 0")
            return complex(self.terms.get(0, 0))
        hi = self.max_exp()
        acc = 0j
        for e in range(hi, lo - 1, -1):
            acc = acc * z + self.terms.get(e, 0)
        return acc * z ** lo

    def dense_coeffs(self) -> tuple[int, list[int]]:
        """Return (min_exp, coefficient list ascending) for the nonzero poly."""
        lo, hi = self.min_exp(), self.max_exp()
        return lo, [self.terms.get(e, 0) for e in range(lo, hi + 1)]

    def to_text(self, var: str = "A") -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = var if e == 1 else f"{var}^{e}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


_A = LaurentPoly({1: 1})


def variable() -> LaurentPoly:
    """The generator A."""
    return _A


def sigma() -> LaurentPoly:
    """The loop constant A + 1 + A^-1."""
    return LaurentPoly({1: 1, 0: 1, -1: 1})


def slot_width(bound: int) -> int:
    """Bytes per slot of a Kronecker-packed integer whose coefficients
    are at most bound in modulus: the least whole number w of bytes
    with 2^(8w - 1) > bound."""
    return bound.bit_length() // 8 + 1


def pack(p: LaurentPoly, width: int) -> int:
    """The coefficients c_j of p A^-lo, lo the least exponent of p, packed
    into one int as sum c_j 2^(8 width j), the inverse of signed_slots
    for slots of width bytes; 0 for the zero polynomial."""
    terms = p.terms
    if not terms:
        return 0
    shift = 8 * width
    packed = 0
    for e in range(max(terms), min(terms) - 1, -1):
        packed = (packed << shift) + terms.get(e, 0)
    return packed


def signed_slots(packed: int, width: int, slots: int) -> list[int]:
    """The coefficients c_j of packed = sum c_j 2^(8 width j), j below
    slots, each c_j at most 2^(8 width - 1) - 1 in modulus.  Adding
    2^(8 width - 1) to every slot makes each one a nonnegative number
    of width bytes, and the slots are then plain bytes of the sum."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (packed + offset).to_bytes(width * slots, "little")
    return [
        int.from_bytes(raw[j : j + width], "little") - half
        for j in range(0, width * slots, width)
    ]


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+)?(?:(?(coeff)\*)(?P<var>[A-Za-z]\w*)(?:\^(?P<exp>[+-]?\d+))?)?$"
)


def parse_poly(text: str, var: str = "A") -> LaurentPoly:
    """Parse the rendering produced by to_text, e.g. 'A^2 + 2*A - 3 + A^-2'.

    >>> parse_poly("A^2 + 2*A + 3 + 2*A^-1 + A^-2") == sigma() ** 2
    True
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # An exponent minus (as in A^-1) is part of the term, not a separator.
    s = s.replace("^-", "^~").replace("^+", "^")
    s = s.replace("-", "+-").replace(" ", "").replace("~", "-")
    chunks = [c for c in s.split("+") if c]
    terms: list[tuple[int, int]] = []
    for chunk in chunks:
        sign = 1
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"cannot parse term {chunk!r}")
        coeff = int(m.group("coeff") or 1)
        if m.group("var") is None:
            exp = 0
        else:
            if m.group("var") != var:
                raise ParseError(f"unexpected variable {m.group('var')!r}")
            exp = int(m.group("exp") or 1)
        terms.append((exp, sign * coeff))
    return LaurentPoly(terms)


def _divexact(num: list[int], den: list[int]) -> list[int] | None:
    """Quotient of dense ascending integer coefficient lists, or None when
    den (with a nonzero leading coefficient) does not divide num over Z.

    Stops at the first quotient coefficient that the leading coefficient
    does not divide; a nonzero remainder also gives None.
    """
    dn = len(den) - 1
    lead = den[-1]
    low = den[:-1]
    rem = list(num)
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if not c:
            continue
        f, r = divmod(c, lead)
        if r:
            return None
        quot[i - dn] = f
        for j, d in enumerate(low, i - dn):
            rem[j] -= f * d
    if any(rem[:dn]):
        return None
    return quot


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Divide p by q, requiring the quotient to be a Laurent polynomial
    over the integers.

    >>> s = sigma()
    >>> print(exact_div(s + (-s) ** 3, s + 1))
    -A^2 - A - 2 - A^-1 - A^-2
    """
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()
    plo, pc = p.dense_coeffs()
    qlo, qc = q.dense_coeffs()
    quot = _divexact(pc, qc)
    if quot is None:
        raise NonExactDivision(f"({p}) is not divisible by ({q})")
    base = plo - qlo
    return LaurentPoly({base + i: c for i, c in enumerate(quot) if c})


def compare_up_to_unit(p: LaurentPoly, q: LaurentPoly) -> int | None:
    """Return n with p == (-A)^n * q, or None when no such unit exists.

    Both zero compares as n = 0; exactly one zero gives None.
    """
    if p.is_zero() and q.is_zero():
        return 0
    if p.is_zero() or q.is_zero():
        return None
    n = p.min_exp() - q.min_exp()
    if p.max_exp() - q.max_exp() != n:
        return None
    sign = -1 if n % 2 else 1
    for e, c in q.terms.items():
        if p.terms.get(e + n) != sign * c:
            return None
    return n


def _primitive(coeffs: list[int]) -> list[int]:
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else list(coeffs)


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of c*a by b over Z for some nonzero integer c: each step
    scales the remainder by lead(b)/g and cancels its top coefficient t,
    with g = gcd(t, lead(b)).  Trailing zeros are trimmed."""
    db = len(b) - 1
    lead = b[-1]
    low = b[:-1]
    rem = list(a)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = gcd(c, lead)
        scale, f = lead // g, c // g
        if scale != 1:
            rem[:i] = [scale * x for x in rem[:i]]
        for j, d in enumerate(low, i - db):
            rem[j] -= f * d
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd over Q of two dense ascending integer coefficient lists (top
    entries nonzero), as the primitive polynomial with a positive leading
    coefficient; [] when both are empty.  Integer-only primitive PRS
    (Brown, JACM 1971; Knuth, TAOCP 4.6.1): every pseudo-remainder is
    divided by its content, so no rationals occur."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a
