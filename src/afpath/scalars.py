"""Exact Gaussian-rational scalars.

Everything in this package is computed over Q(i): complex numbers whose
real and imaginary parts are arbitrary-precision rationals.  Identities are
checked with exact equality -- there is no tolerance anywhere, so the scalar
type never touches floats.
"""

from fractions import Fraction

_F0 = Fraction(0)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an int or Fraction, got %s" % type(x).__name__)


class Scalar:
    """A Gaussian rational ``re + im*i``, immutable by convention."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def _of(cls, re, im):
        # Internal fast constructor: both arguments are already Fractions.
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    def __add__(self, other):
        if isinstance(other, Scalar):
            return Scalar._of(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return Scalar._of(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return Scalar._of(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return Scalar._of(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar._of(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return Scalar._of(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if self.im or other.im:
                return Scalar._of(
                    self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re,
                )
            return Scalar._of(self.re * other.re, _F0)
        if isinstance(other, (int, Fraction)):
            return Scalar._of(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self):
        if not self.im:
            return self
        return Scalar._of(self.re, -self.im)

    def abs_sq(self):
        """Squared modulus re^2 + im^2, as a Fraction."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # A real Scalar equals its real part, so it must hash like it too.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "Scalar(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (self.re, sign, abs(self.im))

    def to_report(self):
        """Canonical report form ``a/b+c/d*i`` (denominators always shown)."""
        return "%d/%d+%d/%d*i" % (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )


# The types a table can be scaled by.
SCALAR_TYPES = (int, Fraction, Scalar)


def as_scalar(x):
    """Promote an int or Fraction to a Scalar; pass Scalars through."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar._of(_as_fraction(x), _F0)
    raise TypeError("cannot interpret %r as a scalar" % (x,))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
