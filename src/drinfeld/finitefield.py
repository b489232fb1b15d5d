"""Finite fields F_{p^n} presented as F_p[x]/(modulus), with embeddings.

Every field is immutable once built.  Moduli come from a deterministic
seeded search, so identical parameters reproduce identical fields with no
external tables.

An element is one int (Kronecker substitution).  A polynomial
c_0 + c_1 x + ... over F_p is the int sum of c_i 2^(w i), one w-bit slot
per coefficient.  For a field of degree n the slot width w is the least of
8, 16, 32, 64, ... bits with 2^w > n p^2.  A slot of the product of two
polynomials with at most n terms each is a sum of at most n products below
p^2, so one big-int product computes the whole convolution with no carry
between slots.  Normalizing takes every slot mod p: at p = 2 by one AND
with the low bit of every slot, otherwise with one-byte slots (w = 8, so
p < 16) through a 256-entry `bytes.translate` table, with wider ones word
by word through `struct`.  An element of F_p is its residue, which is also
its one slot, and normalizes by `% p`.  `FFElem.coeffs` reads the slots
back as a tuple.  Normalized ints compare as their encodings do (both
compare the top differing slot first), so int order is encoding order.

* A product in F_{p^n}, one big-int product c, or a sum of such products
  is reduced once (`FField._fold`); each product joins a sum normalized,
  so its slots stay below n p^2.  Byte slots (w = 8: every p = 2 field,
  and n p^2 < 256) use Barrett reduction, exact over F_p[x]:
  q = (c >> n w) mu >> (n - 2) w, mu = x^(2n-2) div the modulus, and the
  result is the low n slots of c - q f_low, f_low the modulus below x^n;
  at p = 2 each normalization is an inline AND.  Word slots (a normalization
  is two `struct` passes) add conv[n+k] times x^(n+k) mod f to conv[0:n].
* A sum, difference or negation is one int sum, normalized (p = 2: an AND).
* Frobenius a -> a^(p^i) is i squarings at p = 2; above, i applications
  of the F_p-linear map whose packed rows (x^j)^p a field builds on first
  use.
* A `KernelSpace` indexes the points of a kernel in encoding order
  without building them.
* The inverse runs Euclid on packed ints over F_p, or one `pow` in F_p;
  Ben-Or's test takes its gcds by remainders alone.  At p = 2 a step of
  either is one shift and one XOR.  The modulus search runs Ben-Or alone on
  each candidate and builds a field's tables only for the one that passes.
* Linear algebra over F_p (kernels, subfields, preimages, torsion bases
  and coordinates) is Gaussian elimination on packed columns, each an
  element int.

Polynomials over these fields in a second variable t are packed into the
same slots by `polykernel`, which keeps its tables on the field.
"""

from __future__ import annotations

import functools
import operator
import struct

from .errors import (BoundExceeded, DivisionByZero, FieldMismatch,
                     NoEmbedding, NotFound, NotPrime, Reducible)
from .intutil import _power, factorize, is_prime

FIELD_SIZE_LIMIT = 2 ** 40
SCAN_LIMIT = 2 ** 21  # cap for exhaustive element enumeration
# struct codes of little-endian unsigned words by size in bytes
_WORD_CODES = {2: "H", 4: "I", 8: "Q"}


@functools.lru_cache(maxsize=256)
def _words(code, count):
    """The compiled struct of `count` little-endian words of one code."""
    return struct.Struct(f"<{count}{code}")


# ---------------------------------------------------------------------------
# packed polynomials over F_p: c_0 + c_1 x + ... is the int sum c_i 2^(w i)

def _slot_width(bound):
    """The least of 8, 16, 32, ... bits w with 2^w > bound."""
    w = 8
    while 1 << w <= bound:
        w *= 2
    return w


def _width(p, n):
    """The slot width in bits: the least of 8, 16, 32, ... with 2^w > n p^2.

    Slots of 2, 4 or 8 bytes are read as words by `struct`; n >= 2
    and p^n <= 2^40 keep w <= 64 for every field above F_p.  An element of
    F_p is its one slot, so there only packing reads the width.
    """
    return _slot_width(n * p * p)


class _Slots:
    """Packing of coefficient vectors over F_p into ints with w-bit slots.

    An int is normalized when every slot lies in [0, p).  The packed
    polynomial functions below take and return normalized ints.
    """

    __slots__ = ("p", "w", "size", "table", "code", "ones", "reach")

    def __init__(self, p, w):
        self.p, self.w, self.size = p, w, w // 8
        self.table = None
        if w == 8:  # byte -> byte mod p, a period-p pattern
            self.table = (bytes(range(p)) * (256 // p + 1))[:256]
        self.code = _WORD_CODES.get(self.size)
        # p = 2: a slot mod 2 is its low bit; ones has the low bit of every
        # slot below `reach` bits, and grows on demand
        self.ones = self.reach = 0
        if p == 2:
            self._grow(64 * w)

    def pack(self, coeffs):
        """The int of coefficients in [0, p)."""
        if self.table is not None:
            return int.from_bytes(bytes(coeffs), "little")
        if self.code is not None:
            words = _words(self.code, len(coeffs)).pack(*coeffs)
            return int.from_bytes(words, "little")
        size = self.size
        return int.from_bytes(b"".join(c.to_bytes(size, "little")
                                       for c in coeffs), "little")

    def unpack(self, v, slots):
        """The first `slots` slots of v mod p: bytes if w = 8, else a list."""
        raw = v.to_bytes(slots * self.size, "little")
        if self.table is not None:
            return raw.translate(self.table)
        p = self.p
        if self.code is not None:
            return [c % p for c in _words(self.code, slots).unpack(raw)]
        size = self.size
        return [int.from_bytes(raw[i:i + size], "little") % p
                for i in range(0, len(raw), size)]

    def _grow(self, bits):
        slots = max(-(-bits // self.w), 2 * self.reach // self.w)
        self.reach = slots * self.w
        self.ones = ((1 << self.reach) - 1) // ((1 << self.w) - 1)

    def norm(self, v):
        """v with every slot taken mod p."""
        if self.ones:
            if v >> self.reach:
                self._grow(v.bit_length())
            return v & self.ones
        if self.table is not None:
            raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
            return int.from_bytes(raw.translate(self.table), "little")
        return self.pack(self.unpack(v, -(-v.bit_length() // self.w)))


@functools.lru_cache(maxsize=32)
def _slots(p, w):
    return _Slots(p, w)


def _pdivmod(a, b, k):
    """Quotient and remainder of a by b != 0, packed with slots k.

    Each step clears the top slot c of a: at p = 2 (slots 0 or 1) by XOR
    with b shifted under it, else by adding (-c/lc(b)) b mod p below it; a
    slot then gains at most deg b products below p^2, below 2^w if deg b <= n.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    p, w, q, db = k.p, k.w, 0, b.bit_length()
    if p == 2:
        while a.bit_length() >= db:
            s = a.bit_length() - db
            a, q = a ^ b << s, q | 1 << s
        return q, a
    top = (db - 1) // w * w
    inv = pow(b >> top, -1, p)
    low = b - (b >> top << top)
    for s in range((a.bit_length() - 1) // w * w, top - 1, -w):
        c = a >> s
        if c:
            a -= c << s
            f = c * inv % p
            if f:
                q |= f << (s - top)
                a += (p - f) * low << (s - top)
    return q, k.norm(a)


def _pmonic(a, k):
    """a divided by its leading coefficient (a != 0)."""
    return k.norm(a * pow(a >> (a.bit_length() - 1) // k.w * k.w, -1, k.p))


def _pgcd(a, b, k):
    """The monic gcd of a and b (0 when both are 0), by remainders alone."""
    p, w = k.p, k.w
    while b:
        db = b.bit_length()
        if p == 2:  # the last nonzero remainder is monic
            while a.bit_length() >= db:
                a ^= b << (a.bit_length() - db)
        else:  # `_pdivmod`'s steps, each at the top nonzero slot of a
            top = (db - 1) // w * w
            neg, low = p - pow(b >> top, -1, p), b - (b >> top << top)
            while a >> top:
                s = (a.bit_length() - 1) // w * w
                c = a >> s
                a += (c * neg % p * low << (s - top)) - (c << s)
            a = k.norm(a)
        a, b = b, a
    return _pmonic(a, k) if a and p != 2 else a


def _pmulmod(a, b, high, r, k):
    """a b mod x^n - r, for deg a, deg b < n = high / w and deg r < n.

    Folds the part above x^n down as (a >> high) r until none is left:
    one fold when deg r is small, as for the moduli the search tries.
    """
    a = k.norm(a * b)
    mask = (1 << high) - 1
    while a >> high:
        a = k.norm((a & mask) + (a >> high) * r)
    return a


def _pirreducible(f, p):
    """Ben-Or's test: gcd(x^(p^i) - x, f) = 1 for every i <= deg f / 2.

    f is a coefficient tuple over F_p, low to high, entries in [0, p).
    The factors x^(p^i) - x mod f are multiplied together and tested in
    blocks i = 1, 2, 3-4, 5-8, ...: f is coprime to a product exactly when
    it is coprime to each factor, small factors still end the test early,
    and an irreducible f of degree n takes about log2 n gcds, not n / 2.
    """
    n = len(f) - 1
    if n < 2:
        return n == 1 and f[-1] != 0
    k = _slots(p, _width(p, n))
    f = _pmonic(k.pack(f), k)
    high = k.w * n
    r = k.norm((p - 1) * (f - (1 << high)))  # x^n = r mod f
    mul = functools.partial(_pmulmod, high=high, r=r, k=k)
    x = h = 1 << k.w
    block, end = 1, 1
    for i in range(1, n // 2 + 1):
        h = _power(h, p, 1, mul)
        block = mul(block, k.norm(h + (p - 1) * x))
        if i == end or i == n // 2:
            if _pgcd(f, block, k) != 1:
                return False
            block, end = 1, 2 * end
    return True


def _reduce(col, tag, pivots, k):
    """col and its tag less c times each pivot and its tag, c = col's slot.

    Pivots come in order, each with a 1 in its slot and 0 in the slots of
    the pivots before it, so a step never refills an earlier pivot's slot.
    The slots are normalized once at the end: each step adds below p^2 to
    a slot, and there are at most n pivots in slots with 2^w > n p^2.
    """
    p, mask = k.p, (1 << k.w) - 1
    for shift, pcol, ptag in pivots:
        c = (col >> shift & mask) % p
        if c:
            col += (p - c) * pcol
            tag += (p - c) * ptag
    return k.norm(col), k.norm(tag)


def _eliminate(cols, k, pivots=()):
    """Gaussian elimination over F_p on packed columns: (pivots, kernel).

    Column j starts with the tag x^j, and every step applies to both, so
    a column is always the sum of the input columns its tag names.  A
    column that reduces to 0 gives its tag as a kernel vector.  The tags
    of pivots name only pivot columns, so that vector is 1 on its own
    column and 0 on every other non-pivot column: the kernel basis of the
    reduced row echelon form, in column order.  Given earlier pivots, the
    elimination continues from them, numbering the new columns after theirs.
    """
    pivots, kernel = list(pivots), []
    for j, col in enumerate(cols, len(pivots)):
        col, tag = _reduce(col, 1 << k.w * j, pivots, k)
        if not col:
            kernel.append(tag)
            continue
        shift = ((col & -col).bit_length() - 1) // k.w * k.w
        inv = pow(col >> shift & (1 << k.w) - 1, -1, k.p)
        pivots.append((shift, k.norm(col * inv), k.norm(tag * inv)))
    return pivots, kernel


def _solve(v, pivots, k):
    """The tag of the input columns that sum to v, or None if v is not in
    their span."""
    # v + sum tag_i col_i reduces to 0 exactly when v = sum -tag_i col_i
    rest, tag = _reduce(v, 0, pivots, k)
    return None if rest else k.norm((k.p - 1) * tag)


def _check_size(p, n):
    """Raise BoundExceeded when F_{p^n} has more than 2^40 elements."""
    # p >= 2, so any n above 40 exceeds 2^40 without computing p^n
    if n > 40 or p ** n > FIELD_SIZE_LIMIT:
        raise BoundExceeded(f"F_{p}^{n} has more than 2^40 elements")


# ---------------------------------------------------------------------------

class FField:
    """The finite field with p**n elements."""

    __slots__ = ("p", "n", "modulus", "size", "_slots", "_norm", "_red",
                 "_barrett", "_frob", "_kernels")

    def __init__(self, p, n, modulus):
        modulus = tuple(modulus)
        if not all(isinstance(v, int) for v in (p, n) + modulus):
            raise TypeError("field parameters must be integers")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = list(c % p for c in modulus)
        while modulus and not modulus[-1]:
            modulus.pop()
        modulus = tuple(modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        _check_size(p, n)
        if not _pirreducible(modulus, p):
            raise Reducible("modulus is reducible")
        self._build(p, n, modulus)

    @classmethod
    def _of_irreducible(cls, p, n, modulus):
        """The field of a monic modulus over F_p already found irreducible."""
        field = object.__new__(cls)
        field._build(p, n, modulus)
        return field

    def _build(self, p, n, modulus):
        self.p = p
        self.n = n
        self.modulus = modulus
        self.size = p ** n
        self._slots = k = _slots(p, _width(p, n))
        # F_p normalizes by % p; at p = 2 (w = 8) a product or a sum of them,
        # 2n - 1 slots, by one AND with the low bit of every slot
        ones = int.from_bytes(b"\x01" * (2 * n - 1), "little") if p == 2 else 0
        self._norm = p.__rmod__ if n == 1 else ones.__and__ if ones else k.norm
        # reduction table: x^(n+j) mod modulus for j < n - 1, packed;
        # x^n = -(low part), and each next row is x times the last
        high = k.w * n
        red = []
        for _ in range(n - 1):
            if red:
                row = red[-1] << k.w
                c = row >> high
                row = k.norm(row - (c << high) + c * red[0])
            else:
                row = k.norm((p - 1) * k.pack(modulus[:-1]))
            red.append(row)
        self._red = tuple(red)
        # byte slots multiply by Barrett reduction: mu = x^(2n-2) div the
        # modulus, the modulus's low part, and the shifts and masks it uses
        self._barrett = None
        if k.w == 8 and n > 1:
            mu = _pdivmod(1 << k.w * (2 * n - 2), k.pack(modulus), k)[0]
            low = k.norm((p - 1) * k.pack(modulus[:-1]))
            self._barrett = (mu, low, high, high - 2 * k.w,
                             (1 << high) - 1 & (ones or -1), ones)
        self._frob = None
        self._kernels = {}  # slot width -> polykernel.PolyKernel over it

    # -- arithmetic on element ints ------------------------------------------

    # Every slot of a sum, difference or negation stays below p^2 < 2^w.

    def _add(self, a, b):
        return self._norm(a + b)

    def _sub(self, a, b):
        return self._norm(a + (self.p - 1) * b)

    def _neg(self, a):
        return self._norm((self.p - 1) * a)

    def _mul(self, a, b):
        return a * b % self.p if self.n == 1 else self._fold(a * b)

    def _fold(self, c):
        """The element int of c, a product or sum of products (slots < 2^w)."""
        if self._barrett:
            mu, low, high, shift, mask, ones = self._barrett
            if ones:  # p = 2: every normalization is an inline AND
                c &= ones
                q = (c >> high) * mu >> shift & ones
                return (c ^ q * low) & mask
            norm = self._slots.norm
            c = norm(c)
            q = norm((c >> high) * mu >> shift)
            return norm((c + q * low) & mask)
        if self.n == 1:
            return c % self.p
        k, n = self._slots, self.n
        conv = k.unpack(c, 2 * n - 1)
        acc = k.pack(conv[:n])
        for d, row in zip(conv[n:], self._red):
            if d:
                acc += d * row
        return k.norm(acc)

    def _frobenius(self, a, i):
        """a^(p^i) for 0 <= i < n: i squarings at p = 2, otherwise i
        applications of the cached map."""
        if self.p == 2:
            for _ in range(i):
                a = self._fold(a * a)
            return a
        if not i:
            return a
        k, n = self._slots, self.n
        rows = self._frob
        if rows is None:
            # row j is (x^j)^p = (x^p)^j
            xp = _power(1 << k.w, self.p, None, self._mul)
            rows = [1]
            for _ in range(n - 1):
                rows.append(self._mul(rows[-1], xp))
            self._frob = rows = tuple(rows)
        for _ in range(i):
            acc = 0
            for c, row in zip(k.unpack(a, n), rows):
                if c:
                    acc += c * row
            a = k.norm(acc)
        return a

    def _digits(self, a):
        """The coefficients over F_p of the element int a, low degree first."""
        return (a,) if self.n == 1 else self._slots.unpack(a, self.n)

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        p = self.p
        if self.n == 1:
            return pow(a, -1, p)
        # extended Euclid on packed polynomials: s_i a = r_i mod modulus.
        # As in `_pgcd`, each step clears the top nonzero slot of r0 with
        # f x^j r1 and adds f x^j s1 to s0, so no quotient is built; a
        # division takes at most n steps, each adding below p^2 to a slot
        k = self._slots
        w = k.w
        r0, r1 = k.pack(self.modulus), a
        s0, s1 = 0, 1
        while r1:
            db = r1.bit_length()
            if p == 2:
                while r0.bit_length() >= db:
                    j = r0.bit_length() - db
                    r0, s0 = r0 ^ r1 << j, s0 ^ s1 << j
            else:
                top = (db - 1) // w * w
                neg, low = p - pow(r1 >> top, -1, p), r1 - (r1 >> top << top)
                while r0 >> top:
                    j = (r0.bit_length() - 1) // w * w
                    c = r0 >> j
                    f = c * neg % p
                    r0 += (f * low << (j - top)) - (c << j)
                    s0 += f * s1 << (j - top)
                r0, s0 = k.norm(r0), k.norm(s0)
            r0, r1, s0, s1 = r1, r0, s1, s0
        if r0 >> w:
            raise Reducible("element shares a factor with the modulus")
        return k.norm(s0 * pow(r0, -1, p))

    # -- element construction -------------------------------------------------

    def element(self, coeffs) -> "FFElem":
        if isinstance(coeffs, FFElem):
            if coeffs.field != self:
                raise FieldMismatch("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            return FFElem(self, coeffs % self.p)
        vec = list(coeffs)
        if not all(isinstance(c, int) for c in vec):
            raise TypeError(f"coefficients must be integers: {coeffs!r}")
        p, n = self.p, self.n
        for i in range(n, len(vec)):
            if vec[i] % p:
                raise ValueError(f"nonzero coefficient of x^{i} in an element "
                                 f"of F_{p}^{n} (degree below {n})")
        return FFElem(self, self._slots.pack([c % p for c in vec[:n]]))

    @property
    def zero(self):
        return FFElem(self, 0)

    @property
    def one(self):
        return FFElem(self, 1)

    @property
    def gen(self):
        """The class of x, i.e. a root of the modulus."""
        if self.n == 1:
            return self.element(-self.modulus[0])
        return FFElem(self, 1 << self._slots.w)

    def from_encoding(self, k: int) -> "FFElem":
        digits = []
        for _ in range(self.n):
            digits.append(k % self.p)
            k //= self.p
        return FFElem(self, self._slots.pack(digits))

    def elements(self):
        """All elements in encoding order.  Guarded by the scan limit."""
        if self.size > SCAN_LIMIT:
            raise BoundExceeded(f"field too large to enumerate ({self.size})")
        for k in range(self.size):
            yield self.from_encoding(k)

    def kernel(self, images):
        """A basis of the F_p-kernel of the map x^j -> images[j] (element
        ints), as element ints: the reduced row echelon basis."""
        return _eliminate(images, self._slots)[1]

    def subfield_elements(self, m: int):
        """The subfield with p**m elements, in encoding order."""
        if self.n % m:
            raise NoEmbedding(f"no subfield of degree {m} in degree {self.n}")
        if self.p ** m > SCAN_LIMIT:
            raise BoundExceeded("subfield too large to enumerate")
        # the subfield is the kernel of Frob^m - 1, which sends x^j to
        # g^j - x^j
        g = self._frobenius(self.gen.v, m % self.n)
        cols, gj = [], 1
        for j in range(self.n):
            cols.append(self._sub(gj, 1 << self._slots.w * j))
            gj = self._mul(gj, g)
        basis = self.kernel(cols)
        if len(basis) != m:
            raise NoEmbedding(f"fixed space of Frob^{m} has dimension "
                              f"{len(basis)}, not {m}")
        return KernelSpace(self, basis)

    # -- misc -----------------------------------------------------------------

    def to_dict(self):
        mod = list(self.modulus) + [0] * (self.n + 1 - len(self.modulus))
        return {"p": self.p, "n": self.n, "modulus": mod}

    @classmethod
    def from_dict(cls, d):
        return cls(d["p"], d["n"], tuple(d["modulus"]))

    def __eq__(self, other):
        return (isinstance(other, FField)
                and (self.p, self.n, self.modulus)
                == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FField(p={self.p}, n={self.n})"


class KernelSpace:
    """The F_p-span of a kernel basis from `_eliminate`, in encoding order.

    That basis is in reduced echelon form by top slot: b_i is 1 at its top
    slot, the other b_j are 0 there, and the top slots ascend.  So the k-th
    point is sum c_i b_i, c_i the base-p digits of k, c_0 lowest: two
    points first differ at the top slot of the highest b_i whose digits
    differ, and hold those digits there.  No point is stored; iteration
    and `random.choice` go through `__len__` and `__getitem__`.
    """

    __slots__ = ("field", "basis")

    def __init__(self, field, basis):
        self.field = field
        self.basis = tuple(FFElem(field, v) for v in basis)

    @property
    def dim(self):
        return len(self.basis)

    def __len__(self):
        return self.field.p ** len(self.basis)

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError("point index out of range")
        p, acc = self.field.p, 0
        for b in self.basis:  # a slot sums dim <= n products below p^2
            k, c = divmod(k, p)
            acc += c * b.v
        return FFElem(self.field, self.field._norm(acc))


class FFElem:
    """An element of an FField, immutable.

    v is the element's int: the residue in F_p, and above F_p the field's
    w-bit slots, one coefficient over F_p per slot, low degree first.
    """

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    @property
    def coeffs(self):
        """The coefficients over F_p, low degree first, as a tuple."""
        return tuple(self.field._digits(self.v))

    def _check(self, other):
        """other as an element of this field, or NotImplemented."""
        if isinstance(other, FFElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, list, tuple)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._add(self.v, other.v))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._sub(self.v, other.v))

    def __rsub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return FFElem(self.field, self.field._neg(self.v))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return FFElem(self.field, self.field._mul(self.v, other.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else other / self

    def inverse(self):
        return FFElem(self.field, self.field._inv(self.v))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, self.field.one, operator.mul)

    def p_power(self, i: int):
        """Frobenius power x -> x^(p^i)."""
        field = self.field
        return FFElem(field, field._frobenius(self.v, i % field.n))

    def conjugates(self, i: int = 1):
        """The distinct x, x^(p^i), x^(p^(2i)), ... before x comes back."""
        orbit, c = [self], self.p_power(i)
        while c.v != self.v:
            orbit.append(c)
            c = c.p_power(i)
        return orbit

    def p_root(self, i: int):
        """Unique p^i-th root (the field is perfect)."""
        n = self.field.n
        return self.p_power((-i) % n)

    def encode(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        # what +, - and * accept; a list naming no element is unequal
        if isinstance(other, (int, list, tuple)):
            try:
                other = self.field.element(other)
            except (TypeError, ValueError):
                return False
        return (isinstance(other, FFElem) and other.field == self.field
                and other.v == self.v)

    def __hash__(self):
        return hash((self.v, self.field.p, self.field.n))

    def to_list(self):
        return list(self.coeffs)

    def __repr__(self):
        if self.field.n == 1:
            return str(self.v)
        return str(list(self.coeffs))


# ---------------------------------------------------------------------------
# constructors, embeddings

def ff_make(p: int, n: int, seed: int = 0) -> FField:
    """The field F_{p^n} with a deterministically chosen modulus.

    The seed offsets the start of the search, so distinct seeds may pick
    distinct moduli while the same (p, n, seed) always reproduces the same
    field.
    """
    return _field(p, n, seed)


@functools.lru_cache(maxsize=256)  # each field holds its packed tables
def _field(p, n, seed):
    """ff_make's search; a bad (p, n) raises on every call, uncached."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
    _check_size(p, n)
    span = p ** n
    for j in range(span):
        digits, k = [], (seed + j) % span
        while k:
            digits.append(k % p)
            k //= p
        digits += [0] * (n - len(digits))
        # above degree 1, a root 0, 1 or -1 makes the candidate reducible
        if n > 1 and (not digits[0] or (sum(digits) + 1) % p == 0
                      or (sum(digits[::2]) - sum(digits[1::2])
                          + (-1) ** n) % p == 0):
            continue
        modulus = tuple(digits) + (1,)
        if _pirreducible(modulus, p):
            return FField._of_irreducible(p, n, modulus)
    raise NotFound(span)  # pragma: no cover - irreducibles always exist


class FieldEmbedding:
    """Ring embedding of one finite field into another, fixed on F_p."""

    __slots__ = ("sub", "sup", "gen_image", "_powers", "_pivots")

    def __init__(self, sub, sup, gen_image):
        self.sub = sub
        self.sup = sup
        self.gen_image = gen_image
        powers = [sup.one]
        for _ in range(1, sub.n):
            powers.append(powers[-1] * gen_image)
        self._powers = tuple(powers)
        self._pivots = None  # of the powers, on the first preimage

    def __call__(self, elem: FFElem) -> FFElem:
        if elem.field != self.sub:
            raise FieldMismatch("element not in the source field")
        return FFElem(self.sup, self._image(elem.v))

    def _image(self, a):
        """The element int of the image of sub's element int a."""
        # one sum of c_i w_i over the packed powers, normalized once: its
        # slots stay below sub.n p^2 < 2^w
        acc = 0
        for c, w in zip(self.sub._digits(a), self._powers):
            if c:
                acc += c * w.v
        return self.sup._norm(acc)

    def preimage(self, elem: FFElem):
        """The element of sub mapping to elem, or None if elem is not an image."""
        if elem.field != self.sup:
            return None
        k = self.sup._slots
        if self._pivots is None:
            self._pivots = _eliminate([w.v for w in self._powers], k)[0]
        tag = _solve(elem.v, self._pivots, k)
        if tag is None:
            return None
        return self.sub.element(list(k.unpack(tag, self.sub.n)))

    def __repr__(self):
        return f"FieldEmbedding({self.sub!r} -> {self.sup!r})"


def ff_embed(sub: FField, sup: FField) -> FieldEmbedding:
    """The embedding sending sub's generator to the least root of its modulus."""
    if sub.p != sup.p or sup.n % sub.n != 0:
        raise NoEmbedding(f"no embedding F_{sub.p}^{sub.n} -> F_{sup.p}^{sup.n}")
    return _embedding(sub, sup)


@functools.lru_cache(maxsize=256)  # each embedding holds its powers
def _embedding(sub, sup):
    if sub == sup:
        return FieldEmbedding(sub, sup, sup.gen)
    if sub.n == 1:  # the root of x - c is c
        return FieldEmbedding(sub, sup, sup.element(sub.gen.v))
    for z in sup.subfield_elements(sub.n):
        acc = sup.zero
        for c in reversed(sub.modulus):
            acc = acc * z + c
        if not acc:
            return FieldEmbedding(sub, sup, z)
    raise NoEmbedding("no root in the subfield")  # pragma: no cover


def ff_generator(field: FField) -> FFElem:
    """The generator of the multiplicative group with the least encoding."""
    target = field.size - 1
    primes = list(factorize(target))
    # above F_p, skip the prime-field constants: their orders divide p - 1
    for k in range(field.p if field.n > 1 else 1, field.size):
        g = field.from_encoding(k)
        if all(g ** (target // q) != field.one for q in primes):
            return g
    raise NotFound(field.size)  # pragma: no cover


def extension_of(field: FField, m: int, seed: int = 0):
    """Degree-m extension together with the embedding of `field` into it."""
    if m == 1:
        return field, ff_embed(field, field)
    ext = ff_make(field.p, field.n * m, seed)
    return ext, ff_embed(field, ext)
