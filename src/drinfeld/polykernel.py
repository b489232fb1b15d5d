"""Packed polynomials over a finite field F = F_{p^e} in a variable t.

A polynomial is one int, one block of 2e - 1 slots per t-coefficient,
in the slots of `finitefield` (`PolyKernel`).  Coefficients come and go
as element ints, the `vs` that `upoly.DensePoly` stores: a block starts
with the element's e slots, re-slotted through its digits only where the
kernel's slot width differs from the field's.  A product in F[t] is one
big-int product, one normalization and e - 1 vectorized folds of x^(e+k)
down by the field's reduction rows, one per column of slots.  The slot
width follows the field's rule with the bound the operands imply,
n e (p - 1)^2 + p - 1 for n summed products, so every p goes through the
one kernel.  For a fixed modulus f in F[t], a `ResidueRing` keeps the
packed rows t^(deg f + i) mod f and multiplies residues as canonical
ints.  `UPoly`'s product, division and powering, and the motive's
splitting walk, run on these.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .finitefield import _pdivmod, _slot_width, _slots


def poly_kernel(field, n):
    """The packed kernel for F[t] with room for n sums per slot.

    A slot then holds (p - 1) + n e (p - 1)^2: n e products of residues
    mod p and one residue, e = [F : F_p].  The kernels live on the field.
    """
    p = field.p
    w = _slot_width(p - 1 + n * field.n * (p - 1) ** 2)
    kernel = field._kernels.get(w)
    if kernel is None:
        kernel = field._kernels[w] = PolyKernel(field, w)
    return kernel


class PolyKernel:
    """Packed polynomials in t over a field F_{p^e}, w-bit slots.

    c_0 + c_1 t + ... is one int whose block i, B = 2e - 1 slots wide,
    holds c_i packed in its first e slots.  The product of two blocks has
    degree at most 2e - 2 in x, so a product of polynomials is one big-int
    product with no carry between blocks (Kronecker substitution in x and
    in t), as long as every slot sum stays below 2^w: the kernel that
    `poly_kernel` hands out for n has room for n e products below p^2 and
    one residue per slot.  An int is canonical when every slot lies in
    [0, p) and slots e..B-1 of every block are 0.
    """

    __slots__ = ("field", "k", "e", "B", "bits", "pad", "rows", "fold")

    def __init__(self, field, w):
        p, e = field.p, field.n
        B = 2 * e - 1
        self.field, self.e, self.B = field, e, B
        self.k = k = _slots(p, w)
        self.bits = B * w
        self.pad = (0,) * (e - 1)
        # x^(e+j) mod the modulus, j < e - 1, as coefficients over F_p
        red = [field._slots.unpack(row, e) for row in field._red]
        # row j plus (p - 1) x^(e+j): a slot c at x^(e+j) plus c times
        # row j is c p = 0 there, mod p
        self.rows = tuple(k.pack(row) + ((p - 1) << w * (e + j))
                          for j, row in enumerate(red))
        # the reduction of one block, transposed: the product of a block
        # c_0 .. c_(B-1) with fold holds sum_j c_j (x^j mod the modulus)[s]
        # in slot B - 1 + s (2B - 1); a slot sums B products below p^2
        span = 2 * B - 1
        fold = [0] * (e * span)
        for j, col in enumerate([(0,) * j + (1,) for j in range(e)] + red):
            for i, c in enumerate(col):
                fold[B - 1 - j + i * span] = c
        self.fold = k.pack(fold)

    def pack(self, elems):
        """The canonical int of field elements, given as element ints."""
        if self.e == 1:  # an element of F_p is its slot
            return self.k.pack(elems)
        slots = self.field._slots
        if slots.w == self.k.w:  # an element's int is its block's first slots
            size = self.bits // 8
            return int.from_bytes(b"".join(v.to_bytes(size, "little")
                                           for v in elems), "little")
        digits = []
        for v in elems:
            digits += slots.unpack(v, self.e)
            digits += self.pad
        return self.k.pack(digits)

    def unpack(self, v, count):
        """The first `count` coefficients of v as element ints.

        v must have slots e..B-1 of every block 0 mod p: canonical, or
        folded by `_fold`.
        """
        k, e = self.k, self.e
        if e == 1:
            return list(k.unpack(v, count))
        slots = self.field._slots
        if slots.w == k.w:  # a block's first e slots are the element's int
            step = self.bits // 8
            raw = k.norm(v).to_bytes(count * step, "little")
            size = e * k.size
            return [int.from_bytes(raw[i:i + size], "little")
                    for i in range(0, len(raw), step)]
        raw = k.unpack(v, count * self.B)
        return [slots.pack(raw[i:i + e]) for i in range(0, len(raw), self.B)]

    def _fold(self, v, count):
        """v, of `count` blocks, with x^(e+j) folded down mod the modulus.

        The result is congruent to v, and its slots e..B-1 are 0 mod p.
        """
        if not self.rows:
            return v
        k, B = self.k, self.B
        conv = k.unpack(v, count * B)
        acc = k.pack(conv)
        # column j of every block, moved to the block's first slot
        spread = bytearray(len(conv)) if k.table is not None else \
            [0] * len(conv)
        for j, row in enumerate(self.rows, self.e):
            spread[::B] = conv[j::B]
            acc += k.pack(spread) * row
        return acc

    def reduce(self, v, count):
        """The canonical int congruent to v, of `count` blocks."""
        return self.k.norm(self._fold(v, count))

    def product(self, a, b):
        """The coefficients of the product of two nonempty lists."""
        count = len(a) + len(b) - 1
        if count == 1:
            return [self.field._mul(a[0], b[0])]
        return self.unpack(self._fold(self.pack(a) * self.pack(b), count),
                           count)

    def divmod(self, a, b, inv=None):
        """Quotient and remainder coefficients, len(a) >= len(b), b[-1] != 0.

        inv is the element int of 1/b[-1], or None when b is monic.  The
        kernel needs room for max(deg b, 2) sums.  Long division from the
        top: the raw top block, reduced and times inv, is the next quotient
        coefficient c; the block is cleared exactly, and -c times the rest
        of b is added below it, so a slot gains at most deg b products
        below p^2.
        """
        db = len(b) - 1
        if not db:
            return (a if inv is None else self.product([inv], a)), []
        if self.e == 1:
            q, r = _pdivmod(self.pack(a), self.pack(b), self.k)
            return self.unpack(q, len(a) - db), self.unpack(r, db)
        block, bits = self._block, self.bits
        scale = None if inv is None else self.pack([inv])
        # -b[0], ..., -b[db - 1], packed: each slot times p - 1, mod p
        low = self.k.norm((self.k.p - 1) * self.pack(b[:-1]))
        rem, quot = self.pack(a), 0
        for s in range(len(a) - 1 - db, -1, -1):
            pos = (s + db) * bits
            top = rem >> pos
            rem ^= top << pos
            c = block(top)
            if c:
                if scale is not None:
                    c = block(c * scale)
                quot |= c << s * bits
                rem += c * low << s * bits
        return (self.unpack(quot, len(a) - db),
                self.unpack(self._fold(rem, db), db))

    def _block(self, v):
        """The canonical block congruent to one raw block v, by `fold`."""
        k, B = self.k, self.B
        span = 2 * B - 1
        conv = k.unpack(k.norm(v) * self.fold, self.e * span)
        return k.pack(conv[B - 1::span])


class ResidueRing:
    """F[t]/(f) over a field F, for f of degree D >= 1, on canonical ints.

    A residue is the canonical int of its D coefficients.  The ring
    keeps the packed rows t^(D+i) mod f, i < D, and folds block D + i of a
    canonical int down as its coefficient times row i.  Its kernel has
    room for sums of `terms` products of residues.
    """

    __slots__ = ("kernel", "D", "rows")

    def __init__(self, field, modulus, terms=1):
        """modulus: the element ints of f, low to high, f[-1] != 0."""
        D = len(modulus) - 1
        if D < 1:
            raise DivisionByZero("a residue ring needs a modulus of degree "
                                 ">= 1")
        self.D = D
        self.kernel = K = poly_kernel(field, terms * D)
        # t^D = -f_low / lead; each next row is t times the last, folded
        scale = field._neg(field._inv(modulus[-1]))
        rows = [K.reduce(K.pack((scale,)) * K.pack(modulus[:-1]), D)]
        top = (D - 1) * K.bits
        for _ in range(D - 1):
            row = rows[-1]
            c = row >> top
            rows.append(K.reduce(((row ^ c << top) << K.bits) + c * rows[0],
                                 D))
        self.rows = tuple(rows)

    def reduce(self, v, count):
        """The residue of v, of at most `count` <= 2D blocks.

        v is a raw sum of at most `terms` products of residues
        (count = 2D - 1), or a polynomial with slots in [0, p).
        """
        K, D = self.kernel, self.D
        v = K.reduce(v, count)
        if count <= D:
            return v
        size = K.bits // 8
        raw = v.to_bytes(count * size, "little")
        acc = int.from_bytes(raw[:D * size], "little")
        width = K.e * K.k.size
        for start, row in zip(range(D * size, count * size, size), self.rows):
            c = int.from_bytes(raw[start:start + width], "little")
            if c:
                acc += c * row
        return K.reduce(acc, D)

    def mulmod(self, a, b):
        return self.reduce(a * b, 2 * self.D - 1)

    def pack(self, elems):
        """The residue of the polynomial with these element ints.

        From the top, D blocks at a time: the residue so far, times t^k,
        plus the next k <= D coefficients has at most 2D blocks.
        """
        K, D = self.kernel, self.D
        top = max(len(elems) - D, 0)
        acc = K.pack(elems[top:])
        while top:
            low = max(top - D, 0)
            acc = self.reduce((acc << (top - low) * K.bits)
                              + K.pack(elems[low:top]), D + top - low)
            top = low
        return acc

    def unpack(self, v):
        """The D coefficients of a residue, as element ints."""
        return self.kernel.unpack(v, self.D)
