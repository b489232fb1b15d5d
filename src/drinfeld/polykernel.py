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
one kernel.  Every remainder mod a polynomial of F[t] is one long
division (`PolyKernel.divide`): `UPoly`'s division and powering, Ben-Or's
test and the motive's splitting walk all run on it.
"""

from __future__ import annotations

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

    __slots__ = ("field", "k", "e", "B", "bits", "pad", "rows")

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

    def product(self, a, b):
        """The coefficients of the product of two nonempty lists."""
        count = len(a) + len(b) - 1
        if count == 1:
            return [self.field._mul(a[0], b[0])]
        return self.unpack(self._fold(self.pack(a) * self.pack(b), count),
                           count)

    def divisor(self, b, inv=None):
        """b, b[-1] != 0, prepared once for `divide`.

        inv is the element int of 1/b[-1], or None when b is monic.  The
        tuple holds deg b, packed b, packed -b[0], ..., -b[deg b - 1] (each
        slot times p - 1, mod p; None at e = 1, where `_pdivmod` divides)
        and inv.
        """
        k = self.k
        low = None if self.e == 1 else k.norm((k.p - 1) * self.pack(b[:-1]))
        return len(b) - 1, self.pack(b), low, inv

    def divide(self, v, divisor):
        """The packed quotient and canonical remainder of v by a divisor.

        v is canonical or a raw sum of products, with room left for
        deg b more sums per slot: long division adds at most deg b products
        below p^2 to a slot.  At e = 1 it is `_pdivmod`.  Above, from the
        top, the raw top block reduced by `FField._fold` (Barrett or rows),
        times inv, is the next quotient coefficient c; the block is cleared
        exactly and c times -b_low is added below it.
        """
        db, b, low, inv = divisor
        k = self.k
        if self.e == 1:
            return _pdivmod(k.norm(v), b, k)
        field, bits = self.field, self.bits
        mul, fold, reslot = field._mul, field._fold, field._slots.w != k.w
        quot = 0
        for s in range((v.bit_length() - 1) // bits - db, -1, -1):
            pos = (s + db) * bits
            top = v >> pos
            v ^= top << pos
            if reslot:  # the block's B slots in the field's width
                top = field._slots.pack(k.unpack(top, self.B))
            c = fold(top)
            if c:
                if inv is not None:
                    c = mul(c, inv)
                if reslot:
                    c = self.pack((c,))
                quot |= c << s * bits
                v += c * low << s * bits
        return quot, k.norm(self._fold(v, db))
