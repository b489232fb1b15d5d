"""Small integer-arithmetic helpers: primality, factorization (for the
order of a field's multiplicative group), and square-and-multiply powering."""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the library's 2**40 bound."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, primes ascending.

    Trial division, stopping once the cofactor is prime; every input the
    library factors is at most the desk bound 2**40.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    q = 2
    while n > 1:
        if is_prime(n):
            q = n
        else:
            while n % q:
                q += 1 + (q > 2)  # 2, then odd candidates only
        out[q] = out.get(q, 0) + 1
        n //= q
    return out


def _power(x, e: int, one, mul):
    """x**e for e >= 0 by left-to-right square-and-multiply.

    Never multiplies by `one` and never squares past the last bit, so x**2
    costs one product.  `mul` should look the product up at call time
    (e.g. operator.mul) so wrappers installed on the class see every call.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if not e:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result
