"""Small integer-arithmetic helpers: primality, factorization, powering."""

from __future__ import annotations

from math import gcd

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


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a modulo modulus; a must be coprime to modulus."""
    if gcd(a, modulus) != 1:
        raise ValueError("element not invertible")
    order = _carmichael_bound(modulus)
    # shrink the exponent bound prime by prime
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def _carmichael_bound(modulus: int) -> int:
    """A multiple of the group exponent of (Z/modulus)^*; Euler's totient."""
    tot = 1
    for p, e in factorize(modulus).items():
        tot *= (p - 1) * p ** (e - 1)
    return tot


def crt_int(r1: int, m1: int, r2: int, m2: int):
    """Combine k = r1 (mod m1), k = r2 (mod m2); None when incompatible.

    Moduli are positive and need not be coprime.
    """
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    lcm = m1 // g * m2
    # lift r1 by a multiple of m1 landing in r2's class
    step = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    return ((r1 + step * m1) % lcm, lcm)


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
