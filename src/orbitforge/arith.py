"""Small integer-arithmetic helpers (primality, factoring, congruences)."""

from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted distinct primes dividing n (empty for n = 1)."""
    return sorted(factorization(n))


def solve_linear_congruence(a: int, b: int, n: int, step: int = 1) -> int | None:
    """Smallest x >= 0 with a*x = b (mod n) and step | x, or None.

    step must divide n; the step constraint restricts x to the subgroup
    of multiples of step in Z_n.
    """
    if not (n >= 1 and step >= 1 and n % step == 0):
        raise ValueError(f"need n >= 1 and step >= 1 dividing n, got n={n}, step={step}")
    if n == 1:
        return 0
    b %= n
    # substitute x = step*u: (a*step)*u = b (mod n)
    aa = (a * step) % n
    g = gcd(aa, n)
    if b % g != 0:
        return None
    n_red = n // g
    u0 = ((b // g) * pow(aa // g, -1, n_red)) % n_red if n_red > 1 else 0
    # solution set in [0, n) is the coset step*u0 + <gcd(step*n_red, n)>
    c = (step * u0) % n
    d = gcd(step * n_red, n)
    return c % d
