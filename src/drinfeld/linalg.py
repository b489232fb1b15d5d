"""Dense linear algebra over the prime field F_p, on plain int matrices."""

from __future__ import annotations


def rref(rows, p):
    """Row-reduce in place (on a copy); returns (matrix, pivot column list)."""
    m = [row[:] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, p):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][fc]) % p
        basis.append(v)
    return basis


def solve(rows, rhs, p):
    """One solution of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, p)
    for r, row in enumerate(reduced):
        if r >= len(pivots) and row[ncols] % p:
            return None
    # pivots in the last column mean inconsistency
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols] % p
    return x
