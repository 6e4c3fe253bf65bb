"""Dense revised simplex for small inequality-form LPs.

Solves  maximize c @ x  subject to  A x <= b, x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed. Entering and leaving
variables follow Bland's smallest-index rule, which prevents cycling and
makes the returned vertex deterministic. The basic solution is recomputed
from a fresh factorization every pivot; problem sizes here are tiny, so
numerical hygiene wins over speed.
"""
from __future__ import annotations

import numpy as np

__all__ = ["simplex_max", "SimplexError"]

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10_000


class SimplexError(RuntimeError):
    pass


def simplex_max(c, A, b):
    """Vertex maximizer of ``c @ x`` over ``{A x <= b, x >= 0}`` with ``b >= 0``.

    Returns ``(x, value)``. Reduced costs and ratio-test pivots count as
    positive above ``PIVOT_TOL``. Raises :class:`SimplexError` on an unbounded
    ray (impossible when the feasible set is boxed) or after ``MAX_PIVOTS``
    pivots.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise ValueError("simplex_max requires b >= 0 (slack basis must be feasible)")

    # columns 0..n-1 structural, n..n+m-1 slack
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    basis = list(range(n, n + m))

    for _ in range(MAX_PIVOTS):
        B = full[:, basis]
        x_b = np.linalg.solve(B, b)
        pi = np.linalg.solve(B.T, cost[basis])
        reduced = cost - pi @ full
        in_basis = np.zeros(n + m, dtype=bool)
        in_basis[basis] = True

        entering = -1
        for j in range(n + m):
            if not in_basis[j] and reduced[j] > PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            x = np.zeros(n + m)
            x[basis] = np.maximum(x_b, 0.0)
            return x[:n], float(cost[basis] @ x_b)

        direction = np.linalg.solve(B, full[:, entering])
        candidates = np.flatnonzero(direction > PIVOT_TOL)
        if candidates.size == 0:
            raise SimplexError("objective is unbounded over the feasible set")
        ratios = x_b[candidates] / direction[candidates]
        theta = float(np.min(ratios))
        window = theta + 1e-12 * (1.0 + abs(theta))
        ties = candidates[ratios <= window]
        # Bland: among the tied rows leave the basic variable of lowest index
        leave_row = min(ties, key=lambda i: basis[i])
        basis[leave_row] = entering
    raise SimplexError(f"pivot budget exhausted after {MAX_PIVOTS} pivots")
