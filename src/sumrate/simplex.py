"""Dense vertex simplex for small inequality-form LPs with box bounds.

Solves  maximize c @ x  subject to  A x <= b, lo <= x <= hi  by walking the
vertices of the polytope (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, ch. 3-4). A basis is a set of n active rows of
``G x <= h`` with ``G = [A; I; -I]`` and ``h = [b; hi; -lo]``; the walk
starts at the lower corner ``lo``, so no phase-1 is needed. The row that
leaves and the row that enters follow Bland's smallest-index rule, which
prevents cycling and makes the returned vertex deterministic. The vertex and
its multipliers are recomputed from the n x n basis matrix every pivot, so a
pivot costs O(mn + n^3) for m rows and n variables.
"""
from __future__ import annotations

import numpy as np

__all__ = ["simplex_max", "SimplexError"]

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10_000


class SimplexError(RuntimeError):
    pass


def simplex_max(c, A, b, lo, hi):
    """Vertex maximizer of ``c @ x`` over ``{A x <= b, lo <= x <= hi}``.

    ``lo`` must be finite and feasible (``A lo <= b`` within ``PIVOT_TOL``),
    else :class:`ValueError`; entries of ``hi`` may be ``inf``. ``lo`` and
    ``hi`` may be scalars. Returns ``(x, value)``. Multipliers and ratio-test
    rates count as nonzero beyond ``PIVOT_TOL``. Raises :class:`SimplexError`
    on an unbounded ray or after ``MAX_PIVOTS`` pivots.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    G = np.vstack([A, np.eye(n), -np.eye(n)])
    h = np.concatenate([b, hi, -lo])
    if not np.all(np.isfinite(lo)) or np.any(G @ lo > h + PIVOT_TOL):
        raise ValueError("simplex_max requires a feasible lower corner lo")
    finite = np.isfinite(h)

    basis = list(range(m + n, m + 2 * n))  # the rows x >= lo
    for _ in range(MAX_PIVOTS):
        G_B = G[basis]
        x = np.linalg.solve(G_B, h[basis])
        lam = np.linalg.solve(G_B.T, c)
        dropping = [k for k in range(n) if lam[k] < -PIVOT_TOL]
        if not dropping:
            return x, float(c @ x)
        # Bland: release the active row of lowest index; the others stay active
        k = min(dropping, key=lambda k: basis[k])
        d = -np.linalg.solve(G_B, np.eye(n)[k])
        rate = G @ d
        blocking = finite & (rate > PIVOT_TOL)
        blocking[basis] = False
        candidates = np.flatnonzero(blocking)
        if candidates.size == 0:
            raise SimplexError("objective is unbounded over the feasible set")
        ratios = (h[candidates] - G[candidates] @ x) / rate[candidates]
        theta = float(np.min(ratios))
        window = theta + 1e-12 * (1.0 + abs(theta))
        # Bland: among the tied blocking rows enter the one of lowest index
        basis[k] = int(candidates[np.argmax(ratios <= window)])
    raise SimplexError(f"pivot budget exhausted after {MAX_PIVOTS} pivots")
