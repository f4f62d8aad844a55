"""Adaptive Simpson quadrature for smooth oscillatory integrands."""

from __future__ import annotations

from typing import Callable

__all__ = ["adaptive_simpson"]


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    max_depth: int = 40,
) -> float:
    """Integrate f over [a, b] to a relative tolerance.

    The tolerance is taken relative to a first whole-interval estimate (with a
    small absolute floor so integrals near zero terminate); each bisection
    halves the local error budget.
    """
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError("integration interval is reversed")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = rel_tol * max(abs(whole), 1e-12)
    return _simpson_step(f, a, b, fa, fm, fb, whole, eps, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        # Richardson extrapolation of the two half-interval estimates.
        return left + right + delta / 15.0
    return _simpson_step(f, a, m, fa, flm, fm, left, 0.5 * eps, depth - 1) + _simpson_step(
        f, m, b, fm, frm, fb, right, 0.5 * eps, depth - 1
    )
