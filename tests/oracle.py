"""An mpmath oracle for `jetframe eval`: every invariant of an eval at 60 digits.

    from oracle import invariants
    exact = invariants("soliton", 0.3, 1.7, "t", 12, c=1.0, phase=0.0)  # {alpha: (value, terms)}

The arguments are the doubles the command line reads.  The jet at (t0, x0)
is computed at :data:`DIGITS` digits:

* soliton u = 3c sech^2(theta), theta = k (x - c t - phase), k = sqrt(c)/2:
  d_t^i d_x^j u = 3c f^(n)(theta0) (-kc)^i k^j with n = i + j and f = sech^2.
  The Taylor coefficients of f come from those of tanh at theta0, by
  tanh' = 1 - tanh^2, so f_n = (n + 1) tanh_(n+1);
* u = x/t: d_t^i u = (-1)^i i! x / t^(i+1), d_x d_t^i u = (-1)^i i! / t^(i+1),
  and every entry with two or more x-derivatives is 0.

The invariants follow the closed form I_alpha = |p|^(-w/d) S_alpha, with
S_alpha = sum_k C(a1, k) u^k u[a1 - k, a2 + k], w = 3 a1 + a2 + 2, and the
pivot p = u_t + u u_x (d = 5) or u_x (d = 3); I[0,0] = 0.  The oracle shares
that formula with the program, so it certifies the program's arithmetic,
not the formula.  Next to each value it gives the size of its terms,
|p|^(-w/d) sum_k |C(a1, k) u^k u[a1 - k, a2 + k]|, against which an exact
zero is measured.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 60


def _tanh_coefficients(theta, n):
    """The Taylor coefficients 0..n of tanh(theta + h) in h, from tanh' = 1 - tanh^2."""
    t = [mpmath.tanh(theta)]
    for m in range(n):
        square = mpmath.fsum(t[i] * t[m - i] for i in range(m + 1))
        t.append(((1 if m == 0 else 0) - square) / (m + 1))
    return t


def _jet(solution, t0, x0, order, c=1.0, phase=0.0):
    """{(i, j): d_t^i d_x^j u at (t0, x0)} for every i + j <= order, at :data:`DIGITS` digits."""
    t0, x0 = mpmath.mpf(t0), mpmath.mpf(x0)
    alphas = [(n - j, j) for n in range(order + 1) for j in range(n + 1)]
    if solution == "soliton":
        c = mpmath.mpf(c)
        k = mpmath.sqrt(c) / 2
        tanh = _tanh_coefficients(k * (x0 - c * t0 - mpmath.mpf(phase)), order + 1)
        return {
            (i, j): 3 * c * (i + j + 1) * tanh[i + j + 1] * math.factorial(i + j) * (-k * c) ** i * k**j
            for i, j in alphas
        }
    if solution == "rational":
        return {
            (i, j): (-1) ** i * math.factorial(i) * (x0 if j == 0 else 1) / t0 ** (i + 1) if j < 2 else mpmath.mpf(0)
            for i, j in alphas
        }
    raise ValueError(f"no oracle for the solution {solution!r}")


def invariants(solution, t0, x0, frame, order, c=1.0, phase=0.0):
    """{alpha: (I_alpha, the size of its terms)} of the frame "t" or "x", for every |alpha| <= order."""
    with mpmath.workdps(DIGITS):
        u = _jet(solution, t0, x0, order, c, phase)
        u0 = u[(0, 0)]
        p, d = (u[(1, 0)] + u0 * u[(0, 1)], 5) if frame == "t" else (u[(0, 1)], 3)
        out = {}
        for a1, a2 in u:
            if (a1, a2) == (0, 0):
                out[(a1, a2)] = (mpmath.mpf(0), mpmath.mpf(0))
                continue
            scale = abs(p) ** (-mpmath.mpf(3 * a1 + a2 + 2) / d)
            terms = [math.comb(a1, k) * u0**k * u[(a1 - k, a2 + k)] for k in range(a1 + 1)]
            out[(a1, a2)] = (scale * mpmath.fsum(terms), scale * mpmath.fsum(map(abs, terms)))
        return out
