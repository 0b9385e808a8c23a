"""High-precision reference table for the benchmark's accuracy checks.

Every quantity the benchmark compares is recomputed here with mpmath at
DPS digits, straight from the defining formulas (raw lambda1 powers, the
Toeplitz quadratic form sum_k psi_k sum_i c_i c_(i+k), an iteratively
refined dense solve), sharing no code with the optquad package.  Long
weight vectors are stored only at `sample_rows(n)`.

    python3 perfbench/reference.py          # rewrite perfbench/reference.json

The stored strings carry STORED_DIGITS significant digits.
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = 80
STORED_DIGITS = 45
TABLE_PATH = Path(__file__).with_name("reference.json")

# Grid sizes the workloads print; see workloads.py.
CLOSED_QF_NS = tuple(2**k for k in range(1, 12))  # 2 .. 2048, also quad_err
MIN_QF_NS = (64, 128, 256, 384, 512)
DENSE_C_NS = (256, 512)
COEF_DEV_NS = (64, 128, 256)
THM2_NS = (64, 128, 256, 1_000_000)
CLOSED_C_NS = (100_000,)

# Catalog functions outside the null space span{1, e^-x}: (f, f', f'', integral).
NONNULL_FUNCTIONS = {
    "x": (lambda x: x, lambda x: mp.mpf(1), lambda x: mp.mpf(0), mp.mpf(1) / 2),
    "x_squared": (lambda x: x * x, lambda x: 2 * x, lambda x: mp.mpf(2), mp.mpf(1) / 3),
    "exp": (mp.exp, mp.exp, mp.exp, mp.e - 1),
    "sin": (mp.sin, mp.cos, lambda x: -mp.sin(x), 1 - mp.cos(1)),
}
# f'' + f' = 0 exactly: zero seminorm, zero quadrature error, zero bound.
NULL_FUNCTIONS = ("const1", "exp_neg", "affine_exp_neg")


def sample_rows(n: int) -> list[int]:
    """The fixed weight rows compared for an n-subinterval rule."""
    picks = {0, 1, 2, n - 2, n - 1, n} | {k * n // 16 for k in range(17)}
    return sorted(b for b in picks if 0 <= b <= n)


# ------------------------------------------------------------- formulas


def _lambda1(h):
    eh, e2h = mp.exp(h), mp.exp(2 * h)
    num = h * (e2h + 1) - e2h + 1 - (eh - 1) * mp.sqrt(h**2 * (eh + 1) ** 2 + 2 * h * (1 - eh))
    return num / (1 - e2h + 2 * h * eh)


def _spectral(n):
    """(h, e^h, lambda1, K) with K from its defining expression."""
    h = mp.mpf(1) / n
    eh = mp.exp(h)
    lam = _lambda1(h)
    k = (2 * eh - 2 - h * eh - h) * (lam - 1) / (2 * (eh - 1) ** 2 * (lam ** (n + 1) + lam))
    return h, eh, lam, k


def _closed_weight(n, b, h, eh, lam, k):
    if b == 0:
        return (eh - 1 - h) / (eh - 1) - k * (lam - lam**n)
    if b == n:
        return (h * eh - eh + 1) / (eh - 1) - k * (lam - lam**n) * eh
    return h - k * ((lam - eh) * lam**b + (lam * eh - 1) * lam ** (n - b))


def closed_weights(n, rows=None):
    """Printed closed-form weights C_b, at all rows or at the given ones."""
    h, eh, lam, k = _spectral(n)
    return [_closed_weight(n, b, h, eh, lam, k) for b in (range(n + 1) if rows is None else rows)]


def _psi2(x):
    x = abs(x)
    return (mp.sinh(x) - x) / 2


def _moment(y):
    return (mp.exp(y) + mp.exp(-y) + mp.exp(1 - y) + mp.exp(y - 1) - 4) / 4 - (
        y * y + (1 - y) ** 2
    ) / 4


def _double_moment():
    return mp.sinh(1) - mp.mpf(7) / 6


def _grid(n):
    h = mp.mpf(1) / n
    nodes = [b * h for b in range(n + 1)]
    return nodes, [_psi2(x) for x in nodes], [_moment(x) for x in nodes]


def toeplitz_norm(c, psi_k, moments):
    """Squared error norm sum_bb' c c' psi(|b-b'|h) - 2 sum c M + M2, in Toeplitz form."""
    n = len(c) - 1
    kernel = 2 * mp.fsum(psi_k[k] * mp.fdot(c[: n + 1 - k], c[k:]) for k in range(1, n + 1))
    return kernel - 2 * mp.fdot(c, moments) + _double_moment()


def dense_solution(n):
    """Exact minimizer (c, b0, d) of the uniform system, by refinement.

    A float64 LU of the rounded matrix seeds the solve and solves every
    correction; residuals are formed at DPS digits, so the iterate converges
    to the exact solution at roughly cond * 2^-53 per round.
    """
    nodes, psi_k, moments = _grid(n)
    expneg = [mp.exp(-x) for x in nodes]
    size = n + 3
    a = np.zeros((size, size))
    for i in range(n + 1):
        a[i, : n + 1] = [float(psi_k[abs(i - j)]) for j in range(n + 1)]
    a[: n + 1, n + 1] = 1.0
    a[: n + 1, n + 2] = [float(v) for v in expneg]
    a[n + 1, : n + 1] = 1.0
    a[n + 2, : n + 1] = a[: n + 1, n + 2]
    target_exp = 1 - mp.exp(-1)
    x = [mp.mpf(0)] * size
    for _ in range(40):
        c, b0, d = x[: n + 1], x[n + 1], x[n + 2]
        resid = [
            moments[i]
            - mp.fdot(psi_k[i:0:-1] + psi_k[: n + 1 - i], c)
            - b0
            - d * expneg[i]
            for i in range(n + 1)
        ]
        resid += [1 - mp.fsum(c), target_exp - mp.fdot(c, expneg)]
        delta = np.linalg.solve(a, np.array([float(r) for r in resid]))
        x = [xi + mp.mpf(float(di)) for xi, di in zip(x, delta)]
        if max(abs(di) for di in delta) <= mp.mpf(10) ** (-DPS + 10) * max(abs(xi) for xi in x):
            return x[: n + 1], x[n + 1], x[n + 2]
    raise ArithmeticError(f"refinement did not converge at n={n}")


def theorem2(n):
    """The printed theorem-2 expression, verbatim in raw lambda1 powers."""
    h, eh, lam, k = _spectral(n)
    lead = h * h / 12
    h_block = (h * (2 - eh - 3 * eh * eh) + 4 + 2 * eh + 6 * eh * eh) / (4 * (1 - eh) ** 2)
    ln = lam**n
    t1 = k * ((ln + lam**2) * (1 + eh) - (lam ** (n + 1) + lam) * (1 + 2 * eh)) / (2 * (1 - lam))
    t2 = k * h * h * (lam**2 + lam) * (ln - 1) * (1 + eh) / (2 * (1 - lam) ** 2)
    t3 = k * (
        (lam - eh) ** 2 * (ln - lam * eh) - (1 - lam * eh) ** 2 * (lam - ln * eh)
    ) / (2 * (1 - lam * eh) * (lam - eh))
    return lead + h_block + t1 + t2 + t3


def seminorm(name):
    """sqrt(int_0^1 (f'' + f')^2 dx) by mpmath quadrature."""
    f, d1, d2, _ = NONNULL_FUNCTIONS[name]
    return mp.sqrt(mp.quad(lambda x: (d2(x) + d1(x)) ** 2, [0, 1]))


# ---------------------------------------------------------------- table


def _s(value) -> str:
    return mp.nstr(value, STORED_DIGITS, min_fixed=1, max_fixed=0)


def generate() -> dict:
    """Compute the whole table; keys are strings so it round-trips JSON."""
    with mp.workdps(DPS):
        table: dict = {"dps": DPS, "closed_qf": {}, "quad_err": {}, "min_qf": {},
                       "dense_c": {}, "coef_dev": {}, "thm2": {}, "closed_c": {}}
        for n in CLOSED_QF_NS:
            nodes, psi_k, moments = _grid(n)
            c = closed_weights(n)
            table["closed_qf"][str(n)] = _s(toeplitz_norm(c, psi_k, moments))
            for name, (f, _, _, integral) in NONNULL_FUNCTIONS.items():
                err = mp.fdot(c, [f(x) for x in nodes]) - integral
                table["quad_err"].setdefault(name, {})[str(n)] = _s(err)
        for n in MIN_QF_NS:
            c, _, _ = dense_solution(n)
            _, psi_k, moments = _grid(n)
            table["min_qf"][str(n)] = _s(toeplitz_norm(c, psi_k, moments))
            if n in DENSE_C_NS:
                table["dense_c"][str(n)] = {str(b): _s(c[b]) for b in sample_rows(n)}
            if n in COEF_DEV_NS:
                dev = max(abs(u - v) for u, v in zip(c, closed_weights(n)))
                table["coef_dev"][str(n)] = _s(dev)
        for n in THM2_NS:
            table["thm2"][str(n)] = _s(theorem2(n))
        for n in CLOSED_C_NS:
            rows = sample_rows(n)
            table["closed_c"][str(n)] = dict(zip(map(str, rows), map(_s, closed_weights(n, rows))))
        table["seminorm"] = {name: _s(seminorm(name)) for name in NONNULL_FUNCTIONS}
    return table


def load() -> dict:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")
