"""50-digit reference implementations used as test oracles.

Everything here evaluates the formulas naively at high precision (raw
lambda powers and all), independent of the production code's rearranged,
cancellation-safe double-precision paths.  The uniform-grid tables and
kernel rows at the end take O(n) mp operations from prefix and suffix
sums: the oracle for the report's closed-form sums.
"""
import mpmath as mp
import numpy as np

DPS = 50


def lambda1_ref(h):
    with mp.workdps(DPS):
        h = mp.mpf(h)
        eh = mp.e**h
        e2h = mp.e ** (2 * h)
        num = h * (e2h + 1) - e2h + 1 - (eh - 1) * mp.sqrt(
            h**2 * (eh + 1) ** 2 + 2 * h * (1 - eh)
        )
        return num / (1 - e2h + 2 * h * eh)


def psi2_ref(x):
    with mp.workdps(DPS):
        x = mp.mpf(x)
        return mp.sign(x) / 2 * (mp.sinh(x) - x)


def moment_ref(y):
    with mp.workdps(DPS):
        y = mp.mpf(y)
        return (mp.e**y + mp.e**-y + mp.e ** (1 - y) + mp.e ** (y - 1) - 4) / 4 - (
            y**2 + (1 - y) ** 2
        ) / 4


def double_moment_ref():
    with mp.workdps(DPS):
        return (mp.e**2 - 1) / (2 * mp.e) - mp.mpf(7) / 6


def spectral_ref(n):
    """(h, lambda1, q, K, Kscaled) at 50 digits."""
    with mp.workdps(DPS):
        h = mp.mpf(1) / n
        lam = lambda1_ref(h)
        q = 1 / lam
        eh = mp.e**h
        kt = (2 * eh - 2 - h * eh - h) * (lam - 1) / (2 * (eh - 1) ** 2 * (1 + q**n))
        return h, lam, q, kt * q ** (n + 1), kt


def coefficients_ref(n):
    """Closed-form weights at 50 digits (q-form, exact rewrite)."""
    with mp.workdps(DPS):
        h, lam, q, k, kt = spectral_ref(n)
        eh = mp.e**h
        out = []
        for b in range(n + 1):
            if b == 0:
                out.append((eh - 1 - h) / (eh - 1) - kt * (q**n - q))
            elif b == n:
                out.append((h * eh - eh + 1) / (eh - 1) - kt * (q**n - q) * eh)
            else:
                out.append(h - kt * ((1 - eh * q) * q ** (n - b) + (eh - q) * q**b))
        return out


def quadratic_form_ref(nodes, c):
    """The kernel quadratic form at 50 digits for arbitrary float inputs."""
    with mp.workdps(DPS):
        xs = [mp.mpf(float(t)) for t in nodes]
        cs = [mp.mpf(float(v)) for v in c]
        m = len(cs)
        s1 = mp.fsum(
            cs[i] * cs[j] * psi2_ref(xs[i] - xs[j]) for i in range(m) for j in range(m)
        )
        s2 = mp.fsum(cs[i] * moment_ref(xs[i]) for i in range(m))
        return s1 - 2 * s2 + double_moment_ref()


def theorem2_ref(n):
    """The printed closed-form norm expression, verbatim, raw lambda powers."""
    with mp.workdps(DPS):
        h, lam, q, k, kt = spectral_ref(n)
        eh = mp.e**h
        lead = h**2 / 12
        h_block = (h * (2 - eh - 3 * eh**2) + 4 + 2 * eh + 6 * eh**2) / (4 * (1 - eh) ** 2)
        t1 = ((lam**n + lam**2) * (1 + eh) - (lam ** (n + 1) + lam) * (1 + 2 * eh)) / (
            2 * (1 - lam)
        )
        t2 = h**2 * (lam**2 + lam) * (lam**n - 1) * (1 + eh) / (2 * (1 - lam) ** 2)
        t3 = (
            (lam - eh) ** 2 * (lam**n - lam * eh)
            - (1 - lam * eh) ** 2 * (lam - lam**n * eh)
        ) / (2 * (1 - lam * eh) * (lam - eh))
        return lead + h_block + k * (t1 + t2 + t3)


def closed_weights_raw_ref(n):
    """Closed-form weights at 50 digits from raw lambda1 powers, as printed."""
    with mp.workdps(DPS):
        h, lam, q, k, kt = spectral_ref(n)
        eh = mp.e**h
        out = []
        for b in range(n + 1):
            if b == 0:
                out.append((eh - 1 - h) / (eh - 1) - k * (lam - lam**n))
            elif b == n:
                out.append((h * eh - eh + 1) / (eh - 1) - k * (lam - lam**n) * eh)
            else:
                out.append(h - k * ((lam - eh) * lam**b + (lam * eh - 1) * lam ** (n - b)))
        return out


def closed_quadratic_form_ref(n):
    """The kernel quadratic form of the closed-form weights at 50 digits.

    Weights from closed_weights_raw_ref at exact nodes b/n; the kernel sum is
    taken in Toeplitz form, one psi_2(k/n) per lag k.
    """
    with mp.workdps(DPS):
        c = closed_weights_raw_ref(n)
        h = mp.mpf(1) / n
        lags = mp.fsum(
            psi2_ref(k * h) * mp.fsum(c[i] * c[i + k] for i in range(n + 1 - k))
            for k in range(1, n + 1)
        )
        moments = mp.fsum(c[i] * moment_ref(i * h) for i in range(n + 1))
        return 2 * lags - 2 * moments + double_moment_ref()


# ------------------------------------------------ O(n) oracle on the uniform grid


def mp_grid(n):
    """Uniform-grid tables (x, ep, en, m): object arrays of working-precision mpf.

    x_k = k h, ep_k = e^(x_k), en_k = e^(-x_k) and m_k = moment(x_k), the
    last from the first three through e^(1-y) = e e^(-y) and
    e^(y-1) = e^y / e, so no exponential is evaluated twice.
    """
    exp = np.frompyfunc(mp.exp, 1, 1)
    x = np.arange(n + 1, dtype=object) * (mp.mpf(1) / n)
    ep = exp(x)
    en = exp(-x)
    m = (ep + en + en * mp.e + ep / mp.e - 4) / 4 - (x * x + (1 - x) * (1 - x)) / 4
    return x, ep, en, m


def psi2_rows(x, ep, en, c):
    """sum_j psi_2(|x_i - x_j|) c_j for every i, in O(n) operations.

    psi_2(|t|) = (e^|t| - e^-|t|)/4 - |t|/2 separates in x_i and x_j.  The
    terms j < i of row i sum to

        (e^(x_i) sum c e^-x - e^(-x_i) sum c e^x)/4 - (x_i sum c - sum c x)/2

    over that prefix, and the terms j > i to the same expression over the
    suffix with the sign flipped.  ep and en hold e^(x_j) and e^(-x_j).
    """
    zero = np.zeros(1, dtype=object)

    def prefix_minus_suffix(w):
        before = np.concatenate([zero, np.cumsum(w[:-1])])
        after = np.concatenate([np.cumsum(w[:0:-1])[::-1], zero])
        return before - after

    s_en = prefix_minus_suffix(c * en)
    s_ep = prefix_minus_suffix(c * ep)
    s_c = prefix_minus_suffix(c)
    s_x = prefix_minus_suffix(c * x)
    return (ep * s_en - en * s_ep) / 4 - (x * s_c - s_x) / 2


def piece_weights(rule):
    """The weights of an oracles.PieceRule in working-precision mp.

    One term per piece and node, amplitude * scale * ratio^j, with the
    Decimal amplitudes, scales and mu read through str and the ratio
    mu^a e^(b h) formed here; O(n) mp work.
    """
    n = rule.sums.n
    c = np.array([mp.mpf(0)] * (n + 1), dtype=object)
    for amp, (scale, (a, b), lo, hi) in zip(rule.amplitudes, rule.pieces):
        ratio = mp.exp(mp.mpf(b) / n)
        if a:
            ratio *= mp.mpf(str(rule.sums.mu)) ** a
        amp = mp.mpf(str(amp)) * mp.mpf(str(scale))
        for j in range(lo, hi + 1):
            c[j] += amp * ratio**j
    return c


def spline_weights(n):
    """The minimizer's weights from the natural exponential spline, in O(n) mp operations.

    Schoenberg's theorem (I. J. Schoenberg, "Spline interpolation and best
    quadrature formulae", Bull. AMS 70, 1964): the rule that is optimal in
    the sense of Sard integrates the natural spline interpolant of the
    samples.  For the seminorm int (f'' + f')^2 that spline is piecewise in
    span{1, x, e^x, e^-x}, the kernel of D^4 - D^2, C^2 at the nodes, with
    s'' + s' = 0 at 0 and 1: an exponential spline in tension 1.  Written
    s = M + l on each piece, with M'' = M, M(x_k) = m_k and l linear, C^1
    at the nodes is a tridiagonal system in m, and int s is the trapezoid
    rule plus sum g_k m_k.  So the weights are the trapezoid weights plus
    the second differences over h of the adjoint solution y_0 .. y_n of

        (c - 1) y_0 + t y_1                = gamma,
        t y_(k-1) + 2c y_k + t y_(k+1)     = 2 gamma    (0 < k < n),
        t y_(n-1) + (1 + c) y_n            = gamma,

    t = 1/h - 1/sinh h, c = coth h - 1/h and gamma = tanh(h/2) - h/2:
    C_0 = h/2 + (y_1 - y_0)/h, C_b = h + (y_(b-1) - 2 y_b + y_(b+1))/h and
    C_n = h/2 + (y_(n-1) - y_n)/h.  The matrix is diagonally dominant, so
    the Thomas algorithm solves it without pivoting.  t, c and gamma cancel
    about 2 log10 n digits, so the solve runs that many digits past DPS;
    the weights are rounded to DPS digits.
    """
    with mp.workdps(DPS + 2 * len(str(n)) + 10):
        h = mp.mpf(1) / n
        t = 1 / h - 1 / mp.sinh(h)
        c = mp.coth(h) - 1 / h
        gamma = mp.tanh(h / 2) - h / 2
        diag = [c - 1, *[2 * c] * (n - 1), 1 + c]
        rhs = [gamma, *[2 * gamma] * (n - 1), gamma]
        for k in range(1, n + 1):  # every off-diagonal entry is t
            f = t / diag[k - 1]
            diag[k] -= f * t
            rhs[k] -= f * rhs[k - 1]
        y = [rhs[n] / diag[n]]
        for k in range(n - 1, -1, -1):
            y.append((rhs[k] - t * y[-1]) / diag[k])
        y.reverse()
        slope = [n * (b - a) for a, b in zip(y, y[1:])]  # (y_(k+1) - y_k)/h
        w = [h / 2 + slope[0], *(h + b - a for a, b in zip(slope, slope[1:])), h / 2 - slope[-1]]
    with mp.workdps(DPS):
        return [+x for x in w]
