"""50-digit reference implementations used as test oracles.

Everything here evaluates the formulas naively at high precision (raw
lambda powers and all), independent of the production code's rearranged,
cancellation-safe double-precision paths.
"""
import mpmath as mp

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
