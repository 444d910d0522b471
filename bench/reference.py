"""Reference values computed apart from the stechkin package.

Nothing in this module imports stechkin.  Every value comes from a closed
form, from ``scipy.special`` or from a textbook recurrence written out
below, so the benchmark can judge the program's outputs without trusting
any of its code.  scipy is imported inside the functions that use it: the
workload process draws its inputs from the closed forms here and must not
pay for scipy in its set-up time or memory.

Symbols are power pairs phi(t) = |t|^k, psi(t) = |t|^r (only squared
moduli enter, so the sign convention of integer powers does not matter),
and every constant is returned as N, E = tau * M with

    N^2 = sum or integral of |phi|^2 / (1 + tau |psi|^2)^2 dmu,
    M^2 = sum or integral of |phi psi|^2 / (1 + tau |psi|^2)^2 dmu.
"""

from __future__ import annotations

import math

import numpy as np

# ----------------------------------------------------------------------
# Lebesgue measure: Beta-function closed forms


def lebesgue_nm2(k: float, r: float, tau: float, half_line: bool = False):
    """(N^2, M^2) for |t|^k, |t|^r on R (or [0, inf) when ``half_line``).

    With u = tau t^(2r) the integrals become Beta integrals; a = (2k+1)/(2r):
    N^2 = tau^(-a) G(a) G(2-a) / r and M^2 = tau^(-a-1) G(a+1) G(1-a) / r on R.
    """
    a = (2.0 * k + 1.0) / (2.0 * r)
    n2 = math.exp(-a * math.log(tau) + math.lgamma(a) + math.lgamma(2.0 - a)) / r
    m2 = math.exp((-a - 1.0) * math.log(tau) + math.lgamma(a + 1.0) + math.lgamma(1.0 - a)) / r
    if half_line:
        return 0.5 * n2, 0.5 * m2
    return n2, m2


def lebesgue_ne(k: float, r: float, tau: float, half_line: bool = False):
    """(N, E) on Lebesgue measure, from :func:`lebesgue_nm2`."""
    n2, m2 = lebesgue_nm2(k, r, tau, half_line)
    return math.sqrt(n2), tau * math.sqrt(m2)


# ----------------------------------------------------------------------
# unit lattice on Z: direct head plus a Hurwitz-zeta tail


def lattice_sum(p: float, r: float, tau: float) -> float:
    """sum over n in Z of |n|^p / (1 + tau |n|^(2r))^2 (the n = 0 term is 0^p).

    Terms with n < n0 are added directly.  For n >= n0, x = tau n^(2r) >= 1e4
    and 1/(1+x)^2 = sum_j (-1)^j (j+1) x^(-2-j), so the tail is a fast
    series of Hurwitz zeta values zeta(2r(2+j) - p, n0).
    """
    from scipy.special import zeta

    n0 = max(2, math.ceil((1e4 / tau) ** (1.0 / (2.0 * r))))
    n = np.arange(1, n0, dtype=float)
    head = float(np.sum(n ** p / (1.0 + tau * n ** (2.0 * r)) ** 2))
    tail = math.fsum(
        (-1) ** j * (j + 1) * tau ** (-2.0 - j) * float(zeta(2.0 * r * (2 + j) - p, n0))
        for j in range(8)
    )
    zero = 1.0 if p == 0 else 0.0
    return zero + 2.0 * (head + tail)


def lattice_ne(k: float, r: float, tau: float):
    """(N, E) of the unit lattice on Z for |n|^k, |n|^r."""
    n2 = lattice_sum(2.0 * k, r, tau)
    m2 = lattice_sum(2.0 * k + 2.0 * r, r, tau)
    return math.sqrt(n2), tau * math.sqrt(m2)


def lattice_ne_coth(tau: float):
    """(N, E) for k = 0, r = 1 in closed form.

    With c = 1/tau, S(c) = sum 1/(c+n^2) = (pi/sqrt c) coth(pi sqrt c) and
    T(c) = sum 1/(c+n^2)^2 = -S'(c), so N^2 = c^2 T and M^2 = c^2 (S - c T).
    """
    c = 1.0 / tau
    x = math.pi * math.sqrt(c)
    coth = 1.0 / math.tanh(x)
    csch2 = 1.0 / math.sinh(x) ** 2 if x < 350.0 else 0.0
    s = math.pi / math.sqrt(c) * coth
    t = 0.5 * math.pi * c ** -1.5 * coth + 0.5 * math.pi ** 2 / c * csch2
    n2 = c * c * t
    m2 = c * c * (s - c * t)
    return math.sqrt(n2), tau * math.sqrt(m2)


# ----------------------------------------------------------------------
# discrete atoms


def atom_sums(atoms, k: float, r: float, tau: float):
    """(N^2, M^2, H^2) over atoms (t_j, w_j); H^2 has a single power of the denominator."""
    t = np.abs(np.asarray([a for a, _ in atoms], dtype=float))
    w = np.asarray([b for _, b in atoms], dtype=float)
    phi2 = t ** (2.0 * k)
    psi2 = t ** (2.0 * r)
    den = 1.0 + tau * psi2
    n2 = math.fsum((w * phi2 / den ** 2).tolist())
    m2 = math.fsum((w * phi2 * psi2 / den ** 2).tolist())
    h2 = math.fsum((w * phi2 / den).tolist())
    return n2, m2, h2


# ----------------------------------------------------------------------
# orthonormal polynomials: textbook three-term recurrences
#
# Each family is written as P_{n+1} = (A_n t + B_n) P_n - C_n P_{n-1} with
# P_{-1} = 0, and the orthonormal function is F_n = s_n P_n:
#   Hermite       orthonormal recurrence for weight exp(-t^2), s_n = 1;
#   Laguerre(a)   classical L_n^(a) (DLMF 18.9.13), ||L_n||^2 = G(n+a+1)/n!;
#   Jacobi(a, b)  classical P_n^(a,b) (DLMF 18.9.2) with the DLMF 18.3 norm.


def _coefficients(kind: str, a: float, b: float, n: np.ndarray):
    """(A_n, B_n, C_n, s_n, P_0) for degrees ``n`` (float array)."""
    from scipy.special import gammaln

    if kind == "hermite":
        A = np.sqrt(2.0 / (n + 1.0))
        B = np.zeros_like(n)
        C = np.sqrt(n / (n + 1.0))
        return A, B, C, np.ones_like(n), math.pi ** -0.25
    if kind == "laguerre":
        A = -1.0 / (n + 1.0)
        B = (2.0 * n + a + 1.0) / (n + 1.0)
        C = (n + a) / (n + 1.0)
        s = np.exp(0.5 * (gammaln(n + 1.0) - gammaln(n + a + 1.0)))
        return A, B, C, s, 1.0
    if kind == "jacobi":
        ab = a + b
        m = 2.0 * n + ab
        with np.errstate(divide="ignore", invalid="ignore"):
            D = 2.0 * (n + 1.0) * (n + ab + 1.0) * m
            A = (m + 1.0) * (m + 2.0) * m / D
            B = (m + 1.0) * (a * a - b * b) / D
            C = 2.0 * (n + a) * (n + b) * (m + 2.0) / D
        first = n == 0  # P_1 = (a+1) + (a+b+2)(t-1)/2, written apart since m = 0 may occur
        A = np.where(first, 0.5 * (ab + 2.0), A)
        B = np.where(first, 0.5 * (a - b), B)
        C = np.where(first, 0.0, C)
        log_h = ((ab + 1.0) * math.log(2.0) - np.log(m + 1.0) + gammaln(n + a + 1.0)
                 + gammaln(n + b + 1.0) - gammaln(n + ab + 1.0) - gammaln(n + 1.0))
        return A, B, C, np.exp(-0.5 * log_h), 1.0
    raise ValueError(f"unknown family {kind!r}")


def orthonormal_values(kind: str, a: float, b: float, t: float, n_max: int) -> np.ndarray:
    """F_0(t), ..., F_{n_max}(t) for one family and point."""
    A, B, C, s, p0 = _coefficients(kind, a, b, np.arange(n_max + 1, dtype=float))
    p = np.empty(n_max + 1)
    cur, prev = p0, 0.0
    for i in range(n_max + 1):
        p[i] = cur
        cur, prev = (A[i] * t + B[i]) * cur - C[i] * prev, cur
    return p * s


def expansion_sums(cases, cutoffs, chunk: int = 4096):
    """Partial sums of the expansion constants for many cases at once.

    ``cases`` holds tuples (kind, a, b, t, k, r, tau) and ``cutoffs[j]`` a
    list of degrees for case j.  For each case and cutoff n_c, returns
    (N^2, M^2) summed over degrees 0..n_c of
    n^(2k) F_n(t)^2 / (1 + tau n^(2r))^2 and the same with n^(2k+2r).
    The recurrence runs once to the largest cutoff, vectorized over cases
    and in chunks of degrees, so memory stays at a few (chunk x cases) arrays.
    """
    J = len(cases)
    cut = [np.atleast_1d(np.asarray(c, dtype=np.int64)) for c in cutoffs]
    top = int(max(int(c.max()) for c in cut))
    t = np.asarray([c[3] for c in cases], dtype=float)
    k = np.asarray([c[4] for c in cases], dtype=float)
    r = np.asarray([c[5] for c in cases], dtype=float)
    tau = np.asarray([c[6] for c in cases], dtype=float)
    families = sorted({(c[0], float(c[1]), float(c[2])) for c in cases})
    fam_of = np.asarray([families.index((c[0], float(c[1]), float(c[2]))) for c in cases])

    p0 = np.asarray([_coefficients(f[0], f[1], f[2], np.zeros(1))[4] for f in families])
    p_prev = np.zeros(J)
    p = p0[fam_of].astype(float)
    sums_n = [np.zeros(len(c)) for c in cut]
    sums_m = [np.zeros(len(c)) for c in cut]

    for lo in range(0, top + 1, chunk):
        hi = min(lo + chunk, top + 1)
        n = np.arange(lo, hi, dtype=float)
        coef = [_coefficients(f[0], f[1], f[2], n) for f in families]
        A, B, C, S = (np.stack([c[i] for c in coef])[fam_of].T for i in range(4))
        P = np.empty((hi - lo, J))
        for i in range(hi - lo):
            P[i] = p
            p, p_prev = (A[i] * t + B[i]) * p - C[i] * p_prev, p
        nn = n[:, None]
        psi2 = nn ** (2.0 * r)
        tn = nn ** (2.0 * k) * (P * S) ** 2 / (1.0 + tau * psi2) ** 2
        cn = np.cumsum(tn, axis=0)
        cm = np.cumsum(tn * psi2, axis=0)
        for j in range(J):
            for i_c, c in enumerate(cut[j]):
                if c >= lo:
                    idx = min(int(c), hi - 1) - lo
                    sums_n[j][i_c] += cn[idx, j]
                    sums_m[j][i_c] += cm[idx, j]
    return [list(zip(sums_n[j].tolist(), sums_m[j].tolist())) for j in range(J)]
