"""Reference implementations that only the tests use.

Each is an oracle for a quantity the package computes another way (or
not at all): the literal loop forms of the inverse variance, single
cross terms of cov(H^-1), the coefficient variance for any z, the
magnitude derivative, the refuted repeated-sign projection and the QQ
normality check.  Tests import them as they import ``conftest`` helpers.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats

from pfsc.coefficients import P
from pfsc.uncertainty import CartesianNoiseSpec


def inverse_self_variance_reference(H_inv: np.ndarray, var_H: np.ndarray) -> np.ndarray:
    """O(n^4) literal double sum, the cross-check of inverse_self_variance."""
    n = H_inv.shape[0]
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    acc += H_inv[a, i] ** 2 * var_H[i, j] * H_inv[j, b] ** 2
            out[a, b] = acc
    return out


def inverse_cross_covariance(H_inv: np.ndarray, var_H: np.ndarray, mn, ab) -> float:
    """cov(H^-1[m,n], H^-1[a,b]) induced by independent entry noise on H."""
    m_, n_ = mn
    a_, b_ = ab
    dim = H_inv.shape[0]
    for idx in (m_, n_, a_, b_):
        if not 0 <= idx < dim:
            raise IndexError(f"index {idx} out of range for {dim}x{dim} matrix")
    left = H_inv[m_, :] * H_inv[a_, :]
    right = H_inv[:, n_] * H_inv[:, b_]
    return float(left @ var_H @ right)


def general_variance(
    H_inv: np.ndarray, var_Hinv: np.ndarray, z: np.ndarray, zv: np.ndarray
) -> np.ndarray:
    """Coefficient variances for any z, including the variance ``zv`` of z.

    With ``zv`` identically zero and z = diag(s) this reproduces
    coefficient_variance bitwise.
    """
    return H_inv**2 @ np.asarray(zv) + var_Hinv @ (z**2)


def magnitude_derivative(result, voltages, bus_i, bus_l, phase_i=0, phase_l=0, wrt=P):
    """d|E_i|/d{P or Q}_l of a solved result, from the complex derivative
    and the operating-point voltages."""
    e = voltages[result.problem.network.flat_index(bus_i, phase_i)]
    d = result.derivative(bus_i, bus_l, phase_i, phase_l, wrt)
    return (e.real * d.real + e.imag * d.imag) / abs(e)


def repeated_sign_projection(E, polar) -> CartesianNoiseSpec:
    """The refuted projection: project_polar_noise with the imaginary part
    reusing the real part's +cos(2 theta) sign (see the README's
    docs/projection-validation)."""
    E = np.asarray(E)
    rho = np.abs(E)
    theta = np.angle(E)
    sa = polar.sigma_rho if polar.relative else polar.sigma_rho / rho
    sb = polar.sigma_theta
    damp2 = np.exp(-2.0 * sb**2)
    damp_half = np.exp(-0.5 * sb**2)
    common = 0.5 * (1.0 + sa**2) * rho**2
    tail = 1.0 - 2.0 * damp_half
    var_re = common * (1.0 + damp2 * np.cos(2 * theta)) + rho**2 * np.cos(theta) ** 2 * tail
    var_im = common * (1.0 + damp2 * np.cos(2 * theta)) + rho**2 * np.sin(theta) ** 2 * tail
    return CartesianNoiseSpec(
        sigma_re=np.sqrt(np.maximum(var_re, 0.0)),
        sigma_im=np.sqrt(np.maximum(var_im, 0.0)),
    )


@dataclass(frozen=True)
class QQReport:
    """Paired quantiles of a sample against the fitted normal."""

    theoretical: np.ndarray
    empirical: np.ndarray
    correlation: float

    @property
    def looks_normal(self):
        return self.correlation >= 0.999

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theoretical_quantile", "sample_quantile"])
            for t, e in zip(self.theoretical, self.empirical):
                writer.writerow([repr(float(t)), repr(float(e))])


def qq_normality_check(samples) -> QQReport:
    """Ordered sample values against normal quantiles (Blom positions).

    The correlation coefficient of the QQ line is the summary statistic;
    values >= 0.999 are treated as consistent with normality.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    empirical = np.sort(samples)
    positions = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    theoretical = stats.norm.ppf(positions)
    corr = float(np.corrcoef(theoretical, empirical)[0, 1])
    return QQReport(theoretical=theoretical, empirical=empirical, correlation=corr)
