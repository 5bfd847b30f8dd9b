"""Reference implementations that only the tests use.

Each is an oracle for a quantity the package computes another way (or
not at all): a trial's random stream built one trial at a time, the
hand-derived channel form of var(H), var(H) as one dense bincount and the
coefficient stds of its dense product chain, the literal loop forms of the
inverse variance, single cross terms of cov(H^-1), the coefficient
variance for any z, the magnitude derivative, the refuted repeated-sign
projection, the QQ normality check, the nested-loop enumeration and
spelled-out labels of the report's coefficients, their positions
read off a ``dim x dim`` mask, and the nonzero mask of a dense matrix.
Tests import them as they import ``conftest`` helpers.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats

from pfsc.coefficients import INJECTIONS, PARTS, P, SensitivityProblem
from pfsc.loadflow import GridState, jacobian_derivative
from pfsc.network import AdmittanceMatrix
from pfsc.report import CoefficientKey
from pfsc.uncertainty import AdmittanceUncertainty, CartesianNoiseSpec


def structural_nonzero(Ym):
    """(m, m) mask of the nonzero entries of the complex matrix ``Ym``: the
    pattern that ``AdmittanceMatrix`` stores."""
    # (Re, Im) != 0 of each entry side by side; read as one uint16, the
    # pair is nonzero where either is
    nonzero = np.ascontiguousarray(Ym).view(np.float64) != 0
    return nonzero.view(np.uint16) != 0


def trial_rng(seed, k):
    """Trial k's own generator, built from ``SeedSequence((seed, k))``: the
    per-trial reference of the Monte-Carlo engine's batched streams."""
    return np.random.default_rng(np.random.SeedSequence((seed, k)))


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


def term_positions(dH) -> np.ndarray:
    """Flat position ``row * dim + column`` in the dim x dim H of each
    term of ``dH`` (``loadflow.JacobianDerivative``), shaped as its
    ``slot``: the stored entry at that data offset of its CSC layout."""
    cols = np.repeat(np.arange(dH.dim), np.diff(dH.indptr))
    return dH.indices[dH.slot] * dH.dim + cols[dH.slot]


def dense_var_H(problem: SensitivityProblem, yu, en) -> np.ndarray:
    """var(H) = (J o J) var(inputs) as one dense (dim, dim) bincount over
    the flat positions of J's terms: the bitwise reference of the values
    that ``propagate_to_H`` stores on H's pattern.  J takes its admittance
    inputs where Y or its noise is nonzero, as ``propagate_to_H`` does."""
    Y, E = problem.point
    linked = structural_nonzero(Y.matrix) | (yu.sigma_re != 0) | (yu.sigma_im != 0)
    dH = jacobian_derivative(Y, E, problem.nonslack, np.flatnonzero(linked))
    stds = (en.sigma_re, en.sigma_im, yu.sigma_re.take(dH.pairs), yu.sigma_im.take(dH.pairs))
    per_entry = (dH.coefficient**2 * (np.concatenate(stds) ** 2)[dH.input]).sum(axis=1)
    flat = np.bincount(term_positions(dH).ravel(), weights=per_entry.ravel(),
                       minlength=dH.dim**2)
    return flat.reshape(dH.dim, dH.dim)


def dense_chain_sigma(result, var_H: np.ndarray) -> np.ndarray:
    """Coefficient stds aligned with ``result.x``, from the dense products
    ((H^-1[R, :])o2 var(H)) (H^-1[:, C])o2 with a dense var(H)."""
    var = result.H_inv_rows**2 @ var_H @ result.H_inv_cols**2
    return np.sqrt(var * result.problem.signs[result.cols] ** 2)


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


def channel_variance(
    problem: SensitivityProblem,
    Y: AdmittanceMatrix,
    state: GridState,
    yu: AdmittanceUncertainty,
    en: CartesianNoiseSpec,
) -> np.ndarray:
    """Per-entry variance of H from hand-derived channel formulas: the
    reference for ``propagate_to_H``, which derives the same sums from one
    operator, dH/d(input).

    Every H entry is a sum of bilinear products of one voltage part and
    one admittance part; the variance of each entry is the quadratic form
    sum_v (dH/dv)^2 var(v) over the independent inputs v (first order:
    the var(a)var(b) product-rule term of each bilinear pairing is left
    out).

    The channel formulas are evaluated on H's structural pattern only:
    the node pairs where Y or its noise is nonzero, plus the 2x2 diagonal
    blocks, whose K-term sums run over that pattern of each row.  Every
    other entry of the returned dense array is exactly zero.
    """
    Ym = Y.matrix
    E = state.voltages
    ns = np.array(problem.nonslack, dtype=np.intp)
    n = len(ns)
    m = E.size
    vEr, vEi = en.sigma_re**2, en.sigma_im**2
    if vEr.shape != (m,) or yu.sigma_re.shape != (m, m):
        raise ValueError("noise spec dimensions do not match the network")

    # The pattern: the (nonslack r, node n) pairs where Y_rn or its noise
    # is nonzero.  Every channel below vanishes exactly elsewhere.
    nz = (Ym[ns] != 0) | (yu.sigma_re[ns] != 0) | (yu.sigma_im[ns] != 0)
    k, node = np.nonzero(nz)  # row-major: by row r = ns[k], then by node n
    r = ns[k]
    # inputs enter squared: e^2 var(y) + y^2 var(e) per bilinear channel
    er2, ei2 = E.real**2, E.imag**2
    y = Ym[r, node]
    yr2, yi2 = y.real**2, y.imag**2
    vYr, vYi = yu.sigma_re[r, node] ** 2, yu.sigma_im[r, node] ** 2

    var = np.zeros((2 * n, 2 * n))

    # Off-diagonal node pairs (r != c, both nonslack): only the A-term
    # A_rc = conj(E_r) Y_rc contributes.
    #   Re(A) = er_r yr_rc + ei_r yi_rc ; Im(A) = er_r yi_rc - ei_r yr_rc
    col = np.full(m, -1)
    col[ns] = np.arange(n)
    c = col[node]
    off = (c >= 0) & (c != k)
    kr, kc, rr = k[off], c[off], r[off]
    yr2_o, yi2_o, vYr_o, vYi_o = yr2[off], yi2[off], vYr[off], vYi[off]
    er2_r, ei2_r, vEr_r, vEi_r = er2[rr], ei2[rr], vEr[rr], vEi[rr]

    v_reA = er2_r * vYr_o + ei2_r * vYi_o + yr2_o * vEr_r + yi2_o * vEi_r
    v_imA = er2_r * vYi_o + ei2_r * vYr_o + yi2_o * vEr_r + yr2_o * vEi_r

    var[2 * kr, 2 * kc] = v_reA
    var[2 * kr, 2 * kc + 1] = v_imA
    var[2 * kr + 1, 2 * kc] = v_imA
    var[2 * kr + 1, 2 * kc + 1] = v_reA

    # Diagonal node pairs (r == c): the K-term K_r = sum_n Y_rn E_n shares
    # inputs with A_rr, so gradients are combined before squaring.
    #
    # Each entry is a signed sum of Re/Im(A_rr) and Re/Im(K_r); its bilinear
    # pair coefficient on a product channel (E part, Y_rn part) is 1 +- 1 at
    # n = r, where A_rr adds to K_r, and +-1 elsewhere:
    #   Re(A_rr): (Re E_n, Re Y_rn) +1, (Im E_n, Im Y_rn) +1, at n = r only
    #   Im(A_rr): (Re E_n, Im Y_rn) +1, (Im E_n, Re Y_rn) -1, at n = r only
    #   Re(K_r):  (Re E_n, Re Y_rn) +1, (Im E_n, Im Y_rn) -1, at every n
    #   Im(K_r):  (Re E_n, Im Y_rn) +1, (Im E_n, Re Y_rn) +1, at every n
    # A channel with coefficient c contributes c^2 (e^2 var(y) + y^2 var(e)).
    # Over the pattern, c^2 is 1 except at n = r, where it is (1 + 1)^2 = 4
    # on an "up" channel and (1 - 1)^2 = 0 on a "down" one.
    er2_n, ei2_n, vEr_n, vEi_n = er2[node], ei2[node], vEr[node], vEi[node]
    ch_rr = er2_n * vYr + yr2 * vEr_n  # (Re E_n, Re Y_rn)
    ch_ii = ei2_n * vYi + yi2 * vEi_n  # (Im E_n, Im Y_rn)
    ch_ri = er2_n * vYi + yi2 * vEr_n  # (Re E_n, Im Y_rn)
    ch_ir = ei2_n * vYr + yr2 * vEi_n  # (Im E_n, Re Y_rn)
    at_r = node == r

    def weighted_sum(up, down):
        """Row sums of c^2 up + c^2 down: c^2 = 1, except 4 and 0 at n = r."""
        both = up + down
        both[at_r] = 4.0 * up[at_r]
        return np.bincount(k, weights=both, minlength=n)

    # H_rr entries: Re A + Re K | -Im A + Im K | Im A + Im K | Re A - Re K
    re, im = 2 * np.arange(n), 2 * np.arange(n) + 1
    var[re, re] = weighted_sum(ch_rr, ch_ii)
    var[re, im] = weighted_sum(ch_ir, ch_ri)
    var[im, re] = weighted_sum(ch_ri, ch_ir)
    var[im, im] = weighted_sum(ch_ii, ch_rr)
    return var


def brute_force_keys(problem, coefficients=None):
    """Nested-loop enumeration of the report keys, row-major over x, with
    their positions from ``problem.row`` and ``problem.column``."""
    net = problem.network
    pairs = [
        (bus.index, ph)
        for bus in net.buses
        if bus.index != net.slack_bus
        for ph in range(net.phase_count)
    ]
    wanted = None if coefficients is None else {tuple(c) for c in coefficients}
    keys, rows, cols = [], [], []
    for bus_i, ph_i in pairs:
        for part in ("re", "im"):
            for bus_l, ph_l in pairs:
                for wrt in ("P", "Q"):
                    if wanted is not None and (bus_i, bus_l, part, wrt) not in wanted:
                        continue
                    keys.append(CoefficientKey(bus_i, ph_i, part, bus_l, ph_l, wrt))
                    rows.append(problem.row(bus_i, ph_i, part))
                    cols.append(problem.column(bus_l, ph_l, wrt))
    return keys, rows, cols


def positions_by_mask(network, coefficients=None):
    """``report.coefficient_positions`` of well-formed filter entries, as
    the ``np.nonzero`` of a ``dim x dim`` mask that each entry sets."""
    nodes = network.nonslack_nodes()
    dim = 2 * len(nodes)
    keep = np.zeros((dim, dim), dtype=bool)
    if coefficients is None:
        keep[:] = True
    for bus_i, bus_l, part, wrt in coefficients or ():
        r = [2 * k + PARTS.index(part) for k, (bus, _) in enumerate(nodes) if bus == bus_i]
        c = [2 * k + INJECTIONS.index(wrt) for k, (bus, _) in enumerate(nodes) if bus == bus_l]
        keep[np.ix_(r, c)] = True
    return np.nonzero(keep)


def coefficient_label(key, phase_count=1):
    """The report label of ``key`` spelled out: ``Re(dE4/dP2)``, and with
    more than one phase each bus number followed by its phase letter,
    ``Im(dE3b/dQ2c)``."""
    ph_i = "" if phase_count == 1 else "abc"[key.phase_i]
    ph_l = "" if phase_count == 1 else "abc"[key.phase_l]
    part = "Re" if key.part == "re" else "Im"
    return f"{part}(dE{key.bus_i}{ph_i}/d{key.wrt}{key.bus_l}{ph_l})"
