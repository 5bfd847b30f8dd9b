"""Analytical uncertainty propagation for the sensitivity coefficients.

Chain: polar measurement noise -> Cartesian voltage stds -> per-entry
variances of H -> per-entry variances of H^-1 -> per-coefficient stds.
The three variance stages (propagate_to_H, inverse_self_variance,
coefficient_variance) each take and return plain arrays.

Variances (not stds) are the internal currency; only analytical_sigma,
the end-to-end call, returns stds.  All cross-covariances between
distinct admittance elements, between admittance and voltage, and
between distinct voltage entries are taken as zero (inputs are perturbed
independently); repeated occurrences of the *same* input variable inside
one H entry are combined before squaring, so entries on the diagonal are
handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .coefficients import SensitivityProblem
from .errors import ConfigError
from .loadflow import GridState
from .network import AdmittanceMatrix

#: Imaginary-part projection variants, see project_polar_noise.
FORM_SIGN_CORRECTED = "sign-corrected"
FORM_REPEATED_SIGN = "repeated-sign"


# -- noise specifications ----------------------------------------------------


@dataclass(frozen=True)
class PolarNoiseSpec:
    """Per-node noise stds in polar coordinates.

    ``sigma_rho`` is the magnitude std; with ``relative=True`` (the
    default, matching instrument-transformer class semantics) it is a
    fraction of the nominal magnitude.  ``sigma_theta`` is the phase std
    in radians.  Scalars broadcast over all nodes.
    """

    sigma_rho: float = 0.0
    sigma_theta: float = 0.0
    relative: bool = True

    def __post_init__(self):
        if self.sigma_rho < 0 or self.sigma_theta < 0:
            raise ConfigError("polar noise stds must be nonnegative")


@dataclass(frozen=True)
class CartesianNoiseSpec:
    """Per-node stds of the real and imaginary voltage parts (per-unit)."""

    sigma_re: np.ndarray
    sigma_im: np.ndarray

    @classmethod
    def zero(cls, n_nodes):
        return cls(np.zeros(n_nodes), np.zeros(n_nodes))


@dataclass(frozen=True)
class AdmittanceUncertainty:
    """Per-element stds of Re(Y) and Im(Y), same shape as Y."""

    sigma_re: np.ndarray
    sigma_im: np.ndarray
    level_pct: float | None = None  # set when built via from_relative

    def __post_init__(self):
        if np.any(self.sigma_re < 0) or np.any(self.sigma_im < 0):
            raise ConfigError("admittance stds must be nonnegative")

    @classmethod
    def from_relative(cls, Y: AdmittanceMatrix | np.ndarray, level_pct: float):
        """Both stds set to ``level_pct`` percent of |element|.

        Structurally zero elements keep zero std.
        """
        Ym = Y.matrix if isinstance(Y, AdmittanceMatrix) else np.asarray(Y)
        sigma = np.abs(Ym) * (level_pct / 100.0)
        return cls(sigma_re=sigma, sigma_im=sigma.copy(), level_pct=level_pct)

    @classmethod
    def zero(cls, n_nodes):
        z = np.zeros((n_nodes, n_nodes))
        return cls(z, z.copy(), level_pct=0.0)


# -- IT class table ----------------------------------------------------------


def load_noise_config(path=None):
    """Read a noise configuration file; None reads the bundled table.

    Expected keys: ``it_classes`` mapping class labels to
    ``{magnitude_pct, phase_rad}`` worst-case limits, and optionally
    ``admittance_sigma_pct``.
    """
    if path is None:
        path = resources.files("pfsc.data").joinpath("noise_classes.yaml")
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict) or "it_classes" not in raw:
        raise ConfigError(f"{path}: missing it_classes table")
    return raw


def it_class_to_polar(class_label, config=None, magnitude_pct=None,
                      phase_rad=None) -> PolarNoiseSpec:
    """Polar stds from an instrument-transformer accuracy class.

    The class worst-case limits (magnitude in percent, phase in radians)
    are read from ``config`` and interpreted as 3-sigma bounds, so the
    returned stds are limit/3.  ``class_label`` "custom" takes the limits
    from the keyword arguments instead.
    """
    if str(class_label) == "custom":
        if magnitude_pct is None or phase_rad is None:
            raise ConfigError("custom IT class needs magnitude_pct and phase_rad")
        return PolarNoiseSpec(
            sigma_rho=magnitude_pct / 100.0 / 3.0,
            sigma_theta=phase_rad / 3.0,
        )
    if config is None:
        config = load_noise_config()
    classes = config.get("it_classes", config)
    entry = classes.get(str(class_label))
    if entry is None:
        known = ", ".join(sorted(classes))
        raise ConfigError(f"unknown IT class {class_label!r} (known: {known})")
    return PolarNoiseSpec(
        sigma_rho=float(entry["magnitude_pct"]) / 100.0 / 3.0,
        sigma_theta=float(entry["phase_rad"]) / 3.0,
    )


# -- polar -> Cartesian projection ------------------------------------------


def project_polar_noise(
    state: GridState | np.ndarray,
    polar: PolarNoiseSpec,
    form: str = FORM_SIGN_CORRECTED,
) -> CartesianNoiseSpec:
    """Closed-form stds of Re(E) and Im(E) from polar noise stds.

    Two variants of the imaginary-part expression are provided.  The
    ``sign-corrected`` default flips the sign of the cos(2*theta) term in
    the imaginary-part variance relative to the ``repeated-sign`` form;
    the sampling oracle in the test suite confirms that only the corrected
    form reproduces empirical stds (the literal form reuses the real-part
    cos(2*theta) sign and is off by orders of magnitude away from
    theta = pi/2).  See docs/projection-validation in the README.
    """
    E = state.voltages if isinstance(state, GridState) else np.asarray(state)
    rho = np.abs(E)
    theta = np.angle(E)
    if polar.sigma_rho == 0.0 and polar.sigma_theta == 0.0:
        return CartesianNoiseSpec.zero(E.size)

    sa = polar.sigma_rho if polar.relative else polar.sigma_rho / rho
    sb = polar.sigma_theta
    damp2 = np.exp(-2.0 * sb**2)
    damp_half = np.exp(-0.5 * sb**2)
    common = 0.5 * (1.0 + sa**2) * rho**2
    tail = 1.0 - 2.0 * damp_half

    var_re = common * (1.0 + damp2 * np.cos(2 * theta)) + rho**2 * np.cos(theta) ** 2 * tail
    if form == FORM_REPEATED_SIGN:
        var_im = (
            common * (1.0 + damp2 * np.cos(2 * theta))
            + rho**2 * np.sin(theta) ** 2 * tail
        )
    elif form == FORM_SIGN_CORRECTED:
        var_im = (
            common * (1.0 - damp2 * np.cos(2 * theta))
            + rho**2 * np.sin(theta) ** 2 * tail
        )
    else:
        raise ConfigError(f"unknown projection form {form!r}")
    # cancellation can leave tiny negative residue at very small noise
    var_re = np.maximum(var_re, 0.0)
    var_im = np.maximum(var_im, 0.0)
    return CartesianNoiseSpec(sigma_re=np.sqrt(var_re), sigma_im=np.sqrt(var_im))


# -- variance of H -----------------------------------------------------------


def propagate_to_H(
    problem: SensitivityProblem,
    Y: AdmittanceMatrix,
    state: GridState,
    yu: AdmittanceUncertainty,
    en: CartesianNoiseSpec,
    second_order: bool = False,
) -> np.ndarray:
    """Per-entry variance of H via sum/product error-propagation rules.

    Every H entry is a sum of bilinear products of one voltage part and
    one admittance part; the variance of each entry is the quadratic form
    sum_v (dH/dv)^2 var(v) over the independent inputs v.  With
    ``second_order=True`` the +var(a)var(b) product-rule term is included
    for every bilinear pairing (default off; the first-order form is the
    operating regime of the propagation).
    """
    Ym = Y.matrix if isinstance(Y, AdmittanceMatrix) else np.asarray(Y)
    E = state.voltages if isinstance(state, GridState) else np.asarray(state)
    ns = np.array(problem.nonslack, dtype=np.intp)
    block = (ns[:, None], ns)  # the (nonslack, nonslack) block of an (m, m) array
    n = len(ns)
    m = E.size

    # inputs enter squared: e^2 var(y) + y^2 var(e) per bilinear channel
    er2, ei2 = E.real**2, E.imag**2
    yr2, yi2 = Ym.real**2, Ym.imag**2
    vEr, vEi = en.sigma_re**2, en.sigma_im**2
    vYr, vYi = yu.sigma_re**2, yu.sigma_im**2
    if vEr.shape != (m,) or vYr.shape != (m, m):
        raise ValueError("noise spec dimensions do not match the network")

    var = np.empty((2 * n, 2 * n))

    # Off-diagonal node pairs (r != c): only the A-term
    # A_rc = conj(E_r) Y_rc contributes.
    #   Re(A) = er_r yr_rc + ei_r yi_rc ; Im(A) = er_r yi_rc - ei_r yr_rc
    er2_r = er2[ns][:, None]
    ei2_r = ei2[ns][:, None]
    yr2_b = yr2[block]
    yi2_b = yi2[block]
    vYr_b = vYr[block]
    vYi_b = vYi[block]
    vEr_r = vEr[ns][:, None]
    vEi_r = vEi[ns][:, None]

    v_reA = er2_r * vYr_b + ei2_r * vYi_b + yr2_b * vEr_r + yi2_b * vEi_r
    v_imA = er2_r * vYi_b + ei2_r * vYr_b + yi2_b * vEr_r + yr2_b * vEi_r
    if second_order:
        v_reA = v_reA + vEr_r * vYr_b + vEi_r * vYi_b
        v_imA = v_imA + vEr_r * vYi_b + vEi_r * vYr_b

    var[0::2, 0::2] = v_reA
    var[0::2, 1::2] = v_imA
    var[1::2, 0::2] = v_imA
    var[1::2, 1::2] = v_reA

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
    # A channel with coefficient c contributes c^2 (e^2 var(y) + y^2 var(e))
    # at first order and c^2 var(e) var(y) at second order.  Over the
    # (nonslack r, node n) grid, c^2 is 1 except at n = r, where it is
    # (1 + 1)^2 = 4 on an "up" channel and (1 - 1)^2 = 0 on a "down" one.
    yr2_n, yi2_n, vYr_n, vYi_n = yr2[ns], yi2[ns], vYr[ns], vYi[ns]
    ch_rr = er2 * vYr_n + yr2_n * vEr  # (Re E_n, Re Y_rn)
    ch_ii = ei2 * vYi_n + yi2_n * vEi  # (Im E_n, Im Y_rn)
    ch_ri = er2 * vYi_n + yi2_n * vEr  # (Re E_n, Im Y_rn)
    ch_ir = ei2 * vYr_n + yr2_n * vEi  # (Im E_n, Re Y_rn)
    if second_order:
        ch_rr = ch_rr + vEr * vYr_n
        ch_ii = ch_ii + vEi * vYi_n
        ch_ri = ch_ri + vEr * vYi_n
        ch_ir = ch_ir + vEi * vYr_n
    k = np.arange(n)
    at_r = (k, ns)  # the n = r entries of the grid

    def weighted_sum(up, down):
        """Row sums of c^2 up + c^2 down: c^2 = 1, except 4 and 0 at n = r."""
        both = up + down
        both[at_r] = 4.0 * up[at_r]
        return both.sum(axis=1)

    # H_rr entries: Re A + Re K | -Im A + Im K | Im A + Im K | Re A - Re K
    re, im = 2 * k, 2 * k + 1
    var[re, re] = weighted_sum(ch_rr, ch_ii)
    var[re, im] = weighted_sum(ch_ir, ch_ri)
    var[im, re] = weighted_sum(ch_ri, ch_ir)
    var[im, im] = weighted_sum(ch_ii, ch_rr)
    return var


# -- variance of H^-1 --------------------------------------------------------


def inverse_self_variance(H_inv: np.ndarray, var_H: np.ndarray) -> np.ndarray:
    """Per-entry variance of H^-1: (H^-1 o H^-1) var(H) (H^-1 o H^-1).

    ``o`` is the entrywise square; algebraically identical to the
    quadruple-loop reference implementation.  The full cross-covariance
    of H^-1 would be (2n)^2 x (2n)^2 and is never materialized;
    ``inverse_cross_covariance`` gives single cross terms.
    """
    sq = H_inv**2
    if sq.shape != var_H.shape:
        raise ValueError("shape mismatch between H^-1 and its variance")
    return sq @ var_H @ sq


def inverse_self_variance_reference(H_inv: np.ndarray, var_H: np.ndarray) -> np.ndarray:
    """O(n^4) literal double sum, kept as the cross-check implementation."""
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


# -- coefficient variance ----------------------------------------------------


def coefficient_variance(var_Hinv: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Coefficient variances for z = diag(signs).

    The sum var(x)_ic = sum_j var(Hinv)_ij z_jc^2 of a diagonal z reduces
    to scaling column c by s_c^2; general_variance takes any other z.
    """
    return var_Hinv * signs**2


def general_variance(
    H_inv: np.ndarray, var_Hinv: np.ndarray, z: np.ndarray, zv: np.ndarray
) -> np.ndarray:
    """Coefficient variances for any z, including the variance ``zv`` of z.

    With ``zv`` identically zero and z = diag(s) this reproduces
    coefficient_variance bitwise.
    """
    return H_inv**2 @ np.asarray(zv) + var_Hinv @ (z**2)


# -- end-to-end convenience --------------------------------------------------


def analytical_sigma(result, Y, state, yu, en, second_order=False):
    """Coefficient stds from the full analytical chain, aligned with x."""
    problem = result.problem
    var_H = propagate_to_H(problem, Y, state, yu, en, second_order=second_order)
    var_Hinv = inverse_self_variance(result.H_inv, var_H)
    return np.sqrt(coefficient_variance(var_Hinv, problem.signs))
