"""Analytical uncertainty propagation for the sensitivity coefficients.

Chain: polar measurement noise -> Cartesian voltage stds -> per-entry
variances of H -> per-entry variances of H^-1 -> per-coefficient stds.
The three variance stages (propagate_to_H, inverse_self_variance,
coefficient_variance) each take and return plain arrays.

A solve that holds only rows R and columns C of x (see
``solve_coefficients``) takes the restricted form of the same formula,

    var(x)[R, C] = ((H^-1[R, :])o2 var(H)) (H^-1[:, C])o2 * s[C]^2,

with o2 the entrywise square and s the signs of z; the full table is
R = C = every row, with H^-1 on both sides.  var(H) is evaluated on H's
structural pattern only (the node pairs where Y or its noise is nonzero,
and the 2x2 diagonal blocks) and returned dense.

Variances (not stds) are the internal currency; only analytical_sigma,
the end-to-end call, returns stds.  All cross-covariances between
distinct admittance elements, between admittance and voltage, and
between distinct voltage entries are taken as zero (inputs are perturbed
independently); repeated occurrences of the *same* input variable inside
one H entry are combined before squaring, so entries on the diagonal are
handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .coefficients import SensitivityProblem
from .errors import ConfigError
from .loadflow import GridState
from .network import AdmittanceMatrix, read_yaml


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
        for sigma in (self.sigma_re, self.sigma_im):
            if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
                raise ConfigError("admittance stds must be finite and nonnegative")

    @classmethod
    def from_relative(cls, Y: AdmittanceMatrix, level_pct: float):
        """Both stds set to ``level_pct`` percent of |element|.

        Structurally zero elements keep zero std.  A level that is not a
        finite, nonnegative number raises ConfigError.
        """
        # checked before the product: 0 * inf would warn and give nan
        if not 0 <= level_pct < math.inf:
            raise ConfigError(
                f"admittance noise level must be a finite, nonnegative "
                f"percentage, not {level_pct!r}"
            )
        sigma = np.abs(Y.matrix) * (level_pct / 100.0)
        return cls(sigma_re=sigma, sigma_im=sigma.copy(), level_pct=level_pct)

    @classmethod
    def zero(cls, n_nodes):
        z = np.zeros((n_nodes, n_nodes))
        return cls(z, z.copy(), level_pct=0.0)


# -- IT class table ----------------------------------------------------------


#: the keys of one IT class entry, worst-case limits
CLASS_LIMITS = ("magnitude_pct", "phase_rad")


def load_noise_config(path=None):
    """Read a noise configuration file; None reads the bundled table.

    The file holds one key, ``it_classes``, mapping string class labels
    to ``{magnitude_pct, phase_rad}`` worst-case limits given as finite
    numbers.  A custom class is one more entry.  Any other content raises
    ConfigError naming the offending key or class.
    """
    if path is None:
        path = resources.files("pfsc.data").joinpath("noise_classes.yaml")
    raw = read_yaml(path, ConfigError)
    if not isinstance(raw, dict) or "it_classes" not in raw:
        raise ConfigError(f"{path}: missing it_classes table")
    for key in raw:
        if key != "it_classes":
            raise ConfigError(f"{path}: unknown key {key!r} (only it_classes is read)")
    classes = raw["it_classes"]
    if not isinstance(classes, dict):
        raise ConfigError(f"{path}: it_classes must map class labels to limits")
    for label, entry in classes.items():
        what = f"{path}: IT class {label!r}"
        if not isinstance(label, str):
            raise ConfigError(f"{what}: the label must be a string (quote it)")
        if not isinstance(entry, dict):
            raise ConfigError(f"{what} must be a mapping of {', '.join(CLASS_LIMITS)}")
        for key in entry:
            if key not in CLASS_LIMITS:
                raise ConfigError(f"{what}: unknown key {key!r}")
        for key in CLASS_LIMITS:
            if key not in entry:
                raise ConfigError(f"{what}: missing {key}")
            value = entry[key]
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"{what}: {key} must be a number, not {value!r}")
    return raw


def it_class_to_polar(class_label, config=None) -> PolarNoiseSpec:
    """Polar stds from an instrument-transformer accuracy class.

    The class worst-case limits (magnitude in percent, phase in radians)
    are read from ``config``, as ``load_noise_config`` returns it (None
    reads the bundled table), and interpreted as 3-sigma bounds, so the
    returned stds are limit/3.
    """
    if config is None:
        config = load_noise_config()
    classes = config["it_classes"]
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
    state: GridState | np.ndarray, polar: PolarNoiseSpec
) -> CartesianNoiseSpec:
    """Closed-form stds of Re(E) and Im(E) from polar noise stds.

    The imaginary-part variance carries -cos(2*theta) where the real part
    carries +cos(2*theta).  The sampling oracle in the test suite confirms
    that this sign-corrected form reproduces empirical stds, and that the
    repeated-sign form (+cos(2*theta) in both) is off by orders of
    magnitude away from theta = pi/2.  See docs/projection-validation in
    the README.
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
    var_im = common * (1.0 - damp2 * np.cos(2 * theta)) + rho**2 * np.sin(theta) ** 2 * tail
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
) -> np.ndarray:
    """Per-entry variance of H via sum/product error-propagation rules.

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


# -- variance of H^-1 --------------------------------------------------------


def inverse_self_variance(
    H_inv: np.ndarray, var_H: np.ndarray, H_inv_cols: np.ndarray | None = None
) -> np.ndarray:
    """Per-entry variance of H^-1: (H^-1 o H^-1) var(H) (H^-1 o H^-1).

    ``o`` is the entrywise square.  ``H_inv`` may be a block of
    rows H^-1[R, :] and ``H_inv_cols`` a block of columns H^-1[:, C]; the
    result is then the block var(H^-1)[R, C].  ``H_inv_cols`` None (or the
    same array as ``H_inv``) is the full H^-1 on both sides.  The full
    cross-covariance of H^-1 would be (2n)^2 x (2n)^2 and is never
    materialized.
    """
    sq = H_inv**2
    sq_cols = sq if H_inv_cols is None or H_inv_cols is H_inv else H_inv_cols**2
    if sq.shape[1:] != var_H.shape[:1] or var_H.shape[1:] != sq_cols.shape[:1]:
        raise ValueError("shape mismatch between H^-1 and its variance")
    return sq @ var_H @ sq_cols


# -- coefficient variance ----------------------------------------------------


def coefficient_variance(var_Hinv: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Coefficient variances for z = diag(signs).

    The sum var(x)_ic = sum_j var(Hinv)_ij z_jc^2 of a diagonal z reduces
    to scaling column c by s_c^2.
    """
    return var_Hinv * signs**2


# -- end-to-end convenience --------------------------------------------------


def analytical_sigma(result, Y, state, yu, en):
    """Coefficient stds from the full analytical chain, aligned with
    ``result.x``: the rows and columns of x the result holds."""
    problem = result.problem
    var_H = propagate_to_H(problem, Y, state, yu, en)
    var_Hinv = inverse_self_variance(result.H_inv_rows, var_H, result.H_inv_cols)
    return np.sqrt(coefficient_variance(var_Hinv, problem.signs[result.cols]))
