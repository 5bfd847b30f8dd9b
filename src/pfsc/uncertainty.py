"""Analytical uncertainty propagation for the sensitivity coefficients.

Chain: polar measurement noise -> Cartesian voltage stds -> per-entry
variances of H -> per-entry variances of H^-1 -> per-coefficient stds.
The three variance stages are propagate_to_H, inverse_self_variance and
coefficient_variance.  var(H) passes between the first two on H's
structural pattern (``loadflow.PatternArray``, CSC arrays); every other
stage takes and returns plain dense arrays.

A solve that holds only rows R and columns C of x (see
``solve_coefficients``) takes the restricted form of the same formula,

    var(x)[R, C] = ((H^-1[R, :])o2 var(H)) (H^-1[:, C])o2 * s[C]^2,

with o2 the entrywise square and s the signs of z; the full table is
R = C = every row, with H^-1 on both sides.  The left product gathers
the columns of (H^-1[R, :])o2 at the row indices of var(H)'s stored
entries and sums them per column of var(H): it is |R| x dim, and no
dim x dim variance is formed.

var(H) = (J o J) var(inputs) is the first-order law of the GUM (JCGM
100:2008, 5.1), with J = dH/d(input) the exact derivative of the
bilinear H with respect to Re and Im of each voltage and of each
admittance entry (``loadflow.JacobianDerivative``), at the point (Y, E)
that every ``SensitivityProblem`` holds.  J is derived once per problem (its
``dH``), so each noise level costs one gather of the input variances and
one product with J o J.  The admittance stds are stored on a pattern
(``AdmittanceUncertainty``), Y's for ``from_relative``, and are gathered
at J's admittance inputs from there.  Noise where Y is zero in a
non-slack row is an input that the problem's J lacks, and J is derived
again for that call.  var(H) is nonzero only on H's structural pattern
(the node pairs where Y or its noise is nonzero, and the 2x2 diagonal
blocks), and it is returned there: J carries that pattern in CSC form,
from the layout routine that ``loadflow.SparseJacobian`` reads too, and
the data offset of each term, so the product bins each term straight
into its stored entry.

Variances (not stds) are the internal currency; only analytical_sigma,
the end-to-end call, returns stds.  All cross-covariances between
distinct admittance elements, between admittance and voltage, and
between distinct voltage entries are taken as zero (inputs are perturbed
independently); an input that occurs more than once in one H entry has
its derivatives summed before squaring, so entries on the diagonal are
handled exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .coefficients import SensitivityProblem
from .errors import ConfigError
from .loadflow import GridState, PatternArray, jacobian_derivative
from .network import AdmittanceMatrix, dense, read_yaml, take


# -- noise specifications ----------------------------------------------------


@dataclass(frozen=True)
class PolarNoiseSpec:
    """Per-node noise stds in polar coordinates.

    ``sigma_rho`` is the magnitude std; with ``relative=True`` (the
    default, matching instrument-transformer class semantics) it is a
    fraction of the nominal magnitude.  ``sigma_theta`` is the phase std
    in radians.  Each is one finite, nonnegative real number (not a bool),
    applied at every node; anything else raises ConfigError.
    """

    sigma_rho: float = 0.0
    sigma_theta: float = 0.0
    relative: bool = True

    def __post_init__(self):
        if not (_is_std(self.sigma_rho) and _is_std(self.sigma_theta)):
            raise ConfigError("polar noise stds must be finite, nonnegative real numbers")


@dataclass(frozen=True)
class CartesianNoiseSpec:
    """Per-node stds of the real and imaginary voltage parts (per-unit)."""

    sigma_re: np.ndarray
    sigma_im: np.ndarray

    @classmethod
    def zero(cls, n_nodes):
        return cls(np.zeros(n_nodes), np.zeros(n_nodes))


def _is_std(value):
    """Whether ``value`` is a finite, nonnegative real number; a bool is not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and 0 <= value < math.inf


def check_level(level_pct):
    """Raise ConfigError unless ``level_pct`` is a finite, nonnegative number."""
    if not _is_std(level_pct):
        raise ConfigError(
            f"admittance noise level must be a finite, nonnegative "
            f"percentage, not {level_pct!r}"
        )


class AdmittanceUncertainty:
    """Per-element stds of Re(Y) and Im(Y), stored on a pattern.

    ``positions`` holds sorted flat positions ``r m + c`` of the (m, m)
    admittance matrix, and ``re`` and ``im`` the two stds there, all
    read-only; every other element has zero std.  ``sigma_re`` and
    ``sigma_im`` are the dense (m, m) arrays, built afresh on each read.

    The constructor takes the two stds as dense (m, m) arrays of finite,
    nonnegative real numbers (nested lists too) and stores the elements
    where either is nonzero; anything else raises ConfigError.
    ``from_relative`` stores Y's pattern.  ``level_pct`` is the relative
    level that ``from_relative`` was given (0 for ``zero``), else None.
    """

    def __init__(self, sigma_re, sigma_im):
        re, im = (_std_array(sigma, name) for sigma, name in
                  ((sigma_re, "sigma_re"), (sigma_im, "sigma_im")))
        if re.ndim != 2 or re.shape[0] != re.shape[1]:
            raise ConfigError(f"admittance stds must be a square matrix, not {re.shape}")
        if im.shape != re.shape:
            raise ConfigError(
                f"admittance stds sigma_re {re.shape} and sigma_im {im.shape} differ in shape"
            )
        for sigma in (re, im):
            if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
                raise ConfigError("admittance stds must be finite and nonnegative")
        positions = np.flatnonzero((re != 0) | (im != 0))
        self._set(positions, re.reshape(-1)[positions], im.reshape(-1)[positions],
                  len(re), None)

    def _set(self, positions, re, im, n_nodes, level_pct):
        for array in (positions, re, im):
            array.flags.writeable = False
        self.positions, self.re, self.im = positions, re, im
        self.n_nodes, self.level_pct = n_nodes, level_pct
        self._padded = np.append(np.stack([re, im]), np.zeros((2, 1)), axis=1)

    @property
    def sigma_re(self):
        """The dense (m, m) std of Re(Y), a new array on each read."""
        return dense(self.positions, self.re, self.n_nodes)

    @property
    def sigma_im(self):
        """The dense (m, m) std of Im(Y), a new array on each read."""
        return dense(self.positions, self.im, self.n_nodes)

    def take(self, flat):
        """The stds at the flat positions ``flat``, (2, len(flat)): the
        real parts' and the imaginary parts'."""
        return take(self.positions, self._padded, flat)

    @classmethod
    def from_relative(cls, Y: AdmittanceMatrix, level_pct: float):
        """Both stds set to ``level_pct`` percent of |element|, on Y's
        pattern: the other elements, zero in Y, keep zero std.  A level
        that is not a finite, nonnegative number raises ConfigError.  The
        two stds are one array.
        """
        # checked before the product: 0 * inf would warn and give nan
        check_level(level_pct)
        sigma = np.abs(Y.values) * (level_pct / 100.0)
        yu = cls.__new__(cls)
        yu._set(Y.positions, sigma, sigma, Y.n_nodes, level_pct)
        return yu

    @classmethod
    def zero(cls, n_nodes):
        yu = cls.__new__(cls)
        yu._set(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), n_nodes, 0.0)
        return yu


def _std_array(sigma, name):
    """``sigma`` as a float array; ConfigError unless it holds real numbers."""
    try:
        array = np.asarray(sigma)
    except ValueError:  # a ragged nested list
        raise ConfigError(f"admittance std {name} must be numeric") from None
    if array.dtype.kind == "c":
        raise ConfigError(f"admittance std {name} must be real, not complex")
    if array.dtype.kind not in "iuf":
        raise ConfigError(f"admittance std {name} must be numeric, not {array.dtype}")
    return array.astype(float, copy=False)


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
    yu: AdmittanceUncertainty,
    en: CartesianNoiseSpec,
) -> PatternArray:
    """Per-entry variance of H at the problem's point, (J o J) var(inputs),
    on H's structural pattern.

    J = dH/d(input) (``loadflow.JacobianDerivative``) holds the exact
    derivative of each H entry with respect to each independent real
    input: Re and Im of every voltage, and of every admittance entry of a
    non-slack row where Y or its noise is nonzero.  This is the first-order
    law var(H_p) = sum_v J_pv^2 var(v) (GUM, JCGM 100:2008, 5.1); the
    var(a)var(b) term of each bilinear product is left out.  The result
    stores H's structural pattern (those node pairs, and the 2x2 diagonal
    blocks) in CSC form (``loadflow.PatternArray``), and every stored
    value is bitwise the entry of the dense (J o J) product; entries off
    the pattern are exactly zero.  ``toarray()`` gives the dense array.

    J is derived once per problem (``SensitivityProblem.dH``) and reused
    unless a nonzero std sits where Y is zero in a non-slack row (the
    stds' positions that Y does not store, in those rows); J is then
    derived for this call, on the pattern of Y and the noise together.
    Noise in the slack's rows enters no entry of H.  Voltage stds of
    another length than the nodes' raise ValueError.
    """
    Y, E = problem.point
    m = E.size
    if en.sigma_re.shape != (m,) or en.sigma_im.shape != (m,) or yu.n_nodes != m:
        raise ValueError("noise spec dimensions do not match the network")
    # noise where Y is zero (Y stores no zero) in a non-slack row is an
    # input that the problem's J lacks: J is derived again, with it
    off_Y = yu.positions[Y.take(yu.positions) == 0]
    dH = problem.dH
    if off_Y.size and np.isin(off_Y // m, problem.nonslack).any():
        dH = jacobian_derivative(Y, E, problem.nonslack, np.union1d(Y.positions, off_Y))
    stds = yu.take(dH.pairs)
    return dH.squared_product(np.concatenate((en.sigma_re, en.sigma_im, *stds)) ** 2)


# -- variance of H^-1 --------------------------------------------------------


def inverse_self_variance(
    H_inv: np.ndarray,
    var_H: PatternArray | np.ndarray,
    H_inv_cols: np.ndarray | None = None,
) -> np.ndarray:
    """Per-entry variance of H^-1: (H^-1 o H^-1) var(H) (H^-1 o H^-1).

    ``o`` is the entrywise square.  ``H_inv`` may be a block of
    rows H^-1[R, :] and ``H_inv_cols`` a block of columns H^-1[:, C]; the
    result is then the block var(H^-1)[R, C].  ``H_inv_cols`` None (or the
    same array as ``H_inv``) is the full H^-1 on both sides.

    ``var_H`` is the ``PatternArray`` that ``propagate_to_H`` returns, or a
    dense array, which is stored whole in that form.  The left product
    (H^-1[R, :])o2 var(H) gathers columns of the squared rows at the
    stored entries (``PatternArray.premultiply``), so it is |R| x dim, and
    the dense product with (H^-1[:, C])o2 follows.  Neither a dense var(H)
    nor the (2n)^2 x (2n)^2 cross-covariance of H^-1 is materialized.
    """
    if isinstance(var_H, np.ndarray):
        var_H = PatternArray.from_dense(var_H)
    sq = H_inv**2
    sq_cols = sq if H_inv_cols is None or H_inv_cols is H_inv else H_inv_cols**2
    if sq.shape[1:] != var_H.shape[:1] or var_H.shape[1:] != sq_cols.shape[:1]:
        raise ValueError("shape mismatch between H^-1 and its variance")
    return var_H.premultiply(sq) @ sq_cols


# -- coefficient variance ----------------------------------------------------


def coefficient_variance(var_Hinv: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Coefficient variances for z = diag(signs).

    The sum var(x)_ic = sum_j var(Hinv)_ij z_jc^2 of a diagonal z reduces
    to scaling column c by s_c^2.
    """
    return var_Hinv * signs**2


# -- end-to-end convenience --------------------------------------------------


def analytical_sigma(result, yu, en):
    """Coefficient stds from the full analytical chain at the problem's point,
    aligned with ``result.x``: the rows and columns of x the result holds."""
    problem = result.problem
    var_H = propagate_to_H(problem, yu, en)
    var_Hinv = inverse_self_variance(result.H_inv_rows, var_H, result.H_inv_cols)
    return np.sqrt(coefficient_variance(var_Hinv, problem.signs[result.cols]))
