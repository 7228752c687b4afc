"""Stationary covariance kernels for the Gaussian log-field.

The Matern family is the only kernel used: it covers the exponential
covariance (nu = 1/2) and arbitrarily smooth fields as nu grows.  Kernels
are functions of scalar distance only (isotropic), which is what the
circulant embedding of the covariance matrix requires.

The circulant embedding may multiply the Matern kernel by a smooth
cutoff (``smooth_cutoff``): the product equals the Matern kernel up to a
distance and vanishes from a larger one, so its periodization on a torus
twice that larger distance long is smooth and keeps every covariance
inside the smaller distance (Bachmayr, Graham, Nguyen and Scheichl, SIAM
J. Numer. Anal. 2020).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import gammaln, kv

__all__ = ["MaternParams", "MeanField", "matern_cov", "smooth_cutoff"]

# Below this argument the Bessel product is evaluated by its r -> 0 limit;
# kv underflows/overflows long before the limit stops being accurate here.
_SMALL_T = 1e-8


@dataclass(frozen=True)
class MaternParams:
    """Parameters of the Matern covariance.

    sigma2 : variance of the field (value at zero distance)
    lambda_c : correlation length, in the units of the spatial coordinates
    nu : smoothness parameter, > 0
    """

    sigma2: float
    lambda_c: float
    nu: float

    def __post_init__(self):
        if not (self.sigma2 > 0):
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if not (self.lambda_c > 0):
            raise ValueError(f"lambda_c must be > 0, got {self.lambda_c}")
        if not (self.nu > 0):
            raise ValueError(f"nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class MeanField:
    """Mean of the Gaussian log-field, a constant or a callable of position.

    A callable receives an (npts, d) array and returns (npts,) values.
    """

    zbar: Union[float, Callable[[np.ndarray], np.ndarray]] = 0.0

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the mean at an (npts, d) array of points."""
        points = np.asarray(points, dtype=float)
        if callable(self.zbar):
            vals = np.asarray(self.zbar(points), dtype=float)
        else:
            vals = np.full(points.shape[0], float(self.zbar))
        if not np.all(np.isfinite(vals)):
            raise ValueError("mean field must be finite on the domain")
        return vals


def matern_cov(p: MaternParams, r) -> np.ndarray:
    """Evaluate the Matern covariance at distance(s) ``r``.

    Computes ``sigma2 * 2^(1-nu)/Gamma(nu) * t^nu * K_nu(t)`` with
    ``t = sqrt(2 nu) * r / lambda_c``.  The value at r = 0 is exactly
    ``sigma2`` (the Bessel form is an indeterminate 0 * inf there).

    Accepts a scalar or an array of nonnegative distances; returns the
    same shape.  Raises ValueError for negative distances.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("distance must be nonnegative")
    t = np.sqrt(2.0 * p.nu) * r_arr / p.lambda_c
    out = np.full_like(t, p.sigma2)
    mask = t >= _SMALL_T
    if np.any(mask):
        tm = t[mask]
        # log-scaled prefactor avoids Gamma overflow at large nu
        log_pref = (1.0 - p.nu) * np.log(2.0) - gammaln(p.nu)
        vals = p.sigma2 * np.exp(log_pref + p.nu * np.log(tm)) * kv(p.nu, tm)
        # kv underflows to 0 for very large t; the covariance does too
        out[mask] = np.where(np.isfinite(vals), vals, 0.0)
    if np.ndim(r) == 0:
        return float(out)
    return out


def smooth_cutoff(r, inner: float, outer: float) -> np.ndarray:
    """A C-infinity cutoff of distance: exactly 1 on [0, inner], exactly 0
    from ``outer`` on (``inner < outer``).

    With u = (r - inner) / (outer - inner) and f(x) = exp(-1/x) for
    x > 0, else 0, it is f(1 - u) / (f(1 - u) + f(u)): at u <= 0 the
    denominator is the numerator, at u >= 1 the numerator is zero.
    """
    u = (np.asarray(r, dtype=float) - inner) / (outer - inner)
    with np.errstate(divide="ignore"):
        keep = np.exp(-1.0 / np.maximum(1.0 - u, 0.0))     # f(1 - u)
        drop = np.exp(-1.0 / np.maximum(u, 0.0))           # f(u)
    return keep / (keep + drop)

