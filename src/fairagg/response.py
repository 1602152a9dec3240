"""CDF-driven mapping from raw local losses to bounded response vectors.

Each client's loss is divided by the round's mean loss (centering the ratios
on 1) and pushed through a cumulative distribution function, then affinely
squeezed into [c1, c2].  Six CDF families are supported with fixed default
parameters; parameter estimation is deliberately out of scope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InvalidDimensionError


class CdfFamily(enum.Enum):
    WEIBULL = "Weibull"
    FRECHET = "Frechet"
    GUMBEL = "Gumbel"
    EXPONENTIAL = "Exponential"
    LOGISTIC = "Logistic"
    NORMAL = "Normal"


# Per-family default shape; Exponential is scale-only.
_DEFAULT_SHAPE = {
    CdfFamily.WEIBULL: 2.0,
    CdfFamily.FRECHET: 1.0,
    CdfFamily.GUMBEL: 1.0,
    CdfFamily.LOGISTIC: 1.0,
    CdfFamily.NORMAL: 1.0,
}


@dataclass(frozen=True)
class CdfKind:
    """A CDF family with its scale and (where applicable) shape parameter."""

    family: CdfFamily
    scale: float = 1.0
    shape: float | None = None

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError(f"scale must be positive, got {self.scale}")
        if self.family is CdfFamily.EXPONENTIAL:
            if self.shape is not None:
                raise DomainError("Exponential has no shape parameter")
        else:
            resolved = self.shape if self.shape is not None else _DEFAULT_SHAPE[self.family]
            if resolved <= 0.0:
                raise DomainError(f"shape must be positive, got {resolved}")
            object.__setattr__(self, "shape", float(resolved))


@dataclass(frozen=True)
class ResponseBounds:
    """Closed interval [c1, c2] that responses are squeezed into; 0 <= c1 < c2."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 <= self.c1 < self.c2):
            raise DomainError(f"bounds require 0 <= c1 < c2, got [{self.c1}, {self.c2}]")

    @classmethod
    def cross_silo(cls, k: int) -> "ResponseBounds":
        # Few, always-available clients: cap each response at 1/k.
        if k < 1:
            raise DomainError(f"need at least one client, got k={k}")
        return cls(0.0, 1.0 / k)

    @classmethod
    def cross_device(cls, sampling_fraction: float) -> "ResponseBounds":
        # Massive population, fraction C sampled per round: cap at C.
        return cls(0.0, sampling_fraction)


_math_erf = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """Gauss error function: ``math.erf`` at every element of an array.

    A scalar gives a 0-d array.
    """
    return np.asarray(_math_erf(np.asarray(x, dtype=float)), dtype=float)


def _cdf_values(kind: CdfKind, x: np.ndarray) -> np.ndarray:
    """The chosen CDF at every point of a nonnegative array; results in [0, 1].

    Where an exponent ``inner`` exceeds 700 its exp would overflow, and the
    CDF is 0 there; the exp itself is taken of ``min(inner, 700)``.
    """
    a, b = kind.scale, kind.shape
    if kind.family is CdfFamily.WEIBULL:
        return 1.0 - np.exp(-((x / a) ** b))
    if kind.family is CdfFamily.FRECHET:
        # log of (x/a)^(-b) guards pow overflow; x == 0 gives inner = +inf,
        # which the guard maps to the CDF's value 0 there.
        with np.errstate(divide="ignore"):
            inner = -b * np.log(x / a)
        return np.where(inner > 700.0, 0.0, np.exp(-np.exp(np.minimum(inner, 700.0))))
    if kind.family is CdfFamily.GUMBEL:
        inner = -(x - a) / b
        return np.where(inner > 700.0, 0.0, np.exp(-np.exp(np.minimum(inner, 700.0))))
    if kind.family is CdfFamily.EXPONENTIAL:
        return 1.0 - np.exp(-a * x)
    if kind.family is CdfFamily.LOGISTIC:
        inner = -(x - a) / b
        return np.where(inner > 700.0, 0.0, 1.0 / (1.0 + np.exp(np.minimum(inner, 700.0))))
    if kind.family is CdfFamily.NORMAL:
        return 0.5 * (1.0 + erf((x - a) / (b * math.sqrt(2.0))))
    raise DomainError(f"unknown CDF family {kind.family!r}")


def transform_losses(
    losses: np.ndarray, kind: CdfKind, bounds: ResponseBounds
) -> np.ndarray:
    """Map the round's raw losses into responses in [c1, c2].

    Each loss is divided by the mean over this round's available clients, so
    the CDF sees ratios centered on 1; the CDF value is then rescaled onto
    the response interval.  Order-preserving in the inputs.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size < 1:
        raise InvalidDimensionError("losses must be a nonempty 1-D vector")
    if np.any(losses < 0.0):
        raise DomainError("losses must be nonnegative")
    mean = float(losses.mean())
    if mean <= 0.0:
        raise DegenerateInputError("all-zero losses leave the scaling mean undefined")
    ratios = losses / mean
    return bounds.c1 + (bounds.c2 - bounds.c1) * _cdf_values(kind, ratios)


# Regime defaults: the smooth symmetric family for few-client rounds, the
# heavier-tailed one for large sampled populations.
DEFAULT_CDF_CROSS_SILO = CdfKind(CdfFamily.NORMAL)
DEFAULT_CDF_CROSS_DEVICE = CdfKind(CdfFamily.WEIBULL)
