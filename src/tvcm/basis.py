"""Basis expansions for time-varying coefficient functions.

Each coefficient function beta_r(t) is expanded over a polynomial part of
degree g plus k knot terms:

    radial:  1, t, ..., t^g, exp(-((t - kappa_l)/h)^2)        l = 1..k
    tpower:  1, t, ..., t^g, max(t - kappa_l, 0)^g            l = 1..k

so each block contributes p_r = k_r + g + 1 columns.  The stacked design row
for observation (t, x) is the concatenation over r of x_r times the basis row
at t, with x_0 = 1 the implicit intercept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import LongitudinalDataset, subject_uniform_weights
from .errors import KnotError


class BasisFamily(str, Enum):
    RADIAL = "radial"
    TPOWER = "tpower"


@dataclass(frozen=True)
class BasisSpec:
    """Configuration of one coefficient function's expansion.

    bandwidth is required (positive and finite) for the radial family and
    must be None for the truncated power family.
    """

    family: BasisFamily
    degree: int
    knots: tuple[float, ...]
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        family = BasisFamily(self.family)
        object.__setattr__(self, "family", family)
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {self.degree}")
        object.__setattr__(self, "degree", int(self.degree))
        knots = tuple(float(k) for k in self.knots)
        if any(not np.isfinite(k) for k in knots):
            raise ValueError("knots must be finite")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError(f"knots must be strictly increasing, got {knots}")
        object.__setattr__(self, "knots", knots)
        if family is BasisFamily.RADIAL:
            if self.bandwidth is None or not 0 < float(self.bandwidth) < np.inf:
                raise ValueError(
                    f"radial basis requires a positive finite bandwidth, got {self.bandwidth}"
                )
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        else:
            if self.bandwidth is not None:
                raise ValueError("bandwidth only applies to the radial family")

    @property
    def n_terms(self) -> int:
        """Block dimension p_r = k + degree + 1."""
        return len(self.knots) + self.degree + 1

    def to_dict(self) -> dict:
        out: dict = {
            "family": self.family.value,
            "degree": self.degree,
            "knots": list(self.knots),
        }
        if self.family is BasisFamily.RADIAL:
            out["bandwidth"] = self.bandwidth
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "BasisSpec":
        return cls(
            family=BasisFamily(payload["family"]),
            degree=payload["degree"],
            knots=tuple(payload.get("knots", ())),
            bandwidth=payload.get("bandwidth"),
        )


def place_knots_equal(domain: tuple[float, float], k: int) -> tuple[float, ...]:
    """k interior knots kappa_l = a + l*(b-a)/(k+1), l = 1..k."""
    if k < 0:
        raise ValueError(f"knot count must be non-negative, got {k}")
    if k == 0:
        return ()
    a, b = float(domain[0]), float(domain[1])
    if not 0 < b - a < np.inf:
        raise KnotError(f"time domain {domain} cannot hold {k} knots: its width b - a must be positive and finite")
    return tuple(a + (b - a) * l / (k + 1) for l in range(1, k + 1))


def place_knots_quantile(times, k: int) -> tuple[float, ...]:
    """k interior knots at the l/(k+1) sample quantiles (linear interpolation)."""
    if k < 0:
        raise ValueError(f"knot count must be non-negative, got {k}")
    if k == 0:
        return ()
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise KnotError("need at least two observation times for quantile knots")
    probs = np.arange(1, k + 1) / (k + 1)
    knots = np.quantile(times, probs, method="linear")
    if np.any(knots[1:] <= knots[:-1]):
        raise KnotError(f"tied quantile knots for k={k}; reduce k or use equal spacing")
    return tuple(float(v) for v in knots)


def default_bandwidth(domain: tuple[float, float], k: int) -> float:
    """Kernel bandwidth matched to the equal knot spacing, (b-a)/(k+1); 1 on a degenerate domain."""
    width = float(domain[1]) - float(domain[0])
    if width == np.inf:
        raise KnotError(f"time domain {domain} is too wide for a radial bandwidth: b - a overflows")
    return width / (k + 1) if width > 0 else 1.0


def make_spec(
    family,
    degree: int,
    n_knots: int,
    domain: tuple[float, float],
    bandwidth: float | None = None,
    *,
    placement: str = "equal",
    times=None,
) -> BasisSpec:
    """The one builder of a coefficient's BasisSpec from its knot count.

    placement 'equal' spaces the knots evenly over domain; 'quantile' puts
    them at the sample quantiles of times, which it then requires.  A radial
    bandwidth defaults to default_bandwidth(domain, n_knots); the truncated
    power family takes none, so passing one is a ValueError.
    """
    family = BasisFamily(family)
    if placement == "equal":
        knots = place_knots_equal(domain, n_knots)
    elif placement == "quantile":
        if times is None:
            raise ValueError("quantile knot placement needs the observation times")
        knots = place_knots_quantile(times, n_knots)
    else:
        raise ValueError(f"unknown knot placement {placement!r}; expected 'equal' or 'quantile'")
    if family is BasisFamily.TPOWER:
        if bandwidth is not None:
            raise ValueError(f"bandwidth {bandwidth} given, but family 'tpower' takes none")
    elif bandwidth is None:
        bandwidth = default_bandwidth(domain, n_knots)
    return BasisSpec(family=family, degree=degree, knots=knots, bandwidth=bandwidth)


def basis_matrix(spec: BasisSpec, times) -> np.ndarray:
    """Evaluate the basis at each time; returns shape (len(times), spec.n_terms)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    cols = [t**j for j in range(spec.degree + 1)]
    if spec.family is BasisFamily.RADIAL:
        for kappa in spec.knots:
            r = np.abs(t - kappa) / spec.bandwidth
            cols.append(np.exp(-(r**2)))
    else:
        for kappa in spec.knots:
            shifted = t - kappa
            if spec.degree == 0:
                # degree-zero truncated power is the right-continuous step 1{t >= kappa}
                cols.append((shifted >= 0).astype(float))
            else:
                cols.append(np.where(shifted > 0, shifted, 0.0) ** spec.degree)
    return np.column_stack(cols)


@dataclass(frozen=True)
class DesignBundle:
    """Stacked design matrix with its response, weights, and block layout."""

    Z: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    block_dims: tuple[int, ...]
    specs: tuple[BasisSpec, ...]

    def __post_init__(self) -> None:
        Z = np.array(self.Z, dtype=float)
        y = np.array(self.y, dtype=float)
        w = np.array(self.weights, dtype=float)
        if Z.ndim != 2:
            raise ValueError("Z must be 2-D")
        if y.shape != (Z.shape[0],) or w.shape != (Z.shape[0],):
            raise ValueError("y and weights must match the number of design rows")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if sum(self.block_dims) != Z.shape[1]:
            raise ValueError(
                f"block dims {self.block_dims} do not sum to {Z.shape[1]} columns"
            )
        for name, arr in (("Z", Z), ("y", y), ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block_dims", tuple(int(b) for b in self.block_dims))
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n_obs(self) -> int:
        return self.Z.shape[0]

    @property
    def n_params(self) -> int:
        return self.Z.shape[1]


def build_design(
    data: LongitudinalDataset,
    specs,
    weights=None,
) -> DesignBundle:
    """Assemble the stacked weighted regression problem for a basis choice.

    specs must supply one BasisSpec per coefficient function (intercept plus
    each covariate, d+1 total).  All knots must lie within the dataset's
    declared time domain.  weights defaults to the subject-uniform scheme.
    """
    specs = tuple(specs)
    d = data.covariate_dim
    if len(specs) != d + 1:
        raise ValueError(f"need {d + 1} basis specs (intercept + {d} covariates), got {len(specs)}")
    a, b = data.time_domain
    for r, spec in enumerate(specs):
        for kappa in spec.knots:
            if kappa < a or kappa > b:
                raise KnotError(
                    f"knot {kappa} of coefficient {r} lies outside the time domain [{a}, {b}]"
                )
    if weights is None:
        weights = subject_uniform_weights(data)
    return DesignBundle(
        Z=_stacked_design(data, specs),
        y=data.responses,
        weights=weights,
        block_dims=tuple(spec.n_terms for spec in specs),
        specs=specs,
    )


def _stacked_design(data: LongitudinalDataset, specs) -> np.ndarray:
    """The (N, p) design x_r * basis_r(t), block by block.

    Its basis evaluations are freed on return, before the DesignBundle copies it.
    """
    x = np.column_stack([np.ones(data.n_obs), data.covariates])
    bases: dict[BasisSpec, np.ndarray] = {}  # equal specs (one knot count for all) share one evaluation
    offsets = np.cumsum([0] + [spec.n_terms for spec in specs])
    Z = np.empty((data.n_obs, offsets[-1]))
    for r, spec in enumerate(specs):
        if spec not in bases:
            bases[spec] = basis_matrix(spec, data.times)
        np.multiply(x[:, [r]], bases[spec], out=Z[:, offsets[r] : offsets[r + 1]])
    return Z


def split_alpha(alpha, block_dims) -> list[np.ndarray]:
    """Slice a stacked coefficient vector into per-coefficient blocks."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1] != sum(block_dims):
        raise ValueError(f"alpha has {alpha.shape[-1]} entries, blocks sum to {sum(block_dims)}")
    offsets = np.cumsum((0,) + tuple(block_dims))
    return [alpha[..., offsets[r] : offsets[r + 1]] for r in range(len(block_dims))]


def coefficient_curve(spec: BasisSpec, alpha_block, grid) -> np.ndarray:
    """beta_r evaluated on a time grid from its coefficient block."""
    alpha_block = np.asarray(alpha_block, dtype=float)
    if alpha_block.shape != (spec.n_terms,):
        raise ValueError(
            f"alpha block has shape {alpha_block.shape}, expected ({spec.n_terms},)"
        )
    return basis_matrix(spec, grid) @ alpha_block
