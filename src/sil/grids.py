"""Grid-sampled function representations and their serialization.

RadialFunction carries values of a radial profile on a strictly increasing
(log-spaced by default) radius grid; CartesianField carries a uniform box
grid in 2 or 3 dimensions.  Both are immutable after construction and
round-trip through CSV and JSON with <= 1e-12 relative error.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError

DEFAULT_R_MIN = 1e-6
DEFAULT_R_MAX = 1e3
DEFAULT_NODES = 4096


def log_grid(r_min: float = DEFAULT_R_MIN, r_max: float = DEFAULT_R_MAX,
             m: int = DEFAULT_NODES) -> np.ndarray:
    """Logarithmically spaced radii r_min .. r_max (inclusive)."""
    if not 0 < r_min < r_max:
        raise DomainError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), m))


def anchored_log_grid(anchor: float, r_min: float, r_max: float,
                      per_decade: int = 400) -> np.ndarray:
    """Uniform-in-log grid that contains `anchor` exactly as a node.

    Extremal-family supports must land on grid nodes so that truncated
    power-law norms integrate without edge smearing; the step is uniform so
    the radial convolution stays a log-space correlation.
    """
    if not 0 < r_min <= anchor <= r_max:
        raise DomainError("anchor must lie inside [r_min, r_max]")
    step = math.log(10.0) / per_decade
    lo = math.log(anchor) - step * math.ceil((math.log(anchor) - math.log(r_min)) / step)
    hi = math.log(anchor) + step * math.ceil((math.log(r_max) - math.log(anchor)) / step)
    k = round((hi - lo) / step)
    return np.exp(lo + step * np.arange(k + 1))


def indicator_values(grid: np.ndarray, r_out: float, r_in: float = 0.0) -> np.ndarray:
    """Indicator of {r_in <= r <= r_out} with half-valued jump nodes.

    Trapezoid quadrature of a jump treats the profile as a linear ramp
    across the neighboring cells; storing the midpoint value at an on-grid
    jump restores second-order accuracy for norms and potentials.
    """
    v = ((grid >= r_in) & (grid <= r_out)).astype(float)
    for edge in (r_in, r_out):
        if edge <= 0:
            continue
        j = int(np.argmin(np.abs(grid - edge)))
        if abs(grid[j] - edge) < 1e-9 * edge:
            v[j] = 0.5
    return v


def trapezoid_weights_log(r: np.ndarray) -> np.ndarray:
    """Trapezoid weights in t = log r: sum_j w_j h(r_j) ~ integral h(r) dr.

    Includes the Jacobian r dt, so w_j already carries one factor of r.
    """
    t = np.log(r)
    dt = np.empty_like(t)
    dt[1:-1] = 0.5 * (t[2:] - t[:-2])
    dt[0] = 0.5 * (t[1] - t[0])
    dt[-1] = 0.5 * (t[-1] - t[-2])
    return r * dt


def _csv_metadata(lines) -> dict:
    """The key=value tokens of the '#' comment lines of a CSV export."""
    meta = {}
    for ln in lines:
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
    return meta


def _is_data_row(line: str) -> bool:
    """False for '#' comments and the column-name header: a line that
    starts with a letter and whose first field is not a float.  Rows such
    as 'nan,2.0' or 'inf,4.0' are data, left for the finiteness checks."""
    if line.startswith("#"):
        return False
    if not line[0].isalpha():
        return True
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class RadialFunction:
    """A radial profile sampled on a strictly increasing positive grid.

    values has shape (M,) for scalar data or (M, m) for vector data with a
    small fixed arity m; tail_exponent p declares values ~ C r^p beyond the
    last node (used by norms and convolutions to integrate the tail
    analytically).
    """

    grid: np.ndarray
    values: np.ndarray
    n: int
    tail_exponent: Optional[float] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("radial grid must be a 1-D array with >= 2 nodes")
        if not np.all(grid > 0) or not np.all(np.diff(grid) > 0):
            raise DomainError("radial grid must be strictly increasing and positive")
        if values.shape[0] != grid.size:
            raise DomainError("values length must match grid length")
        if values.ndim == 2 and values.shape[1] > self.n + 1:
            raise DomainError(
                f"vector arity capped at n + 1, got {values.shape[1]}")
        if values.ndim > 2:
            raise DomainError("values must be scalar or fixed-arity vector")
        if not np.all(np.isfinite(values)):
            raise DomainError("radial values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        grid.setflags(write=False)
        values.setflags(write=False)

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def arity(self) -> int:
        return self.values.shape[1] if self.is_vector else 1

    def magnitude(self) -> np.ndarray:
        """Pointwise |f|; Euclidean norm across components for vector data."""
        if self.is_vector:
            return np.sqrt(np.sum(self.values**2, axis=1))
        return np.abs(self.values)

    def with_values(self, values: np.ndarray, tail_exponent=None) -> "RadialFunction":
        return RadialFunction(self.grid, values, self.n,
                              self.tail_exponent if tail_exponent is None else tail_exponent)

    def interp(self, r: np.ndarray) -> np.ndarray:
        """Linear-in-log-radius interpolation of scalar profiles."""
        if self.is_vector:
            raise DomainError("interpolation implemented for scalar profiles")
        r = np.asarray(r, dtype=float)
        out = np.interp(np.log(r), np.log(self.grid), self.values)
        if self.tail_exponent is not None:
            mask = r > self.grid[-1]
            if np.any(mask):
                out = np.where(
                    mask, self.values[-1] * (r / self.grid[-1]) ** self.tail_exponent, out
                )
        else:
            out = np.where(r > self.grid[-1], 0.0, out)
        return out

    @staticmethod
    def from_callable(fn, n: int, grid: Optional[np.ndarray] = None,
                      tail_exponent: Optional[float] = None) -> "RadialFunction":
        g = log_grid() if grid is None else np.asarray(grid, dtype=float)
        return RadialFunction(g, np.asarray(fn(g), dtype=float), n, tail_exponent)

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        cols = ["r"] + [f"v{i}" for i in range(self.arity)]
        vals = self.values if self.is_vector else self.values[:, None]
        # one format call over the interleaved (r, v...) rows: no container
        # per row, which would set off the cyclic garbage collector
        table = np.column_stack([self.grid, vals]).ravel().tolist()
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        return (f"# radial n={self.n} tail_exponent={self.tail_exponent}\n"
                + ",".join(cols) + "\n" + (row * self.grid.size) % tuple(table))

    @staticmethod
    def from_csv(text: str) -> "RadialFunction":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        meta = _csv_metadata(lines)
        rows = [ln for ln in lines if _is_data_row(ln)]
        if not rows:
            raise DomainError("radial CSV holds no data rows")
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"malformed radial CSV: {exc}") from exc
        tail = meta.get("tail_exponent")
        tail = None if tail in (None, "None") else float(tail)
        values = data[:, 1] if data.shape[1] == 2 else data[:, 1:]
        return RadialFunction(data[:, 0], values, int(meta.get("n", 2)), tail)

    def to_json(self) -> str:
        head = json.dumps({
            "schema": 1,
            "kind": "radial",
            "n": self.n,
            "tail_exponent": self.tail_exponent,
            "r": self.grid.tolist(),
        })
        vals = json.dumps(self.values.tolist())
        if not self.is_vector:
            # scalar values nest as [[v], ...]: rewrite the flat list's text
            # rather than build a one-element list per node, which would set
            # off the cyclic garbage collector during long exports
            vals = "[[" + vals[1:-1].replace(", ", "], [") + "]]"
        return head[:-1] + ', "values": ' + vals + "}"

    @staticmethod
    def from_json(text: str) -> "RadialFunction":
        obj = json.loads(text)
        if obj.get("kind") != "radial":
            raise DomainError("not a radial-function JSON envelope")
        vals = np.asarray(obj["values"], dtype=float)
        if vals.shape[1] == 1:
            vals = vals[:, 0]
        return RadialFunction(np.asarray(obj["r"]), vals, int(obj["n"]),
                              obj.get("tail_exponent"))


@dataclass(frozen=True)
class CartesianField:
    """Scalar values on a uniform box grid in dimension 2 or 3.

    The box is [-extent, extent]^n sampled at cell centers; spacing is
    h = 2 * extent / resolution.
    """

    n: int
    extent: float
    values: np.ndarray
    resolution: int = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.n not in (2, 3):
            raise DomainError("cartesian fields support n in {2, 3} only")
        if values.ndim != self.n or len(set(values.shape)) != 1:
            raise DomainError("values must be a square/cubic array matching n")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")
        if self.extent <= 0:
            raise DomainError("extent must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "resolution", values.shape[0])
        values.setflags(write=False)

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.resolution

    def axes(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return -self.extent + (np.arange(self.resolution) + 0.5) * self.h

    def radii(self) -> np.ndarray:
        axes = np.meshgrid(*([self.axes()] * self.n), indexing="ij", sparse=True)
        total = axes[0] ** 2
        for x in axes[1:]:
            total = total + x**2  # the last sum is the one full box
        return np.sqrt(total, out=total)

    @staticmethod
    def from_callable(fn, n: int, extent: float, resolution: int) -> "CartesianField":
        """fn(x_1, ..., x_n) at the cell centres, each x_i a read-only view
        of one coordinate broadcast to the whole box."""
        ax = -extent + (np.arange(resolution) + 0.5) * (2.0 * extent / resolution)
        coords = [np.broadcast_to(x, (resolution,) * n)
                  for x in np.meshgrid(*([ax] * n), indexing="ij", sparse=True)]
        return CartesianField(n, extent, np.asarray(fn(*coords), dtype=float))

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "kind": "cartesian",
            "n": self.n,
            "extent": self.extent,
            "resolution": self.resolution,
            "values": self.values.ravel().tolist(),
        })

    @staticmethod
    def from_json(text: str) -> "CartesianField":
        obj = json.loads(text)
        if obj.get("kind") != "cartesian":
            raise DomainError("not a cartesian-field JSON envelope")
        res = int(obj["resolution"])
        n = int(obj["n"])
        vals = np.asarray(obj["values"], dtype=float).reshape((res,) * n)
        return CartesianField(n, float(obj["extent"]), vals)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# cartesian n={self.n} extent={self.extent:.17g} "
                  f"resolution={self.resolution}\n")
        buf.write(",".join(f"i{k}" for k in range(self.n)) + ",value\n")
        labels = [str(i) for i in range(self.resolution)]
        rows = self.values.reshape(-1, self.resolution)
        for idx, row in zip(np.ndindex(self.values.shape[:-1]), rows):
            head = "".join(labels[i] + "," for i in idx)
            buf.writelines(f"{head}{i},{v:.17g}\n" for i, v in zip(labels, row.tolist()))
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "CartesianField":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        meta = _csv_metadata(lines)
        try:
            n, res = int(meta["n"]), int(meta["resolution"])
            extent = float(meta["extent"])
        except (KeyError, ValueError) as exc:
            raise DomainError("cartesian CSV needs a '# cartesian n=... "
                              "extent=... resolution=...' header") from exc
        if n not in (2, 3) or res < 1:
            raise DomainError(f"cartesian CSV header: n={n}, resolution={res}")
        vals = np.zeros((res,) * n)
        for ln in filter(_is_data_row, lines):
            parts = ln.split(",")
            try:
                idx = tuple(int(x) for x in parts[:n])
                value = float(parts[n])
            except (ValueError, IndexError) as exc:
                raise DomainError(
                    f"malformed cartesian CSV row {ln!r}") from exc
            if not all(0 <= i < res for i in idx):
                raise DomainError(f"cartesian CSV row {ln!r}: index outside "
                                  f"0 .. {res - 1}")
            vals[idx] = value
        return CartesianField(n, extent, vals)
