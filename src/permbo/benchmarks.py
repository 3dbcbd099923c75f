"""Black-box objectives: QAPLIB/TSPLIB instances and a synthetic objective.

File formats (both plain text, whitespace tolerant):

* QAPLIB: one integer n, then n*n values for the cost matrix A, then n*n
  values for the distance matrix B.
* TSPLIB: keyword header (DIMENSION, EDGE_WEIGHT_TYPE: EUC_2D), a
  NODE_COORD_SECTION of "id x y" lines, optional EOF terminator.

A small n=15 QAP instance and a 10-node coordinate file generated from a
fixed seed ship with the package for reproducible runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import accel
from .perm import Permutation


@dataclass(frozen=True)
class QapInstance:
    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"QAP instance needs n >= 2, got {self.n}")
        for name, mat in (("A", self.A), ("B", self.B)):
            if mat.shape != (self.n, self.n):
                raise ValueError(f"matrix {name} must be {self.n}x{self.n}, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"matrix {name} entries must be finite")


@dataclass(frozen=True)
class TspInstance:
    n: int
    coords: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"TSP instance needs n >= 3, got {self.n}")
        if self.coords.shape != (self.n, 2):
            raise ValueError(f"coords must be {self.n}x2, got {self.coords.shape}")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class SyntheticObjective:
    """Controlled test objective with a hidden optimum: the discordant-pair
    count n_d(p, target), minimized exactly at ``target``. Observation noise
    N(0, noise_sd^2) is added when noise_sd > 0.
    """

    target: Permutation
    noise_sd: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd!r}")


# --- QAPLIB -----------------------------------------------------------------


def parse_qaplib(text: str) -> QapInstance:
    """Read one instance: n, then n^2 values for A, then n^2 for B."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty QAPLIB stream")
    pos = 0

    def take(count: int, what: str) -> np.ndarray:
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError(f"truncated QAPLIB stream while reading {what}")
        try:
            vals = np.array([float(t) for t in tokens[pos : pos + count]])
        except ValueError as exc:
            raise ValueError(f"non-numeric token while reading {what}") from exc
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite value while reading {what}")
        pos += count
        return vals

    n_val = take(1, "n")[0]
    if n_val < 2 or not n_val.is_integer():
        raise ValueError(f"invalid instance size {n_val}")
    n = int(n_val)
    A = take(n * n, "matrix A").reshape(n, n)
    B = take(n * n, "matrix B").reshape(n, n)
    if pos < len(tokens):
        raise ValueError(
            f"QAPLIB stream has {len(tokens) - pos} value(s) after matrix B; n = {n} takes {pos}"
        )
    return QapInstance(n=n, A=A, B=B)


def format_qaplib(inst: QapInstance) -> str:
    def fmt(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else repr(float(x))

    lines = [str(inst.n), ""]
    for mat in (inst.A, inst.B):
        lines.extend(" ".join(fmt(v) for v in row) for row in mat)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def qap_objective(inst: QapInstance, p: Permutation) -> float:
    """sum_{i,j} A[i,j] * B[p(i), p(j)], i.e. Tr(A P B P^T) for P[i, p(i)] = 1."""
    if p.d != inst.n:
        raise ValueError(f"dimension mismatch: permutation d={p.d}, instance n={inst.n}")
    return accel.qap_cost(inst.A, inst.B, p.values)


# --- TSPLIB -----------------------------------------------------------------


def parse_tsplib(text: str, subset: int | None = None) -> TspInstance:
    """Parse an EUC_2D coordinate file; node ids remapped to file order.

    ``subset`` keeps only the first ``subset`` nodes, for deriving
    low-dimensional variants of a larger instance.
    """
    dimension: int | None = None
    edge_type: str | None = None
    coords: list[tuple[float, float]] = []
    lines = iter(text.splitlines())
    in_coords = False
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if not in_coords:
            if line.upper() == "NODE_COORD_SECTION":
                in_coords = True
                continue
            if ":" in line:
                key, _, value = line.partition(":")
                key = key.strip().upper()
                value = value.strip()
                if key == "DIMENSION":
                    try:
                        dimension = int(value)
                    except ValueError:
                        raise ValueError(f"DIMENSION must be an integer, got {value!r}") from None
                elif key == "EDGE_WEIGHT_TYPE":
                    edge_type = value.upper()
            continue
        if line.upper() == "EOF":
            break
        try:
            _, x, y = line.split()
            coords.append((float(x), float(y)))
        except ValueError:
            raise ValueError(f"malformed coordinate line: {raw!r}") from None

    if dimension is None:
        raise ValueError("missing DIMENSION header")
    if edge_type != "EUC_2D":
        raise ValueError(f"unsupported EDGE_WEIGHT_TYPE: {edge_type}")
    if len(coords) != dimension:
        raise ValueError(f"DIMENSION is {dimension} but found {len(coords)} coordinates")
    arr = np.array(coords, dtype=np.float64)
    if subset is not None:
        if subset < 3 or subset > dimension:
            raise ValueError(f"subset must be in [3, {dimension}], got {subset}")
        arr = arr[:subset]
    return TspInstance(n=arr.shape[0], coords=arr)


def format_tsplib(inst: TspInstance, name: str = "instance") -> str:
    lines = [
        f"NAME : {name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.n}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(inst.coords, start=1):
        lines.append(f"{i} {float(x)!r} {float(y)!r}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def tsp_tour_length(inst: TspInstance, p: Permutation) -> float:
    """Closed tour length with TSPLIB EUC_2D rounding (nearest integer per edge)."""
    if p.d != inst.n:
        raise ValueError(f"dimension mismatch: permutation d={p.d}, instance n={inst.n}")
    return accel.tsp_length(inst.coords, p.values)


# --- synthetic ---------------------------------------------------------------


def synthetic_objective(
    s: SyntheticObjective, p: Permutation, rng: np.random.Generator | None = None
) -> float:
    """Evaluate the synthetic objective; noise comes from the caller's stream."""
    if p.d != s.target.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {s.target.d}")
    value = float(accel.discordant_count(p.values, s.target.values))
    if s.noise_sd > 0:
        if rng is None:
            raise ValueError("noise_sd > 0 requires a random generator")
        value += s.noise_sd * float(rng.standard_normal())
    return value


# --- bundled data -------------------------------------------------------------


def bundled_instance_text(name: str) -> str:
    """Contents of a data file shipped with the package (e.g. "qap15.dat")."""
    return resources.files("permbo.data").joinpath(name).read_text()
