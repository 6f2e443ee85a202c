"""Instance generation and file I/O.

Three instance families: dense Gaussian sensing matrices for sensor-rich
sweeps, synthetic grounded Laplacians standing in for grid susceptance
matrices, and matrices loaded from files.  A synthetic grid is a uniform
random spanning tree plus random extra edges, 1.5 edges per node in all, so
it is connected by construction and has average degree about three, near the
2.7 that Wang, Scaglione & Thomas (IEEE Trans. Smart Grid, 2010) report for
the IEEE cases.  Generation is deterministic in the spec (seed included): the
same spec produces the same bytes.

Matrix files come in two text formats: a coordinate form (optional
%-comment lines, a "rows cols nnz" header, then 1-based "row col value"
triples) and dense comma-delimited rows.  Values are written with repr so a
save/load round trip is bitwise exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .model import BitAllocationError, BitVector, DimensionMismatchError, ProblemInstance


class MatrixFormatError(BitAllocationError):
    """Malformed matrix or config file; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class InstanceKind(Enum):
    RANDOM_GAUSSIAN = "random-gaussian"
    GRID_LAPLACIAN = "grid-laplacian"
    FROM_FILES = "from-files"


@dataclass(frozen=True)
class KappaRange:
    low: float = 0.8
    high: float = 1.2

    def __post_init__(self):
        if not 0.0 < self.low <= self.high < math.inf:
            raise ValueError(f"need 0 < low <= high < inf, got [{self.low}, {self.high}]")


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative recipe for a problem instance.

    ``d``/``m`` may be omitted for FROM_FILES (inferred from the sensing
    matrix).  The total budget is budget_per_sensor * m.
    """

    kind: InstanceKind
    d: int | None = None
    m: int | None = None
    kappa: KappaRange = field(default_factory=KappaRange)
    budget_per_sensor: float = 2.0
    seed: int = 0
    paths: dict[str, str] | None = None

    def __post_init__(self):
        if self.kind is not InstanceKind.FROM_FILES:
            if self.d is None or self.d < 1:
                raise ValueError("d must be a positive integer")
            if self.kind is InstanceKind.GRID_LAPLACIAN:
                if self.m is not None and self.m != self.d:
                    raise ValueError("grid Laplacian instances have m = d")
                object.__setattr__(self, "m", self.d)
            elif self.m is None or self.m < 1:
                raise ValueError("m must be a positive integer")
        elif not self.paths or "sensing_matrix" not in self.paths:
            raise ValueError("from-files specs need paths.sensing_matrix")
        if not 0.0 <= self.budget_per_sensor < math.inf:
            raise ValueError(f"budget_per_sensor must be finite and nonnegative, got {self.budget_per_sensor}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def load_spec(path) -> InstanceSpec:
    """Parse the JSON instance config (keys: kind, d, m, kappa.low, kappa.high,
    budget_per_sensor, seed, paths.*)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"config is not valid JSON: {exc}", line_number=exc.lineno)
    return spec_from_dict(payload)


def spec_from_dict(payload: dict) -> InstanceSpec:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise MatrixFormatError("config must be a JSON object with the key 'kind'")
    try:
        kind = InstanceKind(payload["kind"])
    except ValueError:
        valid = ", ".join(k.value for k in InstanceKind)
        raise MatrixFormatError(f"unknown kind {payload['kind']!r}; expected one of: {valid}")
    kappa, paths = payload.get("kappa", {}), payload.get("paths", {})
    if not (isinstance(kappa, dict) and isinstance(paths, dict) and all(isinstance(p, str) for p in paths.values())):
        raise MatrixFormatError("kappa must be a JSON object, and paths an object of file names")
    given = {key: value for key in ("d", "m", "seed") if (value := _integer(payload, key)) is not None}
    try:
        if "budget_per_sensor" in payload:
            given["budget_per_sensor"] = float(payload["budget_per_sensor"])
        return InstanceSpec(
            kind=kind,
            kappa=KappaRange(**{key: float(kappa[key]) for key in ("low", "high") if key in kappa}),
            paths=paths or None,
            **given,
        )
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"invalid instance config: {exc}")


def _integer(payload: dict, key: str) -> int | None:
    value = payload.get(key)  # type(), not isinstance(): JSON true parses to a bool, which Python counts as an int
    if value is not None and not (type(value) is int or type(value) is float and value.is_integer()):
        raise MatrixFormatError(f"{key} must be an integer, got {value!r}")
    return None if value is None else int(value)


def kappa_from_dynamic_range(dynamic_range) -> np.ndarray:
    """Channel precision constants 12 / R^2 from per-channel dynamic ranges."""
    r = np.atleast_1d(np.asarray(dynamic_range, dtype=float))
    if np.any(r <= 0.0):
        raise DimensionMismatchError("dynamic ranges must be positive")
    return 12.0 / r**2


def _rows(rng, highs, batch: int):
    """Endless draws of ``rng.integers(0, highs)`` (an int, or a row for a list), ``batch`` per call."""
    while True:
        yield from rng.integers(0, highs, size=(batch, *np.shape(highs))).tolist()


def _rewind(rng, state: dict, highs, taken: int) -> None:
    """Put rng back at ``state`` and redraw, in one call, the ``taken`` draws of ``highs`` made since."""
    rng.bit_generator.state = state
    rng.integers(0, highs, size=(taken, *np.shape(highs)))


def _connected_edges(rng, n_nodes: int, n_edges: int) -> list[tuple[int, int]]:
    # Aldous-Broder: a walk on the complete graph that keeps the edge by which
    # it first reaches each node draws a uniform spanning tree.  Both loops
    # draw in batches and then rewind the stream to redraw just the rows they
    # used: numpy's bounded integers take the same values from the stream in
    # one call as in many, Lemire rejections included, so rng ends where one
    # call per row would leave it.
    edges, visited, node = set(), {0}, 0
    highs, start = n_nodes - 1, rng.bit_generator.state
    for taken, step in enumerate(_rows(rng, highs, 4 * n_nodes), 1):
        nxt = step + (step >= node)  # uniform over the other nodes
        if nxt not in visited:
            visited.add(nxt)
            edges.add((min(node, nxt), max(node, nxt)))
            if len(visited) == n_nodes:
                break
        node = nxt
    _rewind(rng, start, highs, taken)
    # Extra edges take the draws of rng.choice(n_nodes, size=2, replace=False),
    # Floyd's algorithm: u on [0, n-2], then v on [0, n-1], which becomes n-1
    # if it equals u, then one draw that shuffles the pair.
    highs, start, taken = [n_nodes - 1, n_nodes, 2], rng.bit_generator.state, 0
    pairs = _rows(rng, highs, n_nodes)
    while len(edges) < n_edges:
        (u, v, _), taken = next(pairs), taken + 1
        edges.add((min(u, v), max(u, v)) if v != u else (u, n_nodes - 1))
    _rewind(rng, start, highs, taken)
    return sorted(edges)


def _grid_laplacian(rng, d: int) -> np.ndarray:
    """Grounded Laplacian of a random connected graph on d+1 nodes.

    A uniform random spanning tree plus random extra edges, 1.5 per node in
    all (or the complete graph, if smaller): average degree about three.
    Edge weights are log-uniform on [0.1, 10], the order-of-magnitude spread
    real line susceptances show, which is what makes some sensors far more
    informative than others.  The first node plays the slack role and its
    row/column are removed, leaving a diagonally dominant SPD matrix.
    """
    n = d + 1
    edges = np.array(_connected_edges(rng, n, min(n * (n - 1) // 2, round(1.5 * n))))
    weights = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=len(edges)))
    lap = np.zeros((n, n))
    # each edge is listed once, and bincount adds a node's weights in edge order
    lap[edges[:, 0], edges[:, 1]] = lap[edges[:, 1], edges[:, 0]] = -weights
    np.fill_diagonal(lap, np.bincount(edges.ravel(), weights=np.repeat(weights, 2), minlength=n))
    return lap[1:, 1:]


def generate(spec: InstanceSpec) -> ProblemInstance:
    """Materialize a spec into a validated problem instance."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind is not InstanceKind.FROM_FILES:
        if spec.kind is InstanceKind.RANDOM_GAUSSIAN:
            sensing = rng.standard_normal((spec.m, spec.d))
        else:
            sensing = _grid_laplacian(rng, spec.d)
        kappa = rng.uniform(spec.kappa.low, spec.kappa.high, size=spec.m)  # grids have m = d
        return ProblemInstance.with_identity_prior(sensing, kappa, spec.budget_per_sensor * spec.m)

    paths = spec.paths or {}
    sensing = load_matrix(paths["sensing_matrix"])
    m = sensing.shape[0]
    if "kappa" in paths:
        kappa = _load_vector(paths["kappa"], m, "kappa")
    elif "dynamic_range" in paths:
        kappa = kappa_from_dynamic_range(_load_vector(paths["dynamic_range"], m, "dynamic_range"))
    else:
        kappa = rng.uniform(spec.kappa.low, spec.kappa.high, size=m)
    budget = spec.budget_per_sensor * m
    if "prior_covariance" in paths:
        prior = load_matrix(paths["prior_covariance"])
        return ProblemInstance(sensing, prior, kappa, budget)
    return ProblemInstance.with_identity_prior(sensing, kappa, budget)


def uniform_allocation(instance: ProblemInstance) -> BitVector:
    """The floor(B/m)-everywhere baseline; integral and feasible by construction."""
    per_sensor = math.floor(instance.budget / instance.m)
    return BitVector(np.full(instance.m, float(per_sensor)))


def _load_vector(path, expected_len: int, name: str) -> np.ndarray:
    mat = load_matrix(path)
    flat = mat.ravel()
    if mat.ndim == 2 and 1 not in mat.shape and mat.shape != (expected_len,):
        raise MatrixFormatError(f"{name} file must hold a vector, got shape {mat.shape}")
    if flat.size != expected_len:
        raise MatrixFormatError(f"{name} must have length {expected_len}, got {flat.size}")
    return flat


def load_matrix(path) -> np.ndarray:
    """Load a dense matrix from coordinate or comma-delimited text.

    Lines starting with '%' are comments.  A first data line of exactly three
    integers is read as a coordinate header "rows cols nnz"; anything else is
    parsed as dense comma-delimited rows.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable, or not text
        raise MatrixFormatError(f"{path}: cannot read: {exc}")
    lines = text.splitlines()
    data_lines = [
        (idx + 1, line.strip())
        for idx, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("%")
    ]
    if not data_lines:
        raise MatrixFormatError(f"{path}: no data lines")
    tokens = data_lines[0][1].split()
    if len(tokens) == 3 and all(_is_int(t) for t in tokens):
        return _parse_coordinate(data_lines, path)
    return _parse_dense(data_lines, path)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _parse_coordinate(data_lines, path) -> np.ndarray:
    line_no, header = data_lines[0]
    rows, cols, nnz = (int(t) for t in header.split())
    if rows < 1 or cols < 1 or nnz < 0:
        raise MatrixFormatError(f"{path}: bad coordinate header '{header}'", line_number=line_no)
    entries = data_lines[1:]
    if len(entries) != nnz:
        raise MatrixFormatError(
            f"{path}: header promises {nnz} entries but file has {len(entries)}", line_number=line_no
        )
    out = np.zeros((rows, cols))
    for line_no, line in entries:
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"{path}: expected 'row col value'", line_number=line_no)
        try:
            i, j, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixFormatError(f"{path}: unparseable entry '{line}'", line_number=line_no)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixFormatError(
                f"{path}: index ({i}, {j}) outside {rows} x {cols} (indices are 1-based)", line_number=line_no
            )
        out[i - 1, j - 1] += value  # duplicates accumulate, sparse-style
    return out


def _parse_dense(data_lines, path) -> np.ndarray:
    rows = []
    width = None
    for line_no, line in data_lines:
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: {exc}", line_number=line_no)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"{path}: row has {len(row)} columns, expected {width}", line_number=line_no
            )
        rows.append(row)
    return np.asarray(rows, dtype=float)


def save_matrix(path, matrix, fmt: str = "coordinate") -> None:
    """Write a matrix in either text format, with round-trippable floats."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    out = Path(path)
    if fmt == "dense":
        out.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n")
        return
    if fmt != "coordinate":
        raise ValueError(f"unknown matrix format {fmt!r}")
    nz = np.nonzero(mat)
    lines = [f"{mat.shape[0]} {mat.shape[1]} {len(nz[0])}"]
    for i, j in zip(*nz):
        lines.append(f"{i + 1} {j + 1} {repr(float(mat[i, j]))}")
    out.write_text("\n".join(lines) + "\n")


def save_results(path, records) -> None:
    """Write mapping records as comma-delimited rows under the first record's keys."""
    records = list(records)
    if not records:
        raise ValueError("cannot infer a header from zero records")
    fieldnames = list(records[0].keys())
    with Path(path).open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            writer.writerow(record)
