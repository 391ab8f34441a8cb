"""Synthetic datasets and the CSV interchange format.

Datasets are written as a CSV with header ``f0..f{d-1}[,label]`` plus a
JSON sidecar (same path with ``.meta.json`` appended) recording the
generator parameters. Floats are serialized with %.17g so a round trip
reproduces the in-memory matrix exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "gen_dataset", "save_dataset", "load_dataset"]

DATASET_KINDS = ("moons", "rings", "blobs")


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray
    labels: np.ndarray | None
    generator_seed: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (f.shape[0],):
                raise ValueError("labels length must match the number of rows")
            uniq = np.unique(lab)
            if not np.array_equal(uniq, np.arange(uniq.size)):
                raise ValueError("labels must be 0..K-1 with every class nonempty")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _moons(n: int, noise: float, rng: np.random.Generator):
    n_top = n // 2
    n_bot = n - n_top
    t_top = np.linspace(0.0, np.pi, n_top)
    t_bot = np.linspace(0.0, np.pi, n_bot)
    x = np.concatenate(
        [
            np.column_stack([np.cos(t_top), np.sin(t_top)]),
            np.column_stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)]),
        ]
    )
    x += noise * rng.standard_normal(x.shape)
    y = np.concatenate([np.zeros(n_top, dtype=np.int64), np.ones(n_bot, dtype=np.int64)])
    return x, y


def _rings(n: int, noise: float, rng: np.random.Generator, radii=(1.0, 3.0)):
    n_in = n // 2
    n_out = n - n_in
    parts, labels = [], []
    for cls, (m, r) in enumerate(zip((n_in, n_out), radii)):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
        rad = r + noise * rng.standard_normal(m)
        parts.append(np.column_stack([rad * np.cos(theta), rad * np.sin(theta)]))
        labels.append(np.full(m, cls, dtype=np.int64))
    return np.concatenate(parts), np.concatenate(labels)


def _blobs(n, noise, rng, k=4, separation=10.0, dim=2):
    if not np.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation!r}")
    if k < 2 or k > n:
        raise ValueError("blobs need 2 <= k <= n")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if dim < 1:
        raise ValueError("dim must be positive")
    centers = rng.standard_normal((k, dim))
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    min_dist = dists[~np.eye(k, dtype=bool)].min()
    if min_dist <= 0:
        raise ValueError("degenerate blob centers")
    centers *= separation / min_dist
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    parts, labels = [], []
    for cls, m in enumerate(counts):
        parts.append(centers[cls] + noise * rng.standard_normal((m, dim)))
        labels.append(np.full(m, cls, dtype=np.int64))
    return np.concatenate(parts), np.concatenate(labels)


def gen_dataset(
    kind: str,
    n: int,
    noise: float,
    seed: int,
    k: int | None = None,
    separation: float | None = None,
    dim: int | None = None,
) -> Dataset:
    """Generate a labeled synthetic dataset; deterministic per seed. Only
    blobs take ``k``, ``separation`` and ``dim`` (unset: 4, 10.0 and 2)."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}, expected one of {DATASET_KINDS}")
    blob = {kw: v for kw, v in dict(k=k, separation=separation, dim=dim).items() if v is not None}
    if blob and kind != "blobs":
        raise ValueError(f"{next(iter(blob))} applies to blobs only")
    if n < 10:
        raise ValueError("n must be >= 10")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    if not np.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    if kind == "moons":
        x, y = _moons(n, noise, rng)
    elif kind == "rings":
        x, y = _rings(n, noise, rng)
    else:
        x, y = _blobs(n, noise, rng, **blob)
    return Dataset(name=f"{kind}-n{n}-s{seed}", features=x, labels=y, generator_seed=seed)


def save_dataset(ds: Dataset, path) -> None:
    """Write the CSV plus its JSON sidecar."""
    path = Path(path)
    d = ds.dim
    header = ",".join(f"f{i}" for i in range(d))
    with path.open("w", newline="\n") as fh:
        if ds.labels is not None:
            fh.write(header + ",label\n")
            for row, lab in zip(ds.features, ds.labels):
                fh.write(",".join(f"{v:.17g}" for v in row) + f",{lab}\n")
        else:
            fh.write(header + "\n")
            for row in ds.features:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    meta = {
        "name": ds.name,
        "n": ds.n,
        "dim": d,
        "has_labels": ds.labels is not None,
        "generator_seed": ds.generator_seed,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def _parse_error(message: str, header: list[str]) -> str:
    """A loadtxt refusal with its data row counted from 1 after the header
    (numpy counts from 0 for a bad entry, from 1 for a bad width)."""
    if match := re.search(r"string (.*) to \w+ at row (\d+), column (\d+)", message):
        entry, row, col = match.groups()
        name = dict(enumerate(header, 1)).get(int(col), col)
        return f"data row {int(row) + 1} has non-numeric entry {entry} in column {name}"
    if match := re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", message):
        return "data row {2} has {1} columns, expected {0}".format(*match.groups())
    return message


def load_dataset(path) -> Dataset:
    """Read a dataset CSV (sidecar optional).

    A file with no data rows, a non-finite feature or a non-integer label
    raises ``ValueError`` naming the file and, for a bad entry, the data row
    (1-based, after the header) and the column. So does a sidecar that is
    not a JSON object or holds a ``name`` that is not a string or a
    ``generator_seed`` that is not an integer, naming the sidecar. A row
    numpy cannot parse (an entry that is not a number, a row of another
    width) raises it naming the file and the data row, and labels that are
    not 0..K-1 with the file put before `Dataset`'s message.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        # stops at the first row; blank and '#' lines are what loadtxt skips
        has_rows = any(line.split("#", 1)[0].strip() for line in fh)
    if not has_rows:
        raise ValueError(f"{path}: no data rows")
    has_labels = header[-1] == "label"
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {_parse_error(str(err), header)}") from None
    meta_path = Path(str(path) + ".meta.json")
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{meta_path}: not JSON: {err}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path}: not a JSON object: {meta!r}")
    name = meta.get("name", path.stem)
    if not isinstance(name, str):
        raise ValueError(f"{meta_path}: entry 'name' must be a string, got {name!r}")
    seed = meta.get("generator_seed", -1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"{meta_path}: entry 'generator_seed' must be an integer, got {seed!r}")
    features = raw[:, :-1] if has_labels else raw
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: data row {row + 1} has non-finite feature f{col}")
    if has_labels:
        labels = raw[:, -1]
        # beyond +-2**63 an integer-valued float does not fit the int64 cast
        valid = (np.abs(labels) < 2.0**63) & (labels == np.round(labels))
        bad = np.flatnonzero(~valid)
        if bad.size:
            row = int(bad[0])
            raise ValueError(
                f"{path}: data row {row + 1} has non-integer label {float(labels[row])!r}"
            )
        labels = labels.astype(np.int64)
    else:
        labels = None
    try:
        return Dataset(name=name, features=features, labels=labels, generator_seed=seed)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
