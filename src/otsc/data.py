"""Synthetic datasets and the CSV interchange format.

Datasets are written as a CSV with header ``f0..f{d-1}[,label]`` plus a
JSON sidecar (same path with ``.meta.json`` appended) holding the dataset's
name. Floats are serialized with %.17g so a round trip reproduces the
in-memory matrix exactly. `read_csv` is the one reader of numeric CSVs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import check_integer

__all__ = ["Dataset", "gen_dataset", "save_dataset", "read_csv", "load_dataset"]

DATASET_KINDS = ("moons", "rings", "blobs")


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray
    labels: np.ndarray | None

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
    blobs take ``k``, ``separation`` and ``dim`` (unset: 4, 10.0 and 2).
    A non-integer ``n``, ``seed``, ``k`` or ``dim`` is refused before any draw."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}, expected one of {DATASET_KINDS}")
    blob = {kw: v for kw, v in dict(k=k, separation=separation, dim=dim).items() if v is not None}
    if blob and kind != "blobs":
        raise ValueError(f"{next(iter(blob))} applies to blobs only")
    for name, value in dict(n=n, seed=seed, k=k, dim=dim).items():
        if value is not None or name in ("n", "seed"):
            check_integer(name, value)
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
    return Dataset(name=f"{kind}-n{n}-s{seed}", features=x, labels=y)


def save_dataset(ds: Dataset, path) -> None:
    """Write the CSV plus its JSON sidecar."""
    path = Path(path)
    header = ",".join(f"f{i}" for i in range(ds.dim))
    suffixes = [""] * ds.n if ds.labels is None else [f",{lab}" for lab in ds.labels]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + ("" if ds.labels is None else ",label") + "\n")
        for row, suffix in zip(ds.features, suffixes):
            fh.write(",".join(f"{v:.17g}" for v in row) + suffix + "\n")
    sidecar = json.dumps({"name": ds.name}, indent=2) + "\n"
    Path(str(path) + ".meta.json").write_text(sidecar, encoding="utf-8")


def read_text(path) -> str:
    """A UTF-8 file's text; another file raises ``ValueError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from None


def read_csv(path, header: bool) -> tuple[list[str] | None, np.ndarray]:
    """A numeric CSV's header names (None without ``header``) and its
    (rows, columns) float64 values.

    Blank lines and ``#`` comments are skipped, and data rows count from 1
    after the header. A non-UTF-8 file, one with no data rows, a row whose
    width differs from the header's (without one, from the first row's), a
    non-numeric entry or a non-finite one raises ``ValueError`` naming the
    file, the data row and the column: its header name or 1-based number.
    """
    lines = read_text(path).split("\n")
    names = [name.strip() for name in lines[0].split(",")] if header else None
    lines = [text for line in lines[bool(header):] if (text := line.split("#", 1)[0].strip())]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    columns = names or [str(j) for j in range(1, lines[0].count(",") + 2)]
    rows = []
    for i, text in enumerate(lines, 1):
        fields = text.split(",")
        if len(fields) != len(columns):
            raise ValueError(
                f"{path}: data row {i} has {len(fields)} columns, expected {len(columns)}"
            )
        row = []
        for column, entry in zip(columns, fields):
            try:
                # float() also reads digit-group underscores and non-ASCII digits
                if "_" in entry or not entry.isascii():
                    raise ValueError
                value = float(entry)
            except ValueError:
                raise ValueError(f"{path}: data row {i} has non-numeric entry"
                                 f" {entry.strip()!r} in column {column}") from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: data row {i} has non-finite entry {value} in column {column}"
                )
            row.append(value)
        rows.append(row)
    return names, np.array(rows)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV through `read_csv` (sidecar optional).

    Beyond `read_csv`'s refusals, a label that is not an integer raises
    ``ValueError`` naming the file and the data row, and labels that are not
    0..K-1 raise it with the file put before `Dataset`'s message. So does a
    sidecar that is not UTF-8 text, not a JSON object or holds a ``name``
    that is not a string, naming the sidecar.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    names, raw = read_csv(path, header=True)
    meta_path = Path(str(path) + ".meta.json")
    name = path.stem
    if meta_path.exists():
        try:
            meta = json.loads(read_text(meta_path))
        except json.JSONDecodeError as err:
            raise ValueError(f"{meta_path}: not JSON: {err}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path}: not a JSON object: {meta!r}")
        name = meta.get("name", name)
        if not isinstance(name, str):
            raise ValueError(f"{meta_path}: entry 'name' must be a string, got {name!r}")
    if names[-1] == "label":
        features, labels = raw[:, :-1], raw[:, -1]
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
        features, labels = raw, None
    try:
        return Dataset(name=name, features=features, labels=labels)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
