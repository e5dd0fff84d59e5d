"""LIBSVM dataset ingestion: fetch, verify, parse, split.

Datasets are described by in-repo manifests pinning the upstream URL and,
when known, a sha256 digest. Fetching is cache-first: a valid local copy
is reused with zero network traffic. When a manifest carries no pinned
digest, the digest observed on first fetch is recorded in a ``.sha256``
sidecar next to the file and enforced from then on.

A parsed dataset is the pair the logistic oracle reads: a dense float
matrix ``x`` of shape ``(n, dim)``, in which the 1-based LIBSVM feature
index ``j`` is column ``j - 1``, and a vector ``y`` of +-1 labels. The
manifests' datasets are small enough to hold densely (mushrooms is
5,500 x 112 after its split, ijcnn1 35,000 x 22).
"""

from __future__ import annotations

import bz2
import hashlib
import math
import os
import re
import shutil
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .problems import check_problem_args
from .rng import generator

__all__ = [
    "DatasetManifest",
    "LibsvmParseError",
    "DatasetUnavailable",
    "ChecksumMismatch",
    "MANIFESTS",
    "parse_libsvm",
    "fetch_dataset",
    "train_split",
    "load_dataset",
    "default_data_dir",
]

DATA_DIR_ENV = "HESSAVG_DATA_DIR"

_HEX64 = re.compile(r"^[0-9a-f]{64}$")


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message carries the 1-based line number."""


class DatasetUnavailable(RuntimeError):
    """A dataset is neither cached locally nor fetchable."""


class ChecksumMismatch(RuntimeError):
    """Downloaded or cached file does not match the expected sha256."""


@dataclass
class DatasetManifest:
    name: str
    url: str
    n: int  # the file's rows
    sha256: Optional[str] = None
    dim: Optional[int] = None
    train_size: Optional[int] = None
    compression: Optional[str] = None  # None or "bz2"
    label_map: Optional[dict] = field(default=None)

    def __post_init__(self) -> None:
        if self.sha256 is not None and not _HEX64.match(self.sha256):
            raise ValueError(f"sha256 for {self.name} must be 64 lowercase hex chars")

    @property
    def filename(self) -> str:
        return self.url.rsplit("/", 1)[-1]

    @property
    def rows(self) -> int:
        """The rows :func:`load_dataset` returns: the training split's, or all ``n``."""
        return self.n if self.train_size is None else min(self.train_size, self.n)


# Upstream digests are not pinned because the files cannot be mirrored into
# this repository; the first verified fetch pins them via sidecar.
MANIFESTS = {
    "ijcnn1": DatasetManifest(
        name="ijcnn1",
        url="https://www.csie.ntu.edu.tw/~cjlin/libsvmtools/datasets/binary/ijcnn1.tr.bz2",
        n=35000,
        dim=22,
        train_size=35000,
        compression="bz2",
    ),
    "mushrooms": DatasetManifest(
        name="mushrooms",
        url="https://www.csie.ntu.edu.tw/~cjlin/libsvmtools/datasets/binary/mushrooms",
        n=8124,
        dim=112,
        train_size=5500,
        label_map={1: 1, 2: -1},
    ),
}


def default_data_dir(override: Optional[str] = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path("data")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_libsvm(
    text: str,
    label_map: Optional[dict] = None,
    dim: Optional[int] = None,
) -> tuple[NDArray, NDArray]:
    """Parse LIBSVM-format lines ``label idx:val idx:val ...`` into ``(x, y)``.

    Labels and values must be finite. Indices must be 1-based and strictly
    increasing within a row; index ``j`` fills column ``j - 1`` of the
    dense ``x`` and absent features are 0. Labels are remapped through
    ``label_map`` when given and must end up in {-1, +1}. ``dim``
    overrides the max index seen, guarding against underestimation when
    rare features are absent.
    """
    # Typed buffers, not lists of Python objects: each entry of the file is
    # held in 16 bytes, its column and value, until one scatter into ``x``.
    cols, vals, row_sizes, labels = array("q"), array("d"), array("q"), array("d")
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            raw_label = float(parts[0])
        except ValueError as err:
            raise LibsvmParseError(f"line {lineno}: unparsable label {parts[0]!r}") from err
        if not math.isfinite(raw_label):
            raise LibsvmParseError(f"line {lineno}: non-finite label {parts[0]!r}")
        if raw_label == int(raw_label):
            raw_label = int(raw_label)
        if label_map is not None:
            if raw_label not in label_map:
                raise LibsvmParseError(f"line {lineno}: label {raw_label!r} not in label map")
            label = float(label_map[raw_label])
        else:
            label = float(raw_label)
        if label not in (-1.0, 1.0):
            raise LibsvmParseError(f"line {lineno}: label {label} not in {{-1, +1}}")
        prev = 0
        for tok in parts[1:]:
            idx_str, _, val_str = tok.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError as err:
                raise LibsvmParseError(f"line {lineno}: malformed token {tok!r}") from err
            if not math.isfinite(val):
                raise LibsvmParseError(f"line {lineno}: non-finite value in {tok!r}")
            if idx <= prev:
                raise LibsvmParseError(
                    f"line {lineno}: indices must be strictly increasing (saw {idx} after {prev})"
                )
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        max_index = max(max_index, prev)
        row_sizes.append(len(parts) - 1)
        labels.append(label)
    out_dim = dim if dim is not None else max_index
    if max_index > out_dim:
        raise LibsvmParseError(f"feature index {max_index} exceeds declared dim {out_dim}")
    x = np.zeros((len(labels), out_dim))
    rows = np.repeat(np.arange(len(labels)), np.frombuffer(row_sizes, dtype=np.int64))
    x[rows, np.frombuffer(cols, dtype=np.int64)] = np.frombuffer(vals)
    return x, np.array(labels)


# ---------------------------------------------------------------------------
# Fetching
# ---------------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _download(url: str, dest: Path, timeout: float) -> None:
    # Imported here: it loads the http and ssl stacks, which only a
    # download needs. urlopen raises HTTPError on 4xx/5xx answers.
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as resp, dest.open("wb") as fh:
        shutil.copyfileobj(resp, fh, 1 << 20)


def fetch_dataset(
    manifest: DatasetManifest,
    data_dir: Path | str,
    timeout: float = 60.0,
    downloader=_download,
) -> Path:
    """Return a verified local copy of the manifest's file, fetching once.

    A cached file whose digest matches is returned without any network
    traffic. A cached or downloaded file that contradicts the expected
    digest is deleted and :class:`ChecksumMismatch` raised. Network
    failures surface as :class:`DatasetUnavailable`.
    """
    data_dir = Path(data_dir)
    target = data_dir / manifest.name / manifest.filename
    sidecar = target.with_suffix(target.suffix + ".sha256")
    expected = manifest.sha256
    if expected is None and sidecar.exists():
        expected = sidecar.read_text().strip()

    if target.exists():
        digest = _sha256_file(target)
        if expected is not None and digest != expected:
            target.unlink()
            raise ChecksumMismatch(
                f"cached {target} has sha256 {digest}, expected {expected}; file removed"
            )
        if expected is None:
            sidecar.write_text(digest + "\n")
        return target

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp_fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=".fetch-")
    os.close(tmp_fd)
    tmp = Path(tmp_name)
    try:
        try:
            downloader(manifest.url, tmp, timeout)
        except Exception as err:
            raise DatasetUnavailable(
                f"could not fetch {manifest.name} from {manifest.url}: {err}. "
                f"On a networked machine run `hessavg fetch-data {manifest.name}` "
                f"or place the file at {target}."
            ) from err
        digest = _sha256_file(tmp)
        if expected is not None and digest != expected:
            raise ChecksumMismatch(
                f"downloaded {manifest.url} has sha256 {digest}, expected {expected}"
            )
        os.replace(tmp, target)
        sidecar.write_text(digest + "\n")
    finally:
        tmp.unlink(missing_ok=True)
    return target


def _read_text(path: Path, compression: Optional[str]) -> str:
    raw = path.read_bytes()
    if compression == "bz2":
        raw = bz2.decompress(raw)
    return raw.decode("utf-8")


# ---------------------------------------------------------------------------
# Splitting and loading
# ---------------------------------------------------------------------------


def train_split(
    x: NDArray, y: NDArray, k: int, seed: int
) -> tuple[tuple[NDArray, NDArray], tuple[NDArray, NDArray]]:
    """Deterministic shuffled split: the rows at the first ``k`` entries of a
    seeded permutation, in that order, and the remaining rows."""
    n = len(y)
    if k > n:
        raise ValueError(f"requested {k} rows from a dataset of {n}")
    perm = generator(seed).permutation(n)
    take, rest = perm[:k], perm[k:]
    return (x[take], y[take]), (x[rest], y[rest])


def load_dataset(
    name: str,
    data_dir: Optional[str | Path] = None,
    split_seed: int = 0,
) -> tuple[NDArray, NDArray]:
    """Fetch (or reuse), parse, and train-split a manifest dataset into ``(x, y)``.

    A file whose row count differs from the manifest's ``n`` is refused
    with :class:`LibsvmParseError`, so a truncated or different file never
    loads under the manifest's name. The rows returned are the manifest's
    :attr:`~DatasetManifest.rows`. ``split_seed`` is bounded, before any
    fetch, as :func:`~hessavg.problems.check_problem_args` bounds it.
    """
    if name not in MANIFESTS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(MANIFESTS)}")
    check_problem_args(split_seed=split_seed)
    manifest = MANIFESTS[name]
    directory = default_data_dir(str(data_dir) if data_dir else None)
    path = fetch_dataset(manifest, directory)
    x, y = parse_libsvm(_read_text(path, manifest.compression), manifest.label_map, manifest.dim)
    if len(y) != manifest.n:
        raise LibsvmParseError(f"{name}: parsed {len(y)} rows, but the manifest declares {manifest.n}")
    if manifest.rows < len(y):
        (x, y), _ = train_split(x, y, manifest.rows, split_seed)
    return x, y
