"""LibSVM-format ingestion, [0,1] feature scaling, and seeded splits.

All functions are pure: datasets are immutable and every operation returns a
new one. `#` starts a comment that runs to end of line; files are UTF-8.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import EmptyDataset, NonBinaryLabels, OneClassSplit, ParseError


@dataclass(frozen=True)
class Dataset:
    """n points in d dimensions with labels in {-1,+1}."""

    points: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) float64, entries -1.0 or +1.0
    label_pair: tuple[float, float] = (-1.0, 1.0)  # the raw labels read as -1 and +1, one of _LABEL_PAIRS

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a non-empty 2-d array")
        if lab.shape != (pts.shape[0],):
            raise ValueError("labels length must match point count")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not np.isin(lab, (-1.0, 1.0)).all():
            raise ValueError("labels must be -1 or +1")
        if self.label_pair not in _LABEL_PAIRS:
            raise ValueError(f"label pair {self.label_pair} is not one of {_LABEL_PAIRS}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def has_both_classes(self) -> bool:
        return bool((self.labels > 0).any() and (self.labels < 0).any())

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.points[idx].copy(), self.labels[idx].copy(), self.label_pair)


@dataclass(frozen=True)
class ScalingParams:
    """Per-dimension train min/max used to map features into [0,1]."""

    mins: np.ndarray  # (d,)
    maxs: np.ndarray  # (d,)

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins/maxs must be matching 1-d arrays")
        if (maxs < mins).any():
            raise ValueError("max < min in scaling parameters")
        with np.errstate(over="ignore", invalid="ignore"):
            wide = np.flatnonzero(~np.isfinite(maxs - mins))
        if wide.size:
            f = wide[0]
            raise ValueError(f"feature index {f + 1} spans [{mins[f]:g}, {maxs[f]:g}], "
                             "a width past float64's range")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def d(self) -> int:
        return self.mins.shape[0]


# Raw label encodings accepted as (low, high) pairs; high maps to +1, low to -1.
_LABEL_PAIRS = ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))


def _map_labels(raw: np.ndarray, pair: tuple[float, float] | None = None) -> tuple[np.ndarray, tuple[float, float]]:
    """Raw labels as -1/+1 and their pair: `pair`, or the first that holds them."""
    seen = set(raw.tolist())
    pair = pair or next((p for p in _LABEL_PAIRS if seen <= set(p)), None)
    if pair is None:
        raise NonBinaryLabels(f"label set {sorted(seen)} is not a supported binary encoding")
    return np.where(raw == pair[1], 1.0, -1.0), pair


#: Records `parse_libsvm` converts at once: one `np.loadtxt` call takes all
#: of their feature tokens. The block's text and numbers are held beside the
#: buffers, so a larger block raises the parser's peak memory.
BLOCK_RECORDS = 64

_TOKEN = np.dtype([("index", np.int64), ("value", np.float64)])


def parse_libsvm(source, n_features: int | None = None, labels: tuple[float, float] | None = None) -> Dataset:
    """Parse LibSVM text into a dense, unscaled Dataset.

    `source` is a string or a text file object. Each record reads
    `<label> <index>:<value> ...` with a finite label and strictly increasing
    1-based indices; absent indices are zero. The width is the largest index
    seen, or `n_features` when given (it must cover every index in the file).
    With `labels`, a (low, high) pair of `_LABEL_PAIRS`, any other label is a
    ParseError at its line; without, the first pair holding all labels decodes.

    The source is read one line at a time, with the line breaks of
    `str.splitlines`, and each record's label is split off at the first
    whitespace. Records are converted in blocks of BLOCK_RECORDS: numpy's C
    text reader converts the index and value of every feature token of a
    block in one `np.loadtxt` call, which splits the records on whitespace
    as it reads them, and the block is checked with array operations (labels
    finite and in `labels`, values finite, indices 1-based and strictly
    increasing within each record, none past `n_features`). A block that the
    reader refuses, holds a non-ASCII character, or fails a check is read
    again record by record by `_Buffers.add_record`, which alone decides
    what is accepted and every error message, so the first faulty record in
    the file raises. Labels, counts, indices and values collect in typed
    buffers, and one flat-index assignment fills the dense array; a width
    too large to allocate raises ParseError at the first line that uses the
    largest index.
    """
    if isinstance(source, str):
        source = _cut_lines(source)
    into = _Buffers(n_features, labels)
    line_nos, label_toks, rests = [], [], []  # the block: line numbers, label tokens, the text after each label
    for line_no, raw_line in enumerate(chain.from_iterable(map(str.splitlines, source)), start=1):
        record = raw_line.partition("#")[0].split(None, 1)
        if record:
            line_nos.append(line_no)
            label_toks.append(record[0])
            rests.append(record[1] if len(record) > 1 else "")
            if len(rests) == BLOCK_RECORDS:
                into.add_block(line_nos, label_toks, rests)
                line_nos, label_toks, rests = [], [], []
    into.add_block(line_nos, label_toks, rests)
    if not into.labels:
        raise EmptyDataset("no data records found")
    n, top = len(into.labels), into.top
    d = max(top, 1) if n_features is None else max(n_features, 1)
    try:
        points = np.zeros((n, d))
    except (MemoryError, ValueError):  # ValueError: a width past what numpy can index
        raise ParseError(into.top_line, f"a dense {n} x {d} array (largest index {top}) cannot be allocated") from None
    # flat position of each entry: row * d + index - 1, built in the index buffer
    flat = np.frombuffer(into.indices, dtype=np.int64)
    flat += np.repeat(np.arange(-1, n * d - 1, d, dtype=np.int64), np.frombuffer(into.counts, dtype=np.int64))
    points.put(flat, np.frombuffer(into.values))
    return Dataset(points, *_map_labels(np.frombuffer(into.labels), labels))


def _cut_lines(text: str):
    """`text` cut after each newline, as iterating a text file cuts it, one
    piece at a time: io.StringIO would copy the text at 4 bytes a character."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


class _Buffers:
    """The records `parse_libsvm` has read: labels, feature counts, indices
    and values in typed buffers, and the largest index with the first line
    that uses it. An index past `n_features`, when given, is refused."""

    def __init__(self, n_features: int | None, labels: tuple[float, float] | None):
        self.n_features = n_features
        self.limit = math.inf if n_features is None else n_features
        self.pair = labels
        self.label_ok = math.isfinite if labels is None else labels.__contains__
        self.labels = array("d")
        self.counts = array("q")
        self.indices = array("q")
        self.values = array("d")
        self.top = self.top_line = 0

    def add_block(self, line_nos: list[int], labels: list[str], rests: list[str]) -> None:
        """Add records given by line number, label token and the text after
        the label: converted and checked together, or if that fails, one at
        a time."""
        if not self._add_converted(line_nos, labels, rests):
            for line_no, label_s, rest in zip(line_nos, labels, rests):
                self.add_record(line_no, label_s, rest.split())

    def _add_converted(self, line_nos, labels, rests) -> bool:
        """Add a block converted by one `np.loadtxt` call and checked with
        array operations, if it passes every check of `add_record`; False,
        having added nothing, if the reader refuses it or a check fails."""
        if not all(map(str.isascii, rests)):  # numpy's integer reader takes some other characters for digits
            return False
        try:
            lab = list(map(float, labels))
            toks = np.empty(0, _TOKEN)
            if any(rests):  # loadtxt warns of an input without tokens
                # split as the reader takes them: a block's tokens are never all alive at once
                toks = np.loadtxt(chain.from_iterable(map(str.split, rests)), dtype=_TOKEN, comments=None,
                                  delimiter=":", ndmin=1)
        except ValueError:
            return False
        idx, vals = toks["index"], toks["value"]
        # each token the reader took holds exactly one colon
        counts = np.fromiter(map(str.count, rests, repeat(":")), np.int64, len(rests))
        ends = np.cumsum(counts)
        prev = np.empty_like(idx)  # the index before each one in its record, 0 before a first
        prev[1:] = idx[:-1]
        prev[(ends - counts)[counts > 0]] = 0
        if not (all(map(self.label_ok, lab)) and (idx > prev).all() and np.isfinite(vals).all()):
            return False
        if idx.size:
            last = int(idx.max())
            if last > self.limit:
                return False
            if last > self.top:  # the record of its first occurrence
                self.top, self.top_line = last, line_nos[int(np.searchsorted(ends, idx.argmax(), side="right"))]
            if self.top < 1 << 63:
                self.indices.frombytes(idx.tobytes())
                self.values.frombytes(vals.tobytes())
        self.labels.fromlist(lab)
        self.counts.frombytes(counts.tobytes())
        return True

    def add_record(self, line_no: int, label_s: str, feats: list[str]) -> None:
        """Add one record, checking its label and then each token in turn
        (colon, conversion, 1-based, strictly increasing, finite), so its
        first fault raises."""
        try:
            label = float(label_s)
        except ValueError:
            label = math.nan
        if not math.isfinite(label):
            raise ParseError(line_no, f"bad label {label_s!r}")
        if not self.label_ok(label):
            raise ParseError(line_no, f"label {label_s!r} is outside the label pair {self.pair[0]:g} {self.pair[1]:g}")
        idx, vals = [], []
        for tok in feats:
            idx_s, colon, val_s = tok.partition(":")
            if not colon:
                raise ParseError(line_no, f"expected index:value, got {tok!r}")
            try:
                index = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if index < 1:
                raise ParseError(line_no, f"feature index {index} is not 1-based")
            if idx and index <= idx[-1]:
                raise ParseError(line_no, f"feature index {index} not strictly increasing")
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite value in {tok!r}")
            idx.append(index)
            vals.append(val)
        if feats:
            if idx[-1] > self.limit:
                raise ParseError(line_no, f"file uses index {idx[-1]} > n_features={self.n_features}")
            if idx[-1] > self.top:
                self.top, self.top_line = idx[-1], line_no
            if self.top < 1 << 63:  # wider cannot be allocated; the rest of the file is only checked
                self.indices.fromlist(idx)
                self.values.fromlist(vals)
        self.labels.append(label)
        self.counts.append(len(feats))


def fit_scaling(dataset: Dataset) -> ScalingParams:
    return ScalingParams(dataset.points.min(axis=0), dataset.points.max(axis=0))


def apply_scaling(dataset: Dataset, params: ScalingParams) -> Dataset:
    """Map features to [0,1] with the given train ranges.

    Constant dimensions go to 0; out-of-range values (unseen test points)
    are clamped so downstream kernels stay in their calibrated regime, also
    when their distance to the range overflows to infinity.
    """
    if dataset.d != params.d:
        raise ValueError(f"dataset has {dataset.d} features, scaling has {params.d}")
    span = params.maxs - params.mins
    safe = np.where(span > 0.0, span, 1.0)
    with np.errstate(over="ignore"):
        scaled = (dataset.points - params.mins) / safe
    scaled[:, span == 0.0] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, dataset.labels.copy(), dataset.label_pair)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test partition, deterministic for a fixed seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = dataset.n
    if n < 2:
        raise ValueError("need at least 2 points to split")
    k = int(round(train_fraction * n))
    k = min(max(k, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:k])
    test_idx = np.sort(perm[k:])
    train = dataset.subset(train_idx)
    if not train.has_both_classes():
        raise OneClassSplit("training side of the split has a single class")
    return train, dataset.subset(test_idx)
