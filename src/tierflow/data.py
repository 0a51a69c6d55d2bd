"""Feature stores, confidence tiers, pair keys, negative sampling, the data
context a training run reads, and synthetic data.

File formats (UTF-8, LF):

* bit-vector store: first line ``#width=<int>``, then ``id<TAB><01-string>``
* interaction table: ``compound_id<TAB>protein_id<TAB>score`` with integer
  scores in [0, 1000], no header
* latent store: ``id<TAB>v1,v2,...`` with finite 17-significant-digit floats
* synthetic oracle: ``compound_id<TAB>protein_id<TAB>true_label``

No id holds a NUL, which NumPy's ``str`` dtype drops from an id's end.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import format_rows, write_atomic
from .errors import ConfigError, DataError
from .rng import RngStream


@dataclass
class FeatureStore:
    """Feature vectors: ids in insertion order, one matrix row each.

    The matrix keeps the dtype it is given: ``uint8`` bits from
    :func:`load_bitvectors` and :func:`synth_generate`, ``float64`` latents
    from :func:`load_latents` and ``vae.embed``.
    """

    ids: list[str]
    matrix: np.ndarray  # (len(ids), width)

    def __post_init__(self):
        self.ids = list(self.ids)
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.matrix.shape}")
        if len(self.ids) != len(self.matrix):
            raise ValueError(f"{len(self.ids)} ids for {len(self.matrix)} rows")
        if len(set(self.ids)) < len(self.ids):
            key = next(k for k, count in Counter(self.ids).items() if count > 1)
            raise ValueError(f"duplicate id {key!r}")
        key = next((k for k in self.ids if "\x00" in k), None)
        if key is not None:
            raise ValueError(f"NUL in id {key!r}")

    @property
    def width(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@contextmanager
def open_for_read(path: Path):
    """A text handle on ``path``; failing to open or decode it is a DataError naming it."""
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


# lines and characters per parse block: a block's Python strings stay near 1 MiB
# however long its lines, and the per-block numpy calls cost little beside parsing
_BLOCK_LINES, _BLOCK_CHARS = 4096, 1 << 20


def _line_blocks(fh, start: int):
    """``(number of the first line, lines)`` for blocks of ``_BLOCK_LINES``
    lines, or fewer once a block holds ``_BLOCK_CHARS`` characters.

    A decode error is raised only after the lines read before it have been
    yielded, so an error on one of those lines is reported first, as a
    line-at-a-time reader would report it.
    """
    block, chars = [], 0
    try:
        for line in fh:
            block.append(line)
            chars += len(line)
            if len(block) == _BLOCK_LINES or chars >= _BLOCK_CHARS:
                yield start, block
                start, block, chars = start + len(block), [], 0
    except UnicodeDecodeError:
        yield start, block
        raise
    yield start, block


def _bit_lines(path: Path, start: int, lines: list[str], seen: set[str], out: np.ndarray):
    """Parse a block of a bit-vector file into the first rows of ``out`` and
    return its ids, or raise the first bad line's DataError.  ``seen`` holds
    the ids of earlier lines and gains this block's."""
    keys: list[str] = []
    width = out.shape[1]
    for lineno, line in enumerate(lines, start):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>bits'")
        key, bits = parts
        if len(bits) != width:
            raise DataError(
                f"{path}:{lineno}: vector width {len(bits)} != header width {width}"
            )
        if bits.strip("01"):
            raise DataError(f"{path}:{lineno}: non-01 character in bit vector")
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {key!r}")
        if not key:
            raise DataError(f"{path}:{lineno}: empty id in bit-vector store")
        if "\x00" in key:
            raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
        seen.add(key)
        out[len(keys)] = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
        keys.append(key)
    out[:len(keys)] -= np.uint8(ord("0"))
    return keys


def load_bitvectors(path: str | Path) -> FeatureStore:
    """Parse a bit-vector file; errors carry the offending line number.

    Lines are parsed ``_BLOCK_LINES`` at a time into one uint8 matrix.
    """
    path = Path(path)
    ids: list[str] = []
    seen: set[str] = set()
    with open_for_read(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#width="):
            raise DataError(f"{path}:1: expected '#width=<int>' header, got {header!r}")
        try:
            width = int(header[len("#width="):])
        except ValueError as exc:
            raise DataError(f"{path}:1: bad width in header {header!r}") from exc
        if width < 1:
            raise DataError(f"{path}:1: bad width in header {header!r}")
        # a row takes at least width + 2 bytes (a one-character id, a tab and
        # the bits), so the file's size bounds the row count; the pages of
        # rows that are never written are never touched
        matrix = np.empty((path.stat().st_size // (width + 2), width), dtype=np.uint8)
        for start, lines in _line_blocks(fh, 2):
            ids += _bit_lines(path, start, lines, seen, matrix[len(ids):])
    return FeatureStore(ids, matrix[:len(ids)])


def save_bitvectors(store: FeatureStore, path: str | Path) -> None:
    # one line at a time, so the file's text is never held whole
    rows = (
        key + "\t" + ((vec != 0).view(np.uint8) + ord("0")).tobytes().decode("ascii") + "\n"
        for key, vec in zip(store.ids, store.matrix)
    )
    write_atomic(path, itertools.chain([f"#width={store.width}\n"], rows))


def _columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The fields of the lines, column by column, or None unless there are
    lines, each has ``width - 1`` tabs (so none is blank) and none holds a NUL."""
    text = "".join(lines)
    if set(map(str.count, lines, itertools.repeat("\t"))) != {width - 1} or "\x00" in text:
        return None
    # a final newline leaves one more, empty field
    fields = text.replace("\n", "\t").split("\t")
    return [fields[i:len(lines) * width:width] for i in range(width)]


# the bytes of printable ASCII, which np.loadtxt and float() read alike
_PRINTABLE = bytes(range(0x20, 0x7F))


def _latent_block(keys: list[str], values: list[str], seen: set[str]):
    """The float64 matrix of a block's ids and value strings, or None unless
    ``np.loadtxt`` reads them as finite rows of one width and every id is new.

    ``np.loadtxt`` and ``float()`` read printable ASCII to the same bits, but
    not every other character (``np.loadtxt`` takes ``"\\x1c1"`` for 1.0, say):
    a block holding any other character is left to ``float()``.
    """
    if len(set(keys)) < len(keys) or not seen.isdisjoint(keys):
        return None
    text = ",".join(values)
    if not (all(values) and text.isascii()) or text.encode().translate(None, _PRINTABLE):
        return None
    try:
        vecs = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return vecs if len(vecs) == len(keys) and np.isfinite(vecs).all() else None


def _latent_lines(path: Path, start: int, lines: list[str], seen: set[str]):
    """Per-line parse of a block of a latent file: its ids and vectors, or the
    first bad line's DataError.  ``seen`` holds the ids of earlier lines and
    gains this block's."""
    keys, vecs = [], []
    for lineno, line in enumerate(lines, start):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>v1,v2,...'")
        key, values = parts
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {key!r}")
        if "\x00" in key:
            raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
        try:
            vec = list(map(float, values.split(",")))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad float: {exc}") from exc
        # a nan or inf makes the sum non-finite; so can finite values that overflow
        if not math.isfinite(sum(vec)) and not all(map(math.isfinite, vec)):
            raise DataError(f"{path}:{lineno}: non-finite value in vector for {key!r}")
        seen.add(key)
        keys.append(key)
        vecs.append(np.array(vec))
    return keys, vecs


def load_latents(path: str | Path) -> FeatureStore:
    """Parse a latent file; errors carry the offending line number.

    Lines are parsed ``_BLOCK_LINES`` at a time by ``np.loadtxt`` into one
    float64 matrix.  A block :func:`_latent_block` does not take is parsed
    again line by line with ``float()``, which raises the error of its first
    bad line; rows of unequal widths are an error once every line has been read.
    """
    path = Path(path)
    ids: list[str] = []
    matrix = np.empty((0, 0))
    seen: set[str] = set()
    shapes: set[tuple[int, ...]] = set()  # row shapes, added in file order
    with open_for_read(path) as fh:
        for start, lines in _line_blocks(fh, 1):
            columns = _columns(lines, 2)
            vecs = None if columns is None else _latent_block(*columns, seen)
            if vecs is None:
                keys, vecs = _latent_lines(path, start, lines, seen)
                shapes.update(vec.shape for vec in vecs)
            else:
                keys = columns[0]
                seen.update(keys)
                shapes.add(vecs.shape[1:])
            if not keys or len(shapes) > 1:  # unequal widths fail at the end
                continue
            if not ids:
                # a row of width w takes 2w bytes or more, so the file's size bounds the rows
                [(width,)] = shapes
                matrix = np.empty((path.stat().st_size // (2 * width), width))
            matrix[len(ids):len(ids) + len(keys)] = vecs
            ids += keys
    if len(shapes) > 1:
        raise DataError(f"{path}: inconsistent vector widths in latent store: {shapes}")
    return FeatureStore(ids, matrix[:len(ids)])


# floats in a block of latent rows rendered at once: with the renderer's
# scratch of about 106 bytes a float, a block needs about 0.1 MB
_LATENT_BLOCK = 1024


def save_latents(store: FeatureStore, path: str | Path) -> None:
    rows = max(1, _LATENT_BLOCK // max(1, store.width))
    write_atomic(path, (
        "".join(map("{}\t{}\n".format, store.ids[at:at + rows],
                    format_rows(store.matrix[at:at + rows], ",").split("\n")))
        for at in range(0, len(store.ids), rows)
    ))


@dataclass(frozen=True)
class TierSpec:
    """Half-open confidence interval [lo, hi) over scores in [0, 1000]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi <= 1000):
            raise ValueError(f"need 0 <= lo < hi <= 1000, got [{self.lo},{self.hi})")

    def overlaps(self, other: "TierSpec") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


class _Interner(dict):
    """Ids mapped to int32 codes in the order they are first seen."""

    def codes(self, ids: list[str]) -> np.ndarray:
        # an id not yet seen takes the next code, len(self), read as it is reached
        codes = map(self.setdefault, ids, map(len, itertools.repeat(self)))
        return np.fromiter(codes, np.int32, len(ids))

    def vocab(self, codes: np.ndarray) -> np.ndarray:
        """The sorted ids; ``codes`` become positions among them in place, a
        block at a time, so no second code column is built."""
        key = next((k for k in self if "\x00" in k), None)
        if key is not None:
            raise ValueError(f"NUL in id {key!r}")
        ids = np.array(list(self), dtype=str)
        order = np.argsort(ids)
        position = np.argsort(order).astype(np.int32)
        for at in range(0, len(codes), _BLOCK_LINES):
            codes[at:at + _BLOCK_LINES] = position[codes[at:at + _BLOCK_LINES]]
        return ids[order]


class InteractionTable:
    """Positive interactions: each id column's sorted distinct ids (its vocab),
    each record's int32 codes among them and its int64 score.  The (compound,
    protein) pairs are unique, and no id holds a NUL."""

    def __init__(self, compound_ids, protein_ids, scores):
        compounds, proteins = _Interner(), _Interner()
        self._adopt(compounds, proteins, compounds.codes(list(compound_ids)),
                    proteins.codes(list(protein_ids)), scores)

    def _adopt(self, compounds: _Interner, proteins: _Interner, c, p, scores) -> None:
        self.scores = np.asarray(scores, dtype=np.int64)
        if not c.shape == p.shape == self.scores.shape:
            raise ValueError("interaction columns differ in shape")
        bad = np.flatnonzero((self.scores < 0) | (self.scores > 1000))
        if bad.size:
            raise ValueError(f"score {self.scores[bad[0]]} outside [0, 1000]")
        self.compound_vocab, self.compound_codes = compounds.vocab(c), c
        self.protein_vocab, self.protein_codes = proteins.vocab(p), p
        keys = self.compound_codes * np.int64(len(self.protein_vocab)) + self.protein_codes
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            # rebuilt in record order, only to name the first repeated pair
            keys = self.compound_codes * np.int64(len(self.protein_vocab)) + self.protein_codes
            order = np.argsort(keys, kind="stable")
            i = order[1:][keys[order[1:]] == keys[order[:-1]]].min()
            raise ValueError(f"duplicate pair {self.pair(i)}")

    def pair(self, row: int) -> tuple[str, str]:
        """The compound and protein ids of one record."""
        c, p = self.compound_codes[row], self.protein_codes[row]
        return str(self.compound_vocab[c]), str(self.protein_vocab[p])

    def __len__(self) -> int:
        return len(self.scores)


def _interaction_lines(path: Path, start: int, lines: list[str]):
    """A block of an interaction table: its three columns and the ``(line,
    score)`` of its first score outside [0, 1000] (or None), or the first bad
    line's DataError."""
    compounds, proteins, scores = [], [], []
    out_of_range = None
    for lineno, line in enumerate(lines, start):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            score = int(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if "\x00" in line:  # the score parsed, so it holds none: an id does
            key = parts[0] if "\x00" in parts[0] else parts[1]
            raise DataError(f"{path}:{lineno}: NUL in id {key!r}")
        if out_of_range is None and not 0 <= score <= 1000:
            out_of_range = (lineno, score)
        compounds.append(parts[0])
        proteins.append(parts[1])
        scores.append(score)
    return (compounds, proteins, scores), out_of_range


def _scores(values: list[str]) -> np.ndarray | None:
    """A block's scores, or None unless each is ASCII digits within [0, 1000]."""
    digits = "".join(values)
    if not (all(values) and digits.isascii() and digits.isdigit()):
        return None
    # strtoll reads a run of digits past int64 as 2**63 - 1, which is out of range
    scores = np.fromstring(" ".join(values), dtype=np.int64, sep=" ")
    return scores if scores.max() <= 1000 else None


def load_interactions(path: str | Path) -> InteractionTable:
    """Parse an interaction table; errors carry the offending line number.

    Blocks of lines are split in one pass and each id becomes its code; a block
    that :func:`_columns` or :func:`_scores` rejects is parsed line by line.  The
    first score outside [0, 1000] is reported, at its line, once every line parses.
    """
    path = Path(path)
    compounds, proteins = _Interner(), _Interner()
    blocks: list[list[np.ndarray]] = [[], [], []]  # of each column, freed as it is joined
    out_of_range = None  # (line, score) of the first score outside [0, 1000]
    with open_for_read(path) as fh:
        for start, lines in _line_blocks(fh, 1):
            columns = _columns(lines, 3)
            scores = None if columns is None else _scores(columns[2])
            if scores is None:
                columns, bad = _interaction_lines(path, start, lines)
                out_of_range, scores = out_of_range or bad, columns[2]
            if out_of_range is None:
                blocks[0].append(compounds.codes(columns[0]))
                blocks[1].append(proteins.codes(columns[1]))
                blocks[2].append(np.asarray(scores, dtype=np.int64))
    if out_of_range is not None:
        raise DataError(f"{path}:{out_of_range[0]}: score {out_of_range[1]} outside [0, 1000]")
    table = object.__new__(InteractionTable)
    try:
        table._adopt(compounds, proteins, *(np.concatenate(blocks.pop(0)) for _ in range(3)))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return table


def save_interactions(table: InteractionTable, path: str | Path) -> None:
    compounds, proteins = table.compound_vocab.tolist(), table.protein_vocab.tolist()
    # codes are read a block at a time, so no column of ids is built
    blocks = (slice(at, at + _BLOCK_LINES) for at in range(0, len(table), _BLOCK_LINES))
    write_atomic(path, (
        f"{compounds[c]}\t{proteins[p]}\t{score}\n"
        for block in blocks
        for c, p, score in zip(table.compound_codes[block].tolist(),
                               table.protein_codes[block].tolist(), table.scores[block].tolist())
    ))


def tier_filter(table: InteractionTable, tier: TierSpec) -> np.ndarray:
    """Boolean mask over the table's rows: lo <= score < hi."""
    return (table.scores >= tier.lo) & (table.scores < tier.hi)


def percentile_cutoff(table: InteractionTable, percentile: float) -> int:
    """Empirical score cutoff for a percentile in [0, 100).

    Rule: the k-th smallest score (1-based) with k = max(1, ceil(p/100 * n)),
    i.e. the lowest score at or above which the top (100-p)% of records sit.
    """
    if len(table) == 0:
        raise ValueError("percentile_cutoff needs a non-empty table")
    if not (0.0 <= percentile < 100.0):
        raise ValueError(f"percentile must lie in [0, 100), got {percentile}")
    scores = table.scores
    k = max(1, math.ceil(percentile / 100.0 * len(scores)))
    return int(np.partition(scores, k - 1)[k - 1])


def index_of(sorted_values, values: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted ``sorted_values``, or -1 where it is absent."""
    sorted_values = np.asarray(sorted_values)
    if not sorted_values.size:
        return np.full(len(values), -1, dtype=np.int64)
    at = np.searchsorted(sorted_values, values)
    found = sorted_values[np.minimum(at, len(sorted_values) - 1)] == values
    return np.where(found, at, -1)


def sample_negatives(
    n_compounds: int,
    n_proteins: int,
    forbidden_keys: np.ndarray,
    count: int,
    rng: RngStream,
) -> np.ndarray:
    """Draw `count` distinct pair keys uniformly from the grid minus `forbidden_keys`.

    A pair key is ``compound_index * n_proteins + protein_index``;
    `forbidden_keys` is sorted and unique.  Each rejection round draws a block
    of compound indices, then as many protein indices, and keeps the first
    occurrence of every key that is neither forbidden nor already chosen.
    When the request covers more than half the complement, the complement is
    enumerated in key order and picked by permutation instead, so the call
    terminates.  Both paths are deterministic given the stream.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    forbidden_keys = np.asarray(forbidden_keys, dtype=np.int64)
    n_grid = n_compounds * n_proteins
    inside = np.searchsorted(forbidden_keys, [0, n_grid])
    complement = n_grid - int(inside[1] - inside[0])
    if count > complement:
        raise DataError(
            f"cannot draw {count} negatives: only {complement} non-positive pairs exist"
        )

    if count > complement // 2:
        # dense regime: enumerate the complement once, then pick by permutation
        free = np.setdiff1d(np.arange(n_grid, dtype=np.int64), forbidden_keys, True)
        return free[rng.permutation(len(free))[:count]]

    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        batch = max(64, 2 * (count - len(chosen)))
        ci = rng.integers(n_compounds, size=batch)
        pi = rng.integers(n_proteins, size=batch)
        keys = ci * n_proteins + pi
        # membership is tested once per distinct key, in key order
        unique, first = np.unique(keys, return_index=True)
        fresh = (index_of(forbidden_keys, unique) < 0) & (index_of(np.sort(chosen), unique) < 0)
        chosen = np.concatenate([chosen, keys[np.sort(first[fresh])][:count - len(chosen)]])
    return chosen


# rows per evaluation block and per block of a feature gather: a block's
# index and feature temporaries stay a few MB.  A blocked forward may differ
# from a whole-matrix one in the last ulp; 4096 keeps the benchmark's pinned
# digests on the build that pinned them, so changing it may change metrics
GATHER_ROWS = 4096


def labels(positive_keys: np.ndarray, negative_keys: np.ndarray) -> np.ndarray:
    """1.0 for each positive, then 0.0 for each negative."""
    return np.repeat([1.0, 0.0], [len(positive_keys), len(negative_keys)])


def _sorted_into(store: FeatureStore, out: np.ndarray) -> np.ndarray:
    """The store's ids sorted; its matrix rows are widened to float64 into
    ``out`` in that order (a float64 matrix is not copied first)."""
    ids = np.array(store.ids, dtype=str)
    order = np.argsort(ids, kind="stable")
    np.take(store.matrix.astype(np.float64, copy=False), order, axis=0, out=out)
    return ids[order]


@dataclass
class DataContext:
    """Everything a training run consumes: positives, features, id universes.

    Built once from the three fields and kept as arrays, so the feature stores
    are not held (nor pickled into ``--jobs`` workers): ``compounds`` and
    ``proteins`` are the sorted id arrays.  The feature rows in sorted-id
    order, widened to float64, live in one stacked table, protein rows first,
    cut into sub-rows ``g = gcd(wp, wc)`` wide, which :meth:`rows` gathers
    from.  A pair is the int64 key ``ci * len(proteins) + pi`` of its
    compound and protein rows.  ``row_keys`` holds each record's key, or -1
    where an id has no features, and ``positive_keys`` the sorted keys of the
    records with known ids.
    """

    interactions: InteractionTable
    compound_features: InitVar[FeatureStore]
    protein_features: InitVar[FeatureStore]

    def __post_init__(self, compound_features: FeatureStore, protein_features: FeatureStore):
        self._widths = wp, wc = protein_features.width, compound_features.width
        self._g = g = math.gcd(wp, wc) or 1
        # the sub-row where the compound rows start
        self._split = len(protein_features) * wp // g
        self._table = np.empty((self._split + len(compound_features) * wc // g, g))
        self.proteins = _sorted_into(
            protein_features, self._table[:self._split].reshape(len(protein_features), wp))
        self.compounds = _sorted_into(
            compound_features, self._table[self._split:].reshape(len(compound_features), wc))
        t = self.interactions
        # each distinct id is looked up once
        ci = index_of(self.compounds, t.compound_vocab)[t.compound_codes]
        pi = index_of(self.proteins, t.protein_vocab)[t.protein_codes]
        self.row_keys = np.where((ci < 0) | (pi < 0), -1, ci * len(self.proteins) + pi)
        self.positive_keys = np.sort(self.row_keys[self.row_keys >= 0])

    @property
    def feature_dim(self) -> int:
        return sum(self._widths)

    def rows(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the ``[protein features || compound features]`` row of each pair
        key into ``out[:len(keys)]`` and return that view.

        ``out`` is a C-contiguous float64 array ``feature_dim`` wide; the rows
        are copied bit for bit from the stacked table by one ``np.take``.
        """
        n_grid = len(self.compounds) * len(self.proteins)
        if keys.size and (keys.min() < 0 or keys.max() >= n_grid):
            raise ValueError(f"pair keys must lie in [0, {n_grid})")
        if not out.flags.c_contiguous or out.shape[1:] != (self.feature_dim,):
            raise ValueError(f"out must be C-contiguous and {self.feature_dim} wide")
        (wp, wc), g = self._widths, self._g
        kp, kc = wp // g, wc // g
        ci, pi = np.divmod(keys, len(self.proteins))
        subrows = np.empty((len(keys), kp + kc), np.intp)
        np.add.outer(pi * kp, np.arange(kp), out=subrows[:, :kp])
        np.add.outer(ci * kc + self._split, np.arange(kc), out=subrows[:, kp:])
        block = out[:len(keys)]
        # the keys are range-checked above; mode="raise" would buffer the output
        np.take(self._table, subrows, axis=0, out=block.reshape(len(keys), kp + kc, g),
                mode="clip")
        return block

    def feature_matrix(
        self, positive_keys: np.ndarray, negative_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the positives then the negatives, and their labels.

        Training and evaluation gather from keys and never call this; it
        builds the whole matrix ``GATHER_ROWS`` rows at a time through
        :meth:`rows`.
        """
        keys = np.concatenate([positive_keys, negative_keys])
        x = np.empty((len(keys), self.feature_dim))
        for at in range(0, len(keys), GATHER_ROWS):
            self.rows(keys[at:at + GATHER_ROWS], x[at:])
        return x, labels(positive_keys, negative_keys)


@dataclass(frozen=True)
class SynthTier:
    tier: TierSpec
    count: int
    flip_rate: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"tier {self.tier} needs count >= 1")
        if not (0.0 <= self.flip_rate <= 1.0):
            raise ValueError(f"flip_rate must lie in [0, 1], got {self.flip_rate}")


@dataclass
class SynthConfig:
    """Desk-scale synthetic stand-in for a large noisy interaction dataset.

    A hidden linear-threshold rule over shared-index bit overlaps defines the
    true interactions; each tier emits `count` positive records of which
    round(flip_rate * count) are actually false (drawn from true negatives).
    The tier matching `validation_tier` must be noise-free.
    """

    n_compounds: int
    n_proteins: int
    compound_bits: int
    protein_bits: int
    tiers: list[SynthTier]
    validation_tier: TierSpec
    seed: int
    bit_density: float = 0.5
    true_rate: float = 0.2

    def __post_init__(self):
        if min(self.n_compounds, self.n_proteins) < 1:
            raise ConfigError("need at least one compound and one protein")
        if min(self.compound_bits, self.protein_bits) < 1:
            raise ConfigError("bit widths must be >= 1")
        if not self.tiers:
            raise ConfigError("at least one tier is required")
        for i, a in enumerate(self.tiers):
            for b in self.tiers[i + 1:]:
                if a.tier.overlaps(b.tier):
                    raise ConfigError(f"tiers {a.tier} and {b.tier} overlap")
        val = [t for t in self.tiers if t.tier == self.validation_tier]
        if not val:
            raise ConfigError(f"validation tier {self.validation_tier} not among tiers")
        if val[0].flip_rate != 0.0:
            raise ConfigError("validation tier must have flip_rate 0")
        if not (0.0 < self.true_rate < 1.0):
            raise ConfigError(f"true_rate must lie in (0, 1), got {self.true_rate}")
        if not (0.0 < self.bit_density < 1.0):
            raise ConfigError(f"bit_density must lie in (0, 1), got {self.bit_density}")


@dataclass
class SynthData:
    compounds: FeatureStore
    proteins: FeatureStore
    interactions: InteractionTable
    truth: np.ndarray  # bool; [i, j] when compound i truly binds protein j


def _random_bits(rng: RngStream, n: int, width: int, density: float) -> np.ndarray:
    return (rng.uniform(size=n * width) < density).astype(np.uint8).reshape(n, width)


def synth_generate(config: SynthConfig) -> SynthData:
    """Generate stores, a tiered positive table, and the ground-truth oracle."""
    root = RngStream(config.seed)
    compound_ids = [f"C{i:06d}" for i in range(config.n_compounds)]
    protein_ids = [f"P{j:06d}" for j in range(config.n_proteins)]

    cbits = _random_bits(
        root.spawn("compound-bits"), config.n_compounds, config.compound_bits,
        config.bit_density,
    )
    pbits = _random_bits(
        root.spawn("protein-bits"), config.n_proteins, config.protein_bits,
        config.bit_density,
    )

    # Hidden rule: signed weights over the shared low bit indices; a pair is a
    # true interaction when the weighted count of overlapping set bits clears
    # a threshold chosen to hit true_rate over the whole grid.
    shared = min(config.compound_bits, config.protein_bits)
    w = root.spawn("rule-weights").normal(shared)
    scores = (cbits[:, :shared].astype(np.float64) * w) @ pbits[:, :shared].astype(np.float64).T
    n_pairs = scores.size
    n_true_target = max(1, min(n_pairs - 1, round(config.true_rate * n_pairs)))
    flat = scores.ravel()
    threshold = np.partition(flat, n_pairs - n_true_target)[n_pairs - n_true_target]
    truth = scores >= threshold

    true_pool = np.flatnonzero(truth.ravel())
    false_pool = np.flatnonzero(~truth.ravel())
    true_pool = true_pool[root.spawn("true-pool").permutation(len(true_pool))]
    false_pool = false_pool[root.spawn("false-pool").permutation(len(false_pool))]

    need_true = sum(t.count - round(t.flip_rate * t.count) for t in config.tiers)
    need_false = sum(round(t.flip_rate * t.count) for t in config.tiers)
    if need_true > len(true_pool):
        raise ConfigError(
            f"tiers request {need_true} true positives, grid only has {len(true_pool)}"
        )
    if need_false > len(false_pool):
        raise ConfigError(
            f"tiers request {need_false} flipped positives, grid only has {len(false_pool)}"
        )

    members, scores = [], []
    t_at, f_at = 0, 0
    for tier_idx, synth_tier in enumerate(config.tiers):
        n_flip = round(synth_tier.flip_rate * synth_tier.count)
        n_keep = synth_tier.count - n_flip
        members.append(
            np.concatenate([true_pool[t_at:t_at + n_keep], false_pool[f_at:f_at + n_flip]])
        )
        t_at += n_keep
        f_at += n_flip
        lo, hi = synth_tier.tier.lo, synth_tier.tier.hi
        draw = root.spawn("scores", tier_idx).integers(hi - lo, size=synth_tier.count)
        scores.append(lo + draw)
    flat = np.concatenate(members)
    interactions = InteractionTable(
        map(compound_ids.__getitem__, (flat // config.n_proteins).tolist()),
        map(protein_ids.__getitem__, (flat % config.n_proteins).tolist()),
        np.concatenate(scores),
    )
    return SynthData(
        compounds=FeatureStore(compound_ids, cbits),
        proteins=FeatureStore(protein_ids, pbits),
        interactions=interactions,
        truth=truth,
    )


def save_oracle(
    compound_ids: list[str], protein_ids: list[str], truth: np.ndarray, path: str | Path
) -> None:
    """``compound<TAB>protein<TAB>0|1`` for every pair of the grid, sorted by
    compound id, then protein id; ``truth[i, j]`` labels the i-th compound and
    the j-th protein."""
    p_order = sorted(range(len(protein_ids)), key=protein_ids.__getitem__)
    # each protein's line ending for either label, in protein order
    zeros, ones = (
        np.array([protein_ids[j] + label for j in p_order], dtype=object)
        for label in ("\t0\n", "\t1\n")
    )
    truth = np.asarray(truth, dtype=bool)[:, p_order]
    rows = []
    for i in sorted(range(len(compound_ids)), key=compound_ids.__getitem__):
        prefix = compound_ids[i] + "\t"
        rows.append("".join([prefix + end for end in np.where(truth[i], ones, zeros)]))
    write_atomic(path, "".join(rows))


def load_oracle(path: str | Path) -> dict[tuple[str, str], int]:
    oracle: dict[tuple[str, str], int] = {}
    with open_for_read(Path(path)) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: expected 'compound<TAB>protein<TAB>0|1'")
            oracle[(parts[0], parts[1])] = int(parts[2])
    return oracle
