"""Image I/O for binary PNM files, the dataset layout and the
stochastic two-view pipeline. Pixels are plain float64 arrays of reals
in [0, 1]: an image or view is (height, width, channels), and a
``Dataset`` holds one (N, height, width, channels) array, checked once.

The pipeline applies an ordered subset of five ops (crop, blur, gray,
jitter, flip). Views are computed as stacks: ``augment_views`` runs each
op once over an (n, height, width, channels) array, and ``make_two_views``
computes a sample's two views in one pass. The draws stay per view: each
comes from a splitmix64 stream keyed by (view seed, op index), so a view
is a pure function of (image, pipeline, seed), whatever stack it is
computed in, and whole epochs are reproducible regardless of execution
order.

Cost model. A training step or an eval pair block derives all its view
seeds (``rng.derive_many``) and draws (``view_draws``) in one uint64
array pass. Training then makes one call per sample (a stack of 2) and
evaluation one per view (a stack of 1), so each call's fixed cost
counts as much as its per-value work:

- the crop is one ``take`` per view through tables cached per
  (side, h, w, c): the flat offsets of each output value's source rows
  and columns from the crop's top-left value, and the weight rows, all
  O(h + w * c) in size;
- crop, blur and flip read each view's draws as Python floats, which
  costs less than numpy calls on stacks of 1 or 2;
- the stack is clamped (``ndarray.clip``) after crop, blur and gray,
  whose weights can round one ulp past 1, and after a flip only when it
  is the sole op: jitter clamps its own result, and any other flip only
  moves values an earlier op clamped.

Calls stay per sample until the benchmark's traced checks, which count
``make_two_views`` and ``augment_view`` calls, count views instead; then
a whole step's views can be one call.

Every command that reads a dataset directory loads it whole, so its
fixed cost per file counts too: one ``stat`` per index row, plus one
prefix test of the normalized path for a name that could leave the
directory, then one read, one regex match of the PNM header and one
payload copy per file, and one division for the whole set. Paths stay
strings; a ``Path`` is built only to name a file in an error.

The synthetic generator draws and shapes a chunk of one class's samples
per numpy pass: one ``derive_many`` and one ``stream_floats`` call for
the chunk's seeds and draws, then about a dozen array operations, with
no Python work per image but its name. The chunk is as many samples as
keep its largest array under ``_CHUNK_BYTES`` (16 at 16x16x3), so the
peak stays flat in the set's size; each image is a view of its chunk's
final array, which holds nothing but the chunk's images.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, require, require_choice
from .rng import box_muller, derive_many, stream_floats, uniform_index
from .rng import derive  # noqa: F401  (bench/spans.py traces augment.derive)

MAX_DIMENSION = 65535
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

OP_ORDER = ("crop", "blur", "gray", "jitter", "flip")
# the synthetic generator's largest array per chunk of samples, in bytes
_CHUNK_BYTES = 96 * 1024
# each op's stream tag (its place in OP_ORDER) and the floats it draws per view
_DRAW_PLAN = {name: (i, k) for i, (name, k) in enumerate(zip(OP_ORDER, (3, 1, 1, 3, 1)))}


class PnmError(ValueError):
    """Malformed PNM input; ``field`` names the offending header part."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# -- PNM parse / write ------------------------------------------------------

# Each header token follows any run of whitespace and ``#`` comments (a
# comment runs to the end of its line) and is a run of bytes that are
# neither. A comment may not stop short of its newline, so a header cut
# short fails to match in linear time, however many ``#`` it holds.
_PNM_FIELD = rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)"
_PNM_HEADER = re.compile(b"(?:%s(?:%s(?:%s(?:%s)?)?)?)?" % ((_PNM_FIELD,) * 4))


def _header_int(token: bytes | None, field: str) -> int:
    if token is None:
        raise PnmError(field, "header ended before the field")
    try:
        return int(token)
    except ValueError:
        raise PnmError(field, f"not an integer: {token!r}") from None


def _pnm_header(blob: bytes) -> tuple[tuple[int, int, int], int]:
    """The (height, width, channels) of a PNM blob and the offset of its
    payload. One regex match reads the four header tokens; they are then
    checked in field order, and the payload size last."""
    match = _PNM_HEADER.match(blob)
    magic, width, height, maxval = match.groups()
    if magic is None:
        raise PnmError("magic", "header ended before the field")
    channels = {b"P5": 1, b"P6": 3}.get(magic)
    if channels is None:
        raise PnmError("magic", f"unsupported magic {magic!r}")
    width = _header_int(width, "width")
    if not 1 <= width <= MAX_DIMENSION:
        raise PnmError("width", f"{width} outside 1..{MAX_DIMENSION}")
    height = _header_int(height, "height")
    if not 1 <= height <= MAX_DIMENSION:
        raise PnmError("height", f"{height} outside 1..{MAX_DIMENSION}")
    maxval = _header_int(maxval, "maxval")
    if maxval != 255:
        raise PnmError("maxval", f"expected 255, got {maxval}")
    pos = match.end()
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise PnmError("payload", "missing whitespace byte before payload")
    expected = width * height * channels
    if len(blob) - pos - 1 != expected:
        raise PnmError("payload", f"expected {expected} bytes, got {len(blob) - pos - 1}")
    return (height, width, channels), pos + 1


def parse_pnm(blob: bytes) -> np.ndarray:
    """Parse binary P5 (grayscale) or P6 (color) with maxval 255 into an
    ``(height, width, channels)`` array of reals in [0, 1].

    Whitespace and ``#`` comments are accepted anywhere in the header;
    exactly one whitespace byte separates the maxval from the payload.
    The header costs one regex match; a malformed one raises
    ``PnmError`` naming the first field, in header order, that fails.
    """
    shape, start = _pnm_header(blob)
    return np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(shape) / 255.0


def write_pnm(pixels: np.ndarray) -> bytes:
    """Emit ``(height, width, 1|3)`` pixels in the canonical
    single-whitespace form, rounded to the nearest /255 step."""
    height, width, channels = pixels.shape
    magic = b"P5" if channels == 1 else b"P6"
    header = b"%s %d %d 255\n" % (magic, width, height)
    payload = np.rint(pixels * 255.0).astype(np.uint8).tobytes()
    return header + payload


# -- augmentation ops --------------------------------------------------------

@dataclass(frozen=True)
class AugPipeline:
    """Ordered op subset plus per-op parameter ranges."""

    ops: tuple[str, ...] = OP_ORDER
    crop_scale: tuple[float, float] = (0.5, 1.0)
    blur_sigma: tuple[float, float] = (0.1, 1.0)
    gray_prob: float = 0.2
    jitter_strength: float = 0.4
    flip_prob: float = 0.5

    def __post_init__(self):
        require(len(self.ops) > 0 and list(self.ops) == [op for op in OP_ORDER if op in self.ops],
                "ops", f"must be a nonempty subsequence of {OP_ORDER}, got {self.ops}")
        crop, blur = self.crop_scale, self.blur_sigma
        require(len(crop) == 2 and 0 < crop[0] <= crop[1] <= 1, "crop_scale",
                "expected [lo, hi] with 0 < lo <= hi <= 1")
        require(len(blur) == 2 and 0 < blur[0] <= blur[1], "blur_sigma",
                "expected [lo, hi] with 0 < lo <= hi")
        for name in ("gray_prob", "flip_prob"):
            require(0 <= getattr(self, name) <= 1, name, "must lie in [0, 1]")
        require(0 <= self.jitter_strength < 1, "jitter_strength", "must lie in [0, 1)")

    @classmethod
    def prefix(cls, n: int, **overrides) -> "AugPipeline":
        """The nested prefixes used for augmentation-count comparisons:
        {crop}, {crop, blur}, ... up to all five ops."""
        require(1 <= n <= len(OP_ORDER), "prefix", f"must lie in 1..{len(OP_ORDER)}")
        return cls(ops=OP_ORDER[:n], **overrides)


@functools.lru_cache(maxsize=256)
def _crop_table(side: int, h: int, w: int, c: int) -> tuple[np.ndarray, ...]:
    """Bilinear resampling of a ``side`` x ``side`` crop of an (h, w, c)
    view to (h, w) (half-pixel centres, edges clamped). Returns the flat
    offsets, counted from the crop's top-left value, of each output
    value's lower and upper source row, (2, 1, h, 1), and column,
    (1, 2, 1, w * c), so that their sum indexes the four corners
    ([y][x]); and the weights ``1 - t`` and ``t`` they get: (2, 1, w * c)
    across columns, repeated over the channels, and (2, h, 1) down rows."""
    def axis(size: int) -> tuple[np.ndarray, np.ndarray]:
        coords = np.clip((np.arange(size) + 0.5) * (side / size) - 0.5, 0.0, side - 1.0)
        lower = np.floor(coords).astype(np.intp)
        t = coords - lower
        return np.stack([lower, np.minimum(lower + 1, side - 1)]), np.stack([1 - t, t])

    rows, wy = axis(h)
    cols, wx = axis(w)
    row_offsets = (rows * (w * c))[:, None, :, None]
    col_offsets = (cols[:, :, None] * c + np.arange(c)).reshape(1, 2, 1, w * c)
    table = row_offsets, col_offsets, np.repeat(wx, c, axis=1)[:, None], wy[:, :, None]
    for array in table:
        array.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _reflect_index(n: int) -> np.ndarray:
    """Gather index of a one-sample reflect pad: x[1], x[0..n-1], x[n-2]."""
    index = np.concatenate(([1], np.arange(n), [n - 2]))
    index.setflags(write=False)
    return index


def _crop(views: np.ndarray, pipeline: AugPipeline, draws) -> tuple[np.ndarray, np.ndarray]:
    """A random square crop of each view, resized back to (h, w), and
    which views the resize changed."""
    n, h, w, c = views.shape
    lo, hi = pipeline.crop_scale
    flat = views.reshape(-1)
    out = np.empty(views.shape)
    resized = np.empty(n, dtype=bool)
    for k, (u_scale, u_y, u_x) in enumerate(draws.tolist()):
        side = max(1, int(round(math.sqrt(lo + u_scale * (hi - lo)) * min(h, w))))
        oy, ox = uniform_index(u_y, h - side + 1), uniform_index(u_x, w - side + 1)
        row_offsets, col_offsets, wx, wy = _crop_table(side, h, w, c)
        corners = flat[((k * h + oy) * w + ox) * c:].take(row_offsets + col_offsets)
        corners *= wx
        across = corners[:, 0] + corners[:, 1]
        across *= wy
        np.add(across[0], across[1], out=out[k].reshape(h, w * c))
        resized[k] = side != h or side != w
    return out, resized


def _blur(views: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    """A separable 3-tap Gaussian of random sigma per view, reflect-padded."""
    h, w = views.shape[1:3]
    lo, hi = pipeline.blur_sigma
    kernels = []
    for u in draws[:, 0].tolist():
        sigma = lo + u * (hi - lo)
        var = sigma * sigma
        # a variance that underflows to 0 takes exp(-0.5 / var)'s limit: no blur
        side = math.exp(-0.5 / var) if var else 0.0
        total = (side + 1.0) + side         # numpy's sum of [side, 1, side], in its order
        kernels.append((side / total, 1.0 / total))
    edge, middle = np.array(kernels).T[:, :, None, None, None]
    padded = views.take(_reflect_index(h), axis=1)
    views = edge * padded[:, :-2] + middle * padded[:, 1:-1] + edge * padded[:, 2:]
    padded = views.take(_reflect_index(w), axis=2)
    return edge * padded[:, :, :-2] + middle * padded[:, :, 1:-1] + edge * padded[:, :, 2:]


def _luma(views: np.ndarray) -> np.ndarray:
    return views @ LUMA_WEIGHTS if views.shape[3] == 3 else views[..., 0]


def _gray(views: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    chosen = draws[:, 0] < pipeline.gray_prob
    if views.shape[3] == 3 and chosen.any():
        views[chosen] = _luma(views[chosen])[..., None]
    return views


def _jitter(views: np.ndarray, pipeline: AugPipeline, draws,
            resized: np.ndarray) -> np.ndarray:
    """Brightness, contrast about the view's mean luma, then saturation."""
    s = pipeline.jitter_strength
    factors = (1.0 - s) + (draws * 2.0) * s
    brightness, contrast, saturation = factors.T[:, :, None, None, None]
    out = (views * brightness).clip(0.0, 1.0)
    # A float sum depends on its order, and a view's bytes must not depend
    # on its stack. Each mean luma sums in the order that computing the
    # view alone gave (memory order): by rows, except for a 1-channel view
    # that a crop resized, which the resize left column-major and blur
    # kept so. 3-channel luma comes from `@`, which writes rows.
    luma = _luma(out)
    mean = luma.reshape(len(luma), -1).sum(axis=1)
    if views.shape[3] == 1 and resized.any():
        by_column = luma.transpose(0, 2, 1).reshape(len(luma), -1).sum(axis=1)
        mean = np.where(resized, by_column, mean)
    mean = (mean / luma[0].size)[:, None, None, None]
    out = (mean + (out - mean) * contrast).clip(0.0, 1.0)
    if views.shape[3] == 3:
        luma = _luma(out)[..., None]
        out = (luma + (out - luma) * saturation).clip(0.0, 1.0)
    return out


def _flip(views: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    for k, u in enumerate(draws[:, 0].tolist()):
        if u < pipeline.flip_prob:
            views[k] = views[k, :, ::-1]
    return views


def view_draws(pipeline: AugPipeline, seeds) -> list[np.ndarray]:
    """Per enabled op, the (..., k) draws of the views seeded by ``seeds``
    (an int or an int array): the first k floats of ``derive(seed, i)``'s
    stream, for the op's tag i and count k."""
    plan = [_DRAW_PLAN[name] for name in pipeline.ops]
    return [stream_floats(derive_many(seeds, i), k) for i, k in plan]


def augment_views(images: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    """Views of an (n, h, w, c) stack, view k drawn by row k of each op's
    ``view_draws`` array: the enabled ops in fixed order, each run once on
    the whole stack. Views keep their resolution, stay clamped to [0, 1]
    and own their memory."""
    views = np.array(images, dtype=np.float64)
    resized = np.zeros(len(views), dtype=bool)
    for name, op_draws in zip(pipeline.ops, draws):
        if name == "crop":
            views, resized = _crop(views, pipeline, op_draws)
        elif name == "blur":
            views = _blur(views, pipeline, op_draws)
        elif name == "gray":
            views = _gray(views, pipeline, op_draws)
        elif name == "jitter":
            views = _jitter(views, pipeline, op_draws, resized)
        else:
            views = _flip(views, pipeline, op_draws)
        # the other ops leave values in [0, 1] (see the cost model)
        if name in ("crop", "blur", "gray") or pipeline.ops == ("flip",):
            views.clip(0.0, 1.0, out=views)
    return views


def augment_view(pixels: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    """One (h, w, c) view from one view's draws, (k,) per op:
    ``augment_views`` on a stack of one."""
    return augment_views(pixels[None], pipeline, [d[None] for d in draws])[0]


def make_two_views(image: np.ndarray, pipeline: AugPipeline, draws) -> np.ndarray:
    """Two views of one sample — a positive pair — from their draws,
    (2, k) per op, as one (2, h, w, c) array computed in one pass."""
    return augment_views(np.array((image, image)), pipeline, draws)


# -- dataset layout -----------------------------------------------------------

@dataclass
class Dataset:
    """One label and one filename per image of ``pixels``. Views and
    batches read the pixels unchecked, so they are checked here."""

    pixels: np.ndarray
    labels: np.ndarray
    filenames: list[str]

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 4 or p.dtype != np.float64 or p.shape[3] not in (1, 3) \
                or not len(p) or min(p.shape[1:3]) < 8:
            raise ContractViolation("expected float64 pixels of shape (n >= 1, h >= 8, w >= 8, "
                                    f"1|3), got {p.dtype} {p.shape}")
        if not (p.min() >= 0.0 and p.max() <= 1.0):
            raise ContractViolation("pixel values must lie in [0, 1]")
        if not len(self.labels) == len(self.filenames) == len(p):
            raise ContractViolation(f"{len(p)} images, {len(self.labels)} labels and "
                                    f"{len(self.filenames)} filenames")

    def __len__(self) -> int:
        return len(self.pixels)

    def __iter__(self) -> Iterator[tuple[str, int, np.ndarray]]:
        return zip(self.filenames, self.labels, self.pixels)


def load_dataset(directory) -> Dataset:
    """Read a directory of .pgm/.ppm files indexed by labels.csv (header
    ``filename,label``; names stay inside the directory) into one array.

    Two passes: the whole index first, so a bad row is reported before
    any image is read, then each file's payload is copied into one byte
    buffer, which one division by 255 decodes (every header has maxval
    255). Per row the index pass costs one ``stat``, plus a
    normalized-path prefix test for a name that could leave the
    directory; file paths are plain strings, and a ``Path`` is built only
    to name a file in an error. A file that does not decode or differs
    in shape from the first one raises ``OSError`` naming it."""
    directory = Path(directory)
    index = directory / "labels.csv"
    if not index.exists():
        raise FileNotFoundError(f"missing {index}")
    inside = os.path.join(os.path.abspath(directory), "")
    prefix = os.path.join(directory, "")
    labels, names, paths = [], [], []
    with open(index, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["filename", "label"]:
            raise ContractViolation(f"{index}: expected header 'filename,label', got {header}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ContractViolation(f"{index} row {row_no}: expected 2 fields, got {len(row)}")
            name, label_text = row
            try:
                label = int(label_text)
            except ValueError:
                raise ContractViolation(f"{index} row {row_no}: label {label_text!r} is not an integer") from None
            if os.path.basename(name) == name and name not in ("", ".", ".."):
                path = prefix + name        # a plain name cannot leave the directory
            # else the normalized path plus a separator must start with the directory's
            elif os.path.join(os.path.abspath(os.path.join(inside, name)), "").startswith(inside):
                path = os.path.join(directory, name)
            else:
                raise ContractViolation(f"{index} row {row_no}: {name} lies outside {directory}")
            if not os.path.exists(path):
                raise ContractViolation(f"{index} row {row_no}: missing file {name}")
            labels.append(label)
            names.append(name)
            paths.append(path)
    first, size, payloads = (), 0, bytearray()   # no image: (0,) pixels fail the Dataset check
    for k, path in enumerate(paths):
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            shape, start = _pnm_header(blob)
        except PnmError as exc:
            raise OSError(f"{directory / names[k]}: {exc}") from None
        if k == 0:
            first, size = shape, len(blob) - start
            payloads = bytearray(len(paths) * size)
        if shape != first:
            raise OSError(f"{directory / names[k]}: shape {shape} differs from {names[0]}'s "
                          f"{first}")
        payloads[k * size:(k + 1) * size] = memoryview(blob)[start:]
    pixels = np.frombuffer(payloads, dtype=np.uint8).reshape((len(paths),) + first) / 255.0
    return Dataset(pixels, np.asarray(labels, dtype=np.int64), names)


def stratified_split(labels: np.ndarray, test_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split: the last ceil(fraction * n) indices
    of each class (in file order) are held out."""
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        n_test = int(math.ceil(test_fraction * len(members)))
        train_idx.extend(members[:len(members) - n_test])
        test_idx.extend(members[len(members) - n_test:])
    return np.asarray(sorted(train_idx)), np.asarray(sorted(test_idx))


# -- synthetic generator ------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 4
    per_class: int = 500
    size: int = 16
    channels: int = 3
    seed: int = 7

    def __post_init__(self):
        require(self.classes >= 1, "classes", "must be >= 1")
        require(self.per_class >= 1, "per_class", "must be >= 1")
        require(self.size >= 8, "size", "must be >= 8")
        require_choice(self.channels, "channels", (1, 3))
        require(self.seed >= 0, "seed", "must be >= 0")


def _grating(size: int, orientation_vertical: bool, frequency: float,
             phase: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """(n, size, size) gratings broadcast from (n, 1) phases and amplitudes."""
    coords = np.arange(size) / size
    wave = amplitude * np.cos(2.0 * np.pi * frequency * coords + phase)
    wave = wave[:, None, :] if orientation_vertical else wave[:, :, None]
    return np.broadcast_to(wave, (len(wave), size, size))


def synthetic_images(spec: SyntheticSpec) -> Iterator[tuple[str, int, np.ndarray]]:
    """(filename, label, pixels) of each sample, class by class:
    class-coded sinusoidal patterns with the class identity written at
    two spatial scales, a coarse grating and a fine cross-oriented one,
    mixed with independent random amplitudes per sample.

    Blur and aggressive crops strip the fine cue while color dropping and
    jitter disturb the tint, so different views of one sample can retain
    different cue subsets — the similarity of a positive pair then varies
    widely with the augmentation draw. Classes stay invariant to
    horizontal flips (phases are random).

    Sample i of class c draws from ``derive(seed, "sample", c, i)``'s
    stream, in order: two phases, two amplitudes, the uniforms of
    ``SplitMix64.normals(size**2)`` and, for color, three tints."""
    m, ext = spec.size ** 2, "ppm" if spec.channels == 3 else "pgm"
    tint_col = 4 + 2 * ((m + 1) // 2)
    k = tint_col + (3 if spec.channels == 3 else 0)
    chunk = max(1, _CHUNK_BYTES // (8 * max(k, m * spec.channels)))
    for cls in range(spec.classes):
        vertical = bool(cls % 2)
        coarse_freq = 2.0 + 1.5 * (cls // 2)
        fine_freq = 5.0 + 1.5 * (cls // 2)
        for first in range(0, spec.per_class, chunk):
            idx = np.arange(first, min(first + chunk, spec.per_class))
            draws = stream_floats(derive_many(spec.seed, "sample", cls, idx), k)
            phase_c, phase_f = np.hsplit(draws[:, :2] * 2.0 * np.pi, 2)
            amp_c, amp_f = np.hsplit(0.08 + draws[:, 2:4] * 0.27, 2)
            mono = 0.5 + _grating(spec.size, vertical, coarse_freq, phase_c, amp_c)
            mono = mono + _grating(spec.size, not vertical, fine_freq, phase_f, amp_f)
            mono = mono + box_muller(draws[:, 4:tint_col], m).reshape(mono.shape) * 0.05
            if spec.channels == 3:
                tint = 0.75 + draws[:, tint_col:] * 0.5
                sample = mono[..., None] * tint[:, None, None, :]
            else:
                sample = mono[..., None]
            pixels = np.rint(np.clip(sample, 0.0, 1.0) * 255.0) / 255.0
            for i, image in zip(idx.tolist(), pixels):
                yield f"c{cls}_{i:04d}.{ext}", cls, image


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    names, labels, images = zip(*synthetic_images(spec))
    return Dataset(np.stack(images), np.asarray(labels, dtype=np.int64), list(names))


def write_dataset(samples: Iterable[tuple[str, int, np.ndarray]], directory) -> None:
    """Write (filename, label, pixels) samples, such as a ``Dataset``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for name, label, image in samples:
            writer.writerow([name, int(label)])
            (directory / name).write_bytes(write_pnm(image))
