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
"""
from __future__ import annotations

import csv
import functools
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, require, require_choice
from .rng import SplitMix64, derive

MAX_DIMENSION = 65535
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

OP_ORDER = ("crop", "blur", "gray", "jitter", "flip")


class PnmError(ValueError):
    """Malformed PNM input; ``field`` names the offending header part."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# -- PNM parse / write ------------------------------------------------------

def _read_token(blob: bytes, pos: int, field: str) -> tuple[bytes, int]:
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PnmError(field, "header ended before the field")
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace() and blob[pos:pos + 1] != b"#":
        pos += 1
    return blob[start:pos], pos


def _read_int(blob: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _read_token(blob, pos, field)
    try:
        value = int(token)
    except ValueError:
        raise PnmError(field, f"not an integer: {token!r}") from None
    return value, pos


def parse_pnm(blob: bytes) -> np.ndarray:
    """Parse binary P5 (grayscale) or P6 (color) with maxval 255 into an
    ``(height, width, channels)`` array of reals in [0, 1].

    Whitespace and ``#`` comments are accepted anywhere in the header;
    exactly one whitespace byte separates the maxval from the payload.
    """
    magic, pos = _read_token(blob, 0, "magic")
    channels = {b"P5": 1, b"P6": 3}.get(magic)
    if channels is None:
        raise PnmError("magic", f"unsupported magic {magic!r}")
    width, pos = _read_int(blob, pos, "width")
    if not 1 <= width <= MAX_DIMENSION:
        raise PnmError("width", f"{width} outside 1..{MAX_DIMENSION}")
    height, pos = _read_int(blob, pos, "height")
    if not 1 <= height <= MAX_DIMENSION:
        raise PnmError("height", f"{height} outside 1..{MAX_DIMENSION}")
    maxval, pos = _read_int(blob, pos, "maxval")
    if maxval != 255:
        raise PnmError("maxval", f"expected 255, got {maxval}")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise PnmError("payload", "missing whitespace byte before payload")
    pos += 1
    expected = width * height * channels
    payload = blob[pos:]
    if len(payload) != expected:
        raise PnmError("payload", f"expected {expected} bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return values.reshape(height, width, channels)


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
def _resize_table(side: int, size: int, channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear resampling of ``side`` samples to ``size`` along one axis
    (half-pixel centres, edges clamped), as one view's rows of a stack:
    the (2, 1, size) lower and upper source sample of each output sample,
    and the (2, 1, size, channels) weights ``1 - t`` and ``t`` they get,
    repeated over the channels so that products run over whole rows."""
    coords = np.clip((np.arange(size) + 0.5) * (side / size) - 0.5, 0.0, side - 1.0)
    lower = np.floor(coords).astype(np.intp)
    t = coords - lower
    index = np.stack([lower, np.minimum(lower + 1, side - 1)])[:, None]
    weight = np.repeat(np.stack([1 - t, t])[:, None, :, None], channels, axis=3)
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


@functools.lru_cache(maxsize=64)
def _reflect_index(n: int) -> np.ndarray:
    """Gather index of a one-sample reflect pad: x[1], x[0..n-1], x[n-2]."""
    index = np.concatenate(([1], np.arange(n), [n - 2]))
    index.setflags(write=False)
    return index


def _crop(views: np.ndarray, pipeline: AugPipeline, streams) -> tuple[np.ndarray, np.ndarray]:
    """A random square crop of each view, resized back to (h, w), and
    which views the resize changed."""
    n, h, w, c = views.shape
    lo, hi = pipeline.crop_scale
    draws = []
    for stream in streams:
        scale = lo + stream.next_float() * (hi - lo)
        side = max(1, int(round(math.sqrt(scale) * min(h, w))))
        draws.append((side, stream.next_index(h - side + 1), stream.next_index(w - side + 1)))
    side, oy, ox = np.array(draws).T
    y = [_resize_table(s, h, 1) for s, _, _ in draws]
    x = [_resize_table(s, w, c) for s, _, _ in draws]
    # Each output pixel's lower and upper source row and column, as
    # offsets into the stack flattened to (n * h * w, c) pixels.
    rows = (np.concatenate([i for i, _ in y], axis=1) + (np.arange(n) * h + oy)[:, None]) * w
    cols = np.concatenate([i for i, _ in x], axis=1) + ox[:, None]
    wy = np.concatenate([t for _, t in y], axis=1)[:, :, :, None]            # (2, n, h, 1, 1)
    wx = np.concatenate([t for _, t in x], axis=1)[:, :, None]               # (2, n, 1, w, c)
    corners = views.reshape(-1, c).take(rows[:, None, :, :, None] + cols[:, :, None], axis=0)
    across = corners[:, 0] * wx[0] + corners[:, 1] * wx[1]         # corners: [y][x]
    return across[0] * wy[0] + across[1] * wy[1], (side != h) | (side != w)


def _blur(views: np.ndarray, pipeline: AugPipeline, streams) -> np.ndarray:
    """A separable 3-tap Gaussian of random sigma per view, reflect-padded."""
    h, w = views.shape[1:3]
    lo, hi = pipeline.blur_sigma
    kernels = []
    for stream in streams:
        sigma = lo + stream.next_float() * (hi - lo)
        side = math.exp(-0.5 / (sigma * sigma))
        total = (side + 1.0) + side         # numpy's sum of [side, 1, side], in its order
        kernels.append((side / total, 1.0 / total))
    edge, middle = np.array(kernels).T[:, :, None, None, None]
    padded = views.take(_reflect_index(h), axis=1)
    views = edge * padded[:, :-2] + middle * padded[:, 1:-1] + edge * padded[:, 2:]
    padded = views.take(_reflect_index(w), axis=2)
    return edge * padded[:, :, :-2] + middle * padded[:, :, 1:-1] + edge * padded[:, :, 2:]


def _luma(views: np.ndarray) -> np.ndarray:
    return views @ LUMA_WEIGHTS if views.shape[3] == 3 else views[..., 0]


def _gray(views: np.ndarray, pipeline: AugPipeline, streams) -> np.ndarray:
    chosen = np.array([stream.next_float() < pipeline.gray_prob for stream in streams])
    if views.shape[3] == 3 and chosen.any():
        views[chosen] = _luma(views[chosen])[..., None]
    return views


def _jitter(views: np.ndarray, pipeline: AugPipeline, streams,
            resized: np.ndarray) -> np.ndarray:
    """Brightness, contrast about the view's mean luma, then saturation."""
    s = pipeline.jitter_strength
    factors = np.array([[1.0 - s + stream.next_float() * 2.0 * s for _ in range(3)]
                        for stream in streams])
    brightness, contrast, saturation = factors.T[:, :, None, None, None]
    out = np.clip(views * brightness, 0.0, 1.0)
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
    out = np.clip(mean + (out - mean) * contrast, 0.0, 1.0)
    if views.shape[3] == 3:
        luma = _luma(out)[..., None]
        out = np.clip(luma + (out - luma) * saturation, 0.0, 1.0)
    return out


def _flip(views: np.ndarray, pipeline: AugPipeline, streams) -> np.ndarray:
    chosen = np.array([stream.next_float() < pipeline.flip_prob for stream in streams])
    views[chosen] = views[chosen, :, ::-1]
    return views


def augment_views(images: np.ndarray, pipeline: AugPipeline, seeds) -> np.ndarray:
    """Views of an (n, h, w, c) stack, view k seeded by ``seeds[k]``: the
    enabled ops in fixed order, each run once on the whole stack. Views
    keep their resolution, stay clamped to [0, 1] and own their memory."""
    views = np.array(images, dtype=np.float64)
    resized = np.zeros(len(views), dtype=bool)
    for op_index, name in enumerate(OP_ORDER):
        if name not in pipeline.ops:
            continue
        streams = [SplitMix64(derive(seed, op_index)) for seed in seeds]
        if name == "crop":
            views, resized = _crop(views, pipeline, streams)
        elif name == "blur":
            views = _blur(views, pipeline, streams)
        elif name == "gray":
            views = _gray(views, pipeline, streams)
        elif name == "jitter":
            views = _jitter(views, pipeline, streams, resized)
        else:
            views = _flip(views, pipeline, streams)
        np.clip(views, 0.0, 1.0, out=views)
    return views


def augment_view(pixels: np.ndarray, pipeline: AugPipeline, seed: int) -> np.ndarray:
    """One (h, w, c) view: ``augment_views`` on a stack of one."""
    return augment_views(pixels[None], pipeline, [seed])[0]


def make_two_views(image: np.ndarray, pipeline: AugPipeline, epoch: int,
                   sample_index: int, run_seed: int) -> np.ndarray:
    """Two independently seeded views of one sample — a positive pair —
    as one (2, h, w, c) array, computed in one pass."""
    seeds = [derive(run_seed, "view", epoch, sample_index, branch) for branch in (0, 1)]
    return augment_views(np.array((image, image)), pipeline, seeds)


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
    A file that does not decode or differs in shape from the first one
    raises ``OSError`` naming it."""
    directory = Path(directory)
    index = directory / "labels.csv"
    if not index.exists():
        raise FileNotFoundError(f"missing {index}")
    root = os.path.abspath(directory)
    labels, names = [], []
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
            path = directory / name
            if os.path.commonpath([root, os.path.abspath(os.path.join(root, name))]) != root:
                raise ContractViolation(f"{index} row {row_no}: {name} lies outside {directory}")
            if not path.exists():
                raise ContractViolation(f"{index} row {row_no}: missing file {name}")
            labels.append(label)
            names.append(name)
    pixels = np.empty(0)          # an index that lists no image fails the Dataset check
    for k, name in enumerate(names):
        path = directory / name
        try:
            image = parse_pnm(path.read_bytes())
        except PnmError as exc:
            raise OSError(f"{path}: {exc}") from None
        if k == 0:
            pixels = np.empty((len(names),) + image.shape)
        if image.shape != pixels.shape[1:]:
            raise OSError(f"{path}: shape {image.shape} differs from {names[0]}'s "
                          f"{pixels.shape[1:]}")
        pixels[k] = image
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
             phase: float, amplitude: float) -> np.ndarray:
    coords = np.arange(size) / size
    wave = amplitude * np.cos(2.0 * np.pi * frequency * coords + phase)
    if orientation_vertical:
        return np.tile(wave[None, :], (size, 1))
    return np.tile(wave[:, None], (1, size))


def synthetic_images(spec: SyntheticSpec) -> Iterator[tuple[str, int, np.ndarray]]:
    """(filename, label, pixels) of each sample, class by class:
    class-coded sinusoidal patterns with the class identity written at
    two spatial scales, a coarse grating and a fine cross-oriented one,
    mixed with independent random amplitudes per sample.

    Blur and aggressive crops strip the fine cue while color dropping and
    jitter disturb the tint, so different views of one sample can retain
    different cue subsets — the similarity of a positive pair then varies
    widely with the augmentation draw. Classes stay invariant to
    horizontal flips (phases are random)."""
    for cls in range(spec.classes):
        vertical = bool(cls % 2)
        coarse_freq = 2.0 + 1.5 * (cls // 2)
        fine_freq = 5.0 + 1.5 * (cls // 2)
        for i in range(spec.per_class):
            stream = SplitMix64(derive(spec.seed, "sample", cls, i))
            phase_c = stream.next_float() * 2.0 * np.pi
            phase_f = stream.next_float() * 2.0 * np.pi
            amp_c = 0.08 + stream.next_float() * 0.27
            amp_f = 0.08 + stream.next_float() * 0.27
            mono = 0.5 + _grating(spec.size, vertical, coarse_freq, phase_c, amp_c)
            mono = mono + _grating(spec.size, not vertical, fine_freq, phase_f, amp_f)
            mono = mono + stream.normals(spec.size ** 2).reshape(spec.size, spec.size) * 0.05
            if spec.channels == 3:
                tint = 0.75 + stream.floats(3) * 0.5
                sample = mono[:, :, None] * tint[None, None, :]
            else:
                sample = mono[:, :, None]
            yield (f"c{cls}_{i:04d}.{'ppm' if spec.channels == 3 else 'pgm'}", cls,
                   np.rint(np.clip(sample, 0.0, 1.0) * 255.0) / 255.0)


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
