"""Image I/O for binary PNM files, the dataset layout and the
stochastic two-view pipeline. Pixels are plain float64 arrays of reals
in [0, 1]: an image or view is (height, width, channels), and a
``Dataset`` holds one (N, height, width, channels) array, checked once.

The pipeline applies an ordered subset of five ops (crop, blur, gray,
jitter, flip). Every random draw comes from a splitmix64 stream keyed by
(seed, op index), so a view is a pure function of (image, pipeline, seed)
and whole epochs are reproducible regardless of execution order.
"""
from __future__ import annotations

import csv
import math
import os
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
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
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


def _bilinear_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = pixels.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return pixels
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = pixels[y0][:, x0] * (1 - wx) + pixels[y0][:, x1] * wx
    bottom = pixels[y1][:, x0] * (1 - wx) + pixels[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def _op_crop(pixels: np.ndarray, pipeline: AugPipeline, stream: SplitMix64) -> np.ndarray:
    h, w = pixels.shape[:2]
    lo, hi = pipeline.crop_scale
    scale = lo + stream.next_float() * (hi - lo)
    side = max(1, int(round(math.sqrt(scale) * min(h, w))))
    oy = stream.next_index(h - side + 1)
    ox = stream.next_index(w - side + 1)
    crop = pixels[oy:oy + side, ox:ox + side]
    return _bilinear_resize(crop, h, w)


def _op_blur(pixels: np.ndarray, pipeline: AugPipeline, stream: SplitMix64) -> np.ndarray:
    lo, hi = pipeline.blur_sigma
    sigma = lo + stream.next_float() * (hi - lo)
    side = math.exp(-0.5 / (sigma * sigma))
    kernel = np.array([side, 1.0, side])
    kernel /= kernel.sum()
    padded = np.pad(pixels, ((1, 1), (0, 0), (0, 0)), mode="reflect")
    out = kernel[0] * padded[:-2] + kernel[1] * padded[1:-1] + kernel[2] * padded[2:]
    padded = np.pad(out, ((0, 0), (1, 1), (0, 0)), mode="reflect")
    return kernel[0] * padded[:, :-2] + kernel[1] * padded[:, 1:-1] + kernel[2] * padded[:, 2:]


def _luma(pixels: np.ndarray) -> np.ndarray:
    return pixels @ LUMA_WEIGHTS if pixels.shape[2] == 3 else pixels[:, :, 0]


def _op_gray(pixels: np.ndarray, pipeline: AugPipeline, stream: SplitMix64) -> np.ndarray:
    triggered = stream.next_float() < pipeline.gray_prob
    if not triggered or pixels.shape[2] == 1:
        return pixels
    return np.repeat(_luma(pixels)[:, :, None], 3, axis=2)


def _op_jitter(pixels: np.ndarray, pipeline: AugPipeline, stream: SplitMix64) -> np.ndarray:
    s = pipeline.jitter_strength
    brightness = 1.0 - s + stream.next_float() * 2.0 * s
    contrast = 1.0 - s + stream.next_float() * 2.0 * s
    saturation = 1.0 - s + stream.next_float() * 2.0 * s
    out = np.clip(pixels * brightness, 0.0, 1.0)
    mean = _luma(out).mean()
    out = np.clip(mean + (out - mean) * contrast, 0.0, 1.0)
    if pixels.shape[2] == 3:
        luma = _luma(out)[:, :, None]
        out = np.clip(luma + (out - luma) * saturation, 0.0, 1.0)
    return out


def _op_flip(pixels: np.ndarray, pipeline: AugPipeline, stream: SplitMix64) -> np.ndarray:
    if stream.next_float() < pipeline.flip_prob:
        return pixels[:, ::-1].copy()
    return pixels


_OPS = {"crop": _op_crop, "blur": _op_blur, "gray": _op_gray,
        "jitter": _op_jitter, "flip": _op_flip}


def augment_view(pixels: np.ndarray, pipeline: AugPipeline, seed: int) -> np.ndarray:
    """Apply the enabled ops in fixed order to one (h, w, c) image; the
    view keeps its resolution and stays clamped to [0, 1]."""
    for op_index, name in enumerate(OP_ORDER):
        if name not in pipeline.ops:
            continue
        stream = SplitMix64(derive(seed, op_index))
        pixels = np.clip(_OPS[name](pixels, pipeline, stream), 0.0, 1.0)
    return pixels


def make_two_views(image: np.ndarray, pipeline: AugPipeline, epoch: int,
                   sample_index: int, run_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independently seeded views of one sample — a positive pair."""
    view_a = augment_view(image, pipeline, derive(run_seed, "view", epoch, sample_index, 0))
    view_b = augment_view(image, pipeline, derive(run_seed, "view", epoch, sample_index, 1))
    return view_a, view_b


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


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    """Class-coded sinusoidal patterns with the class identity written at
    two spatial scales: a coarse grating and a fine cross-oriented one,
    mixed with independent random amplitudes per sample.

    Blur and aggressive crops strip the fine cue while color dropping and
    jitter disturb the tint, so different views of one sample can retain
    different cue subsets — the similarity of a positive pair then varies
    widely with the augmentation draw. Classes stay invariant to
    horizontal flips (phases are random)."""
    pixels = np.empty((spec.classes * spec.per_class, spec.size, spec.size, spec.channels))
    names = []
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
            mono = 0.5
            mono = mono + _grating(spec.size, vertical, coarse_freq, phase_c, amp_c)
            mono = mono + _grating(spec.size, not vertical, fine_freq, phase_f, amp_f)
            noise = stream.normals(spec.size * spec.size).reshape(spec.size, spec.size) * 0.05
            mono = mono + noise
            if spec.channels == 3:
                tint = 0.75 + stream.floats(3) * 0.5
                sample = mono[:, :, None] * tint[None, None, :]
            else:
                sample = mono[:, :, None]
            pixels[cls * spec.per_class + i] = np.rint(np.clip(sample, 0.0, 1.0) * 255.0) / 255.0
            names.append(f"c{cls}_{i:04d}.{'ppm' if spec.channels == 3 else 'pgm'}")
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.per_class)
    return Dataset(pixels, labels, names)


def write_dataset(dataset: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for name, label in zip(dataset.filenames, dataset.labels):
            writer.writerow([name, int(label)])
    for name, image in zip(dataset.filenames, dataset.pixels):
        (directory / name).write_bytes(write_pnm(image))
