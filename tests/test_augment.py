"""PNM parsing, the augmentation ops (against a naive per-view
reference), two-view seeding, dataset layout, and the synthetic
generator."""

import json
import math

import numpy as np
import pytest

from contrastlab.augment import (LUMA_WEIGHTS, OP_ORDER, AugPipeline, Dataset, PnmError,
                                 SyntheticSpec, _crop_table, augment_view, augment_views,
                                 generate_dataset, load_dataset, make_two_views, parse_pnm,
                                 stratified_split, write_dataset, write_pnm)
from contrastlab.cli import main
from contrastlab.errors import ContractViolation
from contrastlab.rng import SplitMix64, derive


class TestPnm:
    def test_parse_gray_2x2(self):
        blob = b"P5 2 2 255\n" + bytes([0, 255, 128, 64])
        img = parse_pnm(blob)
        assert img.shape == (2, 2, 1) and img.dtype == np.float64
        np.testing.assert_allclose(
            img.reshape(-1), [0.0, 1.0, 128 / 255, 64 / 255], atol=1e-9)

    def test_round_trip_canonical_bytes(self):
        blob = b"P6 2 1 255\n" + bytes([10, 20, 30, 40, 50, 60])
        assert write_pnm(parse_pnm(blob)) == blob

    def test_comments_and_whitespace(self):
        blob = b"P5\n# a comment\n 2\t2 # widths\n255\n" + bytes(4)
        img = parse_pnm(blob)
        assert img.shape == (2, 2, 1)

    def test_image_round_trip_with_comments(self):
        blob = b"P5 # x\n3 1 255\n" + bytes([7, 8, 9])
        img = parse_pnm(blob)
        again = parse_pnm(write_pnm(img))
        np.testing.assert_array_equal(img, again)

    @pytest.mark.parametrize("blob,field", [
        (b"P4 2 2 255\n" + bytes(4), "magic"),
        (b"P5 0 2 255\n", "width"),
        (b"P5 2 -1 255\n", "height"),
        (b"P5 2 2 65535\n" + bytes(8), "maxval"),
        (b"P5 2 2 255\n" + bytes(3), "payload"),
        (b"P5 2 70000 255\n" + bytes(4), "height"),
    ])
    def test_malformed_headers(self, blob, field):
        with pytest.raises(PnmError) as err:
            parse_pnm(blob)
        assert err.value.field == field

    def test_every_byte_value_decodes_to_value_over_255(self):
        img = parse_pnm(b"P5 16 16 255\n" + bytes(range(256)))
        assert img.tobytes() == (np.arange(256.0) / 255.0).reshape(16, 16, 1).tobytes()

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PnmError) as err:
            parse_pnm(b"P5 1 1 255\n" + bytes(2))
        assert err.value.field == "payload"


def one_image_dataset(pixels):
    return Dataset(pixels[None], np.zeros(1, dtype=np.int64), ["a.pgm"])


class TestDataset:
    def test_pixel_range_enforced(self):
        with pytest.raises(ContractViolation, match=r"\[0, 1\]"):
            one_image_dataset(np.full((8, 8, 1), 1.5))
        with pytest.raises(ContractViolation, match=r"\[0, 1\]"):
            one_image_dataset(np.full((8, 8, 1), np.nan))

    def test_channel_count_enforced(self):
        with pytest.raises(ContractViolation):
            one_image_dataset(np.zeros((8, 8, 2)))

    def test_small_image_rejected(self):
        with pytest.raises(ContractViolation, match="h >= 8, w >= 8"):
            one_image_dataset(np.zeros((4, 8, 1)))

    def test_label_count_enforced(self):
        with pytest.raises(ContractViolation, match="2 labels"):
            Dataset(np.zeros((1, 8, 8, 1)), np.zeros(2, dtype=np.int64), ["a.pgm"])
        with pytest.raises(ContractViolation, match="0 filenames"):
            Dataset(np.zeros((1, 8, 8, 1)), np.zeros(1, dtype=np.int64), [])

    def test_layout_enforced(self):
        for bad in (np.zeros((8, 8, 1)), np.zeros((0, 8, 8, 1)),
                    np.zeros((1, 8, 8, 1), np.float32)):
            with pytest.raises(ContractViolation, match="float64"):
                Dataset(bad, np.zeros(len(bad), dtype=np.int64), ["a.pgm"] * len(bad))


def checker_image(size=16, channels=3):
    base = np.indices((size, size)).sum(axis=0) % 2
    return np.repeat(base[:, :, None], channels, axis=2) * 0.8 + 0.1


def gradient_image(size=16, channels=3):
    ramp = np.linspace(0.0, 1.0, size)
    return np.repeat(np.tile(ramp, (size, 1))[:, :, None], channels, axis=2)


# -- naive per-view reference ----------------------------------------------
# One view at a time, one op at a time, as the pipeline was first written.
# `augment_views` computes whole stacks and must match these bytes: the
# float sums here (the blur kernel's normaliser, jitter's mean luma in
# the view's memory order) fix the order the stacked ops reproduce.

def reference_resize(pixels, out_h, out_w):
    in_h, in_w = pixels.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return pixels
    ys = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = pixels[y0][:, x0] * (1 - wx) + pixels[y0][:, x1] * wx
    bottom = pixels[y1][:, x0] * (1 - wx) + pixels[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def reference_crop(pixels, pipeline, stream):
    h, w = pixels.shape[:2]
    lo, hi = pipeline.crop_scale
    scale = lo + stream.next_float() * (hi - lo)
    side = max(1, int(round(math.sqrt(scale) * min(h, w))))
    oy = stream.next_index(h - side + 1)
    ox = stream.next_index(w - side + 1)
    return reference_resize(pixels[oy:oy + side, ox:ox + side], h, w)


def reference_blur(pixels, pipeline, stream):
    lo, hi = pipeline.blur_sigma
    sigma = lo + stream.next_float() * (hi - lo)
    side = math.exp(-0.5 / (sigma * sigma))
    kernel = np.array([side, 1.0, side])
    kernel /= kernel.sum()
    padded = np.pad(pixels, ((1, 1), (0, 0), (0, 0)), mode="reflect")
    out = kernel[0] * padded[:-2] + kernel[1] * padded[1:-1] + kernel[2] * padded[2:]
    padded = np.pad(out, ((0, 0), (1, 1), (0, 0)), mode="reflect")
    return kernel[0] * padded[:, :-2] + kernel[1] * padded[:, 1:-1] + kernel[2] * padded[:, 2:]


def reference_luma(pixels):
    return pixels @ LUMA_WEIGHTS if pixels.shape[2] == 3 else pixels[:, :, 0]


def reference_gray(pixels, pipeline, stream):
    triggered = stream.next_float() < pipeline.gray_prob
    if not triggered or pixels.shape[2] == 1:
        return pixels
    return np.repeat(reference_luma(pixels)[:, :, None], 3, axis=2)


def reference_jitter(pixels, pipeline, stream):
    s = pipeline.jitter_strength
    brightness = 1.0 - s + stream.next_float() * 2.0 * s
    contrast = 1.0 - s + stream.next_float() * 2.0 * s
    saturation = 1.0 - s + stream.next_float() * 2.0 * s
    out = np.clip(pixels * brightness, 0.0, 1.0)
    mean = reference_luma(out).mean()
    out = np.clip(mean + (out - mean) * contrast, 0.0, 1.0)
    if pixels.shape[2] == 3:
        luma = reference_luma(out)[:, :, None]
        out = np.clip(luma + (out - luma) * saturation, 0.0, 1.0)
    return out


def reference_flip(pixels, pipeline, stream):
    if stream.next_float() < pipeline.flip_prob:
        return pixels[:, ::-1].copy()
    return pixels


REFERENCE_OPS = {"crop": reference_crop, "blur": reference_blur, "gray": reference_gray,
                 "jitter": reference_jitter, "flip": reference_flip}


def reference_view(pixels, pipeline, seed):
    for op_index, name in enumerate(OP_ORDER):
        if name in pipeline.ops:
            stream = SplitMix64(derive(seed, op_index))
            pixels = np.clip(REFERENCE_OPS[name](pixels, pipeline, stream), 0.0, 1.0)
    return pixels


CORPUS_SIZES = ((8, 8), (8, 32), (13, 9), (16, 16), (20, 32), (31, 31), (32, 32))
EDGE_PARAMETERS = {"default": {}, "crop-wide": {"crop_scale": (0.1, 1.0)},
                   "crop-whole": {"crop_scale": (1.0, 1.0)},
                   "always": {"gray_prob": 1.0, "flip_prob": 1.0}}


# Every prefix keeps its id; the single ops and two non-prefix pairs put
# flip or jitter first, or flip right after gray or jitter.
OP_SUBSETS = ([pytest.param(OP_ORDER[:n], id=str(n)) for n in range(1, len(OP_ORDER) + 1)]
              + [pytest.param(ops, id="-".join(ops)) for ops in
                 [(op,) for op in OP_ORDER[1:]] + [("gray", "flip"), ("jitter", "flip")]])


def assert_matches_reference(images, pipeline, seeds):
    views = augment_views(images, pipeline, seeds)
    assert views.shape == images.shape
    for image, view, seed in zip(images, views, seeds):
        assert view.tobytes() == reference_view(image, pipeline, seed).tobytes()


class TestStackedViews:
    @pytest.mark.parametrize("edge", sorted(EDGE_PARAMETERS))
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("ops", OP_SUBSETS)
    def test_byte_equal_to_reference(self, ops, channels, edge):
        """Inputs inside [0, 1] and past both ends: the reference clamps
        after every op, so the stacked pipeline must clamp wherever that
        can change a value, as after a flip that comes first."""
        pipeline = AugPipeline(ops=ops, **EDGE_PARAMETERS[edge])
        rng = np.random.default_rng([OP_ORDER.index(ops[0]), len(ops), channels,
                                     sorted(EDGE_PARAMETERS).index(edge)])
        for h, w in CORPUS_SIZES:
            for images in (rng.random((5, h, w, channels)),
                           rng.uniform(-0.5, 1.5, (5, h, w, channels))):
                for n in (1, 2, 5):
                    seeds = [int(s) for s in rng.integers(0, 2**63, n)]
                    assert_matches_reference(images[:n], pipeline, seeds)

    def test_one_channel_crop_then_jitter_sums_by_column(self):
        # A resizing crop leaves a 1-channel view column-major, and the
        # reference's jitter mean sums it in that order.
        pipeline = AugPipeline(ops=("crop", "jitter"))
        rng = np.random.default_rng(11)
        for h, w in ((16, 16), (13, 9), (32, 20)):
            images = rng.random((2, h, w, 1))
            for seed in range(30):
                assert_matches_reference(images, pipeline, [seed, seed + 1000])

    @pytest.mark.parametrize("prefix", [1, 5])
    def test_memory_layout_of_input_is_irrelevant(self, prefix):
        images = np.random.default_rng(5).random((3, 13, 9, 3))
        pipeline = AugPipeline.prefix(prefix)
        expected = augment_views(images, pipeline, [1, 2, 3]).tobytes()
        for layout in (np.asfortranarray(images),
                       np.ascontiguousarray(images[:, ::-1])[:, ::-1],     # negative row stride
                       np.repeat(images, 2, axis=2)[:, :, ::2]):           # every other column
            assert augment_views(layout, pipeline, [1, 2, 3]).tobytes() == expected

    def test_single_view_is_stack_of_one(self):
        image = checker_image(size=12)
        pipeline = AugPipeline.prefix(5)
        stacked = augment_views(np.stack([image, gradient_image(size=12)]), pipeline, [4, 5])
        assert augment_view(image, pipeline, 4).tobytes() == stacked[0].tobytes()


class TestCropSides:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", [(8, 8), (13, 9), (8, 32), (16, 16)])
    def test_every_side_matches_reference(self, size, channels):
        # A degenerate scale range (x, x) fixes the crop side; seeds move
        # the offset.
        h, w = size
        m = min(h, w)
        images = np.random.default_rng([h, w, channels]).random((3, h, w, channels))
        for side in range(1, m + 1):
            scale = (side / m) ** 2
            assert max(1, int(round(math.sqrt(scale) * m))) == side
            pipeline = AugPipeline(ops=("crop",), crop_scale=(scale, scale))
            assert_matches_reference(images, pipeline, [side, 100 + side, 200 + side])

    def test_large_image_tables_grow_with_the_edges(self):
        # A cached crop table holds O(h + w * c) values (offsets and
        # weights of each axis), not one offset per output value.
        h, w, c = 128, 128, 3
        images = np.random.default_rng(3).random((2, h, w, c))
        assert_matches_reference(images, AugPipeline(ops=("crop",)), [1, 2])
        for side in (1, 64, 127, 128):
            assert sum(a.nbytes for a in _crop_table(side, h, w, c)) <= 4 * (h + w * c) * 8

    @pytest.mark.parametrize("prefix", [1, 5])
    def test_bench_geometry_views_match_reference(self, prefix):
        # The benchmark's images: 16x16, 3 channels.
        pipeline = AugPipeline.prefix(prefix)
        dataset = generate_dataset(SyntheticSpec(classes=4, per_class=3, size=16, channels=3))
        for index, image in enumerate(dataset.pixels):
            for epoch in range(4):
                views = make_two_views(image, pipeline, epoch, index, run_seed=1)
                for branch in (0, 1):
                    seed = derive(1, "view", epoch, index, branch)
                    expected = reference_view(image, pipeline, seed).tobytes()
                    assert views[branch].tobytes() == expected
                    assert augment_view(image, pipeline, seed).tobytes() == expected


class TestPipelineConstruction:
    def test_prefixes_are_nested(self):
        names = [AugPipeline.prefix(n).ops for n in range(1, 6)]
        assert names == [("crop",), ("crop", "blur"), ("crop", "blur", "gray"),
                         ("crop", "blur", "gray", "jitter"),
                         ("crop", "blur", "gray", "jitter", "flip")]

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            AugPipeline(ops=())

    def test_order_enforced(self):
        with pytest.raises(ContractViolation):
            AugPipeline(ops=("flip", "crop"))


class TestAugmentOps:
    def test_flip_is_exact_mirror(self):
        img = gradient_image()
        pipeline = AugPipeline(ops=("flip",), flip_prob=1.0)
        out = augment_view(img, pipeline, seed=1)
        np.testing.assert_array_equal(out, img[:, ::-1])

    def test_gray_uses_luma_weights(self):
        img = checker_image()
        img[:, :, 0] *= 0.9
        pipeline = AugPipeline(ops=("gray",), gray_prob=1.0)
        out = augment_view(img, pipeline, seed=2)
        luma = img @ np.array([0.299, 0.587, 0.114])
        for c in range(3):
            np.testing.assert_allclose(out[:, :, c], luma, atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        img = checker_image()
        pipeline = AugPipeline.prefix(5)
        a = augment_view(img, pipeline, seed=33)
        b = augment_view(img, pipeline, seed=33)
        np.testing.assert_array_equal(a, b)

    def test_outputs_stay_in_range_and_shape(self):
        img = checker_image()
        pipeline = AugPipeline.prefix(5)
        for seed in range(40):
            out = augment_view(img, pipeline, seed=seed)
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_flip_frequency(self):
        img = gradient_image()
        pipeline = AugPipeline(ops=("flip",), flip_prob=0.5)
        flipped = 0
        trials = 10_000
        for seed in range(trials):
            out = augment_view(img, pipeline, seed=seed)
            flipped += int(not np.array_equal(out, img))
        assert abs(flipped / trials - 0.5) < 0.02

    def test_blur_preserves_constant_image(self):
        out = augment_view(np.full((16, 16, 1), 0.25), AugPipeline(ops=("blur",)), seed=3)
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_blur_whose_variance_underflows_is_identity(self):
        # sigma * sigma is 0.0 at sigma = 1e-300; the kernel is (0, 1, 0)
        img = gradient_image()
        pipeline = AugPipeline(ops=("blur",), blur_sigma=(1e-300, 1e-300))
        for seed in range(4):
            assert augment_view(img, pipeline, seed=seed).tobytes() == img.tobytes()


class TestTwoViews:
    def test_views_of_derived_seeds(self):
        img = checker_image()
        pipeline = AugPipeline.prefix(5)
        views = make_two_views(img, pipeline, epoch=1, sample_index=6, run_seed=2)
        assert views.shape == (2,) + img.shape
        for branch in (0, 1):
            seed = derive(2, "view", 1, 6, branch)
            assert views[branch].tobytes() == reference_view(img, pipeline, seed).tobytes()

    @pytest.mark.parametrize("pipeline", [AugPipeline(ops=("gray",)),
                                          AugPipeline(ops=("flip",), flip_prob=0.0),
                                          AugPipeline.prefix(1, crop_scale=(1.0, 1.0))])
    def test_views_own_their_memory(self, pipeline):
        dataset = generate_dataset(SyntheticSpec(classes=1, per_class=2, size=8, channels=1))
        image = dataset.pixels[1]
        for views in (make_two_views(image, pipeline, 0, 1, run_seed=3),
                      augment_view(image, pipeline, seed=3)[None]):
            np.testing.assert_array_equal(views[0], image)
            assert views.flags.writeable and not np.shares_memory(views, dataset.pixels)

    def test_branches_differ(self):
        img = checker_image()
        va, vb = make_two_views(img, AugPipeline.prefix(5), epoch=0, sample_index=3,
                                run_seed=9)
        assert not np.array_equal(va, vb)

    def test_pure_function_of_seeds(self):
        img = checker_image()
        pipeline = AugPipeline.prefix(4)
        a1 = make_two_views(img, pipeline, 2, 17, run_seed=5)
        a2 = make_two_views(img, pipeline, 2, 17, run_seed=5)
        np.testing.assert_array_equal(a1[0], a2[0])
        np.testing.assert_array_equal(a1[1], a2[1])
        b = make_two_views(img, pipeline, 3, 17, run_seed=5)
        assert not np.array_equal(a1[0], b[0])


class TestDatasetLayout:
    def test_write_load_round_trip(self, tmp_path):
        dataset = generate_dataset(SyntheticSpec(classes=2, per_class=3, size=8))
        write_dataset(dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 6
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        np.testing.assert_array_equal(loaded.pixels, dataset.pixels)

    def test_loader_names_offending_row(self, tmp_path):
        (tmp_path / "labels.csv").write_text("filename,label\nmissing.pgm,0\n")
        with pytest.raises(ContractViolation, match="row 2"):
            load_dataset(tmp_path)

    def test_loader_rejects_bad_label(self, tmp_path):
        dataset = generate_dataset(SyntheticSpec(classes=1, per_class=1, size=8, channels=1))
        write_dataset(dataset, tmp_path)
        (tmp_path / "labels.csv").write_text(
            f"filename,label\n{dataset.filenames[0]},notanint\n")
        with pytest.raises(ContractViolation, match="row 2"):
            load_dataset(tmp_path)

    def test_loader_confines_names_to_directory(self, tmp_path):
        dataset = generate_dataset(SyntheticSpec(classes=1, per_class=1, size=8, channels=1))
        write_dataset(dataset, tmp_path)
        inside = tmp_path / "inside"
        inside.mkdir()
        escaping = ("../" + dataset.filenames[0], str(tmp_path / dataset.filenames[0]))
        for name in escaping:
            (inside / "labels.csv").write_text(f"filename,label\n{name},0\n")
            with pytest.raises(ContractViolation, match="row 2: .* lies outside"):
                load_dataset(inside)

    def test_pixels_are_each_files_parse_bit_for_bit(self, tmp_path):
        # headers of different lengths put each payload at its own offset
        rng = np.random.default_rng(12)
        blobs = [b"P6\n#" + b"x" * k + b"\n9 8 255\n" + rng.integers(0, 256, 216, np.uint8).tobytes()
                 for k in range(6)]
        for k, blob in enumerate(blobs):
            (tmp_path / f"{k}.ppm").write_bytes(blob)
        write_index(tmp_path, [f"{k}.ppm,{k % 2}" for k in range(len(blobs))])
        loaded = load_dataset(tmp_path)
        assert loaded.pixels.shape == (6, 8, 9, 3)
        for pixels, blob in zip(loaded.pixels, blobs):
            assert pixels.tobytes() == parse_pnm(blob).tobytes()

    def test_names_that_need_the_containment_test(self, tmp_path):
        """A name with no separator cannot leave the directory; names with
        one, and "", "." and "..", are resolved and tested."""
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        (data / "a").mkdir()
        image = np.random.default_rng(2).integers(0, 256, (8, 8, 1)) / 255.0
        for path in (data / "x.pgm", data / "sub" / "x.pgm"):
            path.write_bytes(write_pnm(image))
        for name in ("x.pgm", "sub/x.pgm", "./x.pgm", "a/../x.pgm"):
            write_index(data, [f"{name},0"])
            loaded = load_dataset(data)
            assert loaded.filenames == [name] and loaded.pixels[0].tobytes() == image.tobytes()
        index = data / "labels.csv"
        for name, line in (("b/../x.pgm", f"{index} row 2: missing file b/../x.pgm"),
                           ("..", f"{index} row 2: .. lies outside {data}"),
                           ("sub/../../x.pgm", f"{index} row 2: sub/../../x.pgm lies outside {data}")):
            write_index(data, [f"{name},0"])
            with pytest.raises(ContractViolation) as err:
                load_dataset(data)
            assert str(err.value) == line
        for name, path in (("", f"{data}/"), (".", f"{data}/."), ("sub", f"{data}/sub")):
            write_index(data, [f"{name},0"])
            with pytest.raises(IsADirectoryError) as err:
                load_dataset(data)
            assert err.value.filename == path

    def test_loader_accepts_a_directory_spelled_with_two_leading_slashes(self, tmp_path):
        dataset = generate_dataset(SyntheticSpec(classes=1, per_class=2, size=8, channels=1))
        write_dataset(dataset, tmp_path)
        np.testing.assert_array_equal(load_dataset("/" + str(tmp_path)).pixels, dataset.pixels)

    def test_loader_rejects_empty_index(self, tmp_path):
        (tmp_path / "labels.csv").write_text("filename,label\n")
        with pytest.raises(ContractViolation, match="n >= 1"):
            load_dataset(tmp_path)

    def test_loader_requires_header(self, tmp_path):
        (tmp_path / "labels.csv").write_text("file,klass\n")
        with pytest.raises(ContractViolation, match="header"):
            load_dataset(tmp_path)

    def test_stratified_split_deterministic(self):
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        train_idx, test_idx = stratified_split(labels, 0.2)
        np.testing.assert_array_equal(train_idx, [0, 1, 2, 3, 5, 6, 7, 8])
        np.testing.assert_array_equal(test_idx, [4, 9])


GRAY_8X8 = write_pnm(np.full((8, 8, 1), 0.5))

# A header cut before each field, also inside a comment. The last one has
# many '#': a comment pattern that could stop at any of them would take
# exponential time to reject it.
CUT_HEADERS = [
    (b"", "magic"), (b"# only a comment", "magic"),
    (b"P5", "width"), (b"P5 # cut", "width"),
    (b"P5 8", "height"), (b"P5 8\t#cut", "height"),
    (b"P5 8 8", "maxval"), (b"P5 8 8 #" + b" #" * 40, "maxval"),
]


def write_index(directory, rows):
    (directory / "labels.csv").write_text("filename,label\n" + "".join(f"{r}\n" for r in rows))


def pretrain_error_lines(tmp_path, data_dir, capsys):
    """Exit code and stderr lines of ``pretrain`` on ``data_dir``."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"io": {"dataset": str(data_dir),
                                         "output_dir": str(tmp_path / "out")}}))
    code = main(["pretrain", "-c", str(config)])
    return code, capsys.readouterr().err.splitlines()


class TestLoaderErrors:
    """The loader's error lines: the index is checked row by row before
    any image is read, and a bad image is named by its normalized path."""

    def test_missing_file_reported_before_a_later_bad_label(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5 8")          # never decoded
        (tmp_path / "b.pgm").write_bytes(GRAY_8X8)
        write_index(tmp_path, ["a.pgm,0", "zz.pgm,1", "b.pgm,x"])
        with pytest.raises(ContractViolation) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path / 'labels.csv'} row 3: missing file zz.pgm"

    @pytest.mark.parametrize("header,field", CUT_HEADERS)
    def test_cut_header_names_its_field(self, tmp_path, header, field):
        with pytest.raises(PnmError) as err:
            parse_pnm(header)
        assert err.value.field == field
        (tmp_path / "a.pgm").write_bytes(GRAY_8X8)
        (tmp_path / "b.pgm").write_bytes(header)
        write_index(tmp_path, ["a.pgm,0", "b.pgm,1"])
        with pytest.raises(OSError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path / 'b.pgm'}: {field}: header ended before the field"

    @pytest.mark.parametrize("name,parts", [
        ("a.ppm", ("a.ppm",)), ("./a.ppm", ("a.ppm",)),
        ("sub//a.ppm", ("sub", "a.ppm")), ("sub/./a.ppm", ("sub", "a.ppm")),
    ])
    def test_bad_image_line_names_the_normalized_path(self, tmp_path, capsys, name, parts):
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        data.joinpath(*parts).write_bytes(b"P6 8 8")
        write_index(data, [f"{name},0"])
        code, err = pretrain_error_lines(tmp_path, data, capsys)
        assert (code, err) == (3, [f"error: io: {data.joinpath(*parts)}: "
                                   "maxval: header ended before the field"])

    def test_directory_row_is_one_io_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        (data / "a.pgm").write_bytes(GRAY_8X8)
        write_index(data, ["a.pgm,0", "sub,1"])
        code, err = pretrain_error_lines(tmp_path, data, capsys)
        assert code == 3 and len(err) == 1, err
        assert err[0].startswith("error: io: ") and err[0].endswith(f"{data / 'sub'}'")


class TestSyntheticGenerator:
    def test_determinism(self):
        a = generate_dataset(SyntheticSpec(classes=2, per_class=4, size=8, seed=3))
        b = generate_dataset(SyntheticSpec(classes=2, per_class=4, size=8, seed=3))
        np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_shapes_and_labels(self):
        dataset = generate_dataset(SyntheticSpec(classes=3, per_class=5, size=8, channels=1))
        assert len(dataset) == 15
        np.testing.assert_array_equal(np.unique(dataset.labels), [0, 1, 2])
        assert dataset.pixels.shape == (15, 8, 8, 1)

    def test_pixels_quantized_to_255_grid(self):
        dataset = generate_dataset(SyntheticSpec(classes=1, per_class=2, size=8))
        scaled = dataset.pixels * 255.0
        np.testing.assert_allclose(scaled, np.rint(scaled), atol=1e-9)
