import json
import struct

import numpy as np
import pytest

from mmdefense.dataio import (FormatError, ImageBatch, component_state,
                              load_idx, load_model, make_split, save_model,
                              synth_blobs, synth_digits)
from mmdefense.discrepancy import DeepKernelParams
from mmdefense.models import ClassifierParams, DenoiserParams
from mmdefense.rng import Rng


def write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


class TestIdxLoader:
    def test_round_trip_shapes_from_header(self, tmp_path):
        rng = Rng(0)
        imgs = rng.integers(0, 256, (17, 9, 11)).astype(np.uint8)
        labels = rng.integers(0, 4, 17).astype(np.uint8)
        ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "labels.idx")
        write_idx_images(ip, imgs)
        write_idx_labels(lp, labels)
        batch = load_idx(ip, lp)
        assert batch.data.shape == (17, 1, 9, 11)
        assert np.array_equal(batch.labels, labels)
        assert np.allclose(batch.data[:, 0], imgs / 255.0)

    def test_all_zero_image_scales_to_zero(self, tmp_path):
        path = str(tmp_path / "z.idx")
        write_idx_images(path, np.zeros((1, 4, 4), dtype=np.uint8))
        assert load_idx(path).data.max() == 0.0

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.idx")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(FormatError, match="magic"):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.idx")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 3, 3))
            fh.write(bytes(17))  # one byte short
        with pytest.raises(FormatError, match="payload"):
            load_idx(path)

    def test_label_count_mismatch(self, tmp_path):
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(5, dtype=np.uint8))
        with pytest.raises(FormatError, match="count"):
            load_idx(ip, lp)

    def test_header_mutation_fuzz(self, tmp_path):
        rng = Rng(7)
        imgs = rng.integers(0, 256, (3, 4, 4)).astype(np.uint8)
        good = str(tmp_path / "good.idx")
        write_idx_images(good, imgs)
        raw = bytearray(open(good, "rb").read())
        for trial in range(40):
            pos = int(rng.integers(0, 16))
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << int(rng.integers(0, 8))
            if bytes(mutated) == bytes(raw):
                continue
            bad = str(tmp_path / f"bad{trial}.idx")
            with open(bad, "wb") as fh:
                fh.write(mutated)
            with pytest.raises(FormatError):
                load_idx(bad)


class TestSynthBlobs:
    def test_delta_zero_is_exchangeable_mean(self):
        a, b = synth_blobs(Rng(1), 2000, 3, 0.0)
        assert np.abs(a.mean(0) - b.mean(0)).max() < 0.15

    def test_mean_shift_clt(self):
        _, shifted = synth_blobs(Rng(2), 100, 2, 3.0)
        assert abs(shifted[:, 0].mean() - 3.0) < 0.5
        assert abs(shifted[:, 1].mean()) < 0.5

    def test_deterministic(self):
        a1, b1 = synth_blobs(Rng(3), 50, 4, 1.0)
        a2, b2 = synth_blobs(Rng(3), 50, 4, 1.0)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            synth_blobs(Rng(0), 10, 2, -1.0)


def _linear_fit_accuracy(x, y, classes):
    # one-vs-rest least squares on raw pixels: a linear classifier
    onehot = np.eye(classes)[y]
    xb = np.column_stack([x, np.ones(len(x))])
    w, *_ = np.linalg.lstsq(xb, onehot, rcond=None)
    return float(((xb @ w).argmax(1) == y).mean())


class TestSynthDigits:
    def test_zero_noise_exact_templates(self):
        batch = synth_digits(Rng(0), 40, 4, 8, 0.0)
        uniq = np.unique(batch.flat, axis=0)
        assert len(uniq) <= 4

    def test_pixel_range(self):
        batch = synth_digits(Rng(1), 500, 4, 8, 0.5)
        assert batch.data.min() >= 0.0 and batch.data.max() <= 1.0

    def test_linearly_separable(self):
        batch = synth_digits(Rng(2), 2000, 4, 8, 0.1)
        acc = _linear_fit_accuracy(batch.flat, batch.labels, 4)
        assert acc >= 0.99

    def test_deterministic(self):
        b1 = synth_digits(Rng(5), 100, 4, 8, 0.1)
        b2 = synth_digits(Rng(5), 100, 4, 8, 0.1)
        assert np.array_equal(b1.data, b2.data)
        assert np.array_equal(b1.labels, b2.labels)


class TestSplits:
    @pytest.mark.parametrize("seed", range(10))
    def test_disjoint_every_seed(self, seed):
        split = make_split(500, 0.6, 40, Rng(seed))
        a, b, c = set(split.train), set(split.val_reference), set(split.test)
        assert not (a & b or a & c or b & c)
        total = len(split.train) + len(split.val_reference) + len(split.test)
        assert total == 500

    def test_reference_never_in_training_stream(self):
        split = make_split(1000, 0.7, 100, Rng(4))
        held_out = set(split.val_reference)
        # every minibatch stream draws from split.train only
        assert not held_out & set(split.train)
        assert len(split.val_reference) == 100

    def test_val_batch_cannot_exhaust_pool(self):
        with pytest.raises(ValueError):
            make_split(100, 0.5, 60, Rng(0))

    def test_fraction_that_leaves_no_test_rows_rejected(self):
        # round(600 * 0.9995) = 600
        with pytest.raises(ValueError, match="leaves no test rows"):
            make_split(600, 0.9995, 50, Rng(0))


class TestModelContainer:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = Rng(6)
        tensors = {"a.w": rng.normal((7, 3), 0, 1), "b": rng.normal((11,), 0, 2)}
        path = str(tmp_path / "m.model")
        save_model(path, tensors, {"threshold": "0.5", "seed": "9"})
        loaded, meta = load_model(path)
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], arr)
        assert meta["threshold"] == "0.5"

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "m.model")
        save_model(path, {"x": np.ones(4)})
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:-1])
        with pytest.raises(FormatError, match="payload"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "m.model")
        save_model(path, {"x": np.ones(2)})
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_duplicate_names_rejected(self, tmp_path):
        # dict keys are unique, so corrupt the header instead
        path = str(tmp_path / "m.model")
        save_model(path, {"x": np.ones(1)})
        raw = open(path, "rb").read()
        hlen = struct.unpack("<I", raw[8:12])[0]
        header = raw[12:12 + hlen].decode()
        doubled = header.replace(
            '"tensors": [', '"tensors": ['
            '{"dtype": "f8", "name": "x", "shape": [0]}, ')
        body = raw[12 + hlen:]
        with open(path, "wb") as fh:
            fh.write(raw[:8])
            fh.write(struct.pack("<I", len(doubled.encode())))
            fh.write(doubled.encode())
            fh.write(body)
        with pytest.raises(FormatError, match="duplicate"):
            load_model(path)

    @pytest.mark.parametrize("header", [
        {"metadata": {}},                               # no tensor list
        [{"name": "x", "dtype": "f8", "shape": [1]}],   # list, not an object
        {"tensors": [{"name": "x", "dtype": "f8"}]},    # entry without shape
        {"tensors": [{"name": "x", "dtype": "f8", "shape": "ab"}]},
        {"tensors": [{"name": "x", "dtype": "f4", "shape": [1]}]},
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = str(tmp_path / "m.model")
        encoded = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(b"DDADMDL1")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(np.ones(1).astype("<f8").tobytes())
        with pytest.raises(FormatError, match="m.model"):
            load_model(path)


def _header_names(path):
    raw = open(path, "rb").read()
    hlen = struct.unpack("<I", raw[8:12])[0]
    return [e["name"] for e in json.loads(raw[12:12 + hlen])["tensors"]]


class TestSavedLayout:
    """Pins the tensor names and their order in each saved component, which
    must not change between versions for existing .model files to load."""

    def test_component_key_order(self, tmp_path):
        rng = Rng(8)
        kernel = DeepKernelParams.init_median(rng.uniform((10, 16)))
        components = {
            "classifier": (ClassifierParams.init(16, 3, rng.fork()),
                           ["classifier.w1", "classifier.b1", "classifier.w2",
                            "classifier.b2", "classifier.w3", "classifier.b3"]),
            "denoiser": (DenoiserParams.init(16, rng.fork()),
                         ["denoiser.w1", "denoiser.b1", "denoiser.w2",
                          "denoiser.b2"]),
            "kernel": (kernel, ["kernel.raw_beta0", "kernel.raw_sigma_q",
                                "kernel.raw_sigma_phi"]),
        }
        for name, (component, expected) in components.items():
            path = str(tmp_path / f"{name}.model")
            save_model(path, component_state(component))
            assert _header_names(path) == expected


class TestImageBatch:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ImageBatch(np.full((1, 1, 2, 2), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        data = np.full((2, 1, 2, 2), 0.5)
        data[1, 0, 1, 0] = bad
        with pytest.raises(ValueError, match=r"pixels must lie in \[0,1\]"):
            ImageBatch(data, np.array([0, 1]))
        with pytest.raises(ValueError, match=r"pixels must lie in \[0,1\]"):
            ImageBatch(np.full((2, 1, 2, 2), bad), np.array([0, 1]))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            ImageBatch(np.zeros((3, 1, 2, 2)), np.zeros(5, dtype=int))
