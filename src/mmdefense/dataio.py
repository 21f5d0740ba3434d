"""Dataset ingestion, synthetic corpora, deterministic splits, persistence.

The model container is a small binary format: 8-byte magic ``DDADMDL1``,
a little-endian u32 header length, a UTF-8 JSON header listing
``(name, dtype, shape)`` per tensor plus free-form string metadata, then the
raw little-endian float64 payload concatenated in header order.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import Rng
from .tensor import Tensor

MAGIC = b"DDADMDL1"
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# glyph amplitude of `synth_digits`: classes stay linearly separable at the
# default noise, with margins small enough for bounded attacks to bite
DIGIT_CONTRAST = 0.25


class FormatError(ValueError):
    pass


@dataclass
class ImageBatch:
    """Images [n, c, h, w] with pixels in [0,1]; optional integer labels."""

    data: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"expected [n,c,h,w], got shape {self.data.shape}")
        # negated so that a NaN, for which every comparison is False, fails
        if self.data.size and not (self.data.min() >= 0.0 and self.data.max() <= 1.0):
            raise ValueError("pixels must lie in [0,1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.data):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.data)} images")

    def __len__(self):
        return len(self.data)

    @property
    def flat(self) -> np.ndarray:
        """Row-per-image view [n, c*h*w], also for n = 0."""
        return self.data.reshape(len(self.data), int(np.prod(self.data.shape[1:])))

    def subset(self, idx) -> "ImageBatch":
        lab = None if self.labels is None else self.labels[idx]
        return ImageBatch(self.data[idx], lab)


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------

def _read_idx(path: str, magic: int, ndim: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated header")
    got = struct.unpack(">I", raw[:4])[0]
    if got != magic:
        raise FormatError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) != header + count:
        raise FormatError(
            f"{path}: payload length {len(raw) - header} != expected {count}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path: str, labels_path: Optional[str] = None) -> ImageBatch:
    """Load big-endian IDX uint8 images (and labels), scaled to [0,1]."""
    imgs = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    n, h, w = imgs.shape
    data = imgs.astype(np.float64).reshape(n, 1, h, w) / 255.0
    labels = None
    if labels_path is not None:
        labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1).astype(np.int64)
        if len(labels) != n:
            raise FormatError(
                f"label count {len(labels)} != image count {n}")
    return ImageBatch(data, labels)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def synth_blobs(rng: Rng, n_per_class: int, dim: int, delta: float):
    """Two Gaussian point clouds: class0 ~ N(0, I), class1 ~ N(delta*e1, I)."""
    if delta < 0 or dim < 1:
        raise ValueError("need delta >= 0 and dim >= 1")
    x0 = rng.normal((n_per_class, dim), 0.0, 1.0)
    x1 = rng.normal((n_per_class, dim), 0.0, 1.0)
    x1[:, 0] += delta
    return x0, x1


# 8x8 glyph templates: horizontal bar, vertical bar, cross, box
def _digit_templates(size: int = 8) -> np.ndarray:
    t = np.zeros((4, size, size))
    mid = size // 2
    t[0, mid - 1:mid + 1, 1:-1] = 1.0          # horizontal bar
    t[1, 1:-1, mid - 1:mid + 1] = 1.0          # vertical bar
    t[2, mid - 1:mid + 1, 1:-1] = 1.0          # cross
    t[2, 1:-1, mid - 1:mid + 1] = 1.0
    t[3, 1, 1:-1] = t[3, -2, 1:-1] = 1.0       # box
    t[3, 1:-1, 1] = t[3, 1:-1, -2] = 1.0
    return t


def synth_digits(rng: Rng, n: int, classes: int = 4, size: int = 8,
                 pixel_noise: float = 0.1) -> ImageBatch:
    """Template glyphs at `DIGIT_CONTRAST` amplitude plus clipped Gaussian
    pixel noise; label = template id.  The noise is added and the pixels
    clipped in place in the gathered templates."""
    if not 1 <= classes <= 4:
        raise ValueError(f"classes must be in [1,4], got {classes}")
    templates = DIGIT_CONTRAST * _digit_templates(size)[:classes]
    labels = rng.integers(0, classes, n)
    data = templates[labels][:, None, :, :]
    if pixel_noise > 0:
        data += rng.normal(data.shape, 0.0, pixel_noise)
    return ImageBatch(np.clip(data, 0.0, 1.0, out=data), labels)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class Split:
    """Disjoint index sets; `val_reference` is held out of all training."""

    train: np.ndarray
    val_reference: np.ndarray
    test: np.ndarray


def make_split(n: int, train_fraction: float, val_batch: int, rng: Rng) -> Split:
    """Shuffle indices; carve validation-reference batch out of the train pool."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    perm = rng.permutation(n)
    n_train = int(round(n * train_fraction))
    if n_train >= n:
        raise ValueError(f"train_fraction {train_fraction} of {n} rows "
                         f"leaves no test rows")
    if val_batch >= n_train:
        raise ValueError(f"val_batch {val_batch} exhausts the training pool")
    return Split(train=perm[:n_train - val_batch],
                 val_reference=perm[n_train - val_batch:n_train],
                 test=perm[n_train:])


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def component_state(component) -> dict[str, np.ndarray]:
    """A trained component's saved layout: one ``"<PREFIX>.<name>"`` entry
    per name of its ``NAMES`` tuple, in that order."""
    return {key: getattr(component, name).data
            for key, name in _layout(type(component))}


def component_from_state(cls, tensors: dict[str, np.ndarray], *extra):
    """Rebuild `cls` from its saved layout with frozen tensors; `extra` fills
    the constructor arguments that follow the tensors."""
    layout = _layout(cls)
    missing = [key for key, _ in layout if key not in tensors]
    if missing:
        raise FormatError(f"missing tensors {missing} of the {cls.PREFIX} layout")
    return cls(*(Tensor(tensors[key]) for key, _ in layout), *extra)


def _layout(cls) -> list[tuple[str, str]]:
    return [(f"{cls.PREFIX}.{name}", name) for name in cls.NAMES]


def save_model(path: str, tensors: dict[str, np.ndarray],
               metadata: Optional[dict[str, str]] = None) -> None:
    """Write a container atomically (temp file + rename). Bit-exact round trip."""
    names = list(tensors)
    if len(set(names)) != len(names):
        raise FormatError("duplicate tensor names")
    entries = []
    payload = bytearray()
    for name in names:
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        entries.append({"name": name, "dtype": "f8", "shape": list(arr.shape)})
        payload += arr.astype("<f8").tobytes()
    header = json.dumps(
        {"tensors": entries,
         "metadata": {k: str(v) for k, v in (metadata or {}).items()}},
        sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(bytes(payload))
    os.replace(tmp, path)


def _tensor_entries(path: str, header) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) per tensor entry of a decoded header."""
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header has no tensor list")
    parsed = []
    for e in entries:
        fields = e if isinstance(e, dict) else {}
        name, shape = fields.get("name"), fields.get("shape")
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(type(d) is int and d >= 0 for d in shape)
                or fields.get("dtype") != "f8"):  # the only dtype written
            raise FormatError(f"{path}: malformed tensor entry {e!r}")
        parsed.append((name, tuple(shape)))
    return parsed


def load_model(path: str):
    """Return (tensors dict, metadata dict); errors on any corruption."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    hlen = struct.unpack("<I", raw[8:12])[0]
    if len(raw) < 12 + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from None
    entries = _tensor_entries(path, header)
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError(f"{path}: metadata is not a mapping")
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate tensor names")
    counts = [int(np.prod(shape, dtype=np.int64)) for _, shape in entries]
    expected = 8 * sum(counts)
    body = raw[12 + hlen:]
    if len(body) != expected:
        raise FormatError(
            f"{path}: payload length {len(body)} != expected {expected}")
    tensors = {}
    offset = 0
    for (name, shape), count in zip(entries, counts):
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += 8 * count
    return tensors, dict(metadata)
