"""Datasets, partitioning, desk-scale models, and the sign/MV update.

Both models are one stack of dense layers under a softmax cross-entropy
with hand-written gradients, and only ``mlp`` has a hidden tanh layer.  The
layers are flat-packed as [W1, b1, W2, b2] into a single parameter vector,
so the MV update is a plain vector step.
"""

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, UsageError
from .rng import _map_blocks, _row_blocks


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise UsageError("features must be (n, d) aligned with labels")
        if len(self.features) < 1:
            raise UsageError("dataset must be nonempty")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise UsageError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


# Rows per block when a dataset is evaluated, so that its temporaries are
# _BLOCK_ROWS rows tall instead of n.
_BLOCK_ROWS = 2048
_CHUNK_NORMALS = 2**17  # about this many normals (1 MiB) per make_synthetic chunk
# OpenBLAS (0.3.31, AVX-512 kernels) multiplies a product of at most 1e6
# multiply-adds in a small-matrix kernel that rounds differently from its
# blocked kernel.  evaluate keeps each block's products above half this,
# so each row of a blocked product equals that row of the product over
# all n rows, whichever kernel that one takes.
_MIN_BLOCK_MACS = 2**21


def _class_draws(num_classes: int, n: int, d: int, separation: float, seed: int):
    """make_synthetic's generator, class means and labels, drawn before any feature."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    return rng, means, rng.integers(0, num_classes, size=n)


def synthetic_labels(num_classes: int, n: int, d: int, seed: int) -> np.ndarray:
    """The labels of ``make_synthetic`` at any separation, without its (n, d) features."""
    return _class_draws(num_classes, n, d, 1.0, seed)[2]


def make_synthetic(
    num_classes: int, n: int, d: int, separation: float, seed: int, threads: int = 1
) -> Dataset:
    """Gaussian class clusters with unit within-class spread.

    Class means are random unit directions scaled by ``separation``, so large
    separation gives linearly separable data.  The noise rows come in chunks of
    about _CHUNK_NORMALS normals, set by (n, d) alone, so any ``threads`` give the
    same bytes: chunk 0 from the generator that drew the means and labels, so one
    chunk is ``means[labels] + rng.normal(size=(n, d))``, and chunk j >= 1 from
    ``default_rng(SeedSequence(seed, spawn_key=(j,)))``.
    """
    rng, means, labels = _class_draws(num_classes, n, d, separation, seed)
    features = np.empty((n, d))

    def fill(j, lo, hi):
        gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,))) if j else rng
        gen.standard_normal(out=features[lo:hi])
        features[lo:hi] += means[labels[lo:hi]]

    chunks = _row_blocks(n, max(1, _CHUNK_NORMALS // d))
    list(_map_blocks(fill, [(j, *chunk) for j, chunk in enumerate(chunks)], threads))
    return Dataset(features=features, labels=labels, num_classes=num_classes)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"truncated IDX file while reading {what}")
    return buf


def load_mnist_idx(images_path: str, labels_path: str, pixels: bool = True) -> Dataset:
    """Parse big-endian IDX image/label files; pixels scaled to [0, 1].  ``pixels=False``
    makes the same checks, but reads only the image header and keeps no pixel (d = 0)."""
    with open(images_path, "rb") as f:
        magic, n_img, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        if not pixels and os.fstat(f.fileno()).st_size < 16 + n_img * rows * cols:
            raise FormatError("truncated IDX file while reading image data")
        d = rows * cols if pixels else 0  # pixels=False reads and keeps none
        raw = _read_exact(f, n_img * d, "image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n_img, d)
    with open(labels_path, "rb") as f:
        magic, n_lab = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, n_lab, "label data"), dtype=np.uint8)
    if n_img != n_lab:
        raise FormatError(f"image count {n_img} != label count {n_lab}")
    # Cast while dividing, so that only one (n, d) float64 array is made.
    return Dataset(images / 255.0, labels.astype(np.int64), num_classes=10)


def partition(
    labels: np.ndarray, num_nodes: int, mode: str, seed: int, labels_per_node: int = 2
) -> list[np.ndarray]:
    """Split the indices of the samples with ``labels`` across nodes.

    "iid" shuffles and splits equally; "noniid" shards by label so each
    node sees at most ``labels_per_node`` distinct labels.  Partitions are
    disjoint; any remainder is dropped.
    """
    rng = np.random.default_rng(seed)
    if mode == "iid":
        idx = rng.permutation(len(labels))
        per = len(labels) // num_nodes
        return [idx[k * per : (k + 1) * per] for k in range(num_nodes)]
    # "noniid": build num_nodes * labels_per_node single-label shards (shard
    # counts per label proportional to label frequency, largest
    # remainder), then hand each node labels_per_node shards at
    # random.  Every shard is pure, so a node sees at most
    # labels_per_node distinct labels.
    num_shards = num_nodes * labels_per_node
    classes, counts = np.unique(labels, return_counts=True)
    quota = counts * num_shards / len(labels)
    slots = np.floor(quota).astype(int)
    short = num_shards - int(slots.sum())
    if short > 0:
        extra = np.argsort(-(quota - np.floor(quota)), kind="stable")[:short]
        slots[extra] += 1
    if num_shards >= len(classes):
        # Keep every label represented so the partition covers the
        # dataset; steal slots from the most-sharded labels if needed.
        while np.any(slots == 0):
            slots[int(np.argmax(slots))] -= 1
            slots[int(np.argmin(slots))] += 1
    shards: list[np.ndarray] = []
    for c, k in zip(classes, slots):
        if k == 0:
            continue
        pool = rng.permutation(np.flatnonzero(labels == c))
        shards.extend(np.array_split(pool, k))
    assign = rng.permutation(len(shards))
    return [
        np.concatenate([shards[s] for s in assign[k * labels_per_node : (k + 1) * labels_per_node]])
        for k in range(num_nodes)
    ]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass
class Model:
    """Flat parameter vector plus enough shape info to unpack it."""

    w: np.ndarray
    arch: str  # "logistic" | "mlp"
    d: int
    num_classes: int
    hidden: int = 0

    @classmethod
    def init(cls, arch: str, d: int, num_classes: int, hidden: int = 32,
             seed: int = 0) -> "Model":
        widths = _widths(arch, d, num_classes, hidden)
        q = sum(n_in * n_out + n_out for n_in, n_out in zip(widths, widths[1:]))
        w = np.random.default_rng(seed).normal(scale=0.01, size=q)
        return cls(w, arch, d, num_classes, hidden if arch == "mlp" else 0)

    @property
    def q(self) -> int:
        return len(self.w)


def _widths(arch: str, d: int, num_classes: int, hidden: int) -> list[int]:
    """Layer widths from input to output; only the mlp has a hidden layer."""
    return [d, hidden, num_classes] if arch == "mlp" else [d, num_classes]


def _layers(model: Model) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into ``model.w``, input layer first."""
    widths = _widths(model.arch, model.d, model.num_classes, model.hidden)
    layers, off = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        end = off + n_in * n_out
        layers.append((model.w[off:end].reshape(n_in, n_out), model.w[end : end + n_out]))
        off = end + n_out
    return layers


def _forward(model: Model, x: np.ndarray):
    """(e = exp(logits z - row max), (rows, 1) sums s, each layer's input); callers divide e / s."""
    *hidden, (W, b) = _layers(model)
    inputs = [x]
    for W_h, b_h in hidden:
        h = inputs[-1] @ W_h
        h += b_h
        np.tanh(h, out=h)
        inputs.append(h)
    z = inputs[-1] @ W + b
    z -= np.ascontiguousarray(z.T).max(axis=0)[:, None]  # exact, and faster than max(axis=1)
    np.exp(z, out=z)
    return z, z.sum(axis=1, keepdims=True), inputs


def gradient(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient over the batch, flat-packed like w."""
    n = len(y)
    dz, total, inputs = _forward(model, x)
    dz /= total  # the softmax, turned into dloss/dz in place
    dz[np.arange(n), y] -= 1.0
    dz /= n
    parts = []  # output layer first, each prepended: [gW1, gb1, gW2, gb2]
    for (W, _), a in zip(reversed(_layers(model)), reversed(inputs)):
        parts[:0] = [(a.T @ dz).ravel(), dz.sum(axis=0)]
        if a is not x:  # back through the tanh that made the hidden layer a
            dz = (dz @ W.T) * (1.0 - a**2)
    return np.concatenate(parts)


def local_gradient(
    model: Model,
    dataset: Dataset,
    indices: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    local_steps: int = 1,
    eta: float = 0.0,
) -> np.ndarray:
    """Mini-batch gradient for one node.

    Batches are drawn uniformly with replacement so batch_size may exceed
    the node's shard.  The node takes local_steps batches, stepping a local
    copy of the model by apply_update(eta) along each gradient but the last,
    and returns the sum of the gradients (the plain gradient for one step).
    """
    for step in range(local_steps):
        if step:
            model = apply_update(model, g, eta)
        batch = indices[rng.integers(0, len(indices), size=batch_size)]
        g = gradient(model, dataset.features[batch], dataset.labels[batch])
        total = g if step == 0 else total + g
    return total


def sign_quantize(g: np.ndarray) -> np.ndarray:
    """Per-coordinate sign over {-1, +1} of a vector or matrix; sign(0) = +1."""
    return np.where(g >= 0.0, 1, -1).astype(np.int8)


def apply_update(model: Model, direction: np.ndarray, eta: float) -> Model:
    """w <- w - eta * v: the descent step along a vote or an aggregated gradient."""
    return replace(model, w=model.w - eta * direction)


def _eval_blocks(model: Model, n: int):
    """evaluate's row blocks: _BLOCK_ROWS rows, or more for a model so
    narrow that a block's products would fall under _MIN_BLOCK_MACS / 2."""
    narrowest = min(W.size for W, _ in _layers(model))
    return _row_blocks(n, max(_BLOCK_ROWS, -(-_MIN_BLOCK_MACS // narrowest)))


def evaluate(model: Model, train: Dataset, test: Dataset) -> tuple[float, float]:
    """(mean cross-entropy over ``train``, top-1 accuracy over ``test``).

    The loss pass divides only the true-class entries of e by their row sums,
    the accuracy pass its whole block, which give a full softmax's doubles.
    Memory: each pass runs over blocks of rows, so it holds one block's
    (rows, hidden) and (rows, C) arrays and the (n,) true-class probabilities;
    both numbers equal one pass over all rows bit for bit (see _MIN_BLOCK_MACS).
    """
    p_true = np.empty(train.n)
    for lo, hi in _eval_blocks(model, train.n):
        e, total = _forward(model, train.features[lo:hi])[:2]  # [:2]: drop the hidden layer
        p_true[lo:hi] = e[np.arange(hi - lo), train.labels[lo:hi]] / total[:, 0]
    loss = float(-np.log(np.clip(p_true, 1e-300, None)).mean())
    correct = 0
    for lo, hi in _eval_blocks(model, test.n):
        e, total = _forward(model, test.features[lo:hi])[:2]
        correct += int(np.count_nonzero((e / total).argmax(axis=1) == test.labels[lo:hi]))
    return loss, correct / test.n
