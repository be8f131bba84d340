"""Datasets, partitioning, desk-scale models, and the sign/MV update.

Models are a multinomial logistic regression and a one-hidden-layer tanh
MLP with hand-written softmax cross-entropy gradients, flat-packed into a
single parameter vector so the MV update is a plain vector step.
"""

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, NumericError, UsageError


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int
    name: str = "dataset"

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


# Rows per block when the dataset is built and evaluated, so that their
# temporaries are _BLOCK_ROWS rows tall instead of n.  At 2048 rows the
# block make_synthetic adds is about a tenth of a 20k-row feature array.
_BLOCK_ROWS = 2048
# OpenBLAS (0.3.31, AVX-512 kernels) multiplies a product of at most 1e6
# multiply-adds in a small-matrix kernel that rounds differently from its
# blocked kernel.  evaluate keeps each block's products above half this,
# so each row of a blocked product equals that row of the product over
# all n rows, whichever kernel that one takes.
_MIN_BLOCK_MACS = 2**21


def _row_blocks(n: int, rows: int):
    """(start, stop) of ceil(n / rows) near-equal blocks covering range(n)."""
    k = -(-n // rows)
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def make_synthetic(
    num_classes: int, n: int, d: int, separation: float, seed: int
) -> Dataset:
    """Gaussian class clusters with unit within-class spread.

    Class means are random unit directions scaled by ``separation``, so
    large separation gives linearly separable data.

    Memory: the (n, d) feature array is the only full-size buffer.  The
    noise is drawn into it and the class means are added in place, one
    block of rows at a time, so the peak is n*d floats plus one block.
    The result is bit-identical to ``means[labels] + rng.normal(size=(n, d))``.
    """
    if min(num_classes, n, d) < 1:
        raise UsageError("num_classes, n, d must all be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=n)
    features = rng.standard_normal(size=(n, d))
    for lo, hi in _row_blocks(n, _BLOCK_ROWS):
        features[lo:hi] += means[labels[lo:hi]]
    return Dataset(features=features, labels=labels, num_classes=num_classes,
                   name=f"synthetic{num_classes}c")


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"truncated IDX file while reading {what}")
    return buf


def load_mnist_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse big-endian IDX image/label files; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        magic, n_img, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, n_img * rows * cols, "image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n_img, rows * cols)
    with open(labels_path, "rb") as f:
        magic, n_lab = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, n_lab, "label data"), dtype=np.uint8)
    if n_img != n_lab:
        raise FormatError(f"image count {n_img} != label count {n_lab}")
    return Dataset(
        features=images.astype(np.float64) / 255.0,
        labels=labels.astype(np.int64),
        num_classes=10,
        name="mnist",
    )


def partition(
    dataset: Dataset, num_nodes: int, mode: str, seed: int, labels_per_node: int = 2
) -> list[np.ndarray]:
    """Split sample indices across nodes.

    "iid" shuffles and splits equally; "noniid" shards by label so each
    node sees at most ``labels_per_node`` distinct labels.  Partitions are
    disjoint; any remainder is dropped.
    """
    if num_nodes < 1:
        raise UsageError("num_nodes must be >= 1")
    rng = np.random.default_rng(seed)
    if mode == "iid":
        idx = rng.permutation(dataset.n)
        per = dataset.n // num_nodes
        return [idx[k * per : (k + 1) * per] for k in range(num_nodes)]
    if mode == "noniid":
        if labels_per_node < 1:
            raise UsageError("labels_per_node must be >= 1")
        # Build num_nodes * labels_per_node single-label shards (shard
        # counts per label proportional to label frequency, largest
        # remainder), then hand each node labels_per_node shards at
        # random.  Every shard is pure, so a node sees at most
        # labels_per_node distinct labels.
        num_shards = num_nodes * labels_per_node
        classes, counts = np.unique(dataset.labels, return_counts=True)
        quota = counts * num_shards / dataset.n
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
            pool = rng.permutation(np.flatnonzero(dataset.labels == c))
            shards.extend(np.array_split(pool, k))
        assign = rng.permutation(len(shards))
        return [
            np.concatenate([shards[s] for s in assign[k * labels_per_node : (k + 1) * labels_per_node]])
            for k in range(num_nodes)
        ]
    raise UsageError(f"unknown partition mode {mode!r}")


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
        if arch == "logistic":
            q = d * num_classes + num_classes
            hidden = 0
        elif arch == "mlp":
            if hidden < 1:
                raise UsageError("mlp needs hidden >= 1")
            q = d * hidden + hidden + hidden * num_classes + num_classes
        else:
            raise UsageError(f"unknown arch {arch!r}")
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=0.01, size=q)
        return cls(w=w, arch=arch, d=d, num_classes=num_classes, hidden=hidden)

    @property
    def q(self) -> int:
        return len(self.w)


def _unpack_logistic(model: Model):
    d, c = model.d, model.num_classes
    W = model.w[: d * c].reshape(d, c)
    b = model.w[d * c :]
    return W, b


def _unpack_mlp(model: Model):
    d, h, c = model.d, model.hidden, model.num_classes
    off = 0
    W1 = model.w[off : off + d * h].reshape(d, h); off += d * h
    b1 = model.w[off : off + h]; off += h
    W2 = model.w[off : off + h * c].reshape(h, c); off += h * c
    b2 = model.w[off : off + c]
    return W1, b1, W2, b2


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in the fresh logits ``z``."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _forward(model: Model, x: np.ndarray):
    """Returns (probs, cache) where cache feeds backprop."""
    if model.arch == "logistic":
        W, b = _unpack_logistic(model)
        return _softmax(x @ W + b), None
    W1, b1, W2, b2 = _unpack_mlp(model)
    hact = x @ W1
    hact += b1
    np.tanh(hact, out=hact)
    return _softmax(hact @ W2 + b2), hact


def gradient(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient over the batch, flat-packed like w."""
    n = len(y)
    dz, hact = _forward(model, x)  # probs, turned into dloss/dz in place
    dz[np.arange(n), y] -= 1.0
    dz /= n
    if model.arch == "logistic":
        gW = x.T @ dz
        gb = dz.sum(axis=0)
        return np.concatenate([gW.ravel(), gb])
    W1, b1, W2, b2 = _unpack_mlp(model)
    gW2 = hact.T @ dz
    gb2 = dz.sum(axis=0)
    dh = (dz @ W2.T) * (1.0 - hact**2)
    gW1 = x.T @ dh
    gb1 = dh.sum(axis=0)
    return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])


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
    the node's shard.  With local_steps > 1 the node takes eta-sized local
    SGD steps and the accumulated gradient sum is returned.
    """
    indices = np.asarray(indices)
    if batch_size < 1 or len(indices) == 0:
        raise UsageError("need batch_size >= 1 and a nonempty shard")
    if local_steps == 1:
        batch = indices[rng.integers(0, len(indices), size=batch_size)]
        return gradient(model, dataset.features[batch], dataset.labels[batch])
    w_local = model.w.copy()
    acc = np.zeros_like(w_local)
    local = replace(model, w=w_local)
    for _ in range(local_steps):
        batch = indices[rng.integers(0, len(indices), size=batch_size)]
        g = gradient(local, dataset.features[batch], dataset.labels[batch])
        acc += g
        local = replace(local, w=local.w - eta * g)
    return acc


def sign_quantize(g: np.ndarray) -> np.ndarray:
    """Per-coordinate sign over {-1, +1}; sign(0) = +1."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NumericError("gradient is not finite")
    return np.where(g >= 0.0, 1, -1).astype(np.int8)


def apply_mv_update(model: Model, mv: np.ndarray, eta: float) -> Model:
    """w <- w - eta * v, the majority-vote descent step."""
    mv = np.asarray(mv)
    if eta <= 0:
        raise UsageError("eta must be positive")
    if mv.shape != model.w.shape:
        raise UsageError("vote vector length must match the model")
    return replace(model, w=model.w - eta * mv.astype(float))


def apply_gradient_update(model: Model, g: np.ndarray, eta: float) -> Model:
    """Plain gradient step used by the analog-aggregation baseline."""
    g = np.asarray(g, dtype=float)
    if g.shape != model.w.shape:
        raise UsageError("gradient length must match the model")
    return replace(model, w=model.w - eta * g)


def _eval_blocks(model: Model, n: int):
    """evaluate's row blocks: _BLOCK_ROWS rows, or more for a model so
    narrow that a block's products would fall under _MIN_BLOCK_MACS / 2."""
    if model.arch == "logistic":
        narrowest = model.d * model.num_classes
    else:
        narrowest = model.hidden * min(model.d, model.num_classes)
    return _row_blocks(n, max(_BLOCK_ROWS, -(-_MIN_BLOCK_MACS // narrowest)))


def evaluate(model: Model, dataset: Dataset) -> tuple[float, float]:
    """(mean cross-entropy, top-1 accuracy) over the full dataset.

    Memory: the forward pass runs over blocks of rows, so its temporaries
    are one block's (rows, hidden) and (rows, C) arrays, never the whole
    dataset's; only the (n,) true-class probabilities are kept.  Loss and
    accuracy are bit-identical to one forward pass over all rows (see
    _MIN_BLOCK_MACS).
    """
    n = dataset.n
    p_true = np.empty(n)
    correct = 0
    for lo, hi in _eval_blocks(model, n):
        probs = _forward(model, dataset.features[lo:hi])[0]
        y = dataset.labels[lo:hi]
        p_true[lo:hi] = probs[np.arange(hi - lo), y]
        correct += int(np.count_nonzero(probs.argmax(axis=1) == y))
    loss = float(-np.log(np.clip(p_true, 1e-300, None)).mean())
    return loss, correct / n
