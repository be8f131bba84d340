import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from optivote import learner, rng
from optivote.errors import FormatError, UsageError


def train_sgd(model, ds, steps, lr, batch=64, seed=1):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        idx = rng.integers(0, ds.n, size=batch)
        g = learner.gradient(model, ds.features[idx], ds.labels[idx])
        model = learner.apply_update(model, g, lr)
    return model


def oracle_class_draws(num_classes, n, d, separation, seed):
    """The generator, class means and labels that make_synthetic draws first."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    return rng, means, rng.integers(0, num_classes, size=n)


def oracle_synthetic(num_classes, n, d, separation, seed):
    """A one-chunk make_synthetic as one full-size expression (two (n, d) buffers)."""
    rng, means, labels = oracle_class_draws(num_classes, n, d, separation, seed)
    return means[labels] + rng.normal(size=(n, d)), labels


def unpack_logistic(model):
    d, c = model.d, model.num_classes
    return model.w[: d * c].reshape(d, c), model.w[d * c :]


def unpack_mlp(model):
    d, h, c = model.d, model.hidden, model.num_classes
    W1 = model.w[: d * h].reshape(d, h)
    b1 = model.w[d * h : d * h + h]
    W2 = model.w[d * h + h : d * h + h + h * c].reshape(h, c)
    b2 = model.w[d * h + h + h * c :]
    assert len(b2) == c
    return W1, b1, W2, b2


def oracle_forward(model, x):
    """The forward pass over all rows at once, nothing computed in place,
    one branch per architecture."""
    if model.arch == "logistic":
        W, b = unpack_logistic(model)
        z = x @ W + b
        hact = None
    else:
        W1, b1, W2, b2 = unpack_mlp(model)
        hact = np.tanh(x @ W1 + b1)
        z = hact @ W2 + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True), hact


def oracle_evaluate(model, dataset):
    probs, _ = oracle_forward(model, dataset.features)
    p_true = probs[np.arange(dataset.n), dataset.labels]
    loss = float(-np.log(np.clip(p_true, 1e-300, None)).mean())
    acc = float((probs.argmax(axis=1) == dataset.labels).mean())
    return loss, acc


def oracle_gradient(model, x, y):
    n = len(y)
    probs, hact = oracle_forward(model, x)
    dz = probs.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    if model.arch == "logistic":
        return np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
    W1, b1, W2, b2 = unpack_mlp(model)
    dh = (dz @ W2.T) * (1.0 - hact**2)
    return np.concatenate([(x.T @ dh).ravel(), dh.sum(axis=0),
                           (hact.T @ dz).ravel(), dz.sum(axis=0)])


B = learner._BLOCK_ROWS
# Below one block, an exact multiple of it, and one row past a multiple.
BLOCK_SIZES = [B // 3, 2 * B, 2 * B + 1, 6 * B + 1]
# Rows of width FILL_D: exactly one fill chunk (2^17 normals), one row more
# (two chunks), two chunks' worth, and one row past four chunks' worth.
FILL_D = 64
C = learner._CHUNK_NORMALS // FILL_D
FILL_ROWS = [C, C + 1, 2 * C, 4 * C + 1]


class InlinePool:
    """A ThreadPoolExecutor stand-in that records its workers and starts no thread."""

    def __init__(self, started):
        self.started = started

    def __call__(self, workers):
        self.started.append(workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestMakeSynthetic:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_one_shot_oracle(self, n, seed):
        ds = learner.make_synthetic(10, n, 7, 4.0, seed)
        features, labels = oracle_synthetic(10, n, 7, 4.0, seed)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("n", FILL_ROWS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bytes_at_any_threads(self, n, seed):
        ds = learner.make_synthetic(10, n, FILL_D, 4.0, seed)
        assert np.array_equal(ds.labels, oracle_class_draws(10, n, FILL_D, 4.0, seed)[2])
        for threads in (2, 3, 4):
            other = learner.make_synthetic(10, n, FILL_D, 4.0, seed, threads=threads)
            assert np.array_equal(other.features, ds.features), threads
            assert np.array_equal(other.labels, ds.labels), threads

    def test_one_chunk_is_the_one_shot_oracle(self):
        assert C * FILL_D == 2**17
        ds = learner.make_synthetic(10, C, FILL_D, 4.0, 3, threads=4)
        features, labels = oracle_synthetic(10, C, FILL_D, 4.0, 3)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)

    def test_second_chunk_draws_from_its_own_stream(self):
        n, seed = C + 1, 3
        ds = learner.make_synthetic(10, n, FILL_D, 4.0, seed, threads=2)
        _, means, labels = oracle_class_draws(10, n, FILL_D, 4.0, seed)
        half = n // 2  # chunk 0 is rows [0, half), chunk 1 rows [half, n)
        oracle = oracle_synthetic(10, n, FILL_D, 4.0, seed)[0]
        assert np.array_equal(ds.features[:half], oracle[:half])
        own = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        expect = means[labels[half:]] + own.standard_normal((n - half, FILL_D))
        assert np.array_equal(ds.features[half:], expect)

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        started = []
        monkeypatch.setattr(rng, "ThreadPoolExecutor", InlinePool(started))
        n = FILL_ROWS[-1]  # five chunks
        ds = learner.make_synthetic(10, n, FILL_D, 4.0, 6, threads=10**6)
        learner.make_synthetic(10, n, FILL_D, 4.0, 6, threads=2)
        assert started == [5, 2]
        assert np.array_equal(ds.features, learner.make_synthetic(10, n, FILL_D, 4.0, 6).features)
        learner.make_synthetic(10, C, FILL_D, 4.0, 6, threads=10**6)
        assert started == [5, 2]  # threads=1 above and one chunk here: inline, no pool

    def test_peak_memory_is_one_feature_array(self):
        for threads in (1, 2):
            tracemalloc.start()
            try:
                ds = learner.make_synthetic(10, 20_000, 200, 4.0, seed=4, threads=threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.15 * ds.features.nbytes, threads

    def test_seed_determinism(self):
        a = learner.make_synthetic(5, 100, 8, 2.0, seed=3)
        b = learner.make_synthetic(5, 100, 8, 2.0, seed=3)
        assert (a.features == b.features).all() and (a.labels == b.labels).all()

    def test_separable_limit(self):
        ds = learner.make_synthetic(10, 500, 20, 100.0, seed=7)
        model = learner.Model.init("logistic", 20, 10, seed=0)
        for _ in range(300):
            g = learner.gradient(model, ds.features, ds.labels)
            model = learner.apply_update(model, g, 1.0)
        assert learner.evaluate(model, ds, ds)[1] >= 0.99

    def test_centralized_sgd_reference(self):
        # reference run backing the end-to-end learning target
        full = learner.make_synthetic(10, 2500, 20, 4.0, seed=42)
        train = learner.Dataset(full.features[:2000], full.labels[:2000], 10)
        test = learner.Dataset(full.features[2000:], full.labels[2000:], 10)
        model = train_sgd(learner.Model.init("logistic", 20, 10, seed=0),
                          train, steps=500, lr=0.5)
        assert learner.evaluate(model, train, test)[1] >= 0.9


class TestMnistIdx:
    def write_idx(self, tmp_path, n=4, rows=2, cols=3, n_labels=None,
                  img_magic=0x803, lab_magic=0x801, truncate=0, first_label=0):
        n_labels = n if n_labels is None else n_labels
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        data = struct.pack(">IIII", img_magic, n, rows, cols)
        data += bytes(i % 256 for i in range(n * rows * cols))
        img.write_bytes(data[: len(data) - truncate])
        lab.write_bytes(struct.pack(">II", lab_magic, n_labels)
                        + bytes([first_label + i % 10 for i in range(n_labels)]))
        return str(img), str(lab)

    def test_parses_and_scales(self, tmp_path):
        img, lab = self.write_idx(tmp_path)
        ds = learner.load_mnist_idx(img, lab)
        assert ds.n == 4 and ds.d == 6
        assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_peak_memory_is_one_feature_array(self, tmp_path):
        img, lab = self.write_idx(tmp_path, n=500, rows=28, cols=28)
        tracemalloc.start()
        try:
            ds = learner.load_mnist_idx(img, lab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pixels = np.arange(500 * 28 * 28).reshape(500, 784) % 256
        assert np.array_equal(ds.features, pixels.astype(np.float64) / 255.0)
        assert peak <= 1.3 * ds.features.nbytes  # the raw bytes, and no second array

    def test_bad_magic(self, tmp_path):
        img, lab = self.write_idx(tmp_path, img_magic=0x123)
        with pytest.raises(FormatError, match="image magic"):
            learner.load_mnist_idx(img, lab)

    def test_truncated_file(self, tmp_path):
        img, lab = self.write_idx(tmp_path, truncate=1)
        with pytest.raises(FormatError, match="truncated"):
            learner.load_mnist_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = self.write_idx(tmp_path, n_labels=3)
        with pytest.raises(FormatError, match="count"):
            learner.load_mnist_idx(img, lab)

    def test_labels_only_equal_the_full_loads(self, tmp_path):
        img, lab = self.write_idx(tmp_path, n=25)
        ds = learner.load_mnist_idx(img, lab, pixels=False)
        assert (ds.n, ds.d, ds.num_classes) == (25, 0, 10)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, learner.load_mnist_idx(img, lab).labels)

    @pytest.mark.parametrize("fault, error, message", [
        (dict(img_magic=0x123), FormatError, "bad image magic 0x00000123, expected 0x00000803"),
        (dict(lab_magic=0x123), FormatError, "bad label magic 0x00000123, expected 0x00000801"),
        (dict(truncate=1), FormatError, "truncated IDX file while reading image data"),
        (dict(n_labels=3), FormatError, "image count 4 != label count 3"),
        (dict(n=0), UsageError, "dataset must be nonempty"),
        (dict(first_label=7), UsageError, "labels must lie in [0, num_classes)"),
    ], ids=["image-magic", "label-magic", "truncated", "count", "empty", "label-range"])
    def test_labels_only_read_makes_every_check(self, tmp_path, fault, error, message):
        img, lab = self.write_idx(tmp_path, **fault)
        for pixels in (True, False):
            with pytest.raises(error) as raised:
                learner.load_mnist_idx(img, lab, pixels=pixels)
            assert str(raised.value) == message


class TestPartition:
    def test_iid_equal_split(self):
        ds = learner.make_synthetic(10, 100, 4, 1.0, seed=0)
        shards = learner.partition(ds.labels, 4, "iid", seed=0)
        assert [len(s) for s in shards] == [25, 25, 25, 25]

    def test_noniid_label_cardinality(self):
        ds = learner.make_synthetic(10, 2000, 4, 1.0, seed=0)
        for seed in range(5):
            shards = learner.partition(ds.labels, 10, "noniid", seed=seed,
                                       labels_per_node=2)
            for s in shards:
                assert len(np.unique(ds.labels[s])) <= 2

    def test_noniid_covers_dataset(self):
        ds = learner.make_synthetic(10, 2000, 4, 1.0, seed=0)
        shards = learner.partition(ds.labels, 10, "noniid", seed=0, labels_per_node=2)
        union = np.concatenate(shards)
        assert len(np.unique(union)) == ds.n
        assert set(np.unique(ds.labels[union])) == set(range(10))

    def test_disjoint_no_duplicates(self):
        ds = learner.make_synthetic(10, 1000, 4, 1.0, seed=0)
        for mode in ("iid", "noniid"):
            shards = learner.partition(ds.labels, 7, mode, seed=3)
            union = np.concatenate(shards)
            assert len(union) == len(np.unique(union))


class TestGradient:
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_matches_finite_differences(self, arch):
        ds = learner.make_synthetic(4, 64, 6, 2.0, seed=9)
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = learner.Model.init(arch, 6, 4, hidden=5, seed=rng.integers(1 << 30))
            model.w[:] = rng.normal(scale=0.5, size=model.q)
            g = learner.gradient(model, ds.features, ds.labels)
            h = 1e-5
            probe = rng.integers(0, model.q, size=25)
            for j in probe:
                w0 = model.w[j]
                model.w[j] = w0 + h
                lo_plus = learner.evaluate(model, ds, ds)[0]
                model.w[j] = w0 - h
                lo_minus = learner.evaluate(model, ds, ds)[0]
                model.w[j] = w0
                fd = (lo_plus - lo_minus) / (2 * h)
                assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), 1e-3)

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_bit_identical_to_oracle(self, arch):
        ds = learner.make_synthetic(10, 300, 12, 1.0, seed=6)
        model = learner.Model.init(arch, 12, 10, hidden=16, seed=2)
        model.w[:] = np.random.default_rng(3).normal(scale=0.3, size=model.q)
        g = learner.gradient(model, ds.features, ds.labels)
        assert np.array_equal(g, oracle_gradient(model, ds.features, ds.labels))

    def test_stationarity_in_separable_limit(self):
        # 2-point separable problem: gradient vanishes as the margin grows
        ds = learner.Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
        model = learner.Model.init("logistic", 1, 2, seed=0)
        model.w[:] = np.array([-20.0, 20.0, 0.0, 0.0])  # class logits +-20
        g = learner.gradient(model, ds.features, ds.labels)
        assert np.linalg.norm(g) <= 1e-6

    def test_batch_determinism(self):
        ds = learner.make_synthetic(3, 50, 4, 2.0, seed=2)
        model = learner.Model.init("logistic", 4, 3, seed=1)
        idx = np.arange(ds.n)
        g1 = learner.local_gradient(model, ds, idx, 16, np.random.default_rng(5))
        g2 = learner.local_gradient(model, ds, idx, 16, np.random.default_rng(5))
        assert (g1 == g2).all()

    def test_batch_larger_than_shard(self):
        ds = learner.make_synthetic(3, 50, 4, 2.0, seed=2)
        model = learner.Model.init("logistic", 4, 3, seed=1)
        g = learner.local_gradient(model, ds, np.arange(5), 64, np.random.default_rng(0))
        assert np.isfinite(g).all()

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    @pytest.mark.parametrize("local_steps", [1, 2, 5])
    def test_local_steps_match_reference_loop(self, arch, local_steps):
        # Reference: local SGD written out, the sum started from zeros and
        # the local model stepped after every batch.
        ds = learner.make_synthetic(4, 80, 6, 2.0, seed=3)
        model = learner.Model.init(arch, 6, 4, hidden=5, seed=4)
        idx = np.arange(10, 70)
        rng = np.random.default_rng(8)
        local, want = model, np.zeros(model.q)
        for _ in range(local_steps):
            batch = idx[rng.integers(0, len(idx), size=16)]
            g = learner.gradient(local, ds.features[batch], ds.labels[batch])
            want += g
            local = replace(local, w=local.w - 0.3 * g)
        got = learner.local_gradient(model, ds, idx, 16, np.random.default_rng(8),
                                     local_steps=local_steps, eta=0.3)
        assert np.array_equal(got, want)
        assert np.array_equal(model.w, learner.Model.init(arch, 6, 4, hidden=5, seed=4).w)


class TestSignQuantize:
    def test_zero_maps_to_plus_one(self):
        assert learner.sign_quantize(np.array([-0.3, 0.0, 2.1])).tolist() == [-1, 1, 1]

    def test_scale_invariance(self):
        g = np.random.default_rng(0).normal(size=40)
        assert (learner.sign_quantize(g) == learner.sign_quantize(3.7 * g)).all()

    def test_all_negative(self):
        assert (learner.sign_quantize(-np.ones(5)) == -1).all()


class TestMvUpdate:
    def test_uniform_decrease(self):
        model = learner.Model.init("logistic", 3, 2, seed=0)
        updated = learner.apply_update(model, np.ones(model.q, dtype=int), 0.01)
        assert np.allclose(model.w - updated.w, 0.01)

    def test_involution(self):
        model = learner.Model.init("logistic", 3, 2, seed=0)
        v = learner.sign_quantize(np.random.default_rng(1).normal(size=model.q))
        back = learner.apply_update(learner.apply_update(model, v, 0.05), -v, 0.05)
        assert np.allclose(back.w, model.w, atol=1e-15)

    def test_step_norm(self):
        model = learner.Model.init("logistic", 4, 3, seed=0)
        v = learner.sign_quantize(np.random.default_rng(2).normal(size=model.q))
        updated = learner.apply_update(model, v, 0.02)
        assert np.linalg.norm(updated.w - model.w) == pytest.approx(0.02 * np.sqrt(model.q))


class TestWholeCohort:
    """The round applies these to the cohort's (m, q) matrix at once."""

    def test_sign_quantize_rows(self):
        grads = np.random.default_rng(3).normal(size=(5, 40))
        grads[1, :7] = 0.0
        grads[2, 3] = -0.0
        want = np.stack([learner.sign_quantize(row) for row in grads])
        got = learner.sign_quantize(grads)
        assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_apply_update_rows(self):
        # Each row, an int8 vote or a float gradient, steps the model by
        # exactly w - eta * row, the formula of the vote and gradient steps.
        model = learner.Model.init("mlp", 4, 3, hidden=5, seed=1)
        rng = np.random.default_rng(4)
        grads = rng.normal(size=(3, model.q))
        for direction in (*learner.sign_quantize(grads), *grads):
            got = learner.apply_update(model, direction, 0.07)
            assert np.array_equal(got.w, model.w - 0.07 * direction.astype(float))


# (arch, d, hidden): wide shapes run evaluate in _BLOCK_ROWS-row blocks;
# narrow ones get taller blocks so their products stay large.
EVAL_SHAPES = [("logistic", 120, 0), ("mlp", 120, 128),
               ("logistic", 20, 0), ("mlp", 20, 8)]


class TestEvaluate:
    @pytest.mark.parametrize("arch,d,hidden", EVAL_SHAPES)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_one_shot_oracle(self, arch, d, hidden, n, seed):
        # n training rows and a test set of another size, both split as
        # build_data splits them; each crosses its own block boundaries.
        n_test = BLOCK_SIZES[BLOCK_SIZES.index(n) - 1]
        full = learner.make_synthetic(10, n + n_test, d, 1.0, seed)
        train = learner.Dataset(full.features[:n], full.labels[:n], 10)
        test = learner.Dataset(full.features[n:], full.labels[n:], 10)
        model = learner.Model.init(arch, d, 10, hidden=hidden or 1, seed=seed)
        model.w[:] = np.random.default_rng(seed).normal(scale=0.3, size=model.q)
        assert learner.evaluate(model, train, test) == (
            oracle_evaluate(model, train)[0], oracle_evaluate(model, test)[1])
        # Row by row too, so that a change the loss's mean hides still shows.
        for ds in (train, test):
            blocks = learner._eval_blocks(model, ds.n)
            assert blocks[0][0] == 0 and blocks[-1][1] == ds.n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            probs = []
            for lo, hi in blocks:
                e, total = learner._forward(model, ds.features[lo:hi])[:2]
                probs.append(e / total)
            assert np.array_equal(np.concatenate(probs), oracle_forward(model, ds.features)[0])

    @pytest.mark.parametrize("d", [20, 784])
    @pytest.mark.parametrize("hidden", [8, 64])
    @pytest.mark.parametrize("num_classes", [4, 10])
    def test_blocks_follow_the_narrowest_product(self, d, hidden, num_classes):
        # The per-architecture formula: d * C for logistic regression,
        # hidden * min(d, C) for the mlp.
        n = 70_000
        for arch, narrowest in (("logistic", d * num_classes),
                                ("mlp", hidden * min(d, num_classes))):
            model = learner.Model.init(arch, d, num_classes, hidden=hidden)
            rows = max(B, -(-learner._MIN_BLOCK_MACS // narrowest))
            assert learner._eval_blocks(model, n) == rng._row_blocks(n, rows)

    def test_peak_memory_is_one_block(self):
        ds = learner.make_synthetic(10, 20_000, 200, 4.0, seed=4)
        model = learner.Model.init("mlp", 200, 10, hidden=64, seed=0)
        full_hidden = ds.n * model.hidden * 8  # one (n, hidden) float64 array
        tracemalloc.start()
        try:
            learner.evaluate(model, ds, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert peak < full_hidden / 3

    def test_chance_level_on_unstructured_data(self):
        ds = learner.make_synthetic(10, 5000, 20, 0.0, seed=5)
        model = learner.Model.init("logistic", 20, 10, seed=3)
        _, acc = learner.evaluate(model, ds, ds)
        assert abs(acc - 0.1) <= 0.02

    def test_perfect_classifier_loss(self):
        ds = learner.make_synthetic(10, 500, 20, 100.0, seed=7)
        model = learner.Model.init("logistic", 20, 10, seed=0)
        for _ in range(500):
            g = learner.gradient(model, ds.features, ds.labels)
            model = learner.apply_update(model, g, 2.0)
        loss, acc = learner.evaluate(model, ds, ds)
        assert acc == 1.0 and loss <= 0.01

    def test_deterministic(self):
        ds = learner.make_synthetic(3, 100, 5, 2.0, seed=1)
        model = learner.Model.init("mlp", 5, 3, hidden=4, seed=2)
        assert learner.evaluate(model, ds, ds) == learner.evaluate(model, ds, ds)
