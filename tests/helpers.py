"""Shared dataset builders and small assembly utilities for the tests."""

import numpy as np

from mklmmwu import Dataset, KernelSpec, bind, make_default_family

from reference import dense_signed_gram


def make_random_dataset(n, d, seed, pos_fraction=0.5):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    labels = np.where(rng.random(n) < pos_fraction, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    return Dataset(pts, labels)


def make_blobs(n, seed, radius=0.15):
    """Two well-separated balls in [0,1]^2, linearly separable with margin."""
    rng = np.random.default_rng(seed)
    half = n // 2
    labels = np.concatenate([np.ones(half), -np.ones(n - half)])
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = radius * np.sqrt(rng.random(n))
    centers = np.where(labels[:, None] > 0, (0.75, 0.75), (0.25, 0.25))
    pts = np.clip(centers + np.c_[rad * np.cos(ang), rad * np.sin(ang)], 0.0, 1.0)
    return Dataset(pts, labels)


def make_additive_synth(n, d, seed):
    """Class signal spread additively over six features, the rest noise.

    Shaped like a small UCI set: about 64% positive labels, learnable by
    per-feature kernel sums but not by any single feature alone.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    labels = np.where(rng.random(n) < 0.64, 1.0, -1.0)
    shifts = (0.30, 0.26, 0.24, 0.22, 0.20, 0.18)
    noises = (0.16, 0.16, 0.18, 0.18, 0.20, 0.20)
    for f, (s, ns) in enumerate(zip(shifts, noises)):
        pts[:, f] = np.clip(0.5 + labels * (s / 2.0) + ns * rng.normal(size=n), 0.0, 1.0)
    return Dataset(pts, labels)


def tiny_instance(seed, m=3, n=None):
    """Small labeled instance plus m kernel specs, for oracle comparisons."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(4, 13))
    d = int(rng.integers(1, 4))
    pts = rng.random((n, d))
    labels = np.ones(n)
    labels[: n // 2] = -1.0
    rng.shuffle(labels)
    specs = [KernelSpec("poly", 1.0), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 4.0)][:m]
    return Dataset(pts, labels), specs


def criterion_4_instance(seed):
    """Instance `seed` (0..19) of acceptance criterion 4: a tiny labeled set
    and its dense G_i for one linear and two Gaussian kernels, C = 1."""
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(4, 13))
    d = int(rng.integers(1, 4))
    pts = rng.random((n, d))
    labels = np.ones(n)
    labels[: n // 2] = -1.0
    rng.shuffle(labels)
    ds = Dataset(pts, labels)
    specs = [KernelSpec("poly", 1.0), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 4.0)]
    return ds, dense_grams(ds, specs, ridge=1.0)[1]


def mixed_saddle_instance():
    """n=4 instance whose optimum genuinely mixes two per-feature kernels."""
    pts = np.array(
        [
            [0.85, 0.61],
            [0.60, 0.85],
            [0.15, 0.40],
            [0.39, 0.15],
        ]
    )
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    specs = [KernelSpec("poly", 1.0, 0), KernelSpec("poly", 1.0, 1)]
    return Dataset(pts, labels), specs


def dense_grams(dataset, specs, ridge=0.0):
    acc = bind(specs, dataset, ridge)
    return acc, [dense_signed_gram(acc, i) for i in range(acc.m)]


def arrow_matrix(a, u):
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    mat = np.zeros((n + 1, n + 1))
    mat[:n, :n] = a * np.eye(n)
    mat[:n, n] = u
    mat[n, :n] = u
    mat[n, n] = a
    return mat


def default_family_small(d, per_feature=False):
    return make_default_family(d, per_feature=per_feature)
