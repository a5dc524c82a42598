"""Synthetic dataset generators: class-conditional multinomials with a
tunable separation knob, and noisy directions on the unit hypersphere."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .data import Dataset


class GeneratorFamily(Enum):
    MULTINOMIAL = "multinomial"
    HYPERSPHERE = "hypersphere"


@dataclass
class SyntheticSpec:
    num_classes: int
    instances_per_class: int
    vocab_size: int
    separation: float
    family: GeneratorFamily = GeneratorFamily.MULTINOMIAL
    rng_seed: int = 0
    doc_length: int = 30  # multinomial draws per document
    noise: float = 0.3  # hypersphere perturbation scale

    def __post_init__(self):
        if min(self.num_classes, self.instances_per_class, self.vocab_size) < 1:
            raise ValueError("num_classes, instances_per_class, vocab_size must be positive")
        for name in ("separation", "noise"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.doc_length < 1:
            raise ValueError("doc_length must be positive")


def multinomial_class_distributions(spec: SyntheticSpec) -> np.ndarray:
    """Per-class word distributions. Each class gets extra mass `separation`
    (relative to a shared uniform base) on its own vocabulary block;
    separation 0 collapses all classes onto one distribution, large values
    approach disjoint-block supports."""
    V, K = spec.vocab_size, spec.num_classes
    block = V // K
    dists = np.ones((K, V))
    for c in range(K):
        lo = c * block
        hi = V if c == K - 1 else (c + 1) * block
        dists[c, lo:hi] += spec.separation
    return dists / dists.sum(axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([spec.rng_seed, 3]))
    multinomial = spec.family is GeneratorFamily.MULTINOMIAL
    rows = _multinomial_rows(spec, rng) if multinomial else _hypersphere_rows(spec, rng)
    indices, values = [], []
    for row in rows:  # only each dense row's nonzeros outlive it
        indices.append(np.flatnonzero(row))
        values.append(row[indices[-1]])
    indptr = np.cumsum([0] + [len(a) for a in indices])
    X = sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                      shape=(len(indices), spec.vocab_size))
    labels = np.repeat(np.arange(spec.num_classes), spec.instances_per_class)
    return Dataset(X, labels, label_names=[f"class_{c}" for c in range(spec.num_classes)])


def _multinomial_rows(spec: SyntheticSpec, rng: np.random.Generator) -> Iterator[np.ndarray]:
    dists = multinomial_class_distributions(spec)
    for c in range(spec.num_classes):
        for _ in range(spec.instances_per_class):
            yield rng.multinomial(spec.doc_length, dists[c]).astype(np.float64)


def _hypersphere_rows(spec: SyntheticSpec, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Unit-norm points around per-class mean directions; the means drift
    apart from a shared direction as separation grows."""
    V = spec.vocab_size
    shared = _unit(rng.normal(size=V))
    means = []
    for _ in range(spec.num_classes):
        means.append(_unit(shared + spec.separation * _unit(rng.normal(size=V))))
    for c in range(spec.num_classes):
        for _ in range(spec.instances_per_class):
            yield _unit(means[c] + spec.noise * rng.normal(size=V))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)
