"""The benchmark's own NumPy statement of the maths each served or compiled
program computes, used to check every output.

None of this goes through :mod:`repro.hdcpp`, the compiler or its kernels:
it is written from the application definitions (random-projection,
k-mer and level-ID encodings, Hamming search with ``sign(0) = +1``) over
the constants the benchmark built.

Integer-valued encodings (k-mers, level-ID) compare exactly.  A random
projection is a float sum, and a float32 GEMM may round a projection that
lies within its accumulated rounding error of zero to either sign.  Such
entries are *fragile*: each one can move a Hamming distance by one, so a
class whose distance is within twice the sample's fragile count of the
best is also accepted.  The margin (how many samples needed it) is
reported, never hidden.
"""

from __future__ import annotations

import numpy as np

#: Unit roundoff of float32; a float32 dot product of length n is within
#: n * eps * sum(|x_i * w_i|) of the exact value.
FLOAT32_EPS = 2.0 ** -24


def bipolar(x: np.ndarray) -> np.ndarray:
    """``sign`` with zero mapped to +1, as int64 {-1, +1}."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int64)


def hamming(queries: np.ndarray, memory: np.ndarray, stride: int = 1) -> np.ndarray:
    """Pairwise Hamming distances between bipolar rows (every ``stride``-th dim)."""
    q = queries[:, ::stride]
    m = memory[:, ::stride]
    return (q.shape[1] - q @ m.T) // 2


def project(features: np.ndarray, rp: np.ndarray):
    """Random projection ``features @ rp.T`` in float64 plus fragile counts.

    Returns ``(projection, fragile)`` where ``fragile`` flags entries whose
    float32 value could round to the other sign.
    """
    x = np.asarray(features, dtype=np.float64)
    w = np.asarray(rp, dtype=np.float64)
    projection = x @ w.T
    bound = x.shape[1] * FLOAT32_EPS * (np.abs(x) @ np.abs(w).T)
    return projection, np.abs(projection) <= bound


def accepted_labels(distances: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Boolean ``(n, classes)``: labels a correct arg-min may return.

    Exactly the first arg-min when ``slack`` is 0; with fragile entries,
    also every class within ``2 * slack`` of the best distance.
    """
    n = distances.shape[0]
    accepted = np.zeros(distances.shape, dtype=bool)
    accepted[np.arange(n), distances.argmin(axis=1)] = True
    best = distances.min(axis=1, keepdims=True)
    accepted |= (slack[:, None] > 0) & (distances <= best + 2 * slack[:, None])
    return accepted


def classify(features, rp, classes, stride: int = 1):
    """Accepted labels of the Hamming classifier ``argmin hamming(sign(x rp^T), sign(C))``,
    plus how many samples have a fragile projection."""
    projection, fragile = project(features, rp)
    distances = hamming(bipolar(projection), bipolar(classes), stride)
    slack = fragile[:, ::stride].sum(axis=1)
    return accepted_labels(distances, slack), int((slack > 0).sum())


def classification_update(rp, classes, samples, labels) -> np.ndarray:
    """One corrective training round: bundle each signed encoding into its
    class and subtract it from the class the classifier predicted.

    The projection is taken in float32, the arithmetic the served update
    rule uses, so both sides sign the same values and the class memories
    of every version agree exactly.
    """
    encoded = bipolar(np.asarray(samples, dtype=np.float32) @ np.asarray(rp, dtype=np.float32).T)
    predicted = hamming(encoded, bipolar(classes)).argmin(axis=1)
    updated = np.array(classes, dtype=np.float64, copy=True)
    labels = np.asarray(labels, dtype=np.int64)
    np.add.at(updated, labels, encoded)
    wrong = predicted != labels
    np.add.at(updated, predicted[wrong], -encoded[wrong])
    return updated


def kmer_encode(reads: np.ndarray, base_hvs: np.ndarray, kmer_length: int) -> np.ndarray:
    """Bundle over k-mers of the bound, offset-rotated base hypervectors."""
    reads = np.atleast_2d(np.asarray(reads, dtype=np.int64))
    bases = np.asarray(base_hvs, dtype=np.int64)
    positions = reads.shape[1] - kmer_length + 1
    out = np.zeros((reads.shape[0], bases.shape[1]), dtype=np.int64)
    for row, read in enumerate(reads):
        kmers = np.ones((positions, bases.shape[1]), dtype=np.int64)
        for offset in range(kmer_length):
            kmers *= np.roll(bases, offset, axis=1)[read[offset : offset + positions]]
        out[row] = kmers.sum(axis=0)
    return out


def level_id_encode(spectra: np.ndarray, id_hvs: np.ndarray, level_hvs: np.ndarray) -> np.ndarray:
    """Bundle over active bins of ``id[bin] * level[quantized intensity]``."""
    spectra = np.atleast_2d(np.asarray(spectra, dtype=np.float32))
    n_levels = level_hvs.shape[0]
    levels = np.clip((spectra * (n_levels - 1)).round().astype(np.int64), 0, n_levels - 1)
    ids = np.asarray(id_hvs, dtype=np.int64)
    lv = np.asarray(level_hvs, dtype=np.int64)
    out = np.zeros((spectra.shape[0], ids.shape[1]), dtype=np.int64)
    for row in range(spectra.shape[0]):
        active = np.nonzero(spectra[row] > 0)[0]
        out[row] = (ids[active] * lv[levels[row, active]]).sum(axis=0)
    return out


def nearest(encodings: np.ndarray, memory: np.ndarray) -> np.ndarray:
    """``argmin hamming(sign(encodings), sign(memory))`` for exact encodings."""
    return hamming(bipolar(encodings), bipolar(memory)).argmin(axis=1)
