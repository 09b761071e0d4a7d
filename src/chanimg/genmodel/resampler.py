"""Nearest-condition empirical resampler.

A deliberately model-free backend: "sampling" a channel matrix under a
condition returns one of the stored training matrices whose condition is
among the k nearest in normalized condition space, drawn with replacement.
Because its outputs are real encoded matrices, any distributional mismatch
after decoding isolates codec problems from generative-model quality.
"""

import numpy as np

from ..errors import DataError
from ..rng import substream

__all__ = ["EmpiricalResampler"]

QUERY_CHUNK = 256  # queries per distance block; bounds the (chunk, N) work arrays


class EmpiricalResampler:
    """k-nearest-condition resampling over stored training matrices."""

    def __init__(self, matrices, conditions, k: int = 50):
        self.matrices = np.asarray(matrices)
        self.conditions = np.asarray(conditions, dtype=np.float64)
        if len(self.matrices) == 0:
            raise DataError("resampler needs a non-empty dataset")
        if len(self.matrices) != len(self.conditions):
            raise DataError("matrices and conditions must pair up")
        # min and max propagate NaN and show +-inf, without a full-size mask
        if not (np.isfinite([self.matrices.min(), self.matrices.max()]).all()
                and np.isfinite(self.conditions).all()):
            raise DataError("resampler matrices or conditions contain non-finite values")
        self.k = int(min(k, len(self.matrices)))
        if self.k < 1:
            raise DataError("k must be >= 1")
        self.cond_min = self.conditions.min(axis=0)
        self.cond_max = self.conditions.max(axis=0)
        span = self.cond_max - self.cond_min
        self._span = np.where(span > 0, span, 1.0)
        norm = (self.conditions - self.cond_min) / self._span
        self._nx = np.ascontiguousarray(norm[:, 0])
        self._ny = np.ascontiguousarray(norm[:, 1])

    def _nearest(self, queries) -> np.ndarray:
        """(m, k) indices of the k nearest stored conditions per query row.

        Neighbours are ordered by (squared normalized distance, index), the
        order of a full lexsort, so ties resolve deterministically.
        """
        q = (queries - self.cond_min) / self._span
        out = np.empty((len(q), self.k), dtype=np.intp)
        for start in range(0, len(q), QUERY_CHUNK):
            qx = q[start:start + QUERY_CHUNK, 0:1]
            qy = q[start:start + QUERY_CHUNK, 1:2]
            d2 = (self._nx - qx) ** 2 + (self._ny - qy) ** 2  # (c, N)
            cand = np.argpartition(d2, self.k - 1, axis=1)[:, :self.k]
            cand_d2 = np.take_along_axis(d2, cand, axis=1)
            order = np.lexsort((cand, cand_d2), axis=1)
            nb = np.take_along_axis(cand, order, axis=1)
            # argpartition picks an arbitrary subset of the conditions tied
            # at the k-th distance; rows with such ties redo the full sort
            kth = np.take_along_axis(d2, nb[:, -1:], axis=1)
            for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != self.k):
                nb[r] = np.lexsort((np.arange(d2.shape[1]), d2[r]))[:self.k]
            out[start:start + len(nb)] = nb
        return out

    def sample(self, cond, n: int, seed: int) -> np.ndarray:
        """n stored matrices resampled near the condition(s).

        cond is one (dist2d, height) pair, or an (n, 2) array pairing one
        condition per output matrix.
        """
        if n == 0:
            return self.matrices[:0].copy()
        cond = np.asarray(cond, dtype=np.float64)
        rng = substream(seed, "resampler")
        if cond.ndim == 1:
            nb = self._nearest(cond[None, :])
            picks = nb[0, rng.integers(self.k, size=n)]
        else:
            if cond.shape != (n, 2):
                raise DataError("cond must be one pair or an (n, 2) array")
            nb = self._nearest(cond)
            picks = nb[np.arange(n), rng.integers(self.k, size=n)]
        return self.matrices[picks]  # fancy indexing already copies
