"""Batched linear algebra of the stiff integrators (``repro.backend``).

The batched Radau IIA and BDF kernels factor and apply one (n, n)
Newton matrix per simulation row. Both ops keep the leading (row) axis
intact, so a row's rounding never depends on how many rows share the
launch — the width-independence every split, sharded or resumed run
relies on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def batched_matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row-wise products ``(b, n, n) @ (b, n) -> (b, n)``.

    A batch-preserving einsum, not a BLAS matmul over the stacked rows.
    """
    return np.einsum("bij,bj->bi", matrices, vectors)


#: The kernels look these up on ``xp`` at every call, so a profiler can
#: time all batched linear algebra by wrapping the two attributes here
#: (``perfbench/tracing.py`` does).
xp = SimpleNamespace(batched_inv=np.linalg.inv, batched_matvec=batched_matvec)

__all__ = ["xp"]
