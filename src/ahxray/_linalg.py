"""Batched linear algebra helpers for small Hermitian-bundle matrices.

All routines broadcast over leading axes; matrices sit in the last two,
except ``mul_first`` and ``matrix_first``.  The transport core holds its
stacks matrix-axes-first, shape (d, d, ...), so that each term of a
stack product runs over the long, contiguous stack axes.  With the
matrices last, NumPy's innermost loop is a matrix axis of length d: a
product of 800-1024 complex 2 x 2 matrices then costs three to four
times as much, and a 2 x 2 jet's (1 against P + 1 = 7) about twice as
much.  A lone d x d matrix has the same layout either way.
"""

from __future__ import annotations

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, unrolled over the inner index:
    sum_k a[..., :, k, None] * b[..., None, k, :].

    matmul makes one BLAS call per matrix of a stack, about 0.2 us each
    for d = 2, which dominates long stacks; the unrolled sum is d
    broadcast multiplies over the whole stack, whose fixed cost grows with
    d.  Operands of fewer than 8 d matrices (single matrices and vectors
    included) go to a @ b, which is faster there.
    """
    d = a.shape[-1]
    if max(a.size, b.size) < 8 * d ** 3:
        return a @ b
    out = a[..., :, :1] * b[..., None, 0, :]
    for k in range(1, d):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def mul_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrix-first stacks, the matrices on the two leading axes
    and the stack axes (of equal count) broadcast behind them:
    sum_k a[:, k, None] * b[None, k].

    This is the unrolled sum of ``mul``, in the same order, so each entry
    equals that of ``mul``'s unrolled branch bit for bit; it has no
    ``@`` branch, and one summation serves every stack size.
    """
    out = a[:, :1] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def matrix_first(a: np.ndarray) -> np.ndarray:
    """A stack of shape (..., d, d) as one contiguous (d, d, ...) array."""
    n = a.ndim
    return np.ascontiguousarray(
        a.transpose((n - 2, n - 1) + tuple(range(n - 2))))


def frobenius(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def skew_defect(a: np.ndarray) -> np.ndarray:
    # entry by entry: no stack-sized temporaries to grow and trim the heap
    d = a.shape[-1]
    return np.sqrt(sum(np.abs(a[..., i, j] + np.conj(a[..., j, i])) ** 2
                       for i in range(d) for j in range(d)))


def unitary_defect(u: np.ndarray) -> np.ndarray:
    d = u.shape[-1]
    return frobenius(dagger(u) @ u - np.eye(d))


def spectral_norm_skew(a: np.ndarray) -> np.ndarray:
    """Operator 2-norm of skew-Hermitian matrices via Hermitian eigenvalues."""
    ev = np.linalg.eigvalsh(-1j * a)
    return np.max(np.abs(ev), axis=-1)


def expm_skew(p: np.ndarray, e: np.ndarray | None = None):
    """exp(P) for skew-Hermitian P, exactly unitary up to rounding; given a
    direction E, also exp(-P) L(P, E) with L the Frechet derivative of exp.

    Both come from one eigendecomposition -iP = V diag(w) V*.  By
    Daleckii-Krein, exp(-P) L(P, E) = V (g o V*EV) V* with
    g_ab = (1 - exp(-i d)) / (i d) = exp(-i d/2) sinc(d/2), d = w_a - w_b,
    which has no removable singularity to branch on.  E may broadcast
    against P with more leading axes.
    """
    w, v = np.linalg.eigh(-1j * np.asarray(p, dtype=complex))
    q = np.einsum("...ik,...k,...jk->...ij", v, np.exp(1j * w), np.conj(v))
    if e is None:
        return q
    d = w[..., :, None] - w[..., None, :]
    g = np.exp(-0.5j * d) * np.sinc(d / (2.0 * np.pi))
    vh = dagger(v)
    return q, mul(mul(v, g * mul(mul(vh, e), v)), vh)
