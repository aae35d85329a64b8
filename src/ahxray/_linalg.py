"""Batched linear algebra helpers for small Hermitian-bundle matrices.

All routines broadcast over leading axes; matrices sit in the last two.
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


def expm_skew(p: np.ndarray) -> np.ndarray:
    """exp(P) for skew-Hermitian P, exactly unitary up to rounding.

    Uses the eigendecomposition of the Hermitian matrix -iP.
    """
    w, v = np.linalg.eigh(-1j * np.asarray(p, dtype=complex))
    phase = np.exp(1j * w)
    return np.einsum("...ik,...k,...jk->...ij", v, phase, np.conj(v))


def expm_skew_frechet(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Directional derivative of exp at skew-Hermitian P in direction E.

    Daleckii-Krein: with H = -iP = V diag(w) V*, the derivative of
    exp(iH) in Hermitian direction -iE is V (f[1](w_a, w_b) o V*(-iE)V) V*
    where f[1] is the divided difference of f(w) = exp(iw).
    """
    p = np.asarray(p, dtype=complex)
    e = np.asarray(e, dtype=complex)
    w, v = np.linalg.eigh(-1j * p)
    wa = w[..., :, None]
    wb = w[..., None, :]
    diff = wa - wb
    small = np.abs(diff) < 1e-12
    safe = np.where(small, 1.0, diff)
    divided = np.where(small,
                       1j * np.exp(1j * 0.5 * (wa + wb)),
                       (np.exp(1j * wa) - np.exp(1j * wb)) / safe)
    e_h = np.einsum("...ki,...kl,...lj->...ij", np.conj(v), -1j * e, v)
    core = divided * e_h
    return np.einsum("...ik,...kl,...jl->...ij", v, core, np.conj(v))


def ad_representation(a: np.ndarray) -> np.ndarray:
    """Matrix of U -> [A, U] on row-major flattened d x d endomorphisms."""
    a = np.asarray(a)
    d = a.shape[-1]
    eye = np.eye(d)
    left = np.einsum("...km,ln->...klmn", a, eye)
    right = np.einsum("km,...nl->...klmn", eye, a)
    out = left - right
    return out.reshape(a.shape[:-2] + (d * d, d * d))
