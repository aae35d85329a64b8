"""Batched linear algebra helpers for small Hermitian-bundle matrices.

All routines broadcast over leading axes; matrices sit in the last two,
except ``mul_first`` and ``matrix_first``.  The transport core and the
Jacobi rotations of ``expm_skew`` hold their stacks matrix-axes-first,
shape (d, d, ...), so each elementwise step runs over the long, contiguous
stack axes: with the matrices last, a product of 800-1024 complex 2 x 2
matrices costs three to four times as much, and a 2 x 2 jet's (1 against
P + 1 = 7) about twice as much.  A lone d x d matrix has either layout.
Both products are one unrolled summation at every stack size, so a lone
matrix and a stack of them multiply alike, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_SWEEPS = 20                # cap on Jacobi sweeps; d <= 4 needs <= 6


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, unrolled over the inner index:
    sum_k a[..., :, k, None] * b[..., None, k, :].

    matmul makes one BLAS call per matrix of a stack, about 0.2 us each
    for d = 2, which dominates long stacks; the unrolled sum is d
    broadcast multiplies over the whole stack.
    """
    out = a[..., :, :1] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def mul_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrix-first stacks, the matrices on the two leading axes
    and the stack axes (of equal count) broadcast behind them:
    sum_k a[:, k, None] * b[None, k].

    This is the summation of ``mul``, in the same order, so each entry
    equals that of ``mul`` bit for bit.
    """
    out = a[:, :1] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def add_commutator(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a b - b a for stacks (..., d, d) of one shape, entry by entry:
    ``mul``'s summation, so out + (mul(a, b) - mul(b, a)) bit for bit,
    in three stack-long rows instead of stack-sized temporaries."""
    d = a.shape[-1]
    ab, ba, tmp = (np.empty(out.shape[:-2], dtype=out.dtype)
                   for _ in range(3))
    for i in range(d):
        for j in range(d):
            np.multiply(a[..., i, 0], b[..., 0, j], out=ab)
            np.multiply(b[..., i, 0], a[..., 0, j], out=ba)
            for k in range(1, d):
                ab += np.multiply(a[..., i, k], b[..., k, j], out=tmp)
                ba += np.multiply(b[..., i, k], a[..., k, j], out=tmp)
            ab -= ba
            out[..., i, j] += ab


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
    return frobenius(mul(dagger(u), u) - np.eye(u.shape[-1]))


def _eigh_skew(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w (d, n) and unitary V (d, d, n), -iA = V diag(w) V*, for a stack A
    of n skew-Hermitian matrices by cyclic complex Jacobi (Golub & Van Loan
    8.5): G = [[c, s b/r], [-s b*/r, c]] zeroes b = h_pq of h = -iA, r = |b|,
    t = s/c in [-1, 1] solves t^2 + (h_qq - h_pp) t/r = 1; d = 2 is exact."""
    if not np.all(np.isfinite(a)):
        raise DomainError("eigensolver input is not finite")
    d, eps, tiny = a.shape[-1], np.finfo(float).eps, np.finfo(float).tiny
    h = -1j * matrix_first(a.reshape((-1, d, d)))
    w = [h[i, i].real.copy() for i in range(d)]
    v = np.zeros_like(h) + np.eye(d)[:, :, None]
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    for _ in range(_SWEEPS):
        for p, q in pairs:
            r = np.abs(h[p, q])
            r_safe = r + (r < tiny)                 # t = 0 there: G = I
            tau = (w[q] - w[p]) / (2.0 * r_safe)
            t = np.copysign(r >= tiny, tau) / (np.abs(tau) + np.hypot(1, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            su = t * c * (h[p, q] / r_safe)
            w[p], w[q] = w[p] - t * r, w[q] + t * r
            for x in ((v, h) if d > 2 else (v,)):   # x <- x G
                xp, xq = x[:, p], x[:, q]
                x[:, p], x[:, q] = c * xp - np.conj(su) * xq, su * xp + c * xq
            if d > 2:                               # h <- G* h
                h[p], h[q] = np.conj(h[:, p]), np.conj(h[:, q])
                h[p, q] = h[q, p] = 0.0
        if d < 3 or np.all(np.max([np.abs(h[p, q]) for p, q in pairs], axis=0)
                           <= eps * np.max(np.abs(w), axis=0) + tiny):
            return np.array(w), v
    raise DomainError(f"eigensolver unconverged after {_SWEEPS} sweeps")


def spectral_norm_skew(a: np.ndarray) -> np.ndarray:
    """Operator 2-norm of skew-Hermitian matrices via Hermitian eigenvalues."""
    return np.max(np.abs(_eigh_skew(a)[0]), axis=0).reshape(a.shape[:-2])


def expm_skew(p: np.ndarray, e: np.ndarray | None = None):
    """exp(P) for skew-Hermitian P, exactly unitary up to rounding; given a
    direction E, also exp(-P) L(P, E) with L the Frechet derivative of exp.

    Both come from one diagonalisation -iP = V diag(w) V*: Q = V e^{iw} V*
    and, by Daleckii-Krein, exp(-P) L(P, E) = V (g o V*EV) V* with g_ab =
    exp(-i d/2) sinc(d/2), d = w_a - w_b.  E may broadcast against P with
    more leading axes; a lone P is a stack of one, with P[None]'s bits."""
    p = np.asarray(p, dtype=complex)
    w, v = _eigh_skew(p)
    vh = np.conj(v.swapaxes(0, 1))
    f = np.exp(0.5j * w)                            # exp(i w) = f^2
    q = np.moveaxis(mul_first(v * (f * f), vh), (0, 1), (-2, -1))
    if e is None:
        return q.reshape(p.shape)
    g = np.ones_like(v)
    for i, j in [(i, j) for j in range(len(w)) for i in range(j)]:
        g[i, j] = np.conj(f[i]) * f[j] * np.sinc((w[i] - w[j]) / (2 * np.pi))
        g[j, i] = np.conj(g[i, j])
    full = np.broadcast_shapes(p.shape, np.shape(e))
    axes = (1,) * (len(full) + 1 - p.ndim) + p.shape[:-2]  # >= 1 axis
    v, vh, g = (x.reshape(x.shape[:2] + axes) for x in (v, vh, g))
    m = mul_first(vh, matrix_first(np.broadcast_to(e, (1,) + full)))
    l = mul_first(mul_first(v, g * mul_first(m, v)), vh)
    return q.reshape(p.shape), np.moveaxis(l, (0, 1), (-2, -1)).reshape(full)
