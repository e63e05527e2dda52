"""Small dense linear-algebra helpers shared by the estimation modules.

All routines operate on stacks of per-frequency matrices, shape F x P x P,
with dense LAPACK-backed methods throughout.  Beamformer stacks cover every
bin with P <= 8 channels.  The linear-prediction core passes one chunk of
bins at a time with P = taps * channels (60 by default, 1000 and more when
asked for); linpred's chunk rule (linpred._chunk_plan) bounds those chunks,
and a single bin larger than the budget runs alone.

Every Gram Sum_t r r^H, weighted or not, comes from hermitian_gram.  It
reads the complex rows as real rows of twice the width and forms their
real Gram with one batched matmul of the rows' transpose against the rows.
numpy runs that product as a symmetric rank-k update (BLAS syrk) and
copies the computed triangle into the other, so the real Gram is exactly
symmetric, and the complex Gram assembled from its 2 x 2 blocks is exactly
Hermitian: no averaging with the adjoint, and half the multiply-adds of a
complex product.  A weighted Gram Sum_t w r r^H is the Gram of the rows
scaled by sqrt(w).
"""

import numpy as np

from ._rules import check
from .errors import SingularMatrixError

# relative diagonal loading of every solve (see load_diagonal)
DEFAULT_LOADING = 1e-8


def hermitize(mats):
    """Symmetrized accumulation: average a matrix stack with its adjoint."""
    return 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))


def hermitian_gram(rows, out=None, work=None):
    """Sum of per-row outer products, Sum_t rows[f, t] rows[f, t]^H.

    The rows' real view R (F x T x 2P: real and imaginary parts interleaved)
    gives A = R^T R, computed by BLAS syrk and exactly symmetric; then
        Re G = A[even, even] + A[odd, odd]
        Im G = A[odd, even] - A[even, odd]
    so G is exactly Hermitian, with an exactly real diagonal.

    Arguments:
        rows: complex array, F x T x P.  Complex128 rows whose last axis is
            contiguous, such as a T x F x P field transposed, are read in
            place; others are copied first.
        out: optional complex128 F x P x P destination
        work: optional float64 F x 2P x 2P scratch for A
    Return:
        complex128 F x P x P (out, when given)
    """
    rows = np.asarray(rows, dtype=np.complex128)
    if rows.strides[-1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    num_bins, _, dim = rows.shape
    if out is None:
        out = np.empty((num_bins, dim, dim), dtype=np.complex128)
    if work is None:
        work = np.empty((num_bins, 2 * dim, 2 * dim))
    real = rows.view(np.float64)
    # a matrix times its own transpose: numpy's matmul calls syrk
    np.matmul(real.transpose(0, 2, 1), real, out=work)
    np.add(work[:, ::2, ::2], work[:, 1::2, 1::2], out=out.real)
    np.subtract(work[:, 1::2, ::2], work[:, ::2, 1::2], out=out.imag)
    return out


def time_outer(a, b):
    """Sum of per-frame outer products, Sum_t a(t,f) b(t,f)^H, as one complex
    product (the Grams of this package come from hermitian_gram).

    Arguments:
        a, b: complex arrays, T x F x P / T x F x Q
    Return:
        F x P x Q
    """
    # F x P x T @ F x T x Q batched matmul
    return np.matmul(a.transpose(1, 2, 0), np.conj(b).transpose(1, 0, 2))


def load_diagonal(mats, loading):
    """Add relative (trace-scaled) diagonal loading to a Hermitian stack, in
    place.

    The load is loading * trace/P per frequency; when a matrix has zero trace
    the scale falls back to 1.0, i.e. the load becomes absolute, so exactly
    zero covariances still yield a well-posed system.  `loading` is checked
    by its rule first, so every loaded solve checks it.

    Return:
        mats, loaded
    """
    check("loading", loading)
    p = mats.shape[-1]
    diagonal = np.arange(p)
    scale = mats[..., diagonal, diagonal].real.sum(axis=-1) / p
    scale = np.where(scale > 0.0, scale, 1.0)
    mats[..., diagonal, diagonal] += (loading * scale)[..., None]
    return mats


def solve_stack(mats, rhs):
    """Solve mats[f] @ x[f] = rhs[f] for every frequency.

    Arguments:
        mats: F x P x P
        rhs: F x P or F x P x K
    Return:
        solution with the same shape as rhs
    Raises:
        SingularMatrixError naming the first offending frequency bin.
    """
    squeeze = rhs.ndim == mats.ndim - 1
    b = rhs[..., None] if squeeze else rhs
    try:
        sol = np.linalg.solve(mats, b)
    except np.linalg.LinAlgError:
        _locate_singular(mats)
        raise SingularMatrixError("singular system in batched solve")
    if not np.all(np.isfinite(sol)):
        _locate_singular(mats)
        bad = int(np.argwhere(~np.isfinite(sol))[0][0])
        raise SingularMatrixError(
            f"non-finite solve result at frequency bin {bad}", frequency_bin=bad
        )
    return sol[..., 0] if squeeze else sol


def _locate_singular(mats):
    # find the first frequency whose matrix cannot be solved, for reporting
    probe = np.zeros(mats.shape[-1])
    probe[0] = 1.0
    for f in range(mats.shape[0]):
        try:
            x = np.linalg.solve(mats[f], probe)
        except np.linalg.LinAlgError:
            x = np.array([np.inf])
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError(
                f"singular matrix at frequency bin {f} (even after loading)",
                frequency_bin=f,
            )


def cholesky_stack(mats):
    """Batched Cholesky factorization with per-bin failure reporting."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for f in range(mats.shape[0]):
            try:
                np.linalg.cholesky(mats[f])
            except np.linalg.LinAlgError:
                raise SingularMatrixError(
                    f"matrix at frequency bin {f} is not positive definite",
                    frequency_bin=f,
                ) from None
        raise


def principal_eigenpairs(mats):
    """Largest eigenvalue and eigenvector of each Hermitian matrix.

    Return:
        (values [F], vectors [F x P], gaps [F]) where gaps is the distance
        between the two largest eigenvalues (inf for P = 1).
    """
    vals, vecs = np.linalg.eigh(mats)
    top = vals[:, -1]
    if mats.shape[-1] > 1:
        gaps = top - vals[:, -2]
    else:
        gaps = np.full(top.shape, np.inf)
    return top, vecs[:, :, -1], gaps


def rotate_reference_phase(vectors, ref_mic):
    """Rotate each row so entry `ref_mic` is real and nonnegative.

    Rows whose reference entry is exactly zero are left untouched.
    """
    pivot = vectors[:, ref_mic]
    mag = np.abs(pivot)
    safe = np.where(mag > 0.0, mag, 1.0)
    phase = np.where(mag > 0.0, np.conj(pivot) / safe, 1.0)
    return vectors * phase[:, None]
