"""Baseline receivers: preamble-based LS / linear-MMSE channel estimation and
per-symbol maximum-likelihood detection under the two-entry channel model."""

import numpy as np

from .constellation import Constellation

__all__ = [
    "DegeneratePilotSetError",
    "pilot_matrix",
    "ls_estimate",
    "mmse_estimate",
    "detect_symbols",
]


class DegeneratePilotSetError(ValueError):
    """Pilot set whose [p, conj(p)] matrix is rank deficient."""


def pilot_matrix(pilots) -> np.ndarray:
    """(n, 2) matrix pairing each pilot with its conjugate."""
    pilots = np.asarray(pilots, dtype=complex).reshape(-1)
    return np.column_stack([pilots, np.conj(pilots)])


def _normal_terms(pilots, received):
    """Entries of P^H P and P^H y for P = [p, conj(p)], reduced over the last
    axis, so stacked rows give one set of terms each.

    P^H P = [[a, conj(s2)], [s2, a]] with a = sum |p|^2 and s2 = sum p^2;
    its smallest singular value is sqrt(a - |s2|).
    """
    a = (np.abs(pilots) ** 2).sum(axis=-1)
    s2 = (pilots**2).sum(axis=-1)
    r1 = (np.conj(pilots) * received).sum(axis=-1)
    r2 = (pilots * received).sum(axis=-1)
    return a, s2, r1, r2


def two_path_ls(a, s2, r1, r2):
    """Closed-form solve of the two-path normal equations, broadcast over any
    leading axes of the :func:`_normal_terms` output.

    Returns ``(estimates, solvable)`` with estimates of shape ``(..., 2)``.
    A set is solvable when det(P^H P) > 1e-12 a^2; the others (all pilots
    collinear with their conjugates) cannot resolve both coefficients and get
    the direct-path-only fit ``(r1 / a, 0)``, zero for all-zero pilots.
    """
    det = a**2 - np.abs(s2) ** 2
    solvable = det > 1e-12 * a**2
    safe_det = np.where(solvable, det, 1.0)
    h_direct = np.where(
        solvable, (a * r1 - np.conj(s2) * r2) / safe_det, r1 / np.where(a > 0, a, 1.0)
    )
    h_image = np.where(solvable, (-s2 * r1 + a * r2) / safe_det, 0.0)
    return np.stack([h_direct, h_image], axis=-1), solvable


def solve_two_path_ls(pilots, received):
    """Closed-form LS solution, or None when the pilot set is degenerate:
    :func:`two_path_ls` on a stack of one row."""
    pilots = np.asarray(pilots, dtype=complex).reshape(1, -1)
    received = np.asarray(received, dtype=complex).reshape(1, -1)
    estimates, solvable = two_path_ls(*_normal_terms(pilots, received))
    return estimates[0] if solvable[0] else None


def _sample_rows(pilots, received):
    """Pilots and received samples as ``(rows, n)`` arrays, and whether the
    samples came stacked; ``pilots`` may be one sequence shared by every row."""
    received = np.asarray(received, dtype=complex)
    stacked = received.ndim == 2
    received = received.reshape(received.shape[0] if stacked else 1, -1)
    pilots = np.asarray(pilots, dtype=complex)
    if pilots.ndim != 2:
        pilots = pilots.reshape(1, -1)
    if pilots.shape[1] != received.shape[1]:
        raise ValueError("pilots and received samples must have the same length")
    return np.broadcast_to(pilots, received.shape), received, stacked


def ls_estimate(pilots, received) -> np.ndarray:
    """Least-squares two-entry channel estimate from known pilots.

    Requires at least two pilots whose phases are not all equal modulo pi;
    otherwise the pilot and its conjugate are collinear and the fit is
    underdetermined.  Received samples stacked as ``(rows, n)``, with the
    pilots as one shared sequence or as ``(rows, n)``, give ``(rows, 2)``
    estimates, each with the bits of a one-row call.
    """
    pilots, received, stacked = _sample_rows(pilots, received)
    if pilots.shape[1] < 2:
        raise ValueError("at least two pilot symbols are required")
    estimates, solvable = two_path_ls(*_normal_terms(pilots, received))
    if not solvable.all():
        raise DegeneratePilotSetError(
            "degenerate pilot set: pilot column is collinear with its conjugate"
        )
    return estimates if stacked else estimates[0]


def mmse_estimate(pilots, received, noise_variance: float, prior_covariance) -> np.ndarray:
    """Linear MMSE estimate (P^H P + v C^-1)^-1 P^H y with prior covariance C.

    Reduces to LS as the noise variance goes to zero and shrinks to the zero
    vector as it grows.  Received samples stacked as ``(rows, n)``, all sent
    with the same pilot sequence, give ``(rows, 2)`` estimates, each with
    the bits of a one-row call: P^H y is formed row by row, and the one
    left-hand matrix is solved against every row.
    """
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    prior = np.asarray(prior_covariance, dtype=complex)
    if prior.shape != (2, 2):
        raise ValueError("prior covariance must be 2x2")
    eigvals = np.linalg.eigvalsh(prior)
    if eigvals.min() <= 0:
        raise ValueError("prior covariance must be positive definite")
    pilots, received, stacked = _sample_rows(np.ravel(pilots), received)
    P = pilot_matrix(pilots[0])
    PH = P.conj().T
    lhs = PH @ P + noise_variance * np.linalg.inv(prior)
    rhs = np.array([PH @ row for row in received])
    estimates = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    return estimates if stacked else estimates[0]


def detect_symbols(received, channel_estimate, constellation: Constellation):
    """Per-symbol ML detection: argmin over the alphabet of
    |y - (c*h_direct + conj(c)*h_image)|^2.

    The decision does not depend on the noise power; ties go to the lowest
    constellation index.  Returns (symbols, bits).  A length-2
    estimate applies to all of ``received``; estimates stacked as
    ``(rows, 2)`` apply row by row to ``(rows, n)`` samples, and the bits
    then come back as ``(rows, n * bits_per_symbol)``.
    """
    h = np.asarray(channel_estimate, dtype=complex)
    received = np.asarray(received, dtype=complex)
    if h.ndim == 2 and h.shape[1] == 2 and received.ndim == 2:
        if received.shape[0] != h.shape[0]:
            raise ValueError("need one channel estimate per row of samples")
    elif h.size == 2:
        h = h.reshape(2)
        received = received.reshape(-1)
    else:
        raise ValueError("channel estimate must be a non-zero length-2 vector")
    if not np.all(np.any(h, axis=-1)):
        raise ValueError("channel estimate must be a non-zero length-2 vector")
    points = constellation.points
    model = points * h[..., :1] + np.conj(points) * h[..., 1:]
    d2 = np.abs(received[..., :, None] - model[..., None, :]) ** 2
    idx = np.argmin(d2, axis=-1)
    symbols = points[idx]
    bits = constellation.label_bits[idx].reshape(*idx.shape[:-1], -1)
    return symbols, bits
