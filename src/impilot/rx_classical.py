"""Baseline receivers: preamble-based LS / linear-MMSE channel estimation and
per-symbol maximum-likelihood detection under the two-entry channel model."""

from typing import NamedTuple

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


def _pilot_terms(pilots):
    """Entries of P^H P for P = [p, conj(p)], reduced over the last axis:
    P^H P = [[a, conj(s2)], [s2, a]] with a = sum |p|^2 and s2 = sum p^2;
    its smallest singular value is sqrt(a - |s2|)."""
    a = (np.abs(pilots) ** 2).sum(axis=-1)
    s2 = (pilots**2).sum(axis=-1)
    return a, s2


def _received_terms(pilots, received):
    """Entries r1, r2 of P^H y for P = [p, conj(p)], reduced over the last
    axis."""
    r1 = (np.conj(pilots) * received).sum(axis=-1)
    r2 = (pilots * received).sum(axis=-1)
    return r1, r2


class _LsPilotPart(NamedTuple):
    """The closed-form solve of the two-path normal equations, split into
    its pilot-only half, formed from the :func:`_pilot_terms` ``a`` and
    ``s2`` of each pilot set, and :meth:`solve`, its received half, so that
    fits of one pilot set to many received sets form the pilot half once.

    A set is solvable when det(P^H P) > 1e-12 a^2; the others (all pilots
    collinear with their conjugates) cannot resolve both coefficients and get
    the direct-path-only fit ``(r1 / a, 0)``, zero for all-zero pilots.
    """

    a: np.ndarray
    conj_s2: np.ndarray
    neg_s2: np.ndarray
    safe_det: np.ndarray
    safe_a: np.ndarray
    solvable: np.ndarray

    @classmethod
    def from_terms(cls, a, s2) -> "_LsPilotPart":
        det = a**2 - np.abs(s2) ** 2
        solvable = det > 1e-12 * a**2
        safe_det = np.where(solvable, det, 1.0)
        return cls(a, np.conj(s2), -s2, safe_det, np.where(a > 0, a, 1.0), solvable)

    def take(self, index) -> "_LsPilotPart":
        """The part of the pilot sets ``index``."""
        return _LsPilotPart(*(t[index] for t in self))

    def solve(self, r1, r2):
        """Estimates ``(..., 2)`` and ``solvable`` for the
        :func:`_received_terms` ``r1`` and ``r2``, which broadcast against
        this part."""
        h_direct = (self.a * r1 - self.conj_s2 * r2) / self.safe_det
        estimates = np.empty(h_direct.shape + (2,), dtype=complex)
        estimates[..., 0] = h_direct
        np.divide(self.neg_s2 * r1 + self.a * r2, self.safe_det, out=estimates[..., 1])
        if not self.solvable.all():
            # The direct-path-only fit, where both paths cannot be resolved.
            estimates[..., 0] = np.where(self.solvable, h_direct, r1 / self.safe_a)
            estimates[..., 1] = np.where(self.solvable, estimates[..., 1], 0.0)
        return estimates, self.solvable


def solve_two_path_ls(pilots, received):
    """Closed-form LS solution, or None when the pilot set is degenerate:
    :class:`_LsPilotPart` on a stack of one row."""
    pilots = np.asarray(pilots, dtype=complex).reshape(1, -1)
    received = np.asarray(received, dtype=complex).reshape(1, -1)
    part = _LsPilotPart.from_terms(*_pilot_terms(pilots))
    estimates, solvable = part.solve(*_received_terms(pilots, received))
    return estimates[0] if solvable[0] else None


def _stacked(received) -> np.ndarray:
    """Received samples as a complex ``(rows, n)`` array."""
    received = np.asarray(received, dtype=complex)
    if received.ndim != 2:
        raise ValueError(f"received samples must be (rows, n), got shape {received.shape}")
    return received


def ls_estimate(pilots, received) -> np.ndarray:
    """Least-squares two-entry channel estimates from known pilots.

    ``received`` is ``(rows, n)``; ``pilots`` is one ``(n,)`` sequence
    shared by every row or ``(rows, n)``.  Returns ``(rows, 2)``.  Each row
    needs at least two pilots whose phases are not all equal modulo pi;
    otherwise the pilot and its conjugate are collinear and the fit is
    underdetermined.
    """
    received = _stacked(received)
    if received.shape[1] < 2:
        raise ValueError("at least two pilot symbols are required")
    pilots = np.asarray(pilots, dtype=complex)
    part = _LsPilotPart.from_terms(*_pilot_terms(pilots))
    estimates, solvable = part.solve(*_received_terms(pilots, received))
    if not solvable.all():
        raise DegeneratePilotSetError(
            "degenerate pilot set: pilot column is collinear with its conjugate"
        )
    return estimates


def mmse_estimate(pilots, received, noise_variance, prior_covariance) -> np.ndarray:
    """Linear MMSE estimates (P^H P + v C^-1)^-1 P^H y with prior covariance C.

    ``received`` is ``(rows, n)``, all sent with the one ``(n,)`` pilot
    sequence; returns ``(rows, 2)``.  ``noise_variance`` v is one value, or
    one per row.  Reduces to LS as the noise variance goes to zero and
    shrinks to the zero vector as it grows.  P^H y is formed per row, and
    each row's left-hand matrix is solved against its own row.
    """
    noise_variance = np.asarray(noise_variance, dtype=float)
    if np.any(noise_variance < 0):
        raise ValueError("noise variance must be >= 0")
    prior = np.asarray(prior_covariance, dtype=complex)
    if prior.shape != (2, 2):
        raise ValueError("prior covariance must be 2x2")
    eigvals = np.linalg.eigvalsh(prior)
    if eigvals.min() <= 0:
        raise ValueError("prior covariance must be positive definite")
    P = pilot_matrix(pilots)
    PH = P.conj().T
    lhs = PH @ P + noise_variance[..., None, None] * np.linalg.inv(prior)
    rhs = np.einsum("ij,fj->fi", PH, _stacked(received))
    return np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]


def detect_symbols(received, channel_estimate, constellation: Constellation) -> np.ndarray:
    """Per-symbol ML detection: argmin over the alphabet of
    |y - (c*h_direct + conj(c)*h_image)|^2.

    ``received`` is ``(rows, n)`` and ``channel_estimate`` ``(rows, 2)``,
    one estimate per row.  Returns the bits, ``(rows, n *
    bits_per_symbol)``.  The decision does not depend on the noise power;
    ties go to the lowest constellation index.  The alphabet is scanned one
    point at a time, so no temporary grows with its size.
    """
    received = _stacked(received)
    h = np.asarray(channel_estimate, dtype=complex)
    if h.shape != (received.shape[0], 2):
        raise ValueError("need one length-2 channel estimate per row of samples")
    if not np.all(np.any(h, axis=-1)):
        raise ValueError("channel estimate must be a non-zero length-2 vector")
    points = constellation.points
    model = points * h[:, :1] + np.conj(points) * h[:, 1:]
    best = np.abs(received - model[:, :1]) ** 2
    idx = np.zeros(received.shape, dtype=np.intp)
    for i in range(1, points.size):
        d2 = np.abs(received - model[:, i : i + 1]) ** 2
        np.putmask(idx, d2 < best, i)
        np.minimum(best, d2, out=best)
    return np.take(constellation.label_bits, idx, axis=0).reshape(received.shape[0], -1)
