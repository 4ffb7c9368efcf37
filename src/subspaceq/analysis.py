"""Spectral stability analysis and rate-distortion sweeps.

The combination matrix acts as the identity on the target subspace and as a
contraction J on its orthogonal complement. Everything here derives from the
eigenstructure of that minor block: the contraction factor, the conditioning
of the eigenbasis, the admissible mixing-parameter bound, and an a priori
ceiling on the variable-rate bit cost at steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codec
from .graphs import (CombinationMatrix, SpectralViolation, SubspaceBasis,
                     reduced_problem)
from .learning import STEADY_WINDOW, RunConfig, run, steady_mean

DEFECTIVE_COND = 1e8

__all__ = [
    "DefectiveMatrix",
    "SpectralReport",
    "SweepPoint",
    "spectral_report",
    "gamma_bound",
    "rate_upper_bound",
    "rate_distortion_sweep",
]


class DefectiveMatrix(ValueError):
    """The minor block is not diagonalizable within tolerance."""


@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities of a combination matrix relative to its subspace.

    rho_j: spectral radius of A - P_U (the minor-block contraction factor).
    rho_i_minus_j: max |1 - lambda| over the minor-block eigenvalues.
    v1, v2: 2-norms of the inverse eigenbasis and the eigenbasis [U | V_R].
    """

    rho_j: float
    rho_i_minus_j: float
    v1: float
    v2: float


@dataclass(frozen=True)
class SweepPoint:
    param_value: float
    rate_bits: float
    msd: float
    msd_db: float
    diverged: bool


def _complement(u):
    """Orthonormal basis of the orthogonal complement of Range(u)."""
    p = u.shape[1]
    return np.linalg.svd(u, full_matrices=True)[0][:, p:]


def spectral_report(comb: CombinationMatrix, basis: SubspaceBasis) -> SpectralReport:
    """Diagonalize the minor block of a combination matrix.

    Splits the space as Range(U) + complement and eigendecomposes
    J = Q^T A Q on the complement. A symmetric J has orthonormal
    eigenvectors S, so the full eigenbasis V = [U | Q S] is orthogonal and
    v1 = v2 = 1 exactly; only its eigenvalues are computed. Otherwise V is
    assembled from the general eigenvectors, and DefectiveMatrix is raised
    when it is ill conditioned instead of perturbing toward a
    diagonalizable form. A factored consensus matrix W kron I_l is
    diagonalized as W against the scalar consensus basis, whose eigenvalues
    and eigenbasis are those of A repeated l times. A symmetric W needs no
    complement: the spectrum of W - 11^T/n that the matrix keeps is that of
    J plus the eigenvalue of the ones direction, the one of least
    magnitude, which is dropped.
    """
    if comb.factored and comb.minor_spectrum.symmetric:
        lam = comb.minor_spectrum.eigenvalues
        lam = np.delete(lam, np.argmin(np.abs(lam)))
        return _report(lam, 1.0, 1.0)

    a, reduced = reduced_problem(comb, basis)
    u = reduced.u
    q = _complement(u)
    j = q.T @ a @ q

    if np.allclose(j, j.T, rtol=0.0, atol=1e-12):
        lam = np.linalg.eigvalsh(j)
        v1 = v2 = 1.0
    else:
        lam, s = np.linalg.eig(j)
        if np.iscomplexobj(s) and np.allclose(s.imag, 0.0):
            s = s.real
        v = np.hstack([u, q @ s])
        sv = np.linalg.svd(v, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > DEFECTIVE_COND:
            raise DefectiveMatrix(
                f"eigenbasis condition number {sv[0] / max(sv[-1], 1e-300):.3g} "
                f"exceeds {DEFECTIVE_COND:g}")
        v1, v2 = float(1.0 / sv[-1]), float(sv[0])
    return _report(lam, v1, v2)


def _report(lam, v1, v2) -> SpectralReport:
    """The report of the minor-block eigenvalues lam and eigenbasis norms;
    an empty complement (P = M, a single agent) reports both radii as 0."""
    return SpectralReport(
        rho_j=float(np.max(np.abs(lam), initial=0.0)),
        rho_i_minus_j=float(np.max(np.abs(1.0 - lam), initial=0.0)),
        v1=v1,
        v2=v2,
    )


def gamma_bound(report: SpectralReport, beta_q_max: float) -> float:
    """Supremum of provably admissible mixing parameters.

    min{1, (1 - rho_j) / (4 v1^2 v2^2 beta_q_max rho_{I-J}^2)}
    where beta_q_max is the largest relative noise coefficient among the
    agents' quantizers. A zero denominator, from zero relative noise or an
    empty complement (rho_{I-J} = 0), clips to 1. The bound needs a
    contracting minor block: rho_j >= 1 raises SpectralViolation.
    """
    if not beta_q_max >= 0:
        raise ValueError("beta_q_max must be nonnegative")
    if not report.rho_j < 1.0:
        raise SpectralViolation(
            f"no admissible mixing parameter: rho_j = {report.rho_j:g} >= 1")
    num = 1.0 - report.rho_j
    den = 4.0 * report.v1**2 * report.v2**2 * beta_q_max \
        * report.rho_i_minus_j ** 2
    return min(1.0, num / den) if den else 1.0


def rate_upper_bound(omega, eta, chi_ms, m_k) -> float:
    """Steady-state ceiling on the per-round variable-rate cost of the
    logarithmic-companding quantizer, in bits.

    log2(3) * m_k * (2 + log2( ln(1 + (omega/eta) sqrt(chi_ms))
                               / (2 ln(omega + sqrt(1 + omega^2))) + 2 ))
    where chi_ms estimates the steady mean square of the quantizer input.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    if not chi_ms >= 0:
        raise ValueError("chi_ms must be nonnegative")
    inner = math.log1p((omega / eta) * math.sqrt(chi_ms)) / (2.0 * math.asinh(omega))
    return codec.BITS_PER_SYMBOL * m_k * (2.0 + math.log2(inner + 2.0))


def rate_distortion_sweep(template: RunConfig, models, basis, comb, grid):
    """Steady-state (rate, distortion) pairs over a quantizer grid.

    grid is a sequence of (param_value, QuantizerSpec). Each point runs the
    template config with that quantizer and on_divergence="flag", then
    averages bits per component and MSD over the steady window and the
    Monte-Carlo runs, so the template needs at least STEADY_WINDOW
    iterations (else ValueError, before any point runs). The whole grid is
    one learning.run call over a list of configs: the points share the
    network, seed and step size, so each stream cell is drawn once for all
    of them and w_opt is computed once, and each point stays bit-identical
    to a run of its config alone. A point that diverges stops alone and
    comes back flagged with infinite MSD, never dropped.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    if template.iterations < STEADY_WINDOW:
        raise ValueError(f"iterations must be >= {STEADY_WINDOW}, the steady "
                         "window each point averages")
    configs = [replace(template, quantizer=spec, on_divergence="flag")
               for _, spec in grid]
    points = []
    for (value, _), res in zip(grid, run(configs, models, basis, comb)):
        if res.diverged:
            points.append(SweepPoint(float(value), float("nan"), float("inf"),
                                     float("inf"), True))
            continue
        rate = float(steady_mean(res.rate))
        msd = float(steady_mean(res.msd))
        points.append(SweepPoint(float(value), rate, msd,
                                 10.0 * math.log10(msd), False))
    return points
