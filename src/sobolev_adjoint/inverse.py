"""Iterative and variational regularization built on the smoothing adjoint.

A linear problem couples a forward map G on L2 with an optional embedding,
any backend's ``adjoint_linop``, whose ``apply`` is the smoother E^*.
Seeking the solution in the space E^* maps into replaces G* by
smooth(G*(.)), and Landweber iterates

    u_{k+1} = u_k + step * smooth(G*(y - G u_k)),      u_0 = 0,

and the Hilbert-scale variant is the same loop with the smoother w(k)^(a-1)
in place of w(k)^(-1) (a = 0 reproduces the embedded iteration, a = 1 the
plain L2 iteration).  The default step 0.9 / ||A||^2 is estimated for the
operator A = smooth(G* G .) actually iterated, so for the Hilbert-scale
variant it is sized for the preconditioned operator; ||A|| comes from a
Lanczos iteration that stops once its top Ritz value settles.  The Tikhonov
normal equation

    smooth(G* G u) + alpha u = smooth(G* y)

is solved by damped CGLS on L2 products with the smoother, since
<E* g, E* h> = <g, smooth h> in the embedding's space.  Its minimizer lies in
the range of the smoothing operator: u = (1/alpha) smooth(G* y - G* G u).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (GridFn, LinOp, _require_counts, _require_nonnegative_finite,
                   _require_positive_finite, inner, l2_norm)
from .multiplier import SobolevSpec, adjoint_linop

__all__ = [
    "InverseProblem",
    "IterationLog",
    "DiscrepancyStop",
    "DivergenceError",
    "StoppingRuleNotMet",
    "add_noise",
    "estimate_operator_norm",
    "landweber",
    "landweber_hilbert_scale",
    "tikhonov",
]


class _SolveFailure(RuntimeError):
    """A solve that ended without a result; carries its log."""

    def __init__(self, message: str, log: "IterationLog"):
        super().__init__(message)
        self.log = log


class DivergenceError(_SolveFailure):
    """Residual grew tenfold over its start or is not finite."""


class StoppingRuleNotMet(_SolveFailure):
    """The discrepancy threshold was never reached within the iteration budget."""


@dataclass(frozen=True)
class DiscrepancyStop:
    """Stop at the first residual at or below tau * delta (tau slightly above 1)."""

    tau: float = 1.01

    def __post_init__(self):
        if not 1.0 < self.tau < np.inf:
            raise ValueError(f"tau={self.tau} must exceed 1 and be finite")


@dataclass(frozen=True)
class InverseProblem:
    """Forward operator, noisy data, noise level and optional embedding.

    ``forward`` maps grid functions on its domain to its codomain, where
    ``data`` lives (its L2 adjoint comes with it); ``embedding``, E^* on that
    domain, switches the solvers to its space (None keeps plain L2).
    """

    forward: LinOp
    data: GridFn
    noise_level: float = 0.0
    embedding: Optional[LinOp] = None

    def __post_init__(self):
        _require_nonnegative_finite(noise_level=self.noise_level)
        if self.embedding is not None and self.embedding.domain != self.forward.domain:
            raise ValueError("the embedding must act on the forward map's domain")

    def smooth(self, u: GridFn) -> GridFn:
        if self.embedding is None:
            return u
        return self.embedding.apply(u)


@dataclass
class IterationLog:
    """Residual history, plus the default step and the operator-norm estimate
    it came from (both None when the caller passed a step)."""

    residuals: list[float] = field(default_factory=list)
    step: Optional[float] = None
    norm_estimate: Optional[float] = None


def add_noise(y: GridFn, rel: float, seed: int):
    """Additive uniform noise rescaled to an exact relative data-norm level.

    Returns the perturbed data and the absolute noise level rel * ||y||.
    """
    _require_nonnegative_finite(rel=rel)
    if rel == 0.0:
        return y, 0.0
    y_norm = l2_norm(y)
    if y_norm == 0.0:
        raise ValueError("cannot scale noise relative to zero data")
    rng = np.random.default_rng(seed)
    eta = rng.uniform(-1.0, 1.0, size=y.values.shape)
    noisy = y.with_values(y.values + eta * (rel * y_norm
                                            / l2_norm(y.with_values(eta))))
    return noisy, rel * y_norm


_LANCZOS_STEPS = 30
_RITZ_RTOL = 1e-14
_POWER_SEED = 7071


def estimate_operator_norm(problem: InverseProblem) -> float:
    """||A|| for A = smooth(G* G .), by Lanczos on M = G smooth(G* .).

    M acts on the data grid and is symmetric in its L2 inner product for
    every embedding, since smooth = E E*; its nonzero eigenvalues are those
    of A.  The iteration starts from a seed-fixed random vector and stops
    once the top Ritz value changes by at most ``_RITZ_RTOL`` relative, or
    the Krylov space is invariant up to that tolerance, after at most
    ``_LANCZOS_STEPS`` products.  Ritz values lie inside the spectrum, so
    the estimate never exceeds ||A|| beyond rounding.  Only the top Ritz
    value is used, so the basis is not reorthogonalized.
    """
    fw = problem.forward
    rng = np.random.default_rng(_POWER_SEED)
    q = GridFn(fw.codomain, rng.standard_normal(fw.codomain.grid_size))
    q = q * (1.0 / l2_norm(q))
    q_prev, beta, alphas, betas, top = 0.0 * q, 0.0, [], [], 0.0
    for _ in range(_LANCZOS_STEPS):
        w = fw.apply(problem.smooth(fw.apply_adjoint(q)))
        alphas.append(inner(w, q).real)
        w = w - alphas[-1] * q - beta * q_prev
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        prev, top = top, np.linalg.eigvalsh(tri)[-1]
        beta = l2_norm(w)
        if beta <= _RITZ_RTOL * top or abs(top - prev) <= _RITZ_RTOL * top:
            break
        betas.append(beta)
        q_prev, q = q, w * (1.0 / beta)
    return float(np.sqrt(top))


def landweber(problem: InverseProblem, step: Optional[float] = None,
              max_iter: int = 100, stop: Optional[DiscrepancyStop] = None):
    """Gradient descent on the residual, smoothing the gradient each step.

    The step defaults to 0.9 / ||A||^2 for the iterated operator
    A = smooth(G* G .), with the norm from ``estimate_operator_norm``; the
    log then records both.  For linear forward maps the residual decreases
    monotonically for any step below 2 / ||A||^2.  A residual norm that is
    not finite, or ten times the start's, raises ``DivergenceError``.
    """
    if step is not None:
        _require_positive_finite(step=step)
    _require_counts(0, max_iter=max_iter)
    threshold = None
    if stop is not None:
        if problem.noise_level <= 0:
            raise ValueError("discrepancy stopping needs a positive noise level")
        threshold = stop.tau * problem.noise_level
    log = IterationLog()
    if step is None:
        log.norm_estimate = estimate_operator_norm(problem)
        if log.norm_estimate == 0.0:
            raise ValueError(f"operator norm estimate {log.norm_estimate} leaves no "
                             "default step: smooth(G* G .) vanishes; pass a step")
        step = log.step = 0.9 / log.norm_estimate ** 2
    fw, y = problem.forward, problem.data
    u = GridFn(fw.domain, np.zeros(fw.domain.grid_size))
    # not r = y: perfbench's traced stop index counts this forward, then one per step
    r = y - fw.apply(u)
    log.residuals.append(l2_norm(r))
    if not np.isfinite(log.residuals[0]):
        raise DivergenceError("landweber residual is not finite", log)
    if threshold is not None and log.residuals[0] <= threshold:
        return u, log
    for _ in range(max_iter):
        u = u + step * problem.smooth(fw.apply_adjoint(r))
        r = y - fw.apply(u)
        log.residuals.append(l2_norm(r))
        if not log.residuals[-1] <= 10.0 * log.residuals[0]:  # NaN fails too
            raise DivergenceError("landweber residual grew tenfold or is not finite", log)
        if threshold is not None and log.residuals[-1] <= threshold:
            return u, log
    if threshold is not None:
        raise StoppingRuleNotMet(
            f"residual never reached {threshold:.3e} in {max_iter} iterations", log)
    return u, log


def landweber_hilbert_scale(problem: InverseProblem, spec: SobolevSpec, a: float,
                            step: Optional[float] = None, max_iter: int = 100,
                            stop: Optional[DiscrepancyStop] = None):
    """``landweber`` with the multiplier smoother w(k)^(a-1) of ``spec`` in place
    of the problem's embedding: a = 0 is the embedded iteration, a = 1 the
    plain L2 one.  The default step is sized for the operator iterated."""
    if not -1.0 <= a <= 1.0:
        raise ValueError("scale exponent a must lie in [-1, 1]")
    emb = adjoint_linop(problem.forward.domain, spec, 1.0 - a)
    return landweber(replace(problem, embedding=emb), step, max_iter, stop)


def tikhonov(problem: InverseProblem, alpha: float, tol: float = 1e-12) -> GridFn:
    """Solve smooth(G* G u) + alpha u = smooth(G* y) by damped CGLS.

    u = smooth(z) is kept beside z and the data residual r = y - G u.  The
    equation's residual is smooth(g), g = G* r - alpha z, of embedding norm^2
    <g, smooth g>; the loop stops once that norm is ``tol`` times its start,
    and raises when it is not finite or has not fallen within 10 n steps.
    """
    _require_positive_finite(alpha=alpha, tol=tol)
    fw, r = problem.forward, problem.data
    q = fw.apply_adjoint(r)
    p = problem.smooth(q)
    u = z = 0.0 * p
    gamma = gamma0 = inner(q, p).real
    for _ in range(10 * p.values.size):
        if not np.isfinite(gamma):
            raise RuntimeError(f"damped CGLS residual norm^2 {gamma} is not finite")
        if gamma <= tol * tol * gamma0:  # sqrt(gamma) <= tol sqrt(gamma0)
            return u
        w = fw.apply(p)
        step = gamma / (inner(w, w).real + alpha * inner(q, p).real)
        u, z, r = u + step * p, z + step * q, r - step * w
        g = fw.apply_adjoint(r) - alpha * z
        s = problem.smooth(g)
        gamma_prev, gamma = gamma, inner(g, s).real
        q, p = g + (gamma / gamma_prev) * q, s + (gamma / gamma_prev) * p
    raise RuntimeError("damped CGLS did not converge for the regularized normal equation")
