"""Iterative and variational regularization built on the smoothing adjoint.

A linear problem couples a forward map G on L2 with an optional smoothness
order s: seeking the solution in the order-s space replaces the L2 adjoint
G* by smooth(G*(.)), where smooth is the adjoint embedding realized by any
backend (the spectral multiplier by default).  Landweber then iterates

    u_{k+1} = u_k + step * smooth(G*(y - G u_k)),      u_0 = 0,

and the Hilbert-scale variant is the same loop with the smoother w(k)^(a-1)
in place of w(k)^(-1) (a = 0 reproduces the embedded iteration, a = 1 the
plain L2 iteration).  The default step 0.9 / ||A||^2 is estimated for the
operator A = smooth(G* G .) actually iterated, so for the Hilbert-scale
variant it is sized for the preconditioned operator.  The Tikhonov normal
equation

    smooth(G* G u) + alpha u = smooth(G* y)

is solved by conjugate gradients in the order-s inner product, in which the
operator is symmetric positive definite.  Its minimizer lies in the range
of the smoothing operator: u = (1/alpha) smooth(G* y - G* G u).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import GridFn, LinOp, inner, l2_norm
from .multiplier import SobolevSpec, adjoint_embedding, hilbert_scale_apply, \
    sobolev_inner

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


class DivergenceError(RuntimeError):
    """Residual grew by 10x over its start; carries the iteration log."""

    def __init__(self, message: str, log: "IterationLog"):
        super().__init__(message)
        self.log = log


class StoppingRuleNotMet(RuntimeError):
    """The discrepancy threshold was never reached within the iteration budget."""

    def __init__(self, message: str, log: "IterationLog"):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class DiscrepancyStop:
    """Stop at the first residual at or below tau * delta (tau slightly above 1)."""

    tau: float = 1.01

    def __post_init__(self):
        if self.tau <= 1.0:
            raise ValueError("tau must exceed 1")


@dataclass(frozen=True)
class InverseProblem:
    """Forward operator, noisy data, noise level and optional smoothness order.

    ``forward`` maps grid functions on its domain to its codomain, where
    ``data`` lives (its L2 adjoint comes with it); ``embedding`` switches the
    solvers to the order-s geometry; ``smoother`` overrides the default
    multiplier backend with any callable realizing the adjoint embedding
    for that order.
    """

    forward: LinOp
    data: GridFn
    noise_level: float = 0.0
    embedding: Optional[SobolevSpec] = None
    smoother: Optional[Callable[[GridFn], GridFn]] = None

    def __post_init__(self):
        if self.noise_level < 0:
            raise ValueError("noise level must be >= 0")

    def smooth(self, u: GridFn) -> GridFn:
        if self.embedding is None:
            return u
        if self.smoother is not None:
            return self.smoother(u)
        return adjoint_embedding(u, self.embedding)

    def solution_inner(self, a: GridFn, b: GridFn) -> complex:
        if self.embedding is None:
            return inner(a, b)
        return sobolev_inner(a, b, self.embedding)


@dataclass
class IterationLog:
    residuals: list[float] = field(default_factory=list)


def add_noise(y: GridFn, rel: float, seed: int):
    """Additive uniform noise rescaled to an exact relative data-norm level.

    Returns the perturbed data and the absolute noise level rel * ||y||.
    """
    if rel < 0:
        raise ValueError("relative noise level must be >= 0")
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


_POWER_ITERS = 30
_POWER_SEED = 7071


def estimate_operator_norm(problem: InverseProblem) -> float:
    """Power iteration on the normal operator smooth(G* G .); returns ||A||."""
    dom = problem.forward.domain
    rng = np.random.default_rng(_POWER_SEED)
    v = GridFn(dom, rng.standard_normal(dom.grid_size))
    lam = 0.0
    for _ in range(_POWER_ITERS):
        w = problem.smooth(problem.forward.apply_adjoint(problem.forward.apply(v)))
        lam = l2_norm(w) / l2_norm(v)
        v = w * (1.0 / l2_norm(w))
    return float(np.sqrt(lam))


def landweber(problem: InverseProblem, step: Optional[float] = None,
              max_iter: int = 100, stop: Optional[DiscrepancyStop] = None):
    """Gradient descent on the residual, smoothing the gradient each step.

    The step defaults to 0.9 / ||A||^2 for the iterated operator
    A = smooth(G* G .), with the norm estimated by 30 power iterations from
    a seed-fixed start; for linear forward maps the residual decreases
    monotonically for any step below 2 / ||A||^2.
    """
    threshold = None
    if stop is not None:
        if problem.noise_level <= 0:
            raise ValueError("discrepancy stopping needs a positive noise level")
        threshold = stop.tau * problem.noise_level
    if step is None:
        step = 0.9 / estimate_operator_norm(problem) ** 2
    fw, y = problem.forward, problem.data
    u = GridFn(fw.domain, np.zeros(fw.domain.grid_size))
    r = y - fw.apply(u)
    log = IterationLog([l2_norm(r)])
    if threshold is not None and log.residuals[0] <= threshold:
        return u, log
    for _ in range(max_iter):
        u = u + step * problem.smooth(fw.apply_adjoint(r))
        r = y - fw.apply(u)
        log.residuals.append(l2_norm(r))
        if log.residuals[-1] > 10.0 * log.residuals[0]:
            raise DivergenceError("landweber residual grew tenfold", log)
        if threshold is not None and log.residuals[-1] <= threshold:
            return u, log
    if threshold is not None:
        raise StoppingRuleNotMet(
            f"residual never reached {threshold:.3e} in {max_iter} iterations", log)
    return u, log


def landweber_hilbert_scale(problem: InverseProblem, a: float,
                            step: Optional[float] = None, max_iter: int = 100,
                            stop: Optional[DiscrepancyStop] = None):
    """Landweber preconditioned along the smoothness scale.

    This is ``landweber`` with the smoother w(k)^(a-1) in place of the
    adjoint embedding w(k)^(-1): a = 0 is the embedded iteration, a = 1
    cancels the smoothing and recovers the plain L2 iteration on G.  The
    default step is sized for the preconditioned operator that is iterated.
    The scale is the multiplier's weight w(k), so a problem with a custom
    ``smoother`` is rejected: its a = 0 iterate would not be the embedded
    iteration of that backend.
    """
    if problem.embedding is None:
        raise ValueError("hilbert-scale iteration needs an embedding order")
    if problem.smoother is not None:
        raise ValueError("hilbert-scale iteration uses the multiplier weights; "
                         "a custom smoother is not supported")
    if not -1.0 <= a <= 1.0:
        raise ValueError("scale exponent a must lie in [-1, 1]")
    spec = problem.embedding
    scaled = replace(problem, smoother=lambda v: hilbert_scale_apply(v, spec, a - 1.0))
    return landweber(scaled, step, max_iter, stop)


def tikhonov(problem: InverseProblem, alpha: float, tol: float = 1e-12) -> GridFn:
    """Solve smooth(G* G u) + alpha u = smooth(G* y) by conjugate gradients.

    The operator is symmetric positive definite in the order-s inner
    product, in which CG runs; the returned minimizer satisfies the stated
    equation to a relative residual below 1e-10.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    fw = problem.forward

    def op(v: GridFn) -> GridFn:
        return problem.smooth(fw.apply_adjoint(fw.apply(v))) + alpha * v

    b = problem.smooth(fw.apply_adjoint(problem.data))
    dot = lambda p, q: problem.solution_inner(p, q).real
    n = b.values.size
    x = b.with_values(np.zeros(n))
    r = b - op(x)
    p = r
    rr = dot(r, r)
    b_norm = np.sqrt(dot(b, b))
    if b_norm == 0.0:
        return x
    for _ in range(10 * n):
        if np.sqrt(rr) <= tol * b_norm:
            return x
        Ap = op(p)
        alpha_cg = rr / dot(p, Ap)
        x = x + alpha_cg * p
        r = r - alpha_cg * Ap
        rr_new = dot(r, r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise RuntimeError("conjugate gradients did not converge for the "
                       "regularized normal equation")
