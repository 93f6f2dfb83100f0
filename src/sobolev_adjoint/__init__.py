"""Numerical representations of the adjoint Sobolev embedding operator.

The operator that maps an L2 function back into an order-s smoothness
space is realized through five interchangeable backends (Fourier
multiplier, Bessel-kernel convolution, wavelet scaling, boundary-value
solve, truncated singular system) plus a finite-dimensional Gram-matrix
form, and is applied inside Landweber/Tikhonov regularization, including a
desk-scale Radon tomography experiment.

Submodules: ``core`` (grids, FFT, inner products, operators),
``multiplier``, ``kernel``, ``wavelet``, ``bvp``, ``spectral``,
``discrete``, ``inverse``, ``radon``, ``cli``.
"""

from .core import (
    Domain,
    DomainKind,
    GridFn,
    LinOp,
    check_adjoint,
    fft_forward,
    fft_inverse,
    inner,
    l2_norm,
)
from .multiplier import (
    NormVariant,
    SobolevSpec,
    adjoint_embedding,
    bessel_potential,
    sobolev_inner,
    sobolev_norm,
)
from .inverse import (
    DiscrepancyStop,
    InverseProblem,
    add_noise,
    landweber,
    landweber_hilbert_scale,
    tikhonov,
)
from .radon import RadonGeometry, RadonOperator, shepp_logan, smooth_phantom

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "DomainKind",
    "GridFn",
    "LinOp",
    "NormVariant",
    "SobolevSpec",
    "DiscrepancyStop",
    "InverseProblem",
    "RadonGeometry",
    "RadonOperator",
    "add_noise",
    "adjoint_embedding",
    "bessel_potential",
    "check_adjoint",
    "fft_forward",
    "fft_inverse",
    "inner",
    "l2_norm",
    "landweber",
    "landweber_hilbert_scale",
    "shepp_logan",
    "smooth_phantom",
    "sobolev_inner",
    "sobolev_norm",
    "tikhonov",
    "__version__",
]
