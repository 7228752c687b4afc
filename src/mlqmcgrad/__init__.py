"""Multilevel quasi-Monte Carlo gradient estimation for an elliptic
tracking-control problem with lognormal random diffusion.

Subpackage layout:

- ``covariance``: Matern covariance kernels.
- ``circulant_field``: circulant-embedding sampling of the lognormal field.
- ``fem``: P1 finite elements, state/adjoint solves sharing one banded
  Cholesky factor.
- ``qmc``: rank-1 lattice rules, random shifting, inverse normal map.
- ``cbc``: embedded CBC construction of the default lattice vector.
- ``estimators``: MC/QMC/MLMC/MLQMC gradient estimators and allocation.
- ``cli``: configuration-driven experiment runner.

Imported before numpy, the package sets ``OPENBLAS_NUM_THREADS=1``
unless the environment already sets it.  Runs are single-threaded and
the per-sample vectors short (at most about 16k entries), so OpenBLAS
threads cost CPU time to wake without shortening the run.  OpenBLAS
reads the variable once, when numpy loads it, so
``OPENBLAS_NUM_THREADS`` below holds the value in effect (None: unset,
one thread per core), which runs record in ``timing.json``.
"""
import os
import sys

OPENBLAS_NUM_THREADS = (
    os.environ.get("OPENBLAS_NUM_THREADS") if "numpy" in sys.modules
    else os.environ.setdefault("OPENBLAS_NUM_THREADS", "1"))

from .covariance import MaternParams, MeanField, matern_cov
from .circulant_field import (
    CirculantEmbedding,
    FieldRealization,
    NestingViolation,
    PaddingExhausted,
    UniformGrid,
    build_embedding,
    eval_field,
    factor_row,
    restrict_to_coarse,
    sample_field,
)

__version__ = "0.1.0"
