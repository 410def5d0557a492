"""The reusable halo-exchange stencil core.

Everything the Jacobi-style apps share, parameterized by dimensionality:

* :mod:`~repro.apps.stencil.geometry` — surface-minimizing N-D block
  decomposition (:class:`BlockGeometry`);
* :mod:`~repro.apps.stencil.config` — :class:`StencilConfig` /
  :class:`StencilResult`, the per-app config base with the ``app`` name in
  its serialized (and cache-key) form;
* :mod:`~repro.apps.stencil.context` — per-run state: block data, work
  models, metrics, residual history;
* :mod:`~repro.apps.stencil.charm_app` / :mod:`~repro.apps.stencil.
  rank_program` — the Charm++ chare and the MPI/AMPI rank program (paper
  Figs. 1, 3, 5), both dimension-agnostic;
* :mod:`~repro.apps.stencil.phases` — the declared phase vocabulary and
  trace classifier the observability layer consumes.

An app built on this core is one small module: subclass
:class:`StencilConfig` (name, dimensionality, default grid), pick a
boundary condition, and register an :class:`~repro.apps.registry.AppSpec` —
see ``docs/apps.md``.
"""

from .charm_app import make_block_class
from .config import ALL_VERSIONS, VERSIONS, StencilConfig, StencilResult
from .context import (
    BlockData,
    MetricsCollector,
    ResidualHistory,
    StencilContext,
    default_boundary,
)
from .geometry import BlockGeometry, factor_triples, factor_tuples, partition_dims
from .phases import STENCIL_PHASES, STENCIL_PHASE_KERNELS, classify_stencil_op
from .rank_program import make_rank_program

__all__ = [
    "ALL_VERSIONS",
    "VERSIONS",
    "StencilConfig",
    "StencilResult",
    "StencilContext",
    "BlockData",
    "MetricsCollector",
    "ResidualHistory",
    "default_boundary",
    "BlockGeometry",
    "factor_triples",
    "factor_tuples",
    "partition_dims",
    "STENCIL_PHASES",
    "STENCIL_PHASE_KERNELS",
    "classify_stencil_op",
    "make_block_class",
    "make_rank_program",
]
