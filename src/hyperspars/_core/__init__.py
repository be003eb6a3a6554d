"""The max-flow kernel: Dinic with capacity scaling, in pure Python.

``_impl`` and ``HAVE_COMPILED`` name the kernel for benchmark provenance;
there is no compiled kernel.
"""

from . import _maxflow_py as _impl

HAVE_COMPILED = False
max_flow_arrays = _impl.max_flow_arrays

__all__ = ["max_flow_arrays", "HAVE_COMPILED"]
