"""The max-flow kernel: Dinic with capacity scaling.

``_maxflow.c`` is the kernel.  It is compiled on first import with the
system C compiler and called through ctypes (``_maxflow_c``).  Where no
library can be built or loaded, ``_maxflow_py`` runs instead: the
pure-Python reference that the C file ports line for line, with the same
results bit for bit.  Only what the platform provides decides between them.

``_impl`` and ``HAVE_COMPILED`` name the kernel that runs, for benchmark
provenance.
"""

from . import _maxflow_py

try:
    from . import _maxflow_c as _impl
except ImportError:
    _impl = _maxflow_py

HAVE_COMPILED = _impl is not _maxflow_py
max_flow_arrays = _impl.max_flow_arrays

__all__ = ["max_flow_arrays", "HAVE_COMPILED"]
