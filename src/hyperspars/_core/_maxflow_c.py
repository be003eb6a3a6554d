"""The compiled max-flow kernel: ``_maxflow.c`` loaded through ctypes.

Importing this module builds ``_maxflow.c`` with the system C compiler
(``sysconfig``'s ``CC``, else ``cc``) unless a build of the same source is
cached, and raises ``ImportError`` when no library can be built or loaded.
A build goes to ``__pycache__`` next to this file or, where that cannot be
written, to a per-user directory under ``tempfile.gettempdir()``.  Its file
name carries the SHA-256 of the source and the compiler flags, and it is
written to a temporary name first and then renamed, so concurrent imports
never load a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

__all__ = ["max_flow_arrays"]

SOURCE = Path(__file__).with_name("_maxflow.c")
# -ffp-contract=off keeps every multiply and add rounded on its own, as in
# Python; fast-math would reorder them
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _user_tmp_dir(create: bool) -> Path | None:
    """The per-user build directory under the temp dir, or None where it
    is missing or not this user's alone."""
    import stat
    import tempfile

    if not hasattr(os, "getuid"):  # no POSIX owners to check
        return None
    path = Path(tempfile.gettempdir()) / f"hyperspars-{os.getuid()}"
    try:
        if create:
            path.mkdir(mode=0o700, exist_ok=True)
        st = path.lstat()
    except OSError:
        return None
    # another user could plant a library in a shared directory
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def _build(cc: list[str], target: Path) -> bool:
    """Compile the source to ``target``; False if that fails."""
    import subprocess
    import tempfile

    tmp = None
    try:
        target.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + "-", suffix=".tmp", dir=target.parent)
        os.close(fd)
        subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _find_or_build(name: str) -> Path:
    """A fresh build in ``__pycache__``, else a cached or fresh one in the
    per-user directory, which is only made when there is a compiler."""
    import shlex
    import shutil
    import sysconfig

    cc = next(
        (cmd for cmd in map(shlex.split, (sysconfig.get_config_var("CC") or "", "cc"))
         if cmd and shutil.which(cmd[0])),
        None,
    )
    pycache = SOURCE.with_name("__pycache__") / name
    if cc is not None and _build(cc, pycache):
        return pycache
    user_dir = _user_tmp_dir(create=cc is not None)
    if user_dir is not None and (user_dir / name).is_file():
        return user_dir / name
    if cc is None:
        raise ImportError("no C compiler to build the max-flow kernel")
    if user_dir is not None and _build(cc, user_dir / name):
        return user_dir / name
    raise ImportError("the max-flow kernel could not be built")


def _load() -> ctypes.CDLL:
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise ImportError(f"no max-flow kernel source: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()
    # not the name of a Python module, which the import system could take
    # for an extension module
    name = f"maxflow-{digest[:32]}.so"
    path = SOURCE.with_name("__pycache__") / name
    if not path.is_file():
        # only a first import builds, so it alone pays for these imports
        path = _find_or_build(name)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"the max-flow kernel could not be loaded: {exc}") from exc
    int32_p = ctypes.POINTER(ctypes.c_int32)
    double_p = ctypes.POINTER(ctypes.c_double)
    lib.hs_max_flow.argtypes = [
        ctypes.c_int, ctypes.c_int, int32_p, int32_p, double_p,
        ctypes.c_int, ctypes.c_int, ctypes.c_double,
        double_p, double_p, ctypes.POINTER(ctypes.c_uint8),
    ]
    lib.hs_max_flow.restype = ctypes.c_int
    return lib


_lib = _load()
_kernel = _lib.hs_max_flow


def max_flow_arrays(n_nodes, arc_from, arc_to, cap, s, t, eps=1e-12):
    """Maximum s-t flow via Dinic with capacity scaling, in C.

    Takes and returns what ``_maxflow_py.max_flow_arrays`` does, and
    returns the same values bit for bit.  The arcs are copied into ctypes
    buffers, which costs less per call than handing numpy's pointers over.
    """
    frm = np.ascontiguousarray(arc_from, dtype=np.int32)
    to = np.ascontiguousarray(arc_to, dtype=np.int32)
    cp = np.ascontiguousarray(cap, dtype=np.float64)
    na = len(frm)
    if frm.shape != (na,) or to.shape != (na,) or cp.shape != (na,):
        raise ValueError("arc_from, arc_to and cap must be 1-D and of one length")
    if na >= 2**30 or not 0 < n_nodes < 2**31:
        raise ValueError("too many arcs or nodes for the compiled kernel")
    flow = (ctypes.c_double * na)()
    reach = (ctypes.c_uint8 * n_nodes)()
    value = ctypes.c_double()
    status = _kernel(
        n_nodes, na,
        (ctypes.c_int32 * na).from_buffer_copy(frm),
        (ctypes.c_int32 * na).from_buffer_copy(to),
        (ctypes.c_double * na).from_buffer_copy(cp),
        s, t, eps, ctypes.byref(value), flow, reach,
    )
    if status == 1:
        raise ValueError("a node index is out of range")
    if status:
        raise MemoryError("the max-flow kernel ran out of memory")
    return (
        value.value,
        np.frombuffer(flow, dtype=np.float64),
        np.frombuffer(reach, dtype=np.bool_),
    )
