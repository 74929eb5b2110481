"""Runtime loader for the native C kernels.

:mod:`repro.codegen.native` generates one C translation unit per
program; this module turns that text into callable per-node functions:

- **content-addressed builds** — the shared library lands in
  ``<cache root>/native/<key>.so`` where the key hashes the generated
  source together with the compiler identity, the flags, and the ABI
  version (:data:`repro.codegen.native.NATIVE_VERSION`). A warm run —
  or a second process on the same host — never re-invokes the
  compiler; it just ``dlopen``\\ s the existing artifact. The ``.c``
  source is kept beside the ``.so`` for debuggability. The cache is
  relocatable: nothing in the key or the artifact mentions absolute
  paths, only content.
- **cffi ABI mode** — ``ffi.cdef`` + ``ffi.dlopen``; no ``Python.h``
  and no compile-against-CPython step. Crucially, cffi releases the
  GIL for the duration of every C call, which is what lets sharded
  ``backend=native`` runs execute shard loops genuinely in parallel on
  one interpreter (see :mod:`repro.simd.shards`).
- **graceful degradation** — :func:`unavailable_reason` is the single
  availability seam (cffi importable, a C compiler on ``PATH``, not
  killed via ``REPRO_NATIVE_DISABLE=1``); the machine checks it before
  selecting the backend and falls back to ``kernels`` with a
  ``RuntimeWarning`` when it is set. Build failures raise
  :class:`NativeBuildError`, which the machine treats the same way. An
  existing artifact that fails to load is deleted and rebuilt once;
  only a fresh build that still fails to load raises.

A wrapper call hands the C function raw array pointers (row strides in
elements), so a :class:`~repro.simd.shards.ShardView` — whose column
slices keep the full-array row stride — works exactly like the full
state. A nonzero return code raises :class:`NativeKernelError`; the
machine replays the run on the ``kernels`` backend to reconstruct the
exact :class:`~repro.errors.MachineError` (simulation is
deterministic, and state is discarded on error).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.codegen.native import NATIVE_ERROR_MESSAGES, NATIVE_VERSION

#: Compile flags (part of the shared-library cache key). ``-fwrapv``
#: pins signed-integer wraparound to the two's-complement behavior the
#: NumPy oracle exhibits.
CFLAGS = ("-O2", "-fPIC", "-fwrapv", "-shared")

#: Linker inputs (``trunc`` needs libm on some toolchains).
LDFLAGS = ("-lm",)


class NativeBuildError(Exception):
    """The C compiler was present but the build failed; the machine
    falls back to the ``kernels`` backend with a RuntimeWarning."""


class NativeKernelError(Exception):
    """A native kernel reported a failing lane. Carries the error code;
    the authoritative message comes from the kernels-backend replay."""

    def __init__(self, code: int):
        self.code = int(code)
        msg = NATIVE_ERROR_MESSAGES.get(self.code, "unknown native error")
        super().__init__(f"native kernel error {self.code}: {msg}")


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def unavailable_reason() -> str | None:
    """Why ``backend=native`` cannot run here, or ``None`` when it can.
    The single availability seam — tests monkeypatch the pieces this
    checks (``REPRO_NATIVE_DISABLE``, cffi import, compiler lookup)."""
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return "native kernels disabled via REPRO_NATIVE_DISABLE"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not importable"
    if _find_cc() is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    return None


def native_available() -> bool:
    return unavailable_reason() is None


_compiler_id: str | None = None


def compiler_id() -> str:
    """Identity of the toolchain (path + version line) — part of the
    shared-library cache key so a compiler upgrade rebuilds."""
    global _compiler_id
    if _compiler_id is None:
        cc = _find_cc()
        if cc is None:
            raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")
        try:
            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=30)
            version = (out.stdout or out.stderr).splitlines()[0].strip()
        except (OSError, subprocess.TimeoutExpired, IndexError):
            version = "unknown"
        _compiler_id = f"{cc} {version}"
    return _compiler_id


def native_cache_dir() -> Path:
    """Where compiled shared libraries live — a sibling namespace of
    the pickled-bundle cache under the same root (and therefore under
    the same ``REPRO_MSC_CACHE`` override)."""
    from repro.stages.cache import default_cache_root

    return default_cache_root() / "native"


def artifact_key(nat) -> str:
    """Content address of the built artifact: source digest + compiler
    identity + flags + ABI version."""
    blob = "\x00".join([
        nat.digest(),
        compiler_id(),
        " ".join(CFLAGS + LDFLAGS),
        str(NATIVE_VERSION),
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


def build_shared(nat) -> Path:
    """Compile ``nat``'s C source into the content-addressed shared
    library (or return the already-built artifact). Atomic: concurrent
    builders race benignly via ``os.replace``."""
    cc = _find_cc()
    if cc is None:
        raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")
    key = artifact_key(nat)
    root = native_cache_dir()
    so_path = root / f"{key}.so"
    if so_path.exists():
        return so_path
    root.mkdir(parents=True, exist_ok=True)
    c_path = root / f"{key}.c"
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".c")
    with os.fdopen(fd, "w") as fh:
        fh.write(nat.c_source)
    os.replace(tmp, c_path)
    fd, tmp_so = tempfile.mkstemp(dir=root, suffix=".so")
    os.close(fd)
    cmd = [cc, *CFLAGS, str(c_path), "-o", tmp_so, *LDFLAGS]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        raise NativeBuildError(
            f"{' '.join(cmd)} failed:\n{proc.stderr.strip()}")
    os.replace(tmp_so, so_path)
    return so_path


#: digest -> (ffi, lib, fns): keeps the dlopen'd library alive for the
#: process and avoids re-opening per machine.
_loaded: dict = {}


def load_native(nat) -> dict:
    """``entry meta state -> callable`` for every node of ``nat``,
    building and/or dlopening the shared library on first use. The
    callables have the kernel signature ``fn(pc, st) -> (body_cycles,
    transition_cycles, enabled_pe_cycles, exited)`` and release the GIL
    while the C code runs."""
    cached = _loaded.get(nat.digest())
    if cached is not None:
        return cached[2]
    import cffi

    so_path = build_shared(nat)
    ffi = cffi.FFI()
    ffi.cdef(nat.cdef())
    try:
        lib = ffi.dlopen(str(so_path))
    except OSError:
        # A corrupt artifact (truncated by a crashed writer or a full
        # disk) would otherwise fail every later load: drop it and
        # build once more.
        so_path.unlink(missing_ok=True)
        so_path = build_shared(nat)
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as err:
            raise NativeBuildError(
                f"cannot load rebuilt {so_path.name}: {err}") from err
    fns = {key: _make_wrapper(ffi, getattr(lib, name))
           for key, name in nat.entry_names.items()}
    _loaded[nat.digest()] = (ffi, lib, fns)
    return fns


def _make_wrapper(ffi, cfn):
    cast = ffi.cast

    def call(pc, st):
        n = pc.shape[0]
        # Per-call scratch: sharded runs call wrappers concurrently, so
        # nothing here may be shared across threads.
        scratch = np.empty(n, dtype=np.int64)
        out = np.empty(4, dtype=np.int64)
        rc = cfn(
            cast("int64_t *", pc.ctypes.data), n,
            cast("double *", st.stack.ctypes.data),
            st.stack.strides[0] // 8, st.stack.shape[0],
            cast("int64_t *", st.sp.ctypes.data),
            cast("double *", st.rstack.ctypes.data),
            st.rstack.strides[0] // 8, st.rstack.shape[0],
            cast("int64_t *", st.rsp.ctypes.data),
            cast("double *", st.poly.ctypes.data),
            st.poly.strides[0] // 8,
            cast("double *", st.mono.ctypes.data),
            cast("double *", st.pids.ctypes.data),
            st.npes,
            cast("int64_t *", scratch.ctypes.data),
            cast("int64_t *", out.ctypes.data),
        )
        if rc:
            raise NativeKernelError(rc)
        return int(out[0]), int(out[1]), int(out[2]), bool(out[3])

    return call
