"""Runtime loader and runner for the native C kernels.

:mod:`repro.codegen.native` generates one C translation unit per
program; this module builds it, loads it, and calls it:

- **content-addressed builds** — the shared library lands in
  ``<cache root>/native/<key>.so`` where the key hashes the generated
  source together with the compiler identity, the flags, and the ABI
  version (:data:`repro.codegen.native.NATIVE_VERSION`). A warm run —
  or a second process on the same host — never re-invokes the
  compiler; it just ``dlopen``\\ s the existing artifact. The ``.c``
  source is kept beside the ``.so`` for debuggability. The cache is
  relocatable: nothing in the key or the artifact mentions absolute
  paths, only content.
- **ctypes** — ``ctypes.CDLL`` opens the library: no ``Python.h``,
  no compile-against-CPython step and no declaration parser. Every
  library exports the same two entry points over one ``msc_ctx``
  struct, laid out by one field table
  (:data:`repro.codegen.native.CTX_FIELDS`) that prints the C typedef
  and builds :class:`Ctx`. Each library declares the int64
  ``argtypes`` and ``restype`` of ``msc_node`` once, and of
  ``msc_run`` when the program has the loop (only then does the
  library export it); undeclared, ctypes would pass and return C
  ``int``\\ s. A ``CDLL`` call releases the GIL while the C code runs,
  which is what lets sharded ``backend=native`` runs execute shard
  loops genuinely in parallel on one interpreter (see
  :mod:`repro.simd.shards`).
- **graceful degradation** — :func:`unavailable_reason` is the single
  availability seam (a C compiler on ``PATH``, not killed via
  ``REPRO_NATIVE_DISABLE=1``); the machine checks it before
  selecting the backend and falls back to ``kernels`` with a
  ``RuntimeWarning`` when it is set. Build failures raise
  :class:`NativeBuildError`, which the machine treats the same way. An
  existing artifact that fails to load is deleted and rebuilt once;
  only a fresh build that still fails to load raises.

Arguments are bound once, not per call: :func:`bind` fills one
:class:`Ctx` with the raw array pointers, the row strides (in
elements) and a ``pc0`` scratch of its own, for one run's state or one
:class:`~repro.simd.shards.ShardView` (whose column slices keep the
full-array row stride, so a view works exactly like the full state).
A serial run then makes one C call for the whole automaton
(:func:`run_program`); the per-node callables of :func:`load_native`
take a binding and make one call per meta step. A nonzero return code
raises :class:`NativeKernelError`; the machine replays the run on the
``kernels`` backend to reconstruct the exact
:class:`~repro.errors.MachineError` (simulation is deterministic, and
state is discarded on error).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.codegen.native import (CTX_FIELDS, NATIVE_ERROR_MESSAGES,
                                  NATIVE_VERSION)

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


#: The compiler path, found once per process.
_cc: str | None = None


def _find_cc() -> str | None:
    global _cc
    if _cc is None:
        _cc = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))),
                   None)
    return _cc


def unavailable_reason() -> str | None:
    """Why ``backend=native`` cannot run here, or ``None`` when it can.
    The single availability seam — tests monkeypatch the pieces this
    checks (``REPRO_NATIVE_DISABLE``, compiler lookup)."""
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return "native kernels disabled via REPRO_NATIVE_DISABLE"
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


#: C type of a ``msc_ctx`` field -> its ctypes type. Pointer fields
#: are ``c_void_p``: :func:`bind` stores raw buffer addresses.
_CTYPES = {
    "int64_t": ctypes.c_int64,
    "int64_t *": ctypes.c_void_p,
    "double *": ctypes.c_void_p,
    "int64_t[4]": ctypes.c_int64 * 4,
}


class Ctx(ctypes.Structure):
    """``msc_ctx``, laid out from
    :data:`~repro.codegen.native.CTX_FIELDS` like the C typedef."""

    _fields_ = [(name, _CTYPES[ctype]) for name, ctype in CTX_FIELDS]


_CTX_P = ctypes.POINTER(Ctx)
_I64 = ctypes.c_int64
_I64_P = ctypes.POINTER(_I64)

#: digest -> (lib, msc_run or None, fns): keeps the dlopen'd library
#: alive for the process and avoids re-opening per machine.
_loaded: dict = {}


def load_native(nat) -> dict:
    """``entry meta state -> callable`` for every node of ``nat`` that
    has a C function, building and/or dlopening the shared library on
    first use. A callable has the kernel signature with the run's
    binding in place of the state, ``fn(pc, bound) -> (body_cycles,
    transition_cycles, enabled_pe_cycles, exited)`` (``pc`` is already
    in ``bound``), and releases the GIL while the C code runs."""
    return _load(nat)[2]


def _load(nat) -> tuple:
    cached = _loaded.get(nat.digest())
    if cached is not None:
        return cached
    so_path = build_shared(nat)
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        # A corrupt artifact (truncated by a crashed writer or a full
        # disk) would otherwise fail every later load: drop it and
        # build once more.
        so_path.unlink(missing_ok=True)
        so_path = build_shared(nat)
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError as err:
            raise NativeBuildError(
                f"cannot load rebuilt {so_path.name}: {err}") from err
    node = lib.msc_node
    node.argtypes, node.restype = (_CTX_P, _I64), _I64
    run = None
    if nat.loop:
        run = lib.msc_run
        run.argtypes, run.restype = (_CTX_P, _I64, _I64_P, _I64_P), _I64
    fns = {key: _node_call(node, k) for key, k in nat.entry_index.items()}
    cached = _loaded[nat.digest()] = (lib, run, fns)
    return cached


def _node_call(node, k: int):
    def call(pc, bound):
        rc = node(bound.ctx, k)
        if rc:
            raise NativeKernelError(rc)
        body, tcost, enabled, exited = bound.out[:]
        return body, tcost, enabled, exited != 0

    return call


class Binding:
    """One run's (or one shard view's) C arguments: the :class:`Ctx`,
    its ``out`` counters, and the arrays its pointers point into (held
    so the pointers stay valid). Nothing in it is shared with another
    binding, so concurrent shards and runs need no locking."""

    __slots__ = ("ctx", "out", "_arrays")

    def __init__(self, ctx, arrays):
        self.ctx = ctx
        self.out = ctx.out
        self._arrays = arrays


def bind(pc: np.ndarray, st) -> Binding:
    """Bind ``pc`` and ``st`` (a :class:`~repro.simd.vecops.PeState` or
    a :class:`~repro.simd.shards.ShardView`) for the C functions, with
    a ``pc0`` scratch of their width."""
    typed = [(a, np.int64) for a in (pc, st.sp, st.rsp)] + [
        (a, np.float64)
        for a in (st.stack, st.rstack, st.poly, st.mono, st.pids)]
    if any(a.dtype != dt or (a.size and a.strides[-1] != 8)
           for a, dt in typed):
        raise ValueError("native kernels need int64 / float64 state "
                         "arrays with adjacent lanes")
    scratch = np.empty(pc.shape[0], dtype=np.int64)
    ctx = Ctx(pc=pc.ctypes.data, n=pc.shape[0],
              stack=st.stack.ctypes.data, s_str=st.stack.strides[0] // 8,
              s_rows=st.stack.shape[0], sp=st.sp.ctypes.data,
              rstack=st.rstack.ctypes.data,
              r_str=st.rstack.strides[0] // 8, r_rows=st.rstack.shape[0],
              rsp=st.rsp.ctypes.data, poly=st.poly.ctypes.data,
              p_str=st.poly.strides[0] // 8, mono=st.mono.ctypes.data,
              pids=st.pids.ctypes.data, npes=st.npes,
              pc0=scratch.ctypes.data)
    return Binding(ctx, (pc, st, scratch))


def run_program(nat, pc: np.ndarray, st, max_steps: int) -> tuple:
    """Run the whole automaton of ``nat`` (which must have
    :attr:`~repro.codegen.native.NativeProgram.loop`) on ``pc`` and
    ``st`` in one C call: ``((cycles, body_cycles, transition_cycles,
    enabled_pe_cycles, meta_transitions), visits)`` with ``visits[k]``
    the step count of node ``k``. A fault, the step budget and an
    unencoded aggregate raise :class:`NativeKernelError`."""
    run = _load(nat)[1]
    bound = bind(pc, st)
    acc = (_I64 * 5)()
    visits = (_I64 * len(nat.entry_index))()
    rc = run(bound.ctx, min(max_steps, 2**63 - 1), acc, visits)
    if rc:
        raise NativeKernelError(rc)
    return tuple(acc), visits[:]
