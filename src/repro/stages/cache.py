"""A versioned, content-addressed on-disk compile cache.

The stage pipeline's artifacts (:class:`~repro.ir.cfg.Cfg`,
:class:`~repro.core.metastate.MetaStateGraph`,
:class:`~repro.codegen.emit.SimdProgram` with its precompiled
:class:`~repro.codegen.plan.ProgramPlan`) are deterministic functions of

1. the MIMDC source text,
2. the :class:`~repro.pipeline.ConversionOptions` (including the cost
   model — it steers time splitting and CSI scheduling),
3. the compiler's own code (any module on the parse→plan path), and
4. the cache format version.

The cache key is a SHA-256 over all four, so a warm
:func:`~repro.pipeline.convert_source` skips parse-through-plan and a
stale entry can never be returned: editing the source, changing an
option, or changing the compiler itself all produce a new key.

Entries live under ``~/.cache/repro-msc`` by default (override with the
``REPRO_MSC_CACHE`` environment variable or the ``root`` argument),
sharded as ``v<version>/<key[:2]>/<key>.pkl``. The directory is safe to
delete at any time; unreadable or corrupt entries are dropped and the
compile falls back to a cold run. Payloads are pickles — treat the
cache directory with the same trust as the source tree (do not point it
at files written by parties you would not run code from).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: Bump when the artifact layout changes incompatibly (every old entry
#: is then invisible — old shards are simply never read again).
#: v4: cached programs carry the generated fused-kernel source
#: (``SimdProgram._kernels``).
#: v5: lazy compiles cache the :class:`~repro.core.convert.
#: ConversionEngine` snapshot (``CachedCompile.lazy_engine``) instead
#: of an eager program, so a warm lazy run resumes with every
#: previously discovered state already expanded.
#: v6: analyze-mode compiles run the meta-phase analyzers on lazy
#: bundles too (the incremental frontier verifier may grow the cached
#: engine snapshot), so v5 lazy entries are invalidated.
#: v7: the absint analyzers (MSC06x + certificates) joined the
#: analyze stages and ``-O2`` gained the ``uniform-branch`` meta pass,
#: so both analyzed and plain ``-O2`` artifacts change shape.
#: v8: programs carry the native C emission (``SimdProgram._native``,
#: generated by ``codegen/native.py``) in the bundle, so pre-v8
#: artifacts would silently lack it. The compiled shared library is
#: *not* in the bundle — it lives beside the cache under ``native/``,
#: keyed by source digest + compiler id + flags (host-local by
#: construction, so bundles stay relocatable).
#: v9: a lazy engine snapshot holds prepared states whose rows carry
#: only the arcs a run resolved, plus the engine's ``partial``,
#: ``multiway`` and ``resolved`` bookkeeping, which v8 snapshots lack.
#: v10: cached programs carry per-node kernel sources
#: (``KernelProgram.sources``) instead of one module text.
#: v11: eager analyzed bundles carry their diagnostics and analyze rows
#: (``CachedCompile.diagnostics`` / ``analysis``).
#: v12: programs carry ``Cfg.verify``'s entry-depth map
#: (``SimdProgram.entry_depths``), and an unbuilt kernel or native
#: emission is ``None`` instead of ``"unbuilt"``.
#: v13: kernels keep bool values and no ``sp`` (``KERNEL_VERSION`` 4,
#: ``NATIVE_VERSION`` 3), the entry-depth map says whether the program
#: pushes a return selector, and lazy analyzed bundles carry their
#: analysis.
#: v14: a kernel node with a one-member first segment carries a
#: full-width body (``KERNEL_VERSION`` 5).
CACHE_VERSION = 14

#: Top-level repro subpackages whose code determines compile output.
#: ``simd``/``mimd`` (simulators) and ``analysis``/``viz`` are runtime
#: consumers of the artifacts, not producers, so they do not invalidate.
#: ``lint`` is included because analyze-mode compiles can fail (and so
#: refuse to populate the cache) based on analyzer behavior; ``absint``
#: both feeds the lint verdict and steers the ``uniform-branch`` pass.
_COMPILER_PACKAGES = ("lang", "ir", "core", "csi", "hashenc", "opt",
                      "codegen", "stages", "lint", "verify", "absint")

#: Options that only matter when the analyze stage is enabled.  With
#: ``analyze`` off they cannot affect the artifacts, so they are left
#: out of the fingerprint and plain compiles share one cache entry
#: regardless of lint settings.
_LINT_OPTION_FIELDS = ("analyze", "werror", "lint_select", "lint_ignore",
                       "verify_budget")

#: Options that steer the *runtime* only, never any compiled artifact.
#: ``max_resident_meta`` bounds how many lazily compiled nodes stay
#: resident during execution — results, cycles, and every cacheable
#: artifact are identical for any value — so it never splits cache
#: entries. (``lazy`` itself *is* fingerprinted: lazy and eager
#: compiles cache different bundles.)
_RUNTIME_OPTION_FIELDS = ("max_resident_meta",)

_code_fingerprint_memo: str | None = None


def code_fingerprint() -> str:
    """SHA-256 of the compiler's own source files (computed once per
    process). Any edit to a module on the parse→plan path changes the
    fingerprint and therefore every cache key."""
    global _code_fingerprint_memo
    if _code_fingerprint_memo is None:
        pkg_root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        h.update(str(CACHE_VERSION).encode())
        for pkg in _COMPILER_PACKAGES:
            for path in sorted((pkg_root / pkg).glob("*.py")):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        _code_fingerprint_memo = h.hexdigest()
    return _code_fingerprint_memo


def _freeze(value) -> object:
    """A stable, hashable-repr projection of an options value."""
    if isinstance(value, dict):
        return sorted((str(k), _freeze(v)) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sorted(str(_freeze(v)) for v in value)
    return value


def options_fingerprint(options) -> str:
    """Canonical rendering of a :class:`ConversionOptions` (including
    the nested cost model) for key derivation."""
    from dataclasses import fields as dc_fields

    analyzing = bool(getattr(options, "analyze", False))
    parts = []
    for f in dc_fields(options):
        value = getattr(options, f.name)
        if f.name in _LINT_OPTION_FIELDS and not analyzing:
            continue
        if f.name in _RUNTIME_OPTION_FIELDS:
            continue
        if f.name == "costs":
            cost_parts = [
                (cf.name, _freeze(getattr(value, cf.name)))
                for cf in dc_fields(value)
            ]
            parts.append((f.name, cost_parts))
        else:
            parts.append((f.name, _freeze(value)))
    return repr(parts)


def compile_key(source: str, options) -> str:
    """The content hash addressing one compile in the cache."""
    h = hashlib.sha256()
    h.update(code_fingerprint().encode())
    h.update(b"\x00")
    h.update(options_fingerprint(options).encode())
    h.update(b"\x00")
    h.update(source.encode())
    return h.hexdigest()


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_MSC_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-msc"


@dataclass
class CachedCompile:
    """The serialized artifact bundle of one compile: everything the
    parse→plan stages produce. ``program`` carries its precompiled
    ``ProgramPlan`` inside, so a warm run goes straight to simulation.

    A compile with ``analyze`` on also stores what its analyzers
    found: ``diagnostics`` and ``analysis``, its ``analyze`` and
    ``analyze-meta`` stage records with their per-analyzer sub-rows,
    counters only (cached, 0.0 s). A hit replays them and runs no
    analyzer, so a hit never parses the source.

    Lazy compiles store ``program=None`` and ``lazy_engine`` instead:
    the pickled :class:`~repro.core.convert.ConversionEngine` whose
    graph holds every state conversion and the runs discovered (the
    CLI re-stores the bundle after a lazy run, keeping the analysis,
    so runtime discovery accumulates in the cache). The frontier
    verifier's walk explores a copy, so its states stay out. Plans and
    kernels are not stored — they re-JIT deterministically per node on
    resume."""

    cfg: object
    graph: object
    restarts: int
    program: object
    lazy_engine: object = None
    diagnostics: list = field(default_factory=list)
    analysis: tuple = ()


@dataclass
class CompileCache:
    """Content-addressed store of :class:`CachedCompile` bundles.

    ``hits`` / ``misses`` / ``stores`` / ``evictions`` count this
    instance's traffic (an eviction is a corrupt or unreadable entry
    dropped on load).
    """

    root: Path = field(default_factory=default_cache_root)
    version: int = CACHE_VERSION
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"v{self.version}" / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> CachedCompile | None:
        """The cached bundle for ``key``, or ``None``. Corrupt, stale,
        or unreadable entries are evicted and reported as a miss."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated write, pickle of an older class shape, or any
            # other corruption: drop the entry, recompile cold.
            self.evictions += 1
            self.misses += 1
            self._evict(path)
            return None
        if not isinstance(payload, CachedCompile):
            self.evictions += 1
            self.misses += 1
            self._evict(path)
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: CachedCompile) -> bool:
        """Atomically persist ``payload`` under ``key``. Best-effort:
        an unwritable cache directory disables caching, never the
        compile."""
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                self._evict(Path(tmp))
                raise
        except OSError:
            return False
        self.stores += 1
        return True

    def clear(self) -> int:
        """Delete every entry of this cache version; return the count."""
        shard = self.root / f"v{self.version}"
        n = 0
        if shard.is_dir():
            for path in shard.rglob("*.pkl"):
                self._evict(path)
                n += 1
        return n

    def entry_count(self) -> int:
        shard = self.root / f"v{self.version}"
        if not shard.is_dir():
            return 0
        return sum(1 for _ in shard.rglob("*.pkl"))

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def resolve_cache(cache) -> CompileCache | None:
    """Normalize a user-facing ``cache`` argument: ``None``/``False`` →
    no caching, ``True`` → the default cache, a path → a cache rooted
    there, a :class:`CompileCache` → itself."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return CompileCache()
    if isinstance(cache, CompileCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return CompileCache(root=Path(cache))
    raise TypeError(f"cache must be None, bool, path, or CompileCache; "
                    f"got {type(cache).__name__}")
