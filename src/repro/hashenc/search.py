"""Search for customized hash functions over aggregate-pc key sets.

The key set of a meta state is the set of possible ``globalor``
aggregates at its exit (one bit per MIMD state, so keys are sparse,
wide integers). We search the same function family the paper's tool
emits in Listing 5:

    ((T(apc) >> s) OP apc') & mask

with ``T`` identity or bitwise-not, ``OP`` in {nothing, ^, +}, and the
second operand optionally dropped. Candidates are ranked by jump-table
size, then by evaluation cost. When no family member is collision-free
within the table-size budget, a division hash (``apc % p`` for the
smallest injective prime-ish modulus) is the guaranteed fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConversionError


@dataclass(frozen=True)
class HashFn:
    """A customized hash function.

    ``kind`` selects the formula (each optionally followed by a second
    shift ``>> t`` before masking, matching the two-shift switches the
    paper's hash tool emits):

    - ``"const"``  : 0                                   (single key)
    - ``"mask"``   : (apc >> s) >> t & mask
    - ``"notmask"``: ((~apc) >> s) >> t & mask           (Listing 5, ms_0)
    - ``"xor"``    : ((apc >> s) ^ apc) >> t & mask      (Listing 5, ms_2_6)
    - ``"add"``    : ((apc >> s) + apc) >> t & mask
    - ``"mod"``    : apc % mod                           (fallback)

    ``width`` is the number of significant key bits (the ~ operator is
    applied within this width so arbitrary-precision Python ints behave
    like fixed-width hardware words).
    """

    kind: str
    s: int = 0
    mask: int = 0
    mod: int = 1
    width: int = 64
    t: int = 0

    def apply(self, key: int) -> int:
        full = (1 << self.width) - 1
        key &= full
        if self.kind == "const":
            return 0
        if self.kind == "mask":
            v = key >> self.s
        elif self.kind == "notmask":
            v = (key ^ full) >> self.s
        elif self.kind == "xor":
            v = (key >> self.s) ^ key
        elif self.kind == "add":
            v = (key >> self.s) + key
        elif self.kind == "mod":
            return key % self.mod
        else:
            raise AssertionError(f"unknown hash kind {self.kind}")
        return (v >> self.t) & self.mask

    @property
    def table_size(self) -> int:
        if self.kind == "const":
            return 1
        if self.kind == "mod":
            return self.mod
        return self.mask + 1

    def c_expr(self, var: str = "apc") -> str:
        """Render as the C expression the MPL switch would use."""
        if self.kind == "const":
            return "0"
        if self.kind == "mod":
            return f"({var} % {self.mod})"
        if self.kind == "mask":
            core = f"({var} >> {self.s})"
        elif self.kind == "notmask":
            core = f"((~{var}) >> {self.s})"
        elif self.kind == "xor":
            core = f"(({var} >> {self.s}) ^ {var})"
        elif self.kind == "add":
            core = f"(({var} >> {self.s}) + {var})"
        else:
            raise AssertionError(self.kind)
        if self.t:
            core = f"({core} >> {self.t})"
        return f"({core} & {self.mask})"

    #: Relative evaluation cost, used to rank equally-sized tables.
    _COSTS = {"const": 0, "mask": 1, "notmask": 2, "xor": 2, "add": 2, "mod": 4}

    @property
    def eval_cost(self) -> int:
        return self._COSTS[self.kind] + (1 if self.t else 0)


@dataclass
class BranchEncoding:
    """A fully encoded multiway branch: the hash function plus the jump
    table mapping hash values to case payloads (successor meta states).
    Unused table entries are ``None`` (the paper pads the switch; a
    sane implementation traps there)."""

    fn: HashFn
    table: list
    cases: dict[int, object]  # raw key -> payload, for inspection

    @property
    def table_size(self) -> int:
        return len(self.table)

    @property
    def load_factor(self) -> float:
        used = sum(1 for t in self.table if t is not None)
        return used / max(1, len(self.table))

    def lookup(self, key: int):
        """Dispatch: hash the aggregate and index the jump table."""
        h = self.fn.apply(key)
        if h >= len(self.table) or self.table[h] is None:
            raise ConversionError(
                f"aggregate {key:#x} reached an unencoded transition"
            )
        return self.table[h]


def key_of_members(members, *, barrier_ids=frozenset()) -> int:
    """The aggregate-pc integer for a set of MIMD state ids: the OR of
    ``1 << bid`` — Listing 5's ``BIT()`` encoding."""
    key = 0
    for bid in members:
        key |= 1 << bid
    return key


def members_of_key(key: int) -> frozenset:
    """The MIMD state ids whose bits are set in an aggregate-pc
    integer — the inverse of :func:`key_of_members`."""
    return frozenset(bid for bid in range(key.bit_length())
                     if key >> bid & 1)


def find_hash(keys: list[int], *, width: int | None = None,
              max_table_factor: int = 4) -> HashFn:
    """Find a collision-free hash for ``keys`` with a small table.

    Searches the Listing-5 family smallest-table-first, then falls back
    to a division hash. ``max_table_factor`` bounds the family search
    to tables at most ``factor * 2^ceil(log2(n))`` entries.

    Results are memoized on the key set: large automata reuse a handful
    of distinct transition-key patterns, and the search dominated the
    whole encoding pipeline before caching.
    """
    cache_key = (tuple(sorted(set(keys))), width, max_table_factor)
    hit = _FIND_CACHE.get(cache_key)
    if hit is not None:
        return hit
    fn = _find_hash_uncached(keys, width=width,
                             max_table_factor=max_table_factor)
    if len(_FIND_CACHE) > 4096:
        _FIND_CACHE.clear()
    _FIND_CACHE[cache_key] = fn
    return fn


_FIND_CACHE: dict = {}


def _find_hash_uncached(keys: list[int], *, width: int | None = None,
                        max_table_factor: int = 4) -> HashFn:
    uniq = sorted(set(keys))
    if not uniq:
        raise ConversionError("no keys to encode")
    need = max(uniq).bit_length()
    if width is None:
        width = max(64, need)
    elif width < need:
        # A too-narrow width would make apply() truncate keys into
        # silent collisions (block ids >= width all alias).
        raise ConversionError(
            f"hash width {width} narrower than the {need}-bit key set"
        )
    if len(uniq) == 1:
        return HashFn(kind="const", width=width)

    n = len(uniq)
    min_bits = (n - 1).bit_length()
    max_bits = min_bits + max(1, max_table_factor).bit_length()
    max_shift = max(k.bit_length() for k in uniq)

    # Fast vectorized search when the keys fit a 64-bit word (block ids
    # below 64 — the common case); wide keys take the scalar path. The
    # two paths implement identical semantics (power-of-two masks make
    # the uint64 wraparound of "add" invisible).
    if width == 64:
        fn = _search_vectorized(uniq, width, min_bits, max_bits, max_shift)
    else:
        fn = _search_scalar(uniq, width, min_bits, max_bits, max_shift)
    if fn is not None:
        return fn

    # Guaranteed fallback: smallest modulus that separates the keys.
    for mod in range(n, n * n * max(2, width) + 2):
        fn = HashFn(kind="mod", mod=mod, width=width)
        if _injective(fn, uniq):
            return fn
    raise ConversionError("no injective hash found (unreachable)")


#: Family order inside one (mask, shift) cell: cheap-to-evaluate first.
_KIND_ORDER = ("mask", "notmask", "xor", "add")


def _rows_injective(h: np.ndarray) -> np.ndarray:
    """Boolean per row of ``h``: all entries distinct."""
    if h.shape[1] == 1:
        return np.ones(h.shape[0], dtype=bool)
    srt = np.sort(h, axis=1)
    return (srt[:, 1:] != srt[:, :-1]).all(axis=1)


def _search_vectorized(uniq, width, min_bits, max_bits, max_shift):
    """Evaluate the whole (kind, shift) family as one matrix per table
    size: rows are candidate functions, columns are keys."""
    arr = np.array(uniq, dtype=np.uint64)
    shifts = np.arange(max_shift + 1, dtype=np.uint64)[:, None]
    shifted = arr[None, :] >> shifts               # (shifts, n)
    variants = {
        "mask": shifted,
        "notmask": (~arr)[None, :] >> shifts,
        "xor": shifted ^ arr[None, :],
        "add": shifted + arr[None, :],
    }
    for bits in range(min_bits, max_bits + 1):
        mask = np.uint64((1 << bits) - 1)
        # Pass 1: single shift; prefer cheap kinds, then small s.
        for kind in _KIND_ORDER:
            ok = _rows_injective(variants[kind] & mask)
            for s in np.flatnonzero(ok):
                fn = HashFn(kind=kind, s=int(s), mask=int(mask), width=width)
                # Confirm with exact arithmetic: "add" carries out of
                # bit 63 wrap in uint64 but not in apply(), so a
                # matrix-injective row can still collide for real.
                if _injective(fn, uniq):
                    return fn
        # Pass 2: second shift t applied before masking.
        for t in range(1, max_shift + 1):
            tt = np.uint64(t)
            for kind in ("notmask", "xor", "add"):
                ok = _rows_injective((variants[kind] >> tt) & mask)
                for s in np.flatnonzero(ok):
                    fn = HashFn(kind=kind, s=int(s), t=t, mask=int(mask),
                                width=width)
                    if _injective(fn, uniq):
                        return fn
    return None


def _search_scalar(uniq, width, min_bits, max_bits, max_shift):
    """Arbitrary-width fallback (block ids >= 64)."""
    for bits in range(min_bits, max_bits + 1):
        mask = (1 << bits) - 1
        for kind in _KIND_ORDER:
            for s in range(0, max_shift + 1):
                fn = HashFn(kind=kind, s=s, mask=mask, width=width)
                if _injective(fn, uniq):
                    return fn
        for t in range(1, max_shift + 1):
            for kind in ("notmask", "xor", "add"):
                for s in range(0, max_shift + 1):
                    fn = HashFn(kind=kind, s=s, t=t, mask=mask, width=width)
                    if _injective(fn, uniq):
                        return fn
    return None


def _injective(fn: HashFn, keys: list[int]) -> bool:
    seen = set()
    for k in keys:
        h = fn.apply(k)
        if h in seen:
            return False
        seen.add(h)
    return True


def encode_branch(cases: dict[int, object], *, width: int | None = None) -> BranchEncoding:
    """Encode a multiway branch given ``{aggregate key: payload}``."""
    fn = find_hash(list(cases), width=width)
    table: list = [None] * fn.table_size
    taken: dict[int, int] = {}
    for key, payload in cases.items():
        h = fn.apply(key)
        if h in taken:
            # A collision here would silently overwrite the earlier
            # case and misdirect dispatch at runtime.
            raise ConversionError(
                f"hash {fn.kind} collides keys {taken[h]:#x} and {key:#x}"
            )
        taken[h] = key
        table[h] = payload
    return BranchEncoding(fn=fn, table=table, cases=dict(cases))
