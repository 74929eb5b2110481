"""Shared fixtures: keep the compile cache hermetic.

The CLI enables the on-disk compile cache by default; pointing
``REPRO_MSC_CACHE`` at a per-test temporary directory keeps test runs
from reading or writing the developer's real ``~/.cache/repro-msc``.

Setting :data:`repro.simd.shards.MIN_SHARD_LANES` to 1 disables the
small-node inline threshold (:func:`repro.simd.shards.inline_threshold`):
test fixtures are tiny, and without this every sharded run would demote
to one shard and the sharded executor paths would go untested.
"""

import pytest

from repro.simd import shards as shardsmod


@pytest.fixture(autouse=True)
def _hermetic_compile_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MSC_CACHE", str(tmp_path / "msc-cache"))


@pytest.fixture(autouse=True)
def _genuine_sharding(monkeypatch):
    monkeypatch.setattr(shardsmod, "MIN_SHARD_LANES", 1)
