"""Batch-split invariance: one call per batch equals any two-call split.

The CNN executor issues each maximal run of same-kind requests of one
kernel as a single batch (``repro.nn.executor.access_runs``), spanning
several tensors, and the backend re-chunks long runs at
``BATCH_LINES``.  Both are only safe for a model whose batch engine is
exactly sequential: splitting any read or write batch at any point
into two calls must leave the summed ``Traffic``/``TagStats`` and the
final cache state unchanged.  Seeded models must also draw their random
numbers per request, in request order, so a split consumes the same
stream.

``NextLinePrefetchCache`` is the documented exception: its prefetch pass
runs after the whole batch's demand pass, so where the batch ends
changes which successor fills land before the next demand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    BypassCache,
    DirectMappedCache,
    MissPredictorCache,
    NextLinePrefetchCache,
    SectorCache,
    SetAssociativeCache,
)

NUM_SETS = 4
SECTOR_LINES = 8

#: Model name -> factory of a tiny cache (four sets) so a handful of
#: lines spanning several aliases per set forces conflicts.
MODELS = {
    "direct-mapped": lambda: DirectMappedCache(NUM_SETS * 64),
    "no-DDO": lambda: DirectMappedCache(NUM_SETS * 64, ddo_enabled=False),
    "write-around": lambda: DirectMappedCache(
        NUM_SETS * 64, insert_on_write_miss=False
    ),
    "8-way LRU": lambda: SetAssociativeCache(NUM_SETS * 8 * 64, ways=8),
    "sector": lambda: SectorCache(
        NUM_SETS * SECTOR_LINES * 64, sector_lines=SECTOR_LINES, footprint=3
    ),
    "miss-predictor": lambda: MissPredictorCache(NUM_SETS * 64, accuracy=0.7, seed=5),
    "bypass": lambda: BypassCache(NUM_SETS * 64, insert_probability=0.4, seed=5),
}

#: Line span per model: several aliases per set (per sector-set for the
#: sector cache, per way-set for LRU).
SPAN = {name: NUM_SETS * 6 for name in MODELS}
SPAN["8-way LRU"] = NUM_SETS * 8 * 3
SPAN["sector"] = NUM_SETS * SECTOR_LINES * 3


def state(cache):
    """Everything that decides the model's future behaviour.

    LRU stamps advance per batch, not per request, so their absolute
    values depend on the split; the recency *order* within each set is
    what LRU state is, and is compared instead.
    """
    snapshot = {
        name: getattr(cache, name).copy()
        for name in ("_tags", "_dirty", "_valid", "_known_resident")
        if hasattr(cache, name)
    }
    if hasattr(cache, "_stamp"):
        snapshot["recency"] = np.argsort(cache._stamp, axis=1, kind="stable")
    return snapshot


def issue(cache, kind, lines):
    return cache.llc_read(lines) if kind == "read" else cache.llc_write(lines)


@st.composite
def batches(draw, span):
    """Interleaved read/write batches, each with a split point."""
    line = st.integers(min_value=0, max_value=span - 1)
    batch = st.lists(line, min_size=0, max_size=16)
    ops = draw(
        st.lists(st.tuples(st.sampled_from(["read", "write"]), batch), min_size=1, max_size=8)
    )
    return [
        (kind, lines, draw(st.integers(min_value=0, max_value=len(lines))))
        for kind, lines in ops
    ]


@pytest.mark.parametrize("model", list(MODELS))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_split_batch_matches_single_call(model, data):
    ops = data.draw(batches(SPAN[model]))
    whole, split = MODELS[model](), MODELS[model]()
    for step, (kind, batch, cut) in enumerate(ops):
        lines = np.array(batch, dtype=np.int64)
        traffic, tags = issue(whole, kind, lines)
        t1, g1 = issue(split, kind, lines[:cut])
        t2, g2 = issue(split, kind, lines[cut:])
        context = f"{model} step {step}: {kind} {batch} cut at {cut}"
        assert t1 + t2 == traffic, f"traffic diverged ({context})"
        assert g1 + g2 == tags, f"tag stats diverged ({context})"
    expected, actual = state(whole), state(split)
    assert expected.keys() == actual.keys()
    for name in expected:
        assert np.array_equal(expected[name], actual[name]), f"{model} {name} diverged"


def test_prefetch_cache_is_batch_dependent():
    """The demand pass sees the whole batch before any prefetch fills.

    As one batch, lines 0 and 1 both miss (line 1's fill as 0's
    successor comes after the demand pass); split, line 0's prefetch
    lands first and line 1 hits.
    """
    lines = np.array([0, 1], dtype=np.int64)
    whole = NextLinePrefetchCache(NUM_SETS * 64)
    _, tags = whole.llc_read(lines)
    assert (tags.hits, tags.clean_misses) == (0, 2)

    split = NextLinePrefetchCache(NUM_SETS * 64)
    _, first = split.llc_read(lines[:1])
    _, second = split.llc_read(lines[1:])
    assert (first + second).hits == 1
    assert first + second != tags

