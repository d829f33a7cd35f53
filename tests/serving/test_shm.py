"""Shared-memory transport: segment lifecycle, stale reclaim, zero-copy
attach, and the pool-level guarantees the daemon builds on.

The ownership contract under test: the parent creates and unlinks the
segments, workers attach untracked, and nothing survives in ``/dev/shm``
after a pool shuts down — including segments leaked by a previous
process that died without cleanup (deterministic names make them
collide with, and be reclaimed by, the next pool serving the same
snapshot).
"""

import os

import pytest

from repro import SegmentDatabase, ShardedSegmentDatabase
from repro.iosim import ArenaBlockDevice, ArenaView, SnapshotFormatError
from repro.serving import (
    AttachedArena,
    SharedShardArenas,
    segment_name,
    shm_available,
)
from repro.serving.shm import create_segment
from repro.workloads import grid_segments, segment_queries

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no multiprocessing.shared_memory")


def _dev_shm_segments():
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("rpr-"))
    except FileNotFoundError:  # non-Linux: fall back to "can't check"
        return []


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(240, seed=31)
    queries = list(segment_queries(segments, 16, seed=32))
    directory = str(tmp_path_factory.mktemp("shm") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    return directory, queries


@pytest.fixture(scope="module")
def single_snap(tmp_path_factory):
    segments = grid_segments(120, seed=33)
    db = SegmentDatabase.bulk_load(segments, engine="solution1",
                                   block_capacity=16)
    path = str(tmp_path_factory.mktemp("shm-one") / "one.snap")
    db.save(path)
    return path


def test_segment_names_deterministic_and_distinct(single_snap):
    assert segment_name(single_snap, 0) == segment_name(single_snap, 0)
    assert segment_name(single_snap, 0) != segment_name(single_snap, 1)
    other = os.path.join(os.path.dirname(single_snap), "other.snap")
    assert segment_name(single_snap, 0) != segment_name(other, 0)


def test_create_and_unlink_leaves_nothing(single_snap):
    before = _dev_shm_segments()
    arenas = SharedShardArenas.create([single_snap])
    assert arenas.total_bytes > 0
    assert len(arenas.descriptors) == 1
    name, size = arenas.descriptors[0]
    assert name == segment_name(single_snap, 0)
    arenas.unlink()
    arenas.unlink()  # idempotent
    assert _dev_shm_segments() == before


def test_attached_arena_is_zero_copy(single_snap):
    arenas = SharedShardArenas.create([single_snap])
    try:
        name, size = arenas.descriptors[0]
        attached = AttachedArena(name, size, source=f"shm://{name}")
        assert isinstance(attached.view, ArenaView)
        device = ArenaBlockDevice(attached.view)
        assert device.pages_in_use > 0
        # Pages decode straight out of the shared buffer.
        some_id = next(iter(attached.view.page_ids))
        page = device.read(some_id)
        assert page.items is not None
        # v2 pages may carry zero-copy column views over the segment;
        # drop them (as a worker's exit hook does) and detach cleanly.
        del page, device
        attached.close()
    finally:
        arenas.unlink()


def test_stale_segment_from_dead_process_is_reclaimed(single_snap):
    """A killed serving process leaks its segment; the next pool serving
    the same snapshot must reclaim the name instead of failing."""
    name = segment_name(single_snap, 0)
    stale = create_segment(name, 128)           # the "dead process" left this
    stale.buf[:5] = b"stale"
    stale.close()                               # handle gone, segment leaked
    arenas = SharedShardArenas.create([single_snap])
    try:
        got_name, size = arenas.descriptors[0]
        assert got_name == name
        assert size > 128                       # fresh content, not the relic
        attached = AttachedArena(name, size, source=name)
        assert bytes(attached.view._buf[:8]) != b"stale\x00\x00\x00"
        attached.close()
    finally:
        arenas.unlink()
    assert name not in _dev_shm_segments()


def test_damaged_snapshot_fails_in_parent_without_leaking(single_snap, tmp_path):
    """Corruption surfaces as a typed error in the owning process, and a
    partially-built segment set is torn down."""
    bad = str(tmp_path / "bad.snap")
    with open(single_snap, "rb") as fh:
        payload = fh.read()
    with open(bad, "wb") as fh:
        fh.write(payload[: len(payload) // 2])
    before = _dev_shm_segments()
    with pytest.raises(SnapshotFormatError):
        SharedShardArenas.create([single_snap, bad])
    assert _dev_shm_segments() == before


def test_attached_arena_close_unmaps_with_pages_alive(single_snap):
    """Decoded pages own their content, so ``close()`` really unmaps the
    segment while they are still referenced — and they stay readable."""
    arenas = SharedShardArenas.create([single_snap])
    try:
        name, size = arenas.descriptors[0]
        attached = AttachedArena(name, size, source=name)
        view = attached.view
        pages = [view.decode_page(pid) for pid in view.page_ids]
        expected = [list(page.items) for page in pages]
        assert max(len(items) for items in expected) >= 8
        attached.close()
        assert attached._shm._mmap is None, "segment still mapped"
        assert [list(page.items) for page in pages] == expected
    finally:
        arenas.unlink()


def test_pool_shutdown_unlinks_segments(snapshot):
    directory, queries = snapshot
    before = _dev_shm_segments()
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        assert served._pool.shared_bytes > 0
        assert len(_dev_shm_segments()) == len(before) + 2
        served.query_batch(queries)
    assert _dev_shm_segments() == before


def test_shm_results_match_sync(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as sync:
        expected = sync.query_batch(queries)
        expected_report = sync.io_report()
    with ShardedSegmentDatabase.open(directory, workers=2) as served:
        got = served.query_batch(queries)
        got_report = served.io_report()
    assert [sorted(s.label for s in r) for r in got] == \
           [sorted(s.label for s in r) for r in expected]
    # The pooled report merges to exactly the synchronous accounting.
    assert got_report["combined"]["reads"] == \
           expected_report["combined"]["reads"]


def test_shm_transport_records_standard_phases(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        served.query_batch(queries)
        served.query_batch(queries)
        report = served.latency_report()
    assert report["phase_coverage"] is not None
    assert 0.9 <= report["phase_coverage"] <= 1.05, report
    assert "attach" in report["phases_s"]


def test_empty_groups_skip_the_executor(snapshot):
    """A shard routed zero queries must not cross the process boundary:
    no pickling, no submit, an immediately-empty result (S2)."""
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        pool = served._pool
        submitted = []
        original = pool._executor.submit

        def counting_submit(fn, *args, **kwargs):
            submitted.append(args)
            return original(fn, *args, **kwargs)

        pool._executor.submit = counting_submit
        out = pool.query_batches({0: [], 1: list(queries)})
        assert len(submitted) == 1, "empty group still paid a round-trip"
        assert out[0].payload == []
        assert out[0].stats.io.reads == 0
        assert out[0].phases == {}
        assert sorted(out) == [0, 1]
        # Explain omits silent shards entirely.
        explained = pool.explain_batches({0: [], 1: list(queries)})
        assert list(explained) == [1]
        assert len(submitted) == 2


def test_all_empty_batch_never_touches_workers(snapshot):
    directory, _queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        pool = served._pool
        pool._executor.submit = None  # any submit would raise
        out = pool.query_batches({0: [], 1: []})
        assert out[0].payload == [] and out[1].payload == []


def test_concurrent_pools_do_not_reclaim_each_other(single_snap):
    """Regression: two live pools over the same snapshot.  Before the
    owner lock, the second pool's stale-reclaim unlinked the first's
    deterministic segments mid-serve; now the second must fall back to
    unique names and reclaim nothing."""
    deterministic = segment_name(single_snap, 0)
    first = SharedShardArenas.create([single_snap])
    try:
        assert first.descriptors[0][0] == deterministic
        second = SharedShardArenas.create([single_snap])
        try:
            second_name = second.descriptors[0][0]
            assert second_name != deterministic, (
                "a non-owner pool must not take the deterministic name")
            assert second_name.startswith(deterministic + "-")
        finally:
            second.unlink()
        # The first pool's segment survived the second's full lifecycle.
        name, size = first.descriptors[0]
        attached = AttachedArena(name, size, source=name)
        assert attached.view.page_ids
        attached.close()
    finally:
        first.unlink()
    # With the owner gone, the next pool claims the deterministic name
    # again (and reclaims any stale leftovers under it).
    third = SharedShardArenas.create([single_snap])
    try:
        assert third.descriptors[0][0] == deterministic
    finally:
        third.unlink()
    assert deterministic not in _dev_shm_segments()


def test_owner_lock_survives_only_while_held(single_snap):
    from repro.serving.shm import (acquire_owner_lock, owner_lock_path,
                                   release_owner_lock)

    fd = acquire_owner_lock(single_snap)
    assert fd is not None, "first claimant must win the lock"
    assert acquire_owner_lock(single_snap) is None, (
        "a held lock must refuse a second claimant")
    release_owner_lock(fd)
    fd2 = acquire_owner_lock(single_snap)
    assert fd2 is not None, "a released lock must be claimable again"
    release_owner_lock(fd2)
    # The lock file itself stays — unlinking it would reintroduce the
    # two-owners race (see repro.serving.shm module docstring).
    assert os.path.exists(owner_lock_path(single_snap))
