"""WarmState.clone(): independent copies of the warm-state contract.

The batched two-speed driver plans every window up front and gives each
one ``warm.clone()``.  Its results are only sound if a clone (a) starts
out equal to the original, (b) shares no mutable state with it in
either direction, and (c) survives the pickle trip to a worker process.
The sparse cache sets a clone copies are pinned separately by a
differential against a dense list-of-lists reference cache.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.predictors import BranchPredictor, StaticDirectionPredictor
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.tracecache import BlockCache
from repro.cpu.warm import WarmState, fast_forward
from repro.isa.interpreter import Interpreter
from repro.isa.state import Memory
from repro.mem.cache import Cache, CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.tlb import TlbConfig
from repro.workloads.suite import suite_program

# Tiny caches and TLBs: every set fills and evicts within a few thousand
# instructions, so a clone that shared a set list or page list with its
# original would show in the resident contents, not only the counters.
SMALL = HierarchyConfig(
    l1i=CacheConfig(name="l1i", size_bytes=256, line_bytes=64,
                    associativity=2),
    l1d=CacheConfig(name="l1d", size_bytes=512, line_bytes=64,
                    associativity=2),
    l2=CacheConfig(name="l2", size_bytes=2048, line_bytes=64,
                   associativity=4),
    itlb=TlbConfig(name="itlb", entries=2, page_bytes=256),
    dtlb=TlbConfig(name="dtlb", entries=2, page_bytes=256))


def _warmed(name="compress", count=5_000, static=False, config=SMALL):
    """(program, interpreter, warm state) after *count* fast-forwarded."""
    program = suite_program(name, scale=1)
    predictor = None
    if static:
        predictor = BranchPredictor(
            direction=StaticDirectionPredictor(program))
    warm = WarmState(hierarchy=MemoryHierarchy(config), predictor=predictor)
    interp = Interpreter(program)
    fast_forward(interp, warm, count, cache=BlockCache(program))
    return program, interp, warm


def _run_window(program, interp, warm, count=400):
    """Run one detailed OOO window on *warm* from the interpreter's state."""
    state = interp.state
    core = OutOfOrderCore(program, hierarchy=warm.hierarchy,
                          predictor=warm.predictor, ghr=warm.ghr)
    core.inject_state(state.regs.snapshot(), Memory(state.memory.snapshot()),
                      state.pc)
    core.run(max_retired=count)
    return core


def _assert_contents_moved(after, before):
    """The driven side changed contents, not just counters.

    Guards the isolation tests against passing vacuously: the resident
    lines of some cache, the resident pages of some TLB and the
    direction table must all have moved.
    """
    moved = {unit for unit, contents in after["resident"].items()
             if contents != before["resident"][unit]}
    assert moved & {"l1i", "l1d", "l2"}
    assert moved & {"itlb", "dtlb"}
    assert after["direction"][0] != before["direction"][0]


class TestClone:
    @pytest.mark.parametrize("static", [False, True],
                             ids=["gshare", "static"])
    def test_fresh_clone_matches(self, static):
        _, _, warm = _warmed(static=static)
        assert warm.clone().signature() == warm.signature()

    def test_fresh_clone_matches_default_geometry(self):
        _, _, warm = _warmed(count=20_000, config=HierarchyConfig())
        assert warm.clone().signature() == warm.signature()

    def test_cold_clone_matches(self):
        warm = WarmState()
        assert warm.clone().signature() == warm.signature()

    def test_fast_forward_on_clone_leaves_original(self):
        program, interp, warm = _warmed()
        before = warm.signature()
        twin = warm.clone()
        fast_forward(interp, twin, 5_000)
        _assert_contents_moved(twin.signature(), before)
        assert warm.signature() == before

    def test_fast_forward_on_original_leaves_clone(self):
        program, interp, warm = _warmed()
        twin = warm.clone()
        before = twin.signature()
        fast_forward(interp, warm, 5_000)
        _assert_contents_moved(warm.signature(), before)
        assert twin.signature() == before

    def test_window_on_clone_leaves_original(self):
        program, interp, warm = _warmed("li")
        before = warm.signature()
        twin = warm.clone()
        core = _run_window(program, interp, twin)
        assert core.retired > 0
        _assert_contents_moved(twin.signature(), before)
        assert warm.signature() == before

    def test_window_on_original_leaves_clone(self):
        program, interp, warm = _warmed("li")
        twin = warm.clone()
        before = twin.signature()
        _run_window(program, interp, warm)
        _assert_contents_moved(warm.signature(), before)
        assert twin.signature() == before

    @pytest.mark.parametrize("static", [False, True],
                             ids=["gshare", "static"])
    def test_pickle_round_trip(self, static):
        _, _, warm = _warmed(static=static)
        twin = warm.clone()
        restored = pickle.loads(pickle.dumps(twin))
        assert restored.signature() == twin.signature()
        assert restored.signature() == warm.signature()

    def test_clone_driven_alike_ends_alike(self):
        """A clone fed the same stream as the original ends equal to it."""
        program, interp, warm = _warmed()
        twin = warm.clone()
        replay = Interpreter(program)
        replay.state.restore(interp.state.snapshot())
        fast_forward(interp, warm, 5_000)
        fast_forward(replay, twin, 5_000)
        assert twin.signature() == warm.signature()


# ----------------------------------------------------------------------
# Sparse cache sets against a dense reference.


class DenseCache:
    """Reference: the dense list-of-lists cache the sparse model replaced."""

    def __init__(self, config):
        self.config = config
        self.sets = [[] for _ in range(config.num_sets)]
        self.shift = config.line_bytes.bit_length() - 1
        self.mask = config.num_sets - 1
        self.hits = 0
        self.misses = 0

    def access(self, addr, fill=True):
        line = addr >> self.shift
        ways = self.sets[line & self.mask]
        if line in ways:
            ways.remove(line)
            ways.insert(0, line)
            self.hits += 1
            return True
        self.misses += 1
        if fill:
            ways.insert(0, line)
            del ways[self.config.associativity:]
        return False

    def probe(self, addr):
        line = addr >> self.shift
        return line in self.sets[line & self.mask]

    def invalidate_all(self):
        self.sets = [[] for _ in range(self.config.num_sets)]

    def resident(self):
        return {index: tuple(ways) for index, ways in enumerate(self.sets)
                if ways}


# Mostly accesses over a small address range, so hits on non-MRU ways,
# evictions and set conflicts are common; invalidate and clone are rare.
_OPS = st.lists(
    st.tuples(st.sampled_from(["access"] * 6 + ["probe"] * 2
                              + ["invalidate", "clone"]),
              st.integers(0, 1023), st.booleans()),
    min_size=50, max_size=300)


@settings(max_examples=200, deadline=None)
@given(assoc=st.sampled_from([1, 2, 4]),
       sets=st.sampled_from([1, 4, 16]),
       line=st.sampled_from([16, 64]),
       ops=_OPS)
def test_sparse_cache_matches_dense_reference(assoc, sets, line, ops):
    config = CacheConfig(name="t", size_bytes=line * assoc * sets,
                         line_bytes=line, associativity=assoc)
    cache = Cache(config)
    ref = DenseCache(config)
    for op, addr, fill in ops:
        if op == "access":
            assert cache.access(addr, fill=fill) == ref.access(addr, fill)
        elif op == "probe":
            assert cache.probe(addr) == ref.probe(addr)
        elif op == "invalidate":
            cache.invalidate_all()
            ref.invalidate_all()
        else:
            # Swap in a clone and keep going on it: the clone must carry
            # every resident line, its MRU order and the counters.
            cache = cache.clone()
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert cache.resident() == ref.resident()
    restored = pickle.loads(pickle.dumps(cache))
    assert restored.resident() == ref.resident()
    assert (restored.hits, restored.misses) == (ref.hits, ref.misses)
