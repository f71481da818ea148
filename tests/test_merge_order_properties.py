"""Property: ``entity_linker._round_robin``, the merge behind
``candidate_tuples``, gives the same ids in the same order as the array merge
it replaced, copied below as the reference.  Pools come from drawn tuples over
a few entities, so tuples shared by two pools (both ends matched), self-loops,
hubs, empty pools and a single pool all occur; caps fall below the union."""

import random
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from kgdialog import entity_linker as el  # noqa: E402
from kgdialog.kg_store import KgStore, Tuple  # noqa: E402


# -- the reference: the array merge as it stood before the Python rounds ------------


def reference_round_robin(pools: list[np.ndarray]) -> np.ndarray:
    """The union of ``pools`` (ascending dense ids of the tuples containing
    each of some distinct entities) in round-robin order: each round, every
    pool in turn gives its next id that no pool has given yet.

    An id sits in two pools only when both distinct ends of its tuple are
    matched, and the pool that reaches it second skips it.  Only when the
    pools repeat an id are the repeated ones resolved, one by one in pick
    order.  Without its skipped entries, a pool gives its ``j``-th entry in
    round ``j``.
    """
    if len(pools) < 2:
        return pools[0] if pools else np.empty(0, np.int64)
    sizes = np.array([len(p) for p in pools])
    flat = np.concatenate(pools)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    twice = ordered[1:] == ordered[:-1]
    if twice.any():
        starts = np.cumsum(sizes) - sizes
        # an id sits in at most two pools: each repeat pairs two entries
        shared = np.sort(np.concatenate([order[:-1][twice], order[1:][twice]]))
        pool = np.searchsorted(starts, shared, side="right") - 1
        skip = np.array(_skipped(flat[shared].tolist(), pool.tolist(), (shared - starts[pool]).tolist()))
        keep = np.ones(len(flat), bool)
        keep[shared[skip]] = False
        flat = flat[keep]
        sizes -= np.bincount(pool[skip], minlength=len(pools))
    # each id's place within its pool is the round that gives it
    place = np.arange(len(flat)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return flat[np.argsort(place, kind="stable")]


def _skipped(tuples: list[int], pools: list[int], places: list[int]) -> list[bool]:
    """Which entries of the shared ``tuples`` their pool skips because the
    other pool gave the tuple first.  Entries come pool by pool in place
    order; each pool's next one waits in a heap keyed by (round, pool), the
    order in which entries are picked."""
    skips = dict.fromkeys(pools, 0)
    heap = [(places[i], k, i) for i, k in enumerate(pools) if i == 0 or pools[i - 1] != k]
    heapify(heap)
    given: set[int] = set()
    skipped = [False] * len(tuples)
    while heap:
        _, k, i = heappop(heap)
        if tuples[i] in given:
            skipped[i] = True
            skips[k] += 1
        else:
            given.add(tuples[i])
        if i + 1 < len(pools) and pools[i + 1] == k:
            heappush(heap, (places[i + 1] - skips[k], k, i + 1))
    return skipped


# -- drawn cases ----------------------------------------------------------------------

N_ENTITIES, N_RELATIONS = 6, 200


def store_of(tuples) -> KgStore:
    return KgStore(
        [Tuple(*t) for t in tuples],
        [f"E{i}" for i in range(N_ENTITIES)],
        [f"rel{i}" for i in range(N_RELATIONS)],
        ["thing"],
        {e: frozenset({0}) for e in range(N_ENTITIES)},
    )


def hub_case(n_hub: int, shared_at: tuple[int, ...], n_small: int):
    """Entity 0 is a hub of ``n_hub`` tuples towards entities 3 to 5.
    Entity 2 has a self-loop, ``n_small`` tuples towards entity 1 under the
    last relations, and one tuple with the hub under each relation in
    ``shared_at``, which sits in two pools when entities 0 and 2 are both
    matched: near the start of entity 2's pool, and as far into the hub's
    as the hub's tuples under lower relations reach."""
    tuples = [(i % N_RELATIONS, 0, 3 + i // N_RELATIONS) for i in range(n_hub)]
    tuples += [(r, 0, 2) for r in shared_at]
    tuples += [(N_RELATIONS - 1 - i, 2, 1) for i in range(n_small)] + [(0, 2, 2)]
    return sorted(tuples)


@st.composite
def cases(draw):
    """Tuples over a few entities (a hub takes a drawn share of subjects),
    matched entities in drawn order, with repeats, and a cap."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_tuples = draw(st.sampled_from([0, 1, 4, 12, 40, 90, 200, 600]))
    hub_share = draw(st.sampled_from([0.0, 0.5, 0.9]))
    tuples = set()
    for _ in range(n_tuples):
        s = 0 if rng.random() < hub_share else rng.randrange(N_ENTITIES)
        tuples.add((rng.randrange(N_RELATIONS), s, rng.randrange(N_ENTITIES)))  # s == o: a self-loop
    matched = draw(st.lists(st.integers(0, N_ENTITIES - 1), max_size=N_ENTITIES + 2))
    return sorted(tuples), matched, draw(st.integers(1, max(1, n_tuples)))


@given(cases())
@example((hub_case(300, (50,), 3), [2, 0], 4))  # the hub's shared tuple lies past the rounds
@example((hub_case(300, (2, 3), 6), [2, 0], 20))  # the hub skips two ids within the rounds
@example((hub_case(300, (0, 1, 150), 10), [0, 2], 300))
@example((hub_case(300, (5, 70, 99), 60), [2, 0, 2], 100))  # the array merge, past the rounds' limit
@example((hub_case(5, (), 0), [2], 1))  # one pool
@example((hub_case(5, (1,), 0), [4, 5, 2, 0], 2))  # empty pools beside a shared tuple
@example(([], [], 1))
def test_merge_keeps_the_reference_order(case):
    tuples, matched, cap = case
    store = store_of(tuples)
    entities = list(dict.fromkeys(matched))
    pools = [store.tuple_ids_containing(e) for e in entities]

    # in the order drawn, whichever pool is largest
    got = el._round_robin(pools)
    want = reference_round_robin(pools)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()

    # in candidate_tuples' order, rarest entity first, under the cap
    ordered = sorted(zip(pools, entities), key=lambda pe: (len(pe[0]), pe[1]))
    want = reference_round_robin([p for p, _ in ordered])
    cands = el.candidate_tuples(store, matched, cap)
    assert np.array_equal(cands.tuples.ids, store.rows[want[:cap]])
    assert cands.truncated == (len(want) > cap)
