"""Shared fixtures: the toy river/capital store and seeded synthetic graphs."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from kgdialog import kg_store
from kgdialog.kg_store import KgStore, Tuple
from kgdialog.templates import load_templates

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # properties that name no example count take it from the profile: a
    # small one in tier-1, ten times as many with --hypothesis-profile=heavy
    settings.register_profile("tier1", max_examples=25, deadline=None)
    settings.register_profile("heavy", max_examples=250, deadline=None)
    settings.load_profile("tier1")

REPO = Path(__file__).resolve().parent.parent
KG_T_DIR = REPO / "fixtures" / "kg_t"
KERNEL_VECTORS = REPO / "fixtures" / "kernel_vectors.jsonl"


@pytest.fixture(scope="session")
def store() -> KgStore:
    return kg_store.load_dir(KG_T_DIR)


@pytest.fixture(scope="session")
def templates(store):
    return load_templates(KG_T_DIR / "templates.jsonl")


@pytest.fixture(scope="session")
def ids(store):
    """Label-to-id shorthand used all over the tests."""

    class Ids:
        def __getitem__(self, label: str) -> int:
            for resolver in (store.entity_id, store.relation_id, store.type_id):
                try:
                    return resolver(label)
                except Exception:
                    continue
            raise KeyError(label)

    return Ids()


def brute_fanout(store: KgStore, e: int) -> set[Tuple]:
    """The tuples containing entity ``e``, found by scanning every tuple."""
    return {t for t in store.tuples if e in (t.subject, t.object)}


def make_random_store(
    seed: int,
    n_tuples: int = 500,
    n_relations: int = 4,
    n_types: int = 3,
    n_entities: int | None = None,
) -> KgStore:
    """Random store with every entity typed; sizes stay loader-legal."""
    rng = random.Random(seed)
    if n_entities is None:
        n_entities = max(8, n_tuples // 3)
    entity_types = {
        e: frozenset(rng.sample(range(n_types), k=rng.randint(1, min(2, n_types))))
        for e in range(n_entities)
    }
    tuples: set[Tuple] = set()
    attempts = 0
    while len(tuples) < n_tuples and attempts < n_tuples * 20:
        attempts += 1
        tuples.add(
            Tuple(
                rng.randrange(n_relations),
                rng.randrange(n_entities),
                rng.randrange(n_entities),
            )
        )
    return KgStore(
        tuples,
        [f"E{i}" for i in range(n_entities)],
        [f"rel{i}" for i in range(n_relations)],
        [f"type{i}" for i in range(n_types)],
        entity_types,
    )
