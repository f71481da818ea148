"""Seeded synthetic knowledge graphs in the bundled fixture's schema.

Countries, rivers and cities are linked by ``flows_through`` (country ->
river) and ``capital`` (country -> city), the relation and type labels the
templates in ``fixtures/kg_t/templates.jsonl`` name, so those templates apply
unchanged.  Fanout is either uniform or heavy-tailed; the heavy-tailed graph
has hubs on both sides: a few countries with many rivers and a few rivers
through many countries.  The same seed and size give the same graph.
"""

from __future__ import annotations

import itertools
import random

from kgdialog import templates as tpl
from kgdialog.kg_store import KgStore, Tuple

FANOUTS = ("uniform", "heavy")
RIVERS_PER_COUNTRY = 6.0  # mean flows_through fanout of a country
COUNTRIES_PER_RIVER = 2.0  # mean flows_through fanout of a river


def make_graph(seed: int, n_tuples: int, fanout: str) -> KgStore:
    """About ``n_tuples`` tuples; every entity has exactly one type."""
    if fanout not in FANOUTS:
        raise ValueError(f"fanout must be one of {FANOUTS}, got {fanout!r}")
    rng = random.Random(f"graph:{seed}:{n_tuples}:{fanout}")
    n_countries = max(4, round(n_tuples / (RIVERS_PER_COUNTRY + 1)))
    n_rivers = max(4, round(n_countries * RIVERS_PER_COUNTRY / COUNTRIES_PER_RIVER))
    n_cities = n_countries

    countries = list(range(n_countries))
    rivers = list(range(n_countries, n_countries + n_rivers))
    cities = list(range(n_countries + n_rivers, n_countries + n_rivers + n_cities))
    labels = (
        [f"Country {i}" for i in range(n_countries)]
        + [f"River {i}" for i in range(n_rivers)]
        + [f"City {i}" for i in range(n_cities)]
    )
    types = ["country", "river", "city"]
    entity_types = {e: frozenset({0}) for e in countries}
    entity_types.update({e: frozenset({1}) for e in rivers})
    entity_types.update({e: frozenset({2}) for e in cities})

    if fanout == "uniform":
        degrees = [rng.randint(1, 2 * int(RIVERS_PER_COUNTRY) - 1) for _ in countries]
        river_weights = None
    else:
        # Pareto quantiles at evenly spaced points, dealt out in seeded order:
        # every seed gets the same degree and popularity distribution (so
        # workload cost does not swing with the seed), wired differently
        degrees = _pareto_quantiles(n_countries, alpha=1.5, scale=2.0, cap=600)
        rng.shuffle(degrees)
        popularity = _pareto_quantiles(n_rivers, alpha=1.1, scale=1.0, cap=None)
        rng.shuffle(popularity)
        river_weights = list(itertools.accumulate(popularity))

    tuples: set[Tuple] = set()
    for c, k in zip(countries, degrees):
        k = min(k, n_rivers)
        if river_weights is None:
            chosen = rng.sample(rivers, k)
        else:
            chosen = set()
            for _ in range(4 * k):
                chosen.add(rng.choices(rivers, cum_weights=river_weights, k=1)[0])
                if len(chosen) == k:
                    break
        for r in chosen:
            tuples.add(Tuple(0, c, r))
    for c, city in zip(countries, cities):
        tuples.add(Tuple(1, c, city))
        if rng.random() < 0.05:  # a few countries with two capitals
            tuples.add(Tuple(1, c, rng.choice(cities)))
    return KgStore(tuples, labels, ["flows_through", "capital"], types, entity_types)


def _pareto_quantiles(n: int, alpha: float, scale: float, cap: int | None) -> list[int]:
    out = []
    for i in range(n):
        x = int(scale / ((i + 0.5) / n) ** (1 / alpha))
        out.append(max(1, x if cap is None else min(cap, x)))
    return out


def check_templates(store: KgStore, templates) -> list[str]:
    """Template ids with no instantiable anchor (or binding) on ``store``."""
    missing = []
    for t in templates:
        if not _instantiable(store, t):
            missing.append(t.id)
    return missing


def _instantiable(store: KgStore, t) -> bool:
    anchor = t.anchor_slot()
    if anchor is not None:
        ty = tpl.anchor_type(store, t)
        if ty is None:
            return False
        for e in sorted(store.entities_of_type(ty)):
            built = _instantiate(store, t, {anchor: e})
            if built is not None:
                return True
        return False
    # no anchor (Verify): bind each typed slot to a distinct member of its type
    bindings = {}
    for slot in t.free_slots():
        ty = tpl.slot_expected_type(store, t, slot)
        if ty is None:
            return False
        taken = set(bindings.values())
        pool = [e for e in sorted(store.entities_of_type(ty)) if e not in taken]
        if not pool:
            return False
        bindings[slot] = pool[0]
    return _instantiate(store, t, bindings) is not None


def _instantiate(store, t, bindings):
    try:
        built = tpl.instantiate(store, t, bindings, number="plural")
    except (tpl.TemplateError, ValueError):
        return None
    return None if isinstance(built, tpl.Rejection) else built
