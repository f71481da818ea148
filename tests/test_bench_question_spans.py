"""The benchmark's traced spans fire on the question path.

`bench/layers.register` wraps library functions by module attribute, so a
function that stops being called through its module name (inlined, or
called by a local alias) records nothing, and the per-layer times of
``qa-answer`` read zero without any error.  One fixture question runs here
through the chain that ``qa-answer`` times, under the bench's tracer.
"""

import random

import numpy as np

from conftest import REPO
from kgdialog import (
    dialog_machine as dm,
    entity_linker as el,
    kg_embed,
    memnet_kernel as mk,
    plan_text,
    query_algebra as qa,
)

# memnet_kernel.hop is registered, but multi_hop projects once and steps
# through the hops itself, so the question path never calls it
NOT_ON_THE_PATH = {"memnet_kernel.hop"}
CHAIN_SPANS = {"plan_text.parse", "query_algebra.execute.Retrieve", "dialog_machine.render_response"}


def test_every_span_on_the_question_path_records(store, ids, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import layers
    from spans import END, NAME, PARENT, START, Tracer

    tracer = Tracer()
    layers.register(tracer)
    gazetteer = el.build_gazetteer(store)
    table = kg_embed.init_table(store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=4))
    rng = np.random.default_rng(0)
    params = mk.HopParams(
        A=rng.standard_normal((3, 8)),
        R=tuple(rng.standard_normal((3, 3)) for _ in range(mk.DEFAULT_HOPS)),
        B=rng.standard_normal((3, 4)),
    )
    context = (ids["China"], ids["Brahmaputra"])

    with tracer.active(), tracer.operation(0):  # a hook that raised would raise here
        plan = plan_text.parse_plan("Retrieve(Lookup(obj, flows_through, India, river))", store)
        answer = qa.execute(store, plan)
        dm.render_response(store, answer, 10, 10, random.Random(0))
        candidates = el.link_and_retrieve(store, gazetteer, "which rivers flow through india ?", 10000, context)
        slab = mk.build_memory(candidates, table)
        hops = mk.multi_hop(rng.standard_normal(3), slab, params)
        dist = mk.entity_distribution(hops.q_final, slab, params.B)
        words = mk.substitute_kg_words(["the", mk.KG_WORD], dist, slab)
    assert words[1] != mk.KG_WORD

    calls = {}
    for span in tracer.spans:
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
    # the linker's and the kernel's spans are named module.attribute
    on_the_path = {
        f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        for owner, attr, _ in tracer._targets
        if owner in (el, mk)
    } - NOT_ON_THE_PATH
    assert len(on_the_path) == 7
    missing = sorted(name for name in on_the_path | CHAIN_SPANS if not calls.get(name))
    assert not missing

    # link and candidate_tuples run inside link_and_retrieve, so the linker's
    # self time does not count them twice
    spans = tracer.spans
    outer = next(i for i, s in enumerate(spans) if s[NAME] == "entity_linker.link_and_retrieve")
    for name in ("entity_linker.link", "entity_linker.candidate_tuples"):
        assert [s[PARENT] for s in spans if s[NAME] == name] == [outer]

    # the hooks saw the real arguments and results
    assert tracer.samples["candidates"] == [len(candidates.tuples)] and len(candidates.tuples) > 4
    assert tracer.samples["slab_rows"] == [slab.size]
    assert tracer.counts["memnet_kernel.flop"] > 0
    wall = spans[0][END] - spans[0][START]
    metrics = layers.metrics(tracer, 1, wall)
    for name in (
        "entity_linker.link_ms",
        "entity_linker.candidate_tuples_ms",
        "memnet_kernel.build_memory_ms",
        "memnet_kernel.entity_distribution_ms",
    ):
        assert metrics[name][0] > 0
    assert metrics["memnet_kernel.slab_rows_p50"][0] == slab.size
