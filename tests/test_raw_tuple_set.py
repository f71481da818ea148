"""Every library reader but the brute-force oracle reads a store's tuples
through ``KgStore.rows``; the raw ``KgStore.tuples`` set is the oracle's
own input.

Each check runs on a store and on a copy whose raw set is taken away, and
the two must give the same result.  The oracle is the one reader that
fails on the copy.
"""

import pytest

from conftest import KG_T_DIR, REPO
from kgdialog import dataset_pipeline as pipe, entity_linker, kg_embed, kg_store, query_algebra as qa
from kgdialog.kg_store import TupleRows
from kgdialog.templates import load_templates


def _build(name: str, monkeypatch) -> kg_store.KgStore:
    if name == "fixture":
        return kg_store.load_dir(KG_T_DIR)
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    return graphgen.make_graph(7, 1800, "heavy")


def _filtered(store: kg_store.KgStore) -> tuple:
    return store.rows.tolist(), sorted(store.tuples), store.entity_types


def _readers(store: kg_store.KgStore, out) -> dict:
    """What the store's readers other than the oracle give, as plain values."""
    got = {
        "filter_relations": _filtered(kg_store.filter_relations(store, {0})),
        "stats": kg_store.stats(store),
    }
    filtered, retained = kg_store.filter_types(store, 0.75)
    got["filter_types"] = _filtered(filtered), retained
    kg_store.save_dir(store, out / "kg")
    got["save_dir"] = [(out / "kg" / name).read_bytes() for name in ("labels.tsv", "types.tsv", "tuples.tsv")]

    templates = load_templates(KG_T_DIR / "templates.jsonl", store)
    pipe.write_corpus(pipe.generate_corpus(store, templates, 6, seed=3), store, out / "dialogs.jsonl")
    got["corpus"] = (out / "dialogs.jsonl").read_bytes()
    corpus = pipe.read_corpus(out / "dialogs.jsonl", store)
    split = pipe.split_corpus(corpus, pipe.SplitSpec((0.5, 0.25, 0.25), 1))
    got["split"] = split, pipe.split_report(corpus, split)
    got["corpus_stats"] = pipe.corpus_stats(corpus)
    gazetteer = entity_linker.build_gazetteer(store)
    got["recall"] = entity_linker.recall_report(store, gazetteer, corpus.dialogs, cap=40)
    got["plans"] = [t.plan for d in corpus.dialogs for t in d.turns if t.plan is not None]

    table = kg_embed.train(store, kg_embed.TrainConfig(dim=8, epochs=3, seed=1))
    got["train"] = table.entity_vecs.tobytes(), table.relation_vecs.tobytes(), table.epoch_losses
    rows = TupleRows(store.rows)
    got["link_prediction"] = kg_embed.link_prediction_eval(table, rows, all_tuples=rows)
    return got


@pytest.mark.parametrize("name", ["fixture", "heavy"])
def test_only_the_oracle_reads_the_raw_tuple_set(name, monkeypatch, tmp_path):
    intact = _build(name, monkeypatch)
    blind = _build(name, monkeypatch)
    blind.tuples = None
    want = _readers(intact, tmp_path / "intact")
    got = _readers(blind, tmp_path / "blind")
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    assert want["plans"] and want["recall"].n_questions_with_gold

    plan = want["plans"][0]
    assert qa.brute_force_execute(intact, plan) == qa.execute(intact, plan)
    with pytest.raises(TypeError):
        qa.brute_force_execute(blind, plan)
