"""Golden corpus: `generate`, `split`, `link` and `ingest` on the fixture are
pinned byte for byte.

A refactor of the plan algebra, the templates or the dialog builders must
leave this corpus unchanged.  A deliberate change of the RNG stream or of
the output format updates the digests below and says so in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from conftest import KG_T_DIR, REPO
from kgdialog.cli import dispatch
from kgdialog.dialog_machine import QUESTION_STATES, TurnState

GOLDEN_SEED = 7
GOLDEN_N = 60
GOLDEN_SHA256 = {
    "dialogs.jsonl": "b18185fe7f0930521a8b7cba1cd1287e525faefc851bbe52947bb01e2176f42d",
    "stats.json": "5027862aa740e95da0de22096978e4ce7aed4207bd4025670a2f204c89b66fa9",
}


def _default_config(monkeypatch):
    for var in list(os.environ):
        if var.startswith("KGDIALOG_"):
            monkeypatch.delenv(var)


def _generate(tmp_path, monkeypatch, capsys):
    _default_config(monkeypatch)
    out = tmp_path / "corpus"
    argv = ["generate", "--kg", str(KG_T_DIR), "--n", str(GOLDEN_N), "--seed", str(GOLDEN_SEED)]
    code = dispatch([*argv, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def test_generate_matches_golden_digests(tmp_path, monkeypatch, capsys):
    out = _generate(tmp_path, monkeypatch, capsys)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


SPLIT_SEED = 3
SPLIT_SHA256 = {
    "train.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "valid.jsonl": "5d6ed55d6173c465e9a5829536d9e43cd0b54fd12b3b7a5b5771c3973eef7e18",
    "test.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "discarded.jsonl": "06466af01d23d5fb07dcec048c3339aeb6fa10150ff86ea184639d9ff39b0a91",
    "split_report.json": "00744b2e9b2ec09c27e41dbb6dc26086535bee9ad40bfe681a6b3d460ff1735b",
}


def test_split_matches_golden_digests(tmp_path, monkeypatch, capsys):
    """The golden corpus split 0.5/0.25/0.25 (from a config file): 0 train,
    5 valid, 0 test and 55 discarded dialogs, pinned byte for byte."""
    corpus = _generate(tmp_path, monkeypatch, capsys) / "dialogs.jsonl"
    config = tmp_path / "split_config.json"
    config.write_text(json.dumps({"split_fractions": [0.5, 0.25, 0.25]}), encoding="utf-8")
    out = tmp_path / "split"
    argv = ["split", "--kg", str(KG_T_DIR), "--corpus", str(corpus), "--seed", str(SPLIT_SEED)]
    code = dispatch([*argv, "--config", str(config), "--out", str(out)])
    assert capsys.readouterr().out == "train 0  valid 5  test 0  discarded 55\n"
    assert code == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SPLIT_SHA256
    }
    assert digests == SPLIT_SHA256


def test_golden_corpus_covers_every_question_state(tmp_path, monkeypatch, capsys):
    out = _generate(tmp_path, monkeypatch, capsys)
    states = set()
    for line in (out / "dialogs.jsonl").read_text(encoding="utf-8").splitlines():
        states |= {turn["state"] for turn in json.loads(line)["turns"]}
    assert {s.value for s in QUESTION_STATES} <= states
    assert {TurnState.CLARIFICATION_Q.value, TurnState.CLARIFICATION_A.value} <= states


GRAPHGEN_SHA256 = "8e52bcf143260fa5372790453c739bacc74893c56e730e39a1824a01adf75878"


def test_generate_on_synthetic_graph_matches_golden_digest(tmp_path, monkeypatch):
    """60 default-weight dialogs on a 1,594-tuple synthetic graph, pinned
    byte for byte: a graph large enough that every builder draws from many
    candidates, which the 10-entity fixture cannot show."""
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import graphgen

    from kgdialog import dataset_pipeline as dp
    from kgdialog.config import RunConfig
    from kgdialog.templates import load_templates

    store = graphgen.make_graph(1, 1565, "uniform")
    assert len(store.tuples) == 1594
    templates = load_templates(KG_T_DIR / "templates.jsonl")
    corpus = dp.generate_corpus(store, templates, 60, RunConfig(seed=7), seed=7)
    path = tmp_path / "dialogs.jsonl"
    dp.write_corpus(corpus, store, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GRAPHGEN_SHA256
    states = set()
    for line in data.decode("utf-8").splitlines():
        states |= {turn["state"] for turn in json.loads(line)["turns"]}
    assert {s.value for s in QUESTION_STATES} <= states
    assert TurnState.CLARIFICATION_Q.value in states


LINK_SHA256 = "1c9f668e6c2f6fc3ded0a8f31f34ee830f80e048a78f33d7efaf1ac9fcbc5a26"


def test_link_recall_report_of_the_golden_corpus_matches_golden_digest(
    tmp_path, monkeypatch, capsys
):
    """`link --corpus … --out` over the golden corpus, pinned byte for byte."""
    corpus = _generate(tmp_path, monkeypatch, capsys) / "dialogs.jsonl"
    out = tmp_path / "link.json"
    code = dispatch(["link", "--kg", str(KG_T_DIR), "--corpus", str(corpus), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LINK_SHA256


FIXTURE_LABELS_SHA256 = "c67cd9211083e7adbf740aa1fd80ff116e6b168a89e2b2f9a1d59815b5b3eb48"
FIXTURE_TYPES_SHA256 = "66e205cacf99fd64ce31ea4e4515f180425bd7cc168c00c74648c801a86c91f7"
FLOWS_THROUGH_TUPLES_SHA256 = "83001c4e6dd493128abdf3f2d0647be2cf56a590832adca50b6ebce4758ad84a"
INGEST_SHA256 = {
    (): {
        "labels.tsv": FIXTURE_LABELS_SHA256,
        "types.tsv": FIXTURE_TYPES_SHA256,
        "tuples.tsv": "b69213f3676ac7c4a82b9924777cfa832678657309aa5657fee2a8d4dcc64a65",
        "stats.json": "203c66f7bd1100b2f8de5d05c6039df719cd5800a3a86c28134c76946bf92e75",
    },
    ("--relations", "flows_through"): {
        "labels.tsv": FIXTURE_LABELS_SHA256,
        "types.tsv": FIXTURE_TYPES_SHA256,
        "tuples.tsv": FLOWS_THROUGH_TUPLES_SHA256,
        "stats.json": "afdf4023e20d9dff275de102de268b89221af9a28238b2cd5772c9ee7c5f7bb5",
    },
    ("--type-coverage", "0.5"): {
        "labels.tsv": FIXTURE_LABELS_SHA256,
        "types.tsv": "225f23b8545152f01037559657f6d388a2e6a8c0fe21e87f111bf057b83e7724",
        "tuples.tsv": FLOWS_THROUGH_TUPLES_SHA256,
        "stats.json": "61eac17390c75d9e649c1dec1560026b99bd044e32fc747ba705187f069d2be2",
    },
}


@pytest.mark.parametrize("flags", list(INGEST_SHA256), ids=lambda f: " ".join(f) or "plain")
def test_ingest_matches_golden_digests(flags, tmp_path, monkeypatch, capsys):
    """`ingest` of the fixture, plain and with each filter: every output file
    (the re-emitted store and its statistics) pinned byte for byte."""
    _default_config(monkeypatch)
    out = tmp_path / "ingest"
    code = dispatch(["ingest", "--kg", str(KG_T_DIR), *flags, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == INGEST_SHA256[flags]
