"""CLI subcommands, exit codes and output determinism."""

import json
import shutil

import numpy as np
import pytest

from conftest import KERNEL_VECTORS, KG_T_DIR
from kgdialog import dataset_pipeline as pipe, kg_embed, kg_store, query_algebra as qa
from kgdialog.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_answer_prints_count(capsys):
    code, out, _ = run(
        capsys,
        "answer",
        "--kg",
        str(KG_T_DIR),
        "--plan",
        "Count(Lookup(obj, flows_through, India, river))",
    )
    assert code == 0
    assert out.strip() == "3"


def test_answer_prints_entities(capsys):
    code, out, _ = run(
        capsys,
        "answer",
        "--kg",
        str(KG_T_DIR),
        "--plan",
        "Retrieve(Lookup(obj, flows_through, India, river))",
    )
    assert code == 0
    assert out.strip() == "Ganga, Yamuna, Brahmaputra"


def test_answer_bad_plan_is_runtime_error(capsys):
    code, _, err = run(capsys, "answer", "--kg", str(KG_T_DIR), "--plan", "Nonsense(")
    assert code == 1
    assert "error:" in err


def test_answer_plan_with_a_misplaced_node_is_runtime_error(capsys):
    plan = "ArgOpt(Lookup(obj, flows_through, India, river), max)"
    code, _, err = run(capsys, "answer", "--kg", str(KG_T_DIR), "--plan", plan)
    assert code == 1
    assert err.strip() == "error: ArgOpt argument 1 must be a Group(...)"


def test_generate_writes_corpus_and_stats(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, _, _ = run(
        capsys,
        "generate",
        "--kg",
        str(KG_T_DIR),
        "--n",
        "5",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert code == 0
    dialogs = (out / "dialogs.jsonl").read_text().strip().splitlines()
    assert len(dialogs) == 5
    stats = json.loads((out / "stats.json").read_text())
    assert stats["stats"]["n_dialogs"] == 5
    assert stats["config"]["seed"] == 7
    assert "full_scale_reference" in stats
    assert (out / "run_config.json").exists()


def test_generate_byte_identical_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "generate", "--kg", str(KG_T_DIR), "--n", "4", "--seed", "11", "--out", str(out)
        )
        assert code == 0
    assert (out1 / "dialogs.jsonl").read_bytes() == (out2 / "dialogs.jsonl").read_bytes()
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()


def test_split_accounts_for_every_dialog(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "8", "--seed", "3", "--out", str(corpus_dir))
    split_dir = tmp_path / "split"
    code, _, _ = run(
        capsys,
        "split",
        "--kg",
        str(KG_T_DIR),
        "--corpus",
        str(corpus_dir / "dialogs.jsonl"),
        "--fractions",
        "0.6,0.2,0.2",
        "--seed",
        "5",
        "--out",
        str(split_dir),
    )
    assert code == 0
    report = json.loads((split_dir / "split_report.json").read_text())
    assert report["config"]["split_fractions"] == [0.6, 0.2, 0.2]
    n_parts = sum(report[k] for k in ("n_train", "n_valid", "n_test", "n_discarded"))
    assert n_parts == 8
    assert report["provenance_overlap_train_eval"] == 0
    for name in ("train", "valid", "test", "discarded"):
        assert (split_dir / f"{name}.jsonl").exists()


@pytest.mark.parametrize("fractions", ["0.8,x,0.1", "0.5,0.5", "0.5,0.25,0.5"])
def test_bad_fractions_flag_names_the_field(fractions, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "2", "--seed", "3", "--out", str(corpus_dir))
    corpus = str(corpus_dir / "dialogs.jsonl")
    split_dir = tmp_path / "split"
    argv = ["split", "--kg", str(KG_T_DIR), "--corpus", corpus, "--fractions", fractions]
    code, _, err = run(capsys, *argv, "--out", str(split_dir))
    assert code == 1
    assert err.startswith("error: split_fractions")
    assert not split_dir.exists()


def test_stats_subcommand_prints_the_stats_of_generate(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "5", "--seed", "4", "--out", str(corpus_dir))
    corpus = str(corpus_dir / "dialogs.jsonl")
    code, out, _ = run(capsys, "stats", "--kg", str(KG_T_DIR), "--corpus", corpus, "--seed", "4")
    assert code == 0
    generated = json.loads((corpus_dir / "stats.json").read_text())
    assert generated.pop("shortfall") == 0
    assert json.loads(out) == generated


def test_a_corpus_naming_a_repeated_entity_label_reads_back(tmp_path, capsys):
    """Plans print an entity whose label repeats as its id."""
    kg = tmp_path / "kg"
    shutil.copytree(KG_T_DIR, kg)
    labels = kg / "labels.tsv"
    labels.write_text(labels.read_text().replace("\tYamuna\n", "\tGanga\n"))
    corpus_dir = tmp_path / "corpus"
    code, _, err = run(capsys, "generate", "--kg", str(kg), "--n", "20", "--seed", "7", "--out", str(corpus_dir))
    assert code == 0, err
    corpus = corpus_dir / "dialogs.jsonl"
    code, out, err = run(capsys, "stats", "--kg", str(kg), "--corpus", str(corpus))
    assert code == 0, err
    assert json.loads(out)["stats"]["n_dialogs"] == 20
    store = kg_store.load_dir(kg)
    ganga = {e for e in range(store.n_entities) if store.entity_label(e) == "Ganga"}
    read = pipe.read_corpus(corpus, store)
    plans = [t.plan for d in read.dialogs for t in d.turns if t.plan is not None]
    assert any(qa.plan_entities(plan) & ganga for plan in plans)
    again = tmp_path / "again.jsonl"
    pipe.write_corpus(read, store, again)
    assert again.read_bytes() == corpus.read_bytes()


def test_stats_subcommand_reads_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "3", "--seed", "2", "--out", str(corpus_dir))
    code, out, _ = run(
        capsys, "stats", "--kg", str(KG_T_DIR), "--corpus", str(corpus_dir / "dialogs.jsonl")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["n_dialogs"] == 3


def test_ingest_filters_and_reports(tmp_path, capsys):
    out = tmp_path / "filtered"
    code, _, _ = run(
        capsys,
        "ingest",
        "--kg",
        str(KG_T_DIR),
        "--relations",
        "flows_through",
        "--out",
        str(out),
    )
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["stats"]["n_tuples"] == 6
    assert (out / "tuples.tsv").read_text().count("\n") == 6


def test_ingest_type_coverage(tmp_path, capsys):
    out = tmp_path / "typed"
    code, _, _ = run(
        capsys, "ingest", "--kg", str(KG_T_DIR), "--type-coverage", "0.75", "--out", str(out)
    )
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["stats"]["n_tuples"] == 6
    assert sorted(stats["retained_types"]) == ["country", "river"]


def test_link_subcommand(capsys):
    code, out, _ = run(
        capsys, "link", "--kg", str(KG_T_DIR), "--utterance", "which rivers flow through india ?"
    )
    assert code == 0
    assert "India" in out
    assert "candidate tuples: 4" in out


def test_embed_writes_model(tmp_path, capsys):
    out = tmp_path / "emb.bin"
    code, out_text, _ = run(
        capsys,
        "embed",
        "--kg",
        str(KG_T_DIR),
        "--dim",
        "8",
        "--epochs",
        "30",
        "--seed",
        "0",
        "--out",
        str(out),
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "emb.bin.manifest.json").exists()
    assert "mean rank" in out_text


def test_embed_with_zero_epochs_saves_the_seeded_initialisation(store, tmp_path, capsys):
    out = tmp_path / "emb.bin"
    argv = ["embed", "--kg", str(KG_T_DIR), "--dim", "8", "--epochs", "0", "--seed", "3"]
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    saved = kg_embed.load_embeddings(out)
    init = kg_embed.init_table(store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=8, seed=3))
    assert np.array_equal(saved.entity_vecs, init.entity_vecs.astype(np.float32))
    assert np.array_equal(saved.relation_vecs, init.relation_vecs.astype(np.float32))


def test_embed_prints_filtered_ranks_on_both_sides(store, tmp_path, capsys):
    out = tmp_path / "emb.bin"
    argv = ["embed", "--kg", str(KG_T_DIR), "--dim", "8", "--epochs", "0", "--seed", "3"]
    code, out_text, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out_text.splitlines()[1:] == [
        "ranks on the training tuples (they show fit, not prediction):",
        "object side: mean rank 4.88 (random 5.50), hits@10 1.000 (random 1.000), "
        "filtered mean rank 4.38, filtered hits@10 1.000",
        "subject side: mean rank 5.12 (random 5.50), hits@10 1.000 (random 1.000), "
        "filtered mean rank 5.00, filtered hits@10 1.000",
    ]
    init = kg_embed.init_table(store.n_entities, store.n_relations, kg_embed.TrainConfig(dim=8, seed=3))
    report = kg_embed.link_prediction_eval(init, store.tuples, all_tuples=store.tuples)
    assert report.object_side.filtered_mean_rank == 4.375
    assert report.subject_side.filtered_mean_rank == 5.0


def test_embed_with_zero_dim_is_an_error(tmp_path, capsys):
    out = tmp_path / "emb.bin"
    code, _, err = run(capsys, "embed", "--kg", str(KG_T_DIR), "--dim", "0", "--out", str(out))
    assert code == 1
    assert err.splitlines() == ["error: embed_dim must be an integer >= 1, got 0"]
    assert not out.exists()


def test_embed_with_a_negative_seed_fails_before_training(tmp_path, capsys):
    out = tmp_path / "emb.bin"
    code, _, err = run(capsys, "embed", "--kg", str(KG_T_DIR), "--seed", "-1", "--out", str(out))
    assert code == 1
    assert err.splitlines() == ["error: seed must be an integer >= 0, got -1"]
    assert not out.exists()


def test_kernel_check_passes(capsys):
    code, out, _ = run(capsys, "kernel-check", "--vectors", str(KERNEL_VECTORS))
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_kernel_check_flags_wrong_expectations(tmp_path, capsys):
    bad = tmp_path / "bad_vectors.jsonl"
    bad.write_text(
        json.dumps(
            {
                "name": "wrong",
                "q1": [1.0, 0.0],
                "keys": [[1.0, 0.0], [0.0, 1.0]],
                "values": [[1.0], [-1.0]],
                "A": [[1.0, 0.0], [0.0, 1.0]],
                "R": [[[1.0, 0.0], [0.0, 1.0]]],
                "B": [[1.0], [0.0]],
                "expected_attention": [[0.9, 0.1]],
                "expected_q_final": [1.0, 0.0],
            }
        )
        + "\n"
    )
    code, out, _ = run(capsys, "kernel-check", "--vectors", str(bad))
    assert code == 1
    assert "FAIL vector wrong" in out


def test_kernel_check_fails_a_too_wide_record_and_runs_the_rest(tmp_path, capsys):
    good = KERNEL_VECTORS.read_text().splitlines()
    wide = {
        **json.loads(good[0]), "name": "wide", "keys": [[1.0], [0.0]],
        "values": [[1.0, 0.0], [0.0, 1.0]], "A": [[1.0], [0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
    }
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("\n".join([json.dumps(wide), *good]) + "\n")
    code, out, err = run(capsys, "kernel-check", "--vectors", str(vectors))
    assert code == 1
    assert err == ""
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL vector wide: memory values (2, 2) are wider than keys (2, 1)"]
    passed_vectors = [line for line in out.splitlines() if line.startswith("PASS vector")]
    assert len(passed_vectors) == len(good)


def test_split_outputs_byte_identical_across_runs(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "6", "--seed", "9", "--out", str(corpus_dir))
    blobs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "split",
            "--kg",
            str(KG_T_DIR),
            "--corpus",
            str(corpus_dir / "dialogs.jsonl"),
            "--seed",
            "4",
            "--out",
            str(out),
        )
        assert code == 0
        blobs.append(
            b"".join((out / f"{part}.jsonl").read_bytes() for part in ("train", "valid", "test", "discarded"))
            + (out / "split_report.json").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_eval_subcommand(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(
        json.dumps(
            {
                "question_type": "Simple Question (Direct)",
                "gold": {"kind": "entities", "members": [1, 2, 3]},
                "predicted": {"kind": "entities", "members": [1, 2, 3]},
            }
        )
        + "\n"
    )
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "eval", "--records", str(records), "--out", str(report_path)
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["rows"][0]["macro_precision"] == 1.0
    assert "published_reference" in report
    assert "reference (full-scale, context only):" in out


def test_config_file_flag_applies(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 21, "min_questions": 3, "max_questions": 3}))
    out = tmp_path / "c"
    code, _, _ = run(
        capsys, "generate", "--kg", str(KG_T_DIR), "--n", "2", "--config", str(config), "--out", str(out)
    )
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["config"]["seed"] == 21
    assert stats["config"]["min_questions"] == 3
    assert stats["stats"]["n_questions"] == 6  # 3 questions per dialog, 2 dialogs


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"not_a_knob": 1}))
    code, _, err = run(
        capsys, "generate", "--kg", str(KG_T_DIR), "--n", "1", "--config", str(config), "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "not_a_knob" in err


def test_env_override_changes_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGDIALOG_SEED", "99")
    out = tmp_path / "c"
    code, _, _ = run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "2", "--out", str(out))
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["config"]["seed"] == 99


def test_generation_identical_across_processes_and_hash_seeds(tmp_path):
    """Corpus bytes must not depend on interpreter hash randomization."""
    import os
    import subprocess
    import sys

    import kgdialog

    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(kgdialog.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "424242"):
        out = tmp_path / f"run_{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        subprocess.run(
            [
                sys.executable,
                "-m",
                "kgdialog.cli",
                "generate",
                "--kg",
                str(KG_T_DIR),
                "--n",
                "6",
                "--seed",
                "13",
                "--out",
                str(out),
            ],
            check=True,
            env=env,
            capture_output=True,
        )
        outputs.append((out / "dialogs.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


def test_repl_answers_and_resolves_that(monkeypatch, capsys):
    lines = iter(
        [
            "Retrieve(Lookup(subj, capital, \"New Delhi\", country))",
            "Count(Lookup(obj, flows_through, that country, river))",
            "",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = dispatch(["answer", "--kg", str(KG_T_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["India", "3"]


def test_repl_reports_ambiguous_and_missing_antecedents(monkeypatch, capsys):
    lines = iter(
        [
            "Retrieve(Lookup(obj, flows_through, China, river))",
            "Count(Lookup(subj, flows_through, that river, country))",
            "Count(Lookup(obj, capital, that country, city))",
            "",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = dispatch(["answer", "--kg", str(KG_T_DIR)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["Brahmaputra, Mekong"]
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors[0] == "error: ambiguous mention 'that river': did you mean one of Brahmaputra, Mekong?"
    assert "that country" in errors[1]
    assert len(errors) == 2


@pytest.mark.parametrize("label", ["Mekong", "Blue\\Nile"])
def test_repl_resolves_that_to_an_entity_whatever_its_label(tmp_path, monkeypatch, capsys, label):
    """"that river" becomes the entity as plan text prints it: a repeated
    label as the entity's id, any other label quoted and escaped."""
    kg = tmp_path / "kg"
    shutil.copytree(KG_T_DIR, kg)
    labels = kg / "labels.tsv"
    labels.write_text(labels.read_text().replace("\tNile\n", f"\t{label}\n"))
    lines = iter(
        [
            "Retrieve(Lookup(obj, flows_through, Egypt, river))",
            "Retrieve(Lookup(subj, flows_through, that river, country))",
            "",
        ]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = dispatch(["answer", "--kg", str(kg)])
    captured = capsys.readouterr()
    assert code == 0
    assert "error:" not in captured.err
    assert captured.out.splitlines() == [label, "Egypt"]


def test_kernel_check_reports_a_failing_builtin_check(monkeypatch, capsys):
    real = kg_embed.margin_loss_grads

    def doubled(*args):
        loss, grads = real(*args)
        return loss, {key: 2.0 * grad for key, grad in grads.items()}

    monkeypatch.setattr(kg_embed, "margin_loss_grads", doubled)
    code, out, _ = run(capsys, "kernel-check")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL margin-loss gradients match central differences: relative error")


# -- malformed input files: exit 1 with one "error:" line naming path:line ----------


def assert_one_error_line(code, err, where, detail):
    assert code == 1
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ")
    assert where in err
    assert detail in err
    assert "Traceback" not in err


def corpus_with_bad_third_line(tmp_path, capsys, bad_line):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "2", "--seed", "3", "--out", str(corpus_dir))
    corpus = corpus_dir / "dialogs.jsonl"
    assert len(corpus.read_text().splitlines()) == 2
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    return corpus


CORPUS_READERS = {
    "stats": lambda corpus, tmp_path: ["stats", "--kg", str(KG_T_DIR), "--corpus", str(corpus)],
    "split": lambda corpus, tmp_path: [
        "split", "--kg", str(KG_T_DIR), "--corpus", str(corpus), "--out", str(tmp_path / "s")
    ],
    "link": lambda corpus, tmp_path: ["link", "--kg", str(KG_T_DIR), "--corpus", str(corpus)],
}


@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_line_without_turns_names_the_line_and_field(command, tmp_path, capsys):
    corpus = corpus_with_bad_third_line(tmp_path, capsys, json.dumps({"dialog_id": "x", "seed": 1}))
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", "missing field 'turns'")


def test_corpus_line_that_is_not_json_names_the_line(tmp_path, capsys):
    corpus = corpus_with_bad_third_line(tmp_path, capsys, "{not json")
    code, _, err = run(capsys, *CORPUS_READERS["stats"](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", "bad json")


def test_eval_record_without_predicted_names_the_line_and_field(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    gold = {"kind": "counts", "counts": [[None, 3]]}
    records.write_text(json.dumps({"question_type": "Quantitative (Count)", "gold": gold}) + "\n")
    code, _, err = run(capsys, "eval", "--records", str(records))
    assert_one_error_line(code, err, f"{records}:1", "missing field 'predicted'")


def test_eval_record_that_is_not_json_names_the_line(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text("\nnot json\n")
    code, _, err = run(capsys, "eval", "--records", str(records))
    assert_one_error_line(code, err, f"{records}:2", "bad json")


def test_kernel_vector_that_is_not_json_names_the_line(tmp_path, capsys):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(KERNEL_VECTORS.read_text().rstrip("\n") + "\n[1, 2\n")
    code, _, err = run(capsys, "kernel-check", "--vectors", str(vectors))
    line = len(KERNEL_VECTORS.read_text().rstrip("\n").splitlines()) + 1
    assert_one_error_line(code, err, f"{vectors}:{line}", "bad json")


@pytest.mark.parametrize(
    "entity_id, shown", [("99999", "unknown entity id '99999'"), ("x", "unknown entity id 'x'")]
)
def test_alias_with_a_bad_entity_id_fails_at_load(entity_id, shown, tmp_path, capsys):
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(f"0\tbharat\n{entity_id}\tfoo\n")
    code, _, err = run(
        capsys, "link", "--kg", str(KG_T_DIR), "--aliases", str(aliases), "--utterance", "foo"
    )
    assert_one_error_line(code, err, f"{aliases}:2", shown)


@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_line_whose_turns_is_not_a_list_names_the_line_and_field(command, tmp_path, capsys):
    bad_line = json.dumps({"dialog_id": "x", "seed": 1, "turns": 5})
    corpus = corpus_with_bad_third_line(tmp_path, capsys, bad_line)
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", "field 'turns' must be list, got int")


@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_plan_with_an_unknown_relation_names_the_line_and_field(command, tmp_path, capsys):
    turn = {
        "speaker": "user",
        "state": "SimpleQ",
        "utterance": "Which city is the nope of India ?",
        "entities": [],
        "plan": "Retrieve(Lookup(obj, nope, India, city))",
        "answer": None,
    }
    bad_line = json.dumps({"dialog_id": "x", "seed": 1, "turns": [turn]})
    corpus = corpus_with_bad_third_line(tmp_path, capsys, bad_line)
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", "field 'plan': unknown relation label 'nope'")


def test_eval_record_with_non_list_members_names_the_line_and_field(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    answer = {"kind": "entities", "members": [1]}
    records.write_text(
        json.dumps({"question_type": "Simple Question (Direct)", "gold": answer, "predicted": answer})
        + "\n"
        + json.dumps(
            {
                "question_type": "Simple Question (Direct)",
                "gold": answer,
                "predicted": {"kind": "entities", "members": 5},
            }
        )
        + "\n"
    )
    code, _, err = run(capsys, "eval", "--records", str(records))
    assert_one_error_line(code, err, f"{records}:2", "field 'members' must be list, got int")


@pytest.mark.parametrize(
    "gold, predicted, shown",
    [
        (
            {"kind": "booleans", "values": [False]},
            {"kind": "booleans", "values": ["false"]},
            "field 'values' must hold booleans, got 'false'",
        ),
        (
            {"kind": "booleans", "values": [0]},
            {"kind": "booleans", "values": [False]},
            "field 'values' must hold booleans, got 0",
        ),
        (
            {"kind": "entities", "members": [1]},
            {"kind": "entities", "members": ["Ganga", 1.5]},
            "field 'members' must hold entity ids, got 'Ganga'",
        ),
        (
            {"kind": "entities", "members": [1]},
            {"kind": "entities", "members": [1.5]},
            "field 'members' must hold entity ids, got 1.5",
        ),
        (
            {"kind": "entities", "members": [True]},
            {"kind": "entities", "members": [1]},
            "field 'members' must hold entity ids, got True",
        ),
        (
            {"kind": "counts", "counts": [[None, 3]]},
            {"kind": "counts", "counts": [[None]]},
            "field 'counts' must hold [type id or null, count >= 0] pairs, got [None]",
        ),
        (
            {"kind": "counts", "counts": [[None, 3]]},
            {"kind": "counts", "counts": [[None, -1]]},
            "field 'counts' must hold [type id or null, count >= 0] pairs, got [None, -1]",
        ),
    ],
)
def test_eval_record_with_a_mistyped_answer_value_names_the_line_and_field(
    gold, predicted, shown, tmp_path, capsys
):
    records = tmp_path / "records.jsonl"
    answer = {"kind": "entities", "members": [1]}
    good = {"question_type": "Simple Question (Direct)", "gold": answer, "predicted": answer}
    bad = {**good, "gold": gold, "predicted": predicted}
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    code, _, err = run(capsys, "eval", "--records", str(records))
    assert_one_error_line(code, err, f"{records}:2", shown)


@pytest.mark.parametrize(
    "turn_fields, shown",
    [
        ({"entities": ["Ganga"]}, "field 'entities' must hold entity ids, got 'Ganga'"),
        ({"entities": [99999]}, "field 'entities' must hold entity ids, got 99999"),
        ({"answer": {"kind": "entities", "members": [99999]}}, "field 'members' must hold entity ids, got 99999"),
        ({"answer": {"kind": "counts", "counts": [[99999, 1]]}}, "got [99999, 1]"),
    ],
)
@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_turn_with_a_bad_id_names_the_line_and_field(command, turn_fields, shown, tmp_path, capsys):
    turn = {
        "speaker": "system",
        "state": "SimpleQ",
        "utterance": "Ganga",
        "entities": [],
        "plan": None,
        "answer": None,
        **turn_fields,
    }
    bad_line = json.dumps({"dialog_id": "x", "seed": 1, "turns": [turn]})
    corpus = corpus_with_bad_third_line(tmp_path, capsys, bad_line)
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", shown)


@pytest.mark.parametrize(
    "turn_fields, shown",
    [
        ({"speaker": "robot"}, "field 'speaker' must be 'user' or 'system', got 'robot'"),
        ({"speaker": "User"}, "field 'speaker' must be 'user' or 'system', got 'User'"),
        ({"state": "SimpleQuestion"}, "field 'state': 'SimpleQuestion' is not a valid TurnState"),
    ],
)
@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_turn_with_a_bad_speaker_or_state_names_the_line_and_field(
    command, turn_fields, shown, tmp_path, capsys
):
    turn = {
        "speaker": "user",
        "state": "SimpleQ",
        "utterance": "Which rivers flow through India ?",
        "entities": [],
        "plan": None,
        "answer": None,
        **turn_fields,
    }
    bad_line = json.dumps({"dialog_id": "x", "seed": 1, "turns": [turn]})
    corpus = corpus_with_bad_third_line(tmp_path, capsys, bad_line)
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:3", shown)


@pytest.mark.parametrize("command", sorted(CORPUS_READERS))
def test_corpus_with_a_repeated_dialog_id_names_both_lines(command, tmp_path, capsys):
    """Two generate runs both number their dialogs from d000000; read as one
    corpus, the second run's dialogs would take the first run's provenance
    and could land in a split part that does not own their tuples."""
    lines = []
    for seed in ("1", "2"):
        out = tmp_path / f"g{seed}"
        run(capsys, "generate", "--kg", str(KG_T_DIR), "--n", "6", "--seed", seed, "--out", str(out))
        lines += (out / "dialogs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    corpus = tmp_path / "both.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run(capsys, *CORPUS_READERS[command](corpus, tmp_path))
    assert_one_error_line(code, err, f"{corpus}:7", "field 'dialog_id': 'd000000' repeats line 1")
    assert not (tmp_path / "s").exists()


def test_link_without_utterance_or_corpus_is_a_usage_error_before_any_read(tmp_path, capsys):
    missing = tmp_path / "missing"
    for kg in (KG_T_DIR, missing):
        code, out, err = run(capsys, "link", "--kg", str(kg), "--aliases", str(missing / "aliases.tsv"))
        assert (code, out, err) == (2, "", "error: link needs --utterance or --corpus\n")


def test_template_error_names_the_line_once(tmp_path, capsys):
    record = json.loads((KG_T_DIR / "templates.jsonl").read_text(encoding="utf-8").splitlines()[0])
    templates = tmp_path / "templates.jsonl"
    templates.write_text(json.dumps({**record, "direction": "sideways"}) + "\n")
    argv = ["generate", "--kg", str(KG_T_DIR), "--templates", str(templates), "--n", "1"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "g"))
    assert_one_error_line(code, err, f"{templates}:1", "unknown direction 'sideways'")
    assert err.count(str(templates)) == 1


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("id", None, "field 'id' must be str, got NoneType"),
        ("fixed", 5, "field 'fixed' must be dict, got int"),
        ("slot_types", ["x"], "field 'slot_types' must be dict, got list"),
        ("surface", [5], "field 'surface' must hold only strings, got int"),
        ("fixed", {"relation": [1]}, "field 'fixed' must hold only strings, got list"),
        ("slot_types", {"entity:1": 3}, "field 'slot_types' must hold only strings, got int"),
    ],
)
def test_template_field_of_the_wrong_type_names_the_line_and_field(
    field, value, shown, tmp_path, capsys
):
    lines = (KG_T_DIR / "templates.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    templates = tmp_path / "templates.jsonl"
    templates.write_text(lines[0] + "\n" + json.dumps({**record, field: value}) + "\n")
    argv = ["generate", "--kg", str(KG_T_DIR), "--templates", str(templates), "--n", "1"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "g"))
    assert_one_error_line(code, err, f"{templates}:2", shown)


@pytest.mark.parametrize(
    "slot, shown",
    [
        ("relation", "unknown relation label 'nope'"),
        ("object_type", "unknown type label 'nope'"),
        ("entity:1", "unknown type label 'nope'"),
    ],
)
def test_template_naming_an_unknown_label_fails_at_load(slot, shown, tmp_path, capsys):
    # ``fixed`` binds a relation or type slot to a label; ``slot_types``
    # names the type of an entity slot
    field = "slot_types" if slot.startswith("entity") else "fixed"
    lines = (KG_T_DIR / "templates.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    templates = tmp_path / "templates.jsonl"
    labels = {**record.get(field, {}), slot: "nope"}
    templates.write_text(lines[0] + "\n" + json.dumps({**record, field: labels}) + "\n")
    out = tmp_path / "g"
    argv = ["generate", "--kg", str(KG_T_DIR), "--templates", str(templates), "--n", "1"]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert_one_error_line(code, err, f"{templates}:2", f"field '{field}': {shown}")
    assert err == f"error: {templates}:2: field '{field}': {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "schema, shown",
    [
        ("Retrieve(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩))", "Lookup takes 4 arguments, got 3"),
        ("Retrieve(⟨object_type⟩)", "Retrieve argument 1 must be a set expression"),
        ("Count(Group(river, By(flows_through, subj, country)))", "Count argument 1 must be a set expression"),
        ("Verify()", "Verify takes at least 1 argument"),
        ("Retrieve(TypeUnion())", "TypeUnion takes at least 1 argument"),
        ("ThresholdFilter(Group(river), atleast, 2)", "Group takes at least 2 arguments"),
        # these parse, but break a plan rule that no instantiation can mend
        (
            "Retrieve(Union(Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, ⟨object_type⟩), Lookup(obj, ⟨relation⟩, ⟨entity:1⟩, river)))",
            "type-incompatible branches: ['city'] vs ['river']",
        ),
        (
            "Retrieve(TypeUnion(Lookup(obj, capital, India, city), Lookup(obj, flows_through, China, river)))",
            "TypeUnion branches must share one anchor",
        ),
        (
            "Comparative(Group(country, By(flows_through, sideways, river)), ⟨entity:1⟩, more)",
            "By argument 2: unknown direction 'sideways', expected one of obj, subj",
        ),
        (
            "Comparative(Group(country, By(flows_through, obj, river)), ⟨entity:1⟩, bigger)",
            "Comparative argument 3: unknown comparison 'bigger', expected one of more, less",
        ),
    ],
)
def test_malformed_plan_schema_fails_at_load_naming_the_field(schema, shown, tmp_path, capsys):
    # the surface names no entity slot, so the schema is the record's only fault
    lines = (KG_T_DIR / "templates.jsonl").read_text(encoding="utf-8").splitlines()
    record = {**json.loads(lines[0]), "plan_schema": schema, "surface": "Which ⟨object_type⟩ is it ?"}
    templates = tmp_path / "templates.jsonl"
    templates.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n", encoding="utf-8")
    out = tmp_path / "g"
    argv = ["generate", "--kg", str(KG_T_DIR), "--templates", str(templates), "--n", "3"]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert_one_error_line(code, err, f"{templates}:1", shown)
    assert err == f"error: {templates}:1: field 'plan_schema': {shown}\n"
    assert not out.exists()
