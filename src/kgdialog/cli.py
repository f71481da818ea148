"""Command-line entry point: each subcommand parses its flags, calls the
library and prints.

Subcommands: ingest, generate, split, stats, answer, link, embed,
kernel-check, eval.  All randomness flows from --seed; identical flags and
seed produce byte-identical outputs.  Exit codes: 0 ok, 1 runtime error,
2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

from . import (
    dataset_pipeline as pipeline,
    dialog_machine as dm,
    entity_linker as linker,
    eval_harness,
    kg_embed,
    kg_store,
    memnet_kernel as kernel,
    plan_text,
    query_algebra as qa,
    templates as tpl,
)
from .config import EMBED_SETTINGS, RunConfig, load_config

# every module's error class subclasses ValueError
_ERRORS = (ValueError, OSError)


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdialog",
        description="knowledge-graph question answering and dialog synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="json config file")
        p.add_argument("--seed", type=int, help="master random seed")

    p = sub.add_parser("ingest", help="load, filter and re-emit a knowledge graph")
    common(p)
    p.add_argument("--kg", required=True, help="directory with tuples/labels/types tsv files")
    p.add_argument("--relations", help="comma-separated relation labels to keep")
    p.add_argument("--type-coverage", type=float, help="retain types covering this tuple fraction")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("generate", help="generate a dialog corpus")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--templates", help="templates json-lines file (default: <kg>/templates.jsonl)")
    p.add_argument("--n", type=int, required=True, help="number of dialogs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="split a corpus with tuple separation")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--corpus", required=True, help="dialogs.jsonl from generate")
    p.add_argument("--fractions", type=_floats, help="train,valid,test fractions (default from config)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="corpus statistics")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="write json here instead of stdout")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("answer", help="execute a query plan (or start a REPL)")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--plan", help="canonical plan text; omit for a REPL")
    p.set_defaults(func=_cmd_answer)

    p = sub.add_parser("link", help="entity-link an utterance and list candidate tuples")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--utterance", help="single utterance to link")
    p.add_argument("--corpus", help="dialogs.jsonl: report gold-tuple recall of the candidates")
    p.add_argument("--cap", type=int, help="candidate cap (default: config memory_cap)")
    p.add_argument("--aliases", help="optional aliases.tsv extending the gazetteer")
    p.add_argument("--out", help="write the recall report json here")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("embed", help="train translational embeddings")
    common(p)
    p.add_argument("--kg", required=True)
    p.add_argument("--out", required=True, help="embedding file path")
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("kernel-check", help="run the memory-kernel golden and property suite")
    common(p)
    p.add_argument("--vectors", help="golden vector json-lines file")
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser("eval", help="score prediction records and write a report")
    common(p)
    p.add_argument("--records", required=True, help="json-lines eval records")
    p.add_argument("--out", help="report.json path")
    p.set_defaults(func=_cmd_eval)

    return parser


def _config(args: argparse.Namespace, **overrides) -> RunConfig:
    """The run config with the flags that were given (not None) on top."""
    overrides["seed"] = getattr(args, "seed", None)
    return load_config(args.config, overrides=overrides)


def _floats(text: str) -> list[float] | str:
    """Comma-separated floats, or ``text`` as is for the config check to reject."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        return text


# -- subcommands ---------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _config(args)
    store = kg_store.load_dir(args.kg)
    retained_types = None
    if args.relations:
        allow = {store.relation_id(label.strip()) for label in args.relations.split(",")}
        store = kg_store.filter_relations(store, allow)
    if args.type_coverage is not None:
        store, retained = kg_store.filter_types(store, args.type_coverage)
        retained_types = sorted(store.type_label(t) for t in retained)
    out = Path(args.out)
    kg_store.save_dir(store, out)
    stats = kg_store.stats(store)
    payload = dataclasses.asdict(stats)
    # string keys, as JSON writes them, so sort_keys orders them as text
    payload["fanout_histogram"] = {str(k): v for k, v in stats.fanout_histogram.items()}
    kg_store.write_json(
        out / "stats.json",
        {"stats": payload, "retained_types": retained_types, "config": config.as_dict()},
    )
    print(f"wrote {stats.n_tuples} tuples to {out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _config(args)
    store = kg_store.load_dir(args.kg)
    templates = tpl.load_templates(args.templates or Path(args.kg) / "templates.jsonl", store)
    out = Path(args.out)
    corpus = pipeline.run_generate(store, templates, args.n, config, out)
    if corpus.shortfall:
        print(f"warning: store exhausted, generated {len(corpus.dialogs)} of {args.n} dialogs")
    print(f"wrote {len(corpus.dialogs)} dialogs to {out / 'dialogs.jsonl'}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    config = _config(args, split_fractions=args.fractions)
    store = kg_store.load_dir(args.kg)
    corpus = pipeline.read_corpus(args.corpus, store)
    report = pipeline.run_split(store, corpus, config, Path(args.out))
    print(
        f"train {report['n_train']}  valid {report['n_valid']}  test {report['n_test']}  "
        f"discarded {report['n_discarded']}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _config(args)
    store = kg_store.load_dir(args.kg)
    payload = pipeline.stats_payload(pipeline.read_corpus(args.corpus, store), config)
    if args.out:
        kg_store.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    config = _config(args)
    store = kg_store.load_dir(args.kg)
    if args.plan is not None:
        _answer(store, args.plan, config)
        return 0
    return _repl(store, config)


def _answer(store: kg_store.KgStore, text: str, config: RunConfig) -> qa.AnswerSet:
    """Parse and execute a plan, print its rendered answer and return it."""
    plan = plan_text.parse_plan(text, store)
    answer = qa.execute(store, plan, include_zero_groups=config.include_zero_groups)
    print(dm.render_answer(store, answer, config, random.Random(config.seed)).utterance)
    return answer


def _repl(store: kg_store.KgStore, config: RunConfig) -> int:
    """Stateless-across-sessions plan REPL; "that ⟨type⟩" resolves against
    the previous answer within the session."""
    last_entities: tuple[int, ...] = ()
    print("enter a plan per line (empty line or EOF quits)", file=sys.stderr)
    while True:
        try:
            line = input("plan> ")
        except EOFError:
            return 0
        line = line.strip()
        if not line:
            return 0
        try:
            answer = _answer(store, _resolve_that(store, line, last_entities), config)
            if isinstance(answer, qa.Entities):
                last_entities = tuple(sorted(answer.members))
        except _ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)


def _resolve_that(store: kg_store.KgStore, line: str, last_entities: tuple[int, ...]) -> str:
    """Replace each "that ⟨type⟩" mention with the one previous answer
    entity it can mean, as plan text prints it (longest type labels first)."""
    if "that " not in line:
        return line
    context = dm.DialogContext(salience=last_entities, last_answer_entities=last_entities)
    for ty in sorted(range(store.n_types), key=lambda t: -len(store.type_label(t))):
        mention = f"that {store.type_label(ty)}"
        if mention not in line:
            continue
        resolved = dm.resolve_coreference(store, context, mention)
        if isinstance(resolved, dm.Ambiguous):
            names = ", ".join(store.entity_label(e) for e in resolved.candidates)
            raise dm.DialogError(f"ambiguous mention {mention!r}: did you mean one of {names}?")
        line = line.replace(mention, plan_text.print_entity(resolved, store))
    return line


def _cmd_link(args: argparse.Namespace) -> int:
    if args.utterance is None and args.corpus is None:
        print("error: link needs --utterance or --corpus", file=sys.stderr)
        return 2
    config = _config(args)
    store = kg_store.load_dir(args.kg)
    aliases = linker.load_aliases(args.aliases, store) if args.aliases else ()
    gaz = linker.build_gazetteer(store, aliases)
    cap = args.cap if args.cap is not None else config.memory_cap
    if args.utterance is not None:
        candidates = linker.link_and_retrieve(store, gaz, args.utterance, cap)
        for m in candidates.matches:
            names = ", ".join(store.entity_label(e) for e in m.entities)
            print(f"[{m.start}:{m.end}] {m.text!r} -> {names}")
        print(f"candidate tuples: {len(candidates.tuples)} (truncated: {candidates.truncated})")
        for t in candidates.tuples:
            print(
                f"  ({store.relation_label(t.relation)}, "
                f"{store.entity_label(t.subject)}, {store.entity_label(t.object)})"
            )
    if args.corpus is not None:
        corpus = pipeline.read_corpus(args.corpus, store)
        report = linker.recall_report(
            store, gaz, corpus.dialogs, cap, use_context=config.link_use_context
        )
        print(
            f"candidate recall over {report.n_questions_with_gold} questions: "
            f"micro {report.micro_recall:.4f}, macro {report.macro_recall:.4f}"
        )
        for state, value in report.per_state.items():
            print(f"  {state:<24} {value:.4f}")
        if args.out:
            kg_store.write_json(args.out, {"recall": report.as_dict(), "config": config.as_dict()})
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    config = _config(args, embed_dim=args.dim, embed_epochs=args.epochs)
    store = kg_store.load_dir(args.kg)
    train_config = kg_embed.TrainConfig(
        seed=config.seed,
        **{setting: getattr(config, name) for name, setting in EMBED_SETTINGS.items()},
    )
    table = kg_embed.train(store, train_config)
    kg_embed.save_embeddings(table, args.out)
    rows = kg_store.TupleRows(store.rows)
    report = kg_embed.link_prediction_eval(table, rows, all_tuples=rows)
    random_rank = kg_embed.random_baseline_mean_rank(store.n_entities)
    random_hits = kg_embed.random_baseline_hits_at_k(store.n_entities, report.k)
    print(f"saved embeddings to {args.out} (dim {table.dim})")
    print("ranks on the training tuples (they show fit, not prediction):")
    for name, side in (("object", report.object_side), ("subject", report.subject_side)):
        print(
            f"{name} side: mean rank {side.mean_rank:.2f} (random {random_rank:.2f}), "
            f"hits@{report.k} {side.hits_at_k:.3f} (random {random_hits:.3f}), "
            f"filtered mean rank {side.filtered_mean_rank:.2f}, "
            f"filtered hits@{report.k} {side.filtered_hits_at_k:.3f}"
        )
    return 0


def _cmd_kernel_check(args: argparse.Namespace) -> int:
    outcomes = [(o.name, o) for o in kernel.builtin_checks()]
    if args.vectors:
        outcomes += [(f"vector {o.name}", o) for o in kernel.run_vector_file(args.vectors)]
    for name, outcome in outcomes:
        detail = f": {outcome.detail}" if outcome.detail else ""
        print(f"{'PASS' if outcome.passed else 'FAIL'} {name}{detail}")
    return 0 if all(outcome.passed for _, outcome in outcomes) else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config(args)
    records = eval_harness.read_records(args.records)
    report = eval_harness.aggregate(records)
    print(eval_harness.format_report(report))
    if args.out:
        kg_store.write_json(args.out, {**report.as_dict(), "config": config.as_dict()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
