"""Which kgdialog functions the traced run wraps, and the per-layer metrics
computed from what the wrappers record.

Span names are ``<module>.<function>``; a layer is a module.  Count metrics
are per operation (dialog, question or train+eval cycle) of the traced pass,
so they do not depend on how many operations fit in a run.
"""

from __future__ import annotations

import statistics

from kgdialog import (
    dataset_pipeline,
    dialog_machine,
    entity_linker,
    eval_harness,
    kg_embed,
    kg_store,
    memnet_kernel,
    plan_text,
    query_algebra,
    templates,
)

from spans import Tracer

LAYERS = (
    "kg_store",
    "query_algebra",
    "plan_text",
    "templates",
    "dialog_machine",
    "dataset_pipeline",
    "entity_linker",
    "memnet_kernel",
    "kg_embed",
    "eval_harness",
)


def register(tracer: Tracer) -> None:
    t = tracer
    store = kg_store.KgStore
    t.span(store, "__init__", "kg_store.build")
    for attr in ("objects_of", "subjects_of", "tuples_containing", "entities_of_type"):
        t.count(store, attr, "kg_store.lookup")

    qa = query_algebra
    t.span(qa, "execute", lambda a, kw: f"query_algebra.execute.{type(a[1]).__name__}")
    t.span(qa, "group_counts", "query_algebra.group_counts", _group_spec)
    t.span(qa, "plan_tuples", "query_algebra.plan_tuples")

    t.span(plan_text, "bind", "plan_text.bind")
    t.span(plan_text, "parse_plan", "plan_text.parse")
    t.span(plan_text, "print_plan", "plan_text.print")

    t.span(templates, "instantiate", "templates.instantiate", _accepted)
    t.span(templates, "pathology_filter", "templates.pathology_filter")

    dm = dialog_machine
    t.span(dm, "generate_dialog", "dialog_machine.generate_dialog", _dialog_states)
    t.span(dm, "start_dialog", "dialog_machine.start_dialog")
    t.span(dm, "next_turn", "dialog_machine.next_turn")
    t.span(dm, "clarification_exchange", "dialog_machine.clarification_exchange")
    t.span(dm, "render_response", "dialog_machine.render_response")

    dp = dataset_pipeline
    t.span(dp, "generate_corpus", "dataset_pipeline.generate_corpus")
    t.span(dp, "dialog_provenance", "dataset_pipeline.dialog_provenance", _provenance)
    t.span(dp, "write_corpus", "dataset_pipeline.write_corpus")
    t.span(dp, "read_corpus", "dataset_pipeline.read_corpus")
    t.span(dp, "split_corpus", "dataset_pipeline.split_corpus", _discarded)
    t.span(dp, "corpus_stats", "dataset_pipeline.corpus_stats")

    el = entity_linker
    t.span(el, "link_and_retrieve", "entity_linker.link_and_retrieve")
    t.span(el, "link", "entity_linker.link")
    t.span(el, "candidate_tuples", "entity_linker.candidate_tuples", _candidates)

    mk = memnet_kernel
    t.span(mk, "build_memory", "memnet_kernel.build_memory", _slab_rows)
    t.span(mk, "multi_hop", "memnet_kernel.multi_hop", _hop_flops)
    t.span(mk, "hop", "memnet_kernel.hop")
    t.span(mk, "entity_distribution", "memnet_kernel.entity_distribution", _dist_flops)
    t.span(mk, "substitute_kg_words", "memnet_kernel.substitute_kg_words")

    t.span(kg_embed, "train", "kg_embed.train", _epochs)
    t.count(kg_embed, "margin_loss_grads", "kg_embed.margin_loss_grads")
    t.span(kg_embed, "link_prediction_eval", "kg_embed.link_prediction_eval")

    t.span(eval_harness, "aggregate", "eval_harness.aggregate")


# -- hooks: counts recorded at the span boundaries ------------------------------


def _group_spec(t: Tracer, args, kwargs, result) -> None:
    include_zero = args[2] if len(args) > 2 else kwargs.get("include_zero", True)
    t.sample("group_spec", (args[1], include_zero))


def _accepted(t: Tracer, args, kwargs, result) -> None:
    if isinstance(result, templates.Instantiation):
        t.counts["templates.accepted"] += 1


def _dialog_states(t: Tracer, args, kwargs, result) -> None:
    t.counts["dialog_machine.dialogs"] += 1
    for turn in result:
        if turn.speaker == "user" and turn.state in dialog_machine.QUESTION_STATES:
            t.counts["dialog_machine.questions"] += 1
            t.counts[f"dialog_machine.questions.{turn.state.value}"] += 1


def _provenance(t: Tracer, args, kwargs, result) -> None:
    t.sample("provenance_tuples", len(result))


def _discarded(t: Tracer, args, kwargs, result) -> None:
    t.counts["dataset_pipeline.discarded"] += len(result.discarded)


def _candidates(t: Tracer, args, kwargs, result) -> None:
    t.sample("candidates", len(result.tuples))
    t.counts["entity_linker.truncated"] += bool(result.truncated)


def _slab_rows(t: Tracer, args, kwargs, result) -> None:
    t.sample("slab_rows", result.size)


def _hop_flops(t: Tracer, args, kwargs, result) -> None:
    # per hop: keys and lifted values through A, scores, read-out, R_j
    slab, params = args[1], args[2]
    n, d_kv = slab.keys.shape
    d = params.A.shape[0]
    per_hop = 2 * n * d_kv * d * 2 + 2 * n * d * 2 + 2 * d * d + 3 * n
    t.counts["memnet_kernel.flop"] += per_hop * params.hops


def _dist_flops(t: Tracer, args, kwargs, result) -> None:
    slab, B = args[1], args[2]
    n, width = slab.values.shape
    t.counts["memnet_kernel.flop"] += 2 * n * width * B.shape[0] + 2 * n * B.shape[0] + 3 * n


def _epochs(t: Tracer, args, kwargs, result) -> None:
    t.counts["kg_embed.epochs"] += len(result.epoch_losses)


# -- metrics ---------------------------------------------------------------------


def metrics(tracer: Tracer, n_ops: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``*_ms`` and ``*_s`` are mean times per call; layers that were never
    called report no time.  ``<layer>.self_pct`` is the layer's self time as
    a share of the traced pass's wall time.
    """
    inc = tracer.inclusive()
    counts = tracer.counts
    ops = max(1, n_ops)
    out: dict[str, tuple[float, str]] = {}

    def mean_ms(span: str, name: str, scale: float = 1e3, unit: str = "ms") -> None:
        calls, total = inc.get(span, (0, 0.0))
        if calls:
            out[name] = (total / calls * scale, unit)

    def per_op(key: str, name: str) -> None:
        out[name] = (counts.get(key, 0) / ops, "count/op")

    def calls_per_op(span: str, name: str) -> None:
        out[name] = (inc.get(span, (0, 0.0))[0] / ops, "count/op")

    def quantile(key: str, q: float, name: str) -> None:
        values = tracer.samples.get(key, [])
        out[name] = (percentile(values, q) if values else 0.0, "count")

    mean_ms("kg_store.build", "kg_store.build_ms")
    per_op("kg_store.lookup", "kg_store.lookup_calls")

    executes = {k: v for k, v in inc.items() if k.startswith("query_algebra.execute.")}
    for span in sorted(executes):
        mean_ms(span, "query_algebra.execute_ms." + span.rsplit(".", 1)[1])
    out["query_algebra.execute_calls"] = (sum(c for c, _ in executes.values()) / ops, "count/op")
    calls_per_op("query_algebra.group_counts", "query_algebra.group_counts_calls")
    mean_ms("query_algebra.group_counts", "query_algebra.group_counts_ms")
    gc_calls, gc_total = inc.get("query_algebra.group_counts", (0, 0.0))
    out["query_algebra.group_counts_share"] = (100 * gc_total / wall_s if wall_s else 0.0, "%")
    distinct = len(set(tracer.samples.get("group_spec", [])))
    out["query_algebra.group_spec_reuse"] = (gc_calls / distinct if distinct else 0.0, "ratio")
    mean_ms("query_algebra.plan_tuples", "query_algebra.plan_tuples_ms")

    mean_ms("plan_text.bind", "plan_text.bind_ms")
    mean_ms("plan_text.parse", "plan_text.parse_ms")
    mean_ms("plan_text.print", "plan_text.print_ms")

    calls_per_op("templates.instantiate", "templates.instantiate_calls")
    mean_ms("templates.instantiate", "templates.instantiate_ms")
    attempts = inc.get("templates.instantiate", (0, 0.0))[0]
    out["templates.accept_ratio"] = (
        counts.get("templates.accepted", 0) / attempts if attempts else 0.0,
        "ratio",
    )
    mean_ms("templates.pathology_filter", "templates.pathology_filter_ms")

    mean_ms("dialog_machine.start_dialog", "dialog_machine.start_dialog_ms")
    mean_ms("dialog_machine.next_turn", "dialog_machine.next_turn_ms")
    mean_ms("dialog_machine.render_response", "dialog_machine.render_response_ms")
    dialogs = counts.get("dialog_machine.dialogs", 0)
    out["dialog_machine.questions_per_dialog"] = (
        counts.get("dialog_machine.questions", 0) / dialogs if dialogs else 0.0,
        "count",
    )
    for state in sorted(dialog_machine.QUESTION_STATES, key=lambda s: s.value):
        per_op(f"dialog_machine.questions.{state.value}", f"dialog_machine.questions.{state.value}")

    mean_ms("dataset_pipeline.generate_corpus", "dataset_pipeline.generate_corpus_s", 1.0, "s")
    mean_ms("dataset_pipeline.write_corpus", "dataset_pipeline.write_corpus_ms")
    mean_ms("dataset_pipeline.read_corpus", "dataset_pipeline.read_corpus_ms")
    mean_ms("dataset_pipeline.split_corpus", "dataset_pipeline.split_corpus_ms")
    quantile("provenance_tuples", 0.5, "dataset_pipeline.provenance_tuples_p50")
    quantile("provenance_tuples", 0.9, "dataset_pipeline.provenance_tuples_p90")
    per_op("dataset_pipeline.discarded", "dataset_pipeline.discarded")

    mean_ms("entity_linker.link", "entity_linker.link_ms")
    mean_ms("entity_linker.candidate_tuples", "entity_linker.candidate_tuples_ms")
    quantile("candidates", 0.5, "entity_linker.candidates_p50")
    quantile("candidates", 0.99, "entity_linker.candidates_p99")
    retrieved = inc.get("entity_linker.candidate_tuples", (0, 0.0))[0]
    out["entity_linker.truncated_share"] = (
        counts.get("entity_linker.truncated", 0) / retrieved if retrieved else 0.0,
        "ratio",
    )

    mean_ms("memnet_kernel.build_memory", "memnet_kernel.build_memory_ms")
    mean_ms("memnet_kernel.hop", "memnet_kernel.hop_ms")
    mean_ms("memnet_kernel.entity_distribution", "memnet_kernel.entity_distribution_ms")
    quantile("slab_rows", 0.5, "memnet_kernel.slab_rows_p50")
    out["memnet_kernel.mflop_per_question"] = (counts.get("memnet_kernel.flop", 0) / 1e6 / ops, "MFLOP")

    epochs = counts.get("kg_embed.epochs", 0)
    if epochs:
        out["kg_embed.epoch_ms"] = (inc["kg_embed.train"][1] / epochs * 1e3, "ms")
    per_op("kg_embed.margin_loss_grads", "kg_embed.margin_loss_grads_calls")
    mean_ms("kg_embed.link_prediction_eval", "kg_embed.link_prediction_eval_ms")

    mean_ms("eval_harness.aggregate", "eval_harness.aggregate_ms")

    self_s = tracer.self_times()
    for layer in LAYERS + ("bench",):
        share = 100 * self_s.get(layer, 0.0) / wall_s if wall_s else 0.0
        out[f"{layer}.self_pct"] = (share, "%")
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile (needs at least one value)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])
