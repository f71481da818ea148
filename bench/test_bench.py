"""Smoke test of the benchmark: every workload at a tiny size, no timing bound.

Run from the repository root:

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from kgdialog import dataset_pipeline as dp, dialog_machine as dm, kg_embed, query_algebra as qa  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0.3", "--scale", "0.05"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {
    "dialogs-grouped": ("dialogs_per_s", "dialog_ms_p50", "dialog_ms_p90", "split_yield"),
    "dialogs-simple": ("dialogs_per_s", "dialog_ms_p50", "dialog_ms_p90", "split_yield"),
    "qa-answer": ("questions_per_s", "question_ms_p50", "question_ms_p99", "gold_recall", "no_memory_share"),
    "embed": ("train_s", "linkeval_s", "embed_filtered_mean_rank"),
}


def _run(workload: str, trace: int) -> dict:
    return bench.run(bench.parse_args(["--workload", workload, "--trace", str(trace), *TINY]))


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_timed_run_prints_every_metric(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    text = "\n".join(result["lines"])
    for name in ("setup_s", "peak_rss_mb", "fail_ratio", *REPORTED[workload]):
        assert f" {name} " in text, name
    assert "sha256" in text


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    assert (bench.OUT / f"trace-{workload}-seed3.jsonl").is_file()


def test_gated_times_are_at_reference_speed():
    """op_ms_norm is the measured mean scaled by REFERENCE_MS over the run's
    mean reference-kernel time, and the kernel ran at least MIN_CALLS times."""
    result = _run("embed", 0)
    text = "\n".join(result["lines"])
    got = {m[1]: float(m[2]) for m in re.finditer(r"^ +(\w+) +(\S+) ", text, re.M)}
    want = got["op_ms_mean"] * speed.REFERENCE_MS / got["speed_kernel_ms"]
    assert result["metrics"]["op_ms_norm"]["value"] == pytest.approx(want, rel=1e-4)
    timings = json.loads((bench.OUT / "timings-embed-seed3.json").read_text(encoding="utf-8"))
    assert len(timings["speed_kernel_ms"]) >= speed.MIN_CALLS


def _workload(name: str):
    wl = workloads.WORKLOADS[name](3, 0.05, bench.OUT)
    wl.setup()
    return wl


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_no_input_is_seen_twice(workload, monkeypatch):
    """Both passes of a traced run draw fresh inputs: no dialog seed, and no
    training seed, is used twice."""
    seeds = []
    if workload == "embed":
        train = kg_embed.train
        monkeypatch.setattr(kg_embed, "train", lambda store, config: seeds.append(config.seed) or train(store, config))
    else:
        generate = dm.generate_dialog
        monkeypatch.setattr(dm, "generate_dialog", lambda *a: seeds.append(a[2]) or generate(*a))
    wl = _workload(workload)
    wl.measure(0.2)
    wl.measure(0.2)
    assert len(seeds) > 1 and len(set(seeds)) == len(seeds)


def test_batch_tail_is_shared_out_over_its_dialogs(monkeypatch):
    stats = dp.corpus_stats

    def slow(*args, **kwargs):
        time.sleep(0.02)
        return stats(*args, **kwargs)

    monkeypatch.setattr(dp, "corpus_stats", slow)
    wl = _workload("dialogs-grouped")
    result = wl.measure(0.1)
    share = 20 / wl.batch
    assert result.latencies_ms and all(
        total - own >= share for total, own in zip(result.latencies_ms, wl.dialog_ms)
    )


def _off_by_one_counts(monkeypatch):
    execute = qa.execute

    def wrong(store, plan, *args, **kwargs):
        answer = execute(store, plan, *args, **kwargs)
        if isinstance(plan, qa.Count):
            return qa.Counts(tuple((ty, n + 1) for ty, n in answer.counts))
        return answer

    monkeypatch.setattr(qa, "execute", wrong)


def _shifted_ranks(monkeypatch):
    evaluate = kg_embed.link_prediction_eval

    def wrong(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        side = report.object_side
        shifted = kg_embed.DirectionReport(side.mean_rank + 1, side.hits_at_k,
                                           side.filtered_mean_rank, side.filtered_hits_at_k)
        return kg_embed.LinkPredictionReport(report.k, shifted, report.subject_side)

    monkeypatch.setattr(kg_embed, "link_prediction_eval", wrong)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_wrong_answers_raise_fail_ratio(workload, monkeypatch):
    (_shifted_ranks if workload == "embed" else _off_by_one_counts)(monkeypatch)
    result = _run(workload, 0)
    fail_ratio = next(line for line in result["lines"] if " fail_ratio " in line)
    assert not result["correct"] and result["failed"] > 0
    assert float(fail_ratio.split()[1]) > 0


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "embed", "--trace", "0", *TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "embed", "--trace", "0", *TINY],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
