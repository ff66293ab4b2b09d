"""The traced run: the resolve stages one at a time, then the incremental
add and retract, then the in-process kernel pass, all under named spans.

Spans carry (name, start, end, parent, run id); they and the counts are
written to one JSON file at the end, and the per-layer metrics are
derived from them.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List

import pyarrow as pa

import checks
import gen
import kernels

LAYERS = ["fastpath", "blocking", "scoring", "clustering", "incremental"]


class Tracer:
    """In-memory spans and counts of one traced run; span names are unique."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.time(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.time()

    def _find(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)

    def dur(self, name: str) -> float:
        s = self._find(name)
        return s["end"] - s["start"]

    def children(self, name: str) -> List[dict]:
        sid = self._find(name)["id"]
        return [s for s in self.spans if s["parent"] == sid]

    def self_time(self, name: str) -> float:
        """Span time not covered by its child spans."""
        return self.dur(name) - sum(c["end"] - c["start"] for c in self.children(name))

    def layers(self) -> Dict[str, dict]:
        """Wall and self time of each layer span of the traced run."""
        return {
            name: {"wall_s": self.dur(name), "self_s": self.self_time(name)}
            for name in LAYERS
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [
            dict(s, self_s=self.self_time(s["name"])) for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": spans,
                    "layers": self.layers(),
                    "counts": self.counts,
                },
                f,
                indent=1,
            )


def traced_run(tr: Tracer, inputs) -> dict:
    """Run every stage of the pipeline materialized, under spans.

    Returns the collected outputs the caller checks: the traced clusters,
    the add and retract clusters and the kernel pass."""
    from email_address_parser_ray.pipelines.incremental import (
        incremental_resolve,
        incremental_retract,
    )
    from email_address_parser_ray.pipelines.resolve import extract_mentions, read_transcripts
    from email_address_parser_ray.stages.blocking import build_nodes, candidate_pairs
    from email_address_parser_ray.stages.clustering import connected_components
    from email_address_parser_ray.stages.scoring import dedupe_edges, score_pairs

    c = tr.counts
    with tr.span("trace"):
        with tr.span("resolve"):
            with tr.span("fastpath"):
                with tr.span("read_extract"):
                    mentions = extract_mentions(read_transcripts(inputs.base_dir)).materialize()
            with tr.span("blocking"):
                with tr.span("build_nodes"):
                    nodes = build_nodes(mentions).materialize()
                with tr.span("candidate_pairs"):
                    pairs = candidate_pairs(nodes).materialize()
            with tr.span("scoring"):
                with tr.span("score_pairs"):
                    scored = score_pairs(pairs).materialize()
                with tr.span("dedupe_edges"):
                    edges = dedupe_edges(scored).materialize()
            with tr.span("clustering"):
                with tr.span("connected_components"):
                    clusters = checks.collect(connected_components(nodes, edges))
        with tr.span("incremental"):
            with tr.span("extract_delta"):
                delta_mentions = extract_mentions(read_transcripts(inputs.delta_dir)).materialize()
            with tr.span("incremental_resolve"):
                add = incremental_resolve(nodes, edges, delta_mentions)
                add_clusters = checks.collect(add["clusters"])
            with tr.span("incremental_retract"):
                ret = incremental_retract(
                    add["nodes"], add["edges"], delta_mentions, old_clusters_ds=add["clusters"]
                )
                ret_clusters = checks.collect(ret["clusters"])
        with tr.span("kernels"):
            kp = kernels.run(inputs.base_table, inputs.delta_table)
            full = kernels.run(pa.concat_tables([inputs.base_table, inputs.delta_table]))
        with tr.span("grammar"):
            parse_ns = kernels.parse_ns([a for a, _ in gen.EXOTICS])
    c.update(
        mentions=mentions.count(),
        nodes=nodes.count(),
        pairs=pairs.count(),
        accepted=scored.count(),
        edges=edges.count(),
        clusters=len(set(clusters["cluster_id"].to_pylist())),
        add_nodes=add["nodes"].count(),
        retract_nodes=ret["nodes"].count(),
        parse_ns=parse_ns,
    )
    c.update({f"kernel.{k}": v for k, v in kp.counts.items()})
    c.update({f"kernel.{k}_s": v for k, v in kp.times.items()})
    return {
        "mentions": mentions,
        "clusters": clusters,
        "add_clusters": add_clusters,
        "retract_clusters": ret_clusters,
        "kernel": kp,
        "full_kernel": full,
    }


def layer_metrics(tr: Tracer, base_turns: int, wall_s: float) -> Dict[str, tuple]:
    """Per-layer metrics from the spans and counts: name -> (value, unit).

    ``wall_s`` is the fastest untraced ``resolve`` of the run, whose traced
    twin is the ``resolve`` span."""
    c, d = tr.counts, tr.dur
    k = {n: c[f"kernel.{n}_s"] for n in ("extract", "build_nodes", "blocking", "score", "dedupe", "cc")}
    leaves = [g for s in tr.children("resolve") for g in tr.children(s["name"])]
    traced = d("resolve")
    out = {
        "fastpath.extract_s": (d("read_extract"), "s"),
        "fastpath.kernel_turns_per_s": (base_turns / k["extract"], "1/s"),
        "fastpath.mentions": (c["mentions"], "count"),
        "fastpath.overhead_s": (d("read_extract") - k["extract"], "s"),
        "grammar.slow_frac": (c["kernel.slow"] / max(1, c["kernel.mentions"]), "ratio"),
        "grammar.parse_ns": (c["parse_ns"], "ns"),
        "blocking.build_nodes_s": (d("build_nodes"), "s"),
        "blocking.candidate_pairs_s": (d("candidate_pairs"), "s"),
        "blocking.kernel_pairs_per_s": (c["kernel.pairs"] / k["blocking"], "1/s"),
        "blocking.nodes": (c["nodes"], "count"),
        "blocking.block_keys": (c["kernel.block_keys"], "count"),
        "blocking.pairs": (c["pairs"], "count"),
        "blocking.pair_yield": (c["edges"] / max(1, c["pairs"]), "ratio"),
        "blocking.overhead_s": (d("blocking") - k["build_nodes"] - k["blocking"], "s"),
        "scoring.score_s": (d("score_pairs"), "s"),
        "scoring.kernel_pairs_per_s": (c["kernel.pairs"] / k["score"], "1/s"),
        "scoring.accepted": (c["accepted"], "count"),
        "scoring.dedupe_s": (d("dedupe_edges"), "s"),
        "scoring.edges": (c["edges"], "count"),
        "scoring.overhead_s": (d("scoring") - k["score"] - k["dedupe"], "s"),
        "clustering.cc_s": (d("connected_components"), "s"),
        "clustering.clusters": (c["clusters"], "count"),
        "clustering.overhead_s": (d("clustering") - k["cc"], "s"),
        "incremental.add_s": (d("incremental_resolve"), "s"),
        "incremental.retract_s": (d("incremental_retract"), "s"),
        "incremental.delta_pairs": (c["kernel.delta_pairs"], "count"),
        "incremental.dropped_nodes": (c["add_nodes"] - c["retract_nodes"], "count"),
        "trace.gap_s": (traced - sum(s["end"] - s["start"] for s in leaves), "s"),
        "trace.overhead_s": (traced - wall_s, "s"),
    }
    return out
