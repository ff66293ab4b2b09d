"""Single-core, in-process pass over the engine's stage kernels.

The same public functions the Ray stages map over (extraction, node
tokenizing, block-key explode and pair emission, the pair scorer and the
component labelling) run here on one Arrow table in this process, with no
Ray in between.  Their times are the "kernel" share of each layer; a
stage's wall minus its kernel time is that layer's scheduling, shuffle and
waiting overhead.  The pass also yields exact clusters, which serve as the
full recompute that the incremental path must equal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from email_address_parser_ray.functions.fastpath import (
    PLAIN_FULL_RE,
    QUOTED_SIMPLE_RE,
    WSP_PLAIN_RE,
    extract_mentions_batch,
    tokenize_batch,
)
from email_address_parser_ray.functions.grammar import parse_address
from email_address_parser_ray.stages.blocking import (
    emit_pairs_bucket,
    explode_block_keys,
    partial_node_agg,
    slim_hash_keys,
)
from email_address_parser_ray.stages.clustering import minlabel_components
from email_address_parser_ray.stages.scoring import PairScorer

EXTRACT_BATCH = 8192  # ResolveConfig.extract_batch_size
SCORE_BATCH = 32768  # score_pairs batch_size


@dataclass
class KernelPass:
    times: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    mentions: Optional[pa.Table] = None
    clusters: Optional[pa.Table] = None  # (address, cluster_id)


def extract(transcripts: pa.Table) -> pa.Table:
    parts = [
        extract_mentions_batch(transcripts.slice(off, EXTRACT_BATCH), True)
        for off in range(0, transcripts.num_rows, EXTRACT_BATCH)
    ]
    return pa.concat_tables(parts)


def nodes(mentions: pa.Table, old_addresses: Optional[pa.Array] = None) -> pa.Table:
    """Unique surfaces with the columns blocking reads.  With
    ``old_addresses`` the surfaces absent from it are marked ``is_new``."""
    agg = partial_node_agg(mentions)
    tok = tokenize_batch(pa.table({"address": agg["address"]}), "address", is_lax=True)
    cols = {
        "address": agg["address"],
        "local_canon": tok["local_canon"],
        "domain_canon": tok["domain_canon"],
        "n_mentions": agg["n_mentions"],
    }
    if old_addresses is not None:
        cols["is_new"] = pc.cast(
            pc.invert(pc.is_in(agg["address"], value_set=old_addresses)), pa.int8()
        )
    return pa.table(cols)


def block(node_table: pa.Table) -> Dict[str, object]:
    """Explode block keys and emit candidate pairs bucket by bucket, as the
    pipeline's keyed shuffle groups them."""
    keys = slim_hash_keys(explode_block_keys(node_table))
    df = keys.to_pandas()
    parts = [emit_pairs_bucket(g) for _, g in df.groupby("bucket", sort=False)]
    parts = [p for p in parts if p.num_rows]
    pairs = (
        pa.concat_tables(parts)
        if parts
        else pa.table({"address_a": pa.array([], pa.string()), "address_b": pa.array([], pa.string())})
    )
    return {"block_keys": keys.num_rows, "pairs": pairs}


def score(pairs: pa.Table) -> pa.Table:
    scorer = PairScorer()
    parts = [
        scorer(pairs.slice(off, SCORE_BATCH))
        for off in range(0, max(pairs.num_rows, 1), SCORE_BATCH)
    ]
    return pa.concat_tables(parts)


def dedupe(scored: pa.Table) -> pa.Table:
    lt = pc.less(scored["addr_a"], scored["addr_b"])
    lo = pc.if_else(lt, scored["addr_a"], scored["addr_b"])
    hi = pc.if_else(lt, scored["addr_b"], scored["addr_a"])
    return pa.table({"addr_a": lo, "addr_b": hi}).group_by(["addr_a", "addr_b"]).aggregate([])


def components(addresses: pa.Array, edges: pa.Table) -> pa.Table:
    """Every surface labelled with the least address of its component."""
    order = np.sort(np.asarray(addresses.to_numpy(zero_copy_only=False), dtype=object))
    index = pd.Index(order)
    ca = index.get_indexer(edges["addr_a"].to_numpy(zero_copy_only=False))
    cb = index.get_indexer(edges["addr_b"].to_numpy(zero_copy_only=False))
    lab = minlabel_components(len(order), ca, cb)
    return pa.table({"address": pa.array(order, pa.string()), "cluster_id": pa.array(order[lab], pa.string())})


def run(transcripts: pa.Table, delta: Optional[pa.Table] = None) -> KernelPass:
    """Time every kernel over ``transcripts``; with ``delta``, also count
    the candidate pairs an incremental add of it emits (pairs with a new
    side) over the merged node set."""
    out = KernelPass()

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        r = fn(*args)
        out.times[name] = time.perf_counter() - t0
        return r

    mentions = timed("extract", extract, transcripts)
    node_table = timed("build_nodes", nodes, mentions)
    blocked = timed("blocking", block, node_table)
    scored = timed("score", score, blocked["pairs"])
    edges = timed("dedupe", dedupe, scored)
    clusters = timed("cc", components, node_table["address"], edges)
    out.mentions, out.clusters = mentions, clusters
    out.counts.update(
        mentions=mentions.num_rows,
        nodes=node_table.num_rows,
        block_keys=blocked["block_keys"],
        pairs=blocked["pairs"].num_rows,
        accepted=scored.num_rows,
        edges=edges.num_rows,
        clusters=len(pc.unique(clusters["cluster_id"])),
        slow=slow_count(mentions["address"]),
    )
    if delta is not None:
        both = pa.concat_tables([mentions, extract(delta)])
        merged = nodes(both, old_addresses=node_table["address"])
        out.counts["delta_pairs"] = block(merged)["pairs"].num_rows
    return out


def slow_count(addresses: pa.ChunkedArray) -> int:
    """Mentions that none of the fast-path patterns accept, so the
    scalar grammar parses them."""
    fast = (PLAIN_FULL_RE, WSP_PLAIN_RE, QUOTED_SIMPLE_RE)
    return sum(
        not any(r.match(a) for r in fast) for a in addresses.to_pylist()
    )


def parse_ns(samples, reps: int = 200) -> float:
    """Median ns per ``parse_address`` call over ``samples`` (BASELINE.md
    gives the Rust reference parser at 79-211 ns/op)."""
    per_rep = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for s in samples:
            parse_address(s, is_lax=True)
        per_rep.append((time.perf_counter_ns() - t0) / len(samples))
    return float(np.median(per_rep))
