"""Correctness checks and resource probes of the resolve benchmark."""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

F1_FLOOR = 0.99
RECALL_FLOOR = 0.99


def collect(ds) -> pa.Table:
    """Pull every block of a Ray dataset into this process as one table."""
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return ds.schema().empty_table() if ds.schema() else pa.table({})
    return pa.concat_tables(parts)


def cluster_map(clusters: pa.Table) -> Dict[str, str]:
    return dict(zip(clusters["address"].to_pylist(), clusters["cluster_id"].to_pylist()))


def _pairs(counts) -> int:
    return sum(n * (n - 1) // 2 for n in counts)


def pair_f1(clusters: Dict[str, str], gold: Dict[str, int]) -> float:
    """Pairwise F1 of a surface -> cluster map against surface -> entity.

    Surfaces the generator never planted count as singleton gold entities;
    planted surfaces the pipeline lost count as singleton clusters."""
    surfaces = set(clusters) | set(gold)
    pred = {s: clusters.get(s, ("lost", s)) for s in surfaces}
    true = {s: gold.get(s, ("spurious", s)) for s in surfaces}
    tp = _pairs(Counter((pred[s], true[s]) for s in surfaces).values())
    n_pred = _pairs(Counter(pred.values()).values())
    n_true = _pairs(Counter(true.values()).values())
    if tp == 0:
        return 0.0
    precision, recall = tp / n_pred, tp / n_true
    return 2 * precision * recall / (precision + recall)


MENTION_KEY = ["conv_id", "turn_idx", "mention_idx", "address"]


def mention_recall(mentions: pa.Table, gold_mentions: pa.Table) -> float:
    """Planted mentions found at their (turn, position, surface)."""
    found = mentions.select(MENTION_KEY).group_by(MENTION_KEY).aggregate([])
    hit = gold_mentions.select(MENTION_KEY).join(found, MENTION_KEY, join_type="inner")
    return hit.num_rows / max(1, gold_mentions.num_rows)


def same_clusters(a: pa.Table, b: pa.Table) -> bool:
    """Equal (address, cluster_id) sets."""
    def norm(t):
        return t.select(["address", "cluster_id"]).sort_by("address")

    return a.num_rows == b.num_rows and norm(a).equals(norm(b))


def process_table() -> Dict[int, tuple]:
    """pid -> (parent pid, state letter, resident bytes) from /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        out[int(name)] = (int(fields[1]), fields[0], int(fields[21]) * page)
    return out


def descendants(table: Dict[int, tuple], root: int) -> List[int]:
    """Every process below ``root`` in ``table``."""
    children: Dict[int, list] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), ())
        out.extend(kids)
        todo.extend(kids)
    return out


class RssSampler:
    """Peak resident set of this process and all its descendants (the Ray
    GCS, raylet and workers), sampled from /proc on a background thread."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _tree_rss(self) -> int:
        table = process_table()
        me = os.getpid()
        return sum(table[p][2] for p in [me] + descendants(table, me) if p in table)

    def sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self._tree_rss())

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def calibrate(reps: int = 5) -> float:
    """Median seconds of a fixed numpy + Arrow kernel: a drift control that
    exercises nothing in the engine, timed next to every workload run."""
    rng = np.random.default_rng(12345)
    ints = rng.integers(0, 1 << 40, size=400_000)
    strs = pa.array([f"User.{i:09d}@Example.COM" for i in range(100_000)])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.sort(ints)
        pc.unique(pc.utf8_lower(strs))
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
