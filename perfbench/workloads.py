"""The benchmark workloads: corpora made from a seed, and their gold.

Every workload has a *base* corpus, whose ``resolve`` is timed, and a
*delta* corpus that plants new entities beside mentions of old ones.  The
traced run adds the delta to the resolved base and retracts it again, so
the incremental layer is measured and checked on every workload.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np
import pyarrow as pa

import gen


@dataclass(frozen=True)
class Workload:
    base: gen.GenConfig
    delta_turns: int
    delta_entities: int  # new entities planted by the delta


WORKLOADS: Dict[str, Workload] = {
    # many turns, a small Zipf population, a few percent exotic forms:
    # extraction and the grammar fallback do most of the work
    "text_heavy": Workload(
        gen.GenConfig(turns=40_000, entities=1_600, zipf=1.0, exotic_share=0.03),
        delta_turns=1_000,
        delta_entities=50,
    ),
    # dense mentions over a flat population with every variant style and a
    # hot domain big enough for oversize blocks: blocking and scoring work
    "entity_heavy": Workload(
        gen.GenConfig(
            turns=8_000,
            entities=4_000,
            mention_p=(0.0, 0.3, 0.4, 0.3),
            zipf=0.0,
            hot_domain_share=0.3,
            variant_mix=(1, 1, 1, 1, 1, 1),
            exotic_share=0.005,
        ),
        delta_turns=500,
        delta_entities=100,
    ),
}


@dataclass
class Inputs:
    """Parquet directories of one workload plus the gold to score them."""

    base_dir: str
    delta_dir: str
    base_table: pa.Table  # transcripts, as written
    delta_table: pa.Table
    base_gold: pa.Table  # gold_mentions of the base
    base_surfaces: Dict[str, int]  # surface -> gold entity id


def scaled(w: Workload, scale: float) -> Workload:
    """The workload with turns and entities multiplied by ``scale``."""
    if scale == 1.0:
        return w

    def n(x: int) -> int:
        return max(20, int(x * scale))

    return replace(
        w,
        base=replace(w.base, turns=n(w.base.turns), entities=n(w.base.entities)),
        delta_turns=n(w.delta_turns),
        delta_entities=max(5, int(w.delta_entities * scale)),
    )


def make_tables(w: Workload, seed: int) -> Dict[str, pa.Table]:
    """All tables of one workload, a pure function of ``(w, seed)``."""
    rng = np.random.default_rng(seed)
    cfg = w.base
    ents = gen.make_entities(cfg, rng)
    base = gen.make_corpus(cfg, rng, ents)
    new = gen.make_entities(cfg, rng, first_id=cfg.entities, count=w.delta_entities)
    # new entities first, so the Zipf head of the delta is the planted set
    mix = {
        "entity_id": new["entity_id"] + ents["entity_id"],
        "variants": new["variants"] + ents["variants"],
    }
    delta = gen.make_corpus(cfg, rng, mix, conv_prefix="d", turns=w.delta_turns)
    return {
        "base": base["transcripts"],
        "base_gold": base["gold_mentions"],
        "delta": delta["transcripts"],
        "delta_gold": delta["gold_mentions"],
    }


def build(w: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate the workload and write its Parquet under ``out_dir``."""
    t = make_tables(w, seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    dirs = {k: os.path.join(out_dir, k) for k in ("base", "delta")}
    for k, d in dirs.items():
        gen.write_transcripts(t[k], d)
    return Inputs(
        base_dir=dirs["base"],
        delta_dir=dirs["delta"],
        base_table=t["base"],
        delta_table=t["delta"],
        base_gold=t["base_gold"],
        base_surfaces=gen.gold_surfaces(t["base_gold"]),
    )
