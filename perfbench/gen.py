"""Seeded transcript generator for the resolve benchmark.

Builds a synthetic chat-transcript corpus with planted e-mail mentions and
the gold needed to score the pipeline, from nothing but a seed and a
:class:`GenConfig`.  The engine's own parser is never consulted: every gold
entity id is assigned here, by construction for person entities and by the
hand-written labels of :data:`EXOTICS` for the RFC-5322 edge cases.

Person entities are built so that the engine's accept rules can re-unify
every variant of one entity and can never merge two entities:

* the dotless local part is ``first(5) + last(6) + code(5)``, 16 letters for
  every entity, so Levenshtein distance 1 between two locals can only be one
  substitution;
* ``code`` spells the entity id in base 26 plus a check letter, so the codes
  of two entities differ in at least two positions;
* the ``typo`` variant substitutes one digit inside the first name, which
  leaves the code intact, so a typo never comes closer than distance 2 to
  another entity.

Exotic entities each sit on a domain of their own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

FIRST = [
    "alice", "bruno", "carla", "diego", "elena", "felix", "gemma", "hanna",
    "irene", "jonas", "karen", "laura", "mateo", "nadia", "oscar", "paula",
    "quinn", "rosie", "simon", "tanya", "ulric", "vilma", "wanda", "xenia",
    "yusuf", "zelda",
]
LAST = [
    "abbott", "barker", "carter", "dalton", "easton", "fowler", "garcia",
    "harper", "ingram", "jensen", "keller", "lawson", "mercer", "nelson",
    "osborn", "parker", "quincy", "rhodes", "sutton", "tanner", "updike",
    "vaughn", "walker", "xavier", "yildiz", "zamora",
]
# index 0 is the hot domain
DOMAINS = [
    "relay-hub.example.com", "corp-mail.example.org", "uni-lab.example.edu",
    "research.example.net", "startup.example.io", "agency.example.co",
    "institute.example.org", "collective.example.net", "workshop.example.com",
    "foundry.example.io", "observatory.example.edu", "syndicate.example.co",
    "archive.example.org", "laboratory.example.net", "consortium.example.com",
    "atelier.example.io", "registry.example.edu", "bureau.example.co",
    "exchange.example.org", "terminal.example.net",
]
STYLES = ["base", "domain_case", "dotless", "typo", "wsp", "quoted"]
BRACKETED = {"wsp", "quoted"}  # planted inside <...>, like every exotic

# Hand-written RFC 5322 / RFC 6532 edge cases, planted verbatim in <...>.
# The second field is the identity: surfaces sharing it are one entity
# (comments and quoting do not change an address; domains compare
# case-insensitively).  Each identity has a domain no other entity uses.
EXOTICS: List[Tuple[str, str]] = [
    ('"esc\\"aped.quote"@q1.example.org', "escaped-quote"),
    ('"back\\\\slash.user"@q2.example.org', "escaped-backslash"),
    ('"with space user"@q3.example.org', "quoted-space"),
    ('"at@sign.user"@q4.example.org', "quoted-at"),
    ('"quoted.plain"@q5.example.org', "quoted-plain"),
    ("quoted.plain@q5.example.org", "quoted-plain"),
    ('"tab\\\tquoted"@q6.example.org', "quoted-pair-tab"),
    ("(note)cfws.user@c1.example.net", "cfws"),
    ("cfws.user(trailing)@c1.example.net", "cfws"),
    ("cfws.user@c1.example.net", "cfws"),
    ("(outer(inner))nest.user@c2.example.net", "nested-comment"),
    ("nest.user@c2.example.net", "nested-comment"),
    ("dom.comment@(dom comment)c3.example.net", "domain-comment"),
    ('obs."mixed".local@o1.example.org', "obs-local"),
    ("obs.mixed.local@o1.example.org", "obs-local"),
    (" wsp.user@w1.example.com", "wsp"),
    ("wsp.user@w1.example.com", "wsp"),
    ("\twsp.tab@w2.example.com", "wsp-tab"),
    ("lit.user@[192.0.2.17]", "ipv4-literal"),
    ("lit6.user@[IPv6:2001:db8::1]", "ipv6-literal"),
    ("lit6.user@[ipv6:2001:db8::1]", "ipv6-literal"),
    ("user+tag@[IPv6:2001:db8::ff00:42:8329]", "ipv6-literal-tag"),
    ("o'brien.kate@apostrophe.example.ie", "apostrophe"),
    ("x{curly}y@sym.example.org", "curly"),
    ("josé.garcía@correo.example.es", "utf8-latin"),
    ("почта.ящик@пример.example", "utf8-cyrillic"),
    ("用户.名字@例子.example", "utf8-cjk"),
    ("ünï.user@ÜBER.example.de", "utf8-domain-case"),
    ("ünï.user@über.example.de", "utf8-domain-case"),
]
EXOTIC_LABELS = sorted({label for _, label in EXOTICS})
EXOTIC_ID_BASE = 10_000_000  # exotic entity ids sit above any person id

LEADS = [
    "Sure, I looped in", "Forwarding this to", "The ticket was filed by",
    "Please cc", "According to the directory, reach", "Escalating: contact",
    "Resolved after messaging", "The owner on record is", "Try pinging",
]
TAILS = [
    "before the standup tomorrow.", "and close the loop by Friday.",
    "for the quarterly review.", "regarding the failed deployment.",
    "so we can unblock the migration.", "per the on-call rotation.",
]
PROSE = [
    "Summarizing the sprint: migrations are green and the backlog is trimmed.",
    "The build passed on the third retry; the flaky test is quarantined.",
    "Moved the <draft> label off the design doc after the review.",
    "Deployment window confirmed; rollback plan is in the runbook <v2>.",
    "Latency regressions traced to the cache eviction policy change.",
]
ROWS_PER_FILE = 65_536


@dataclass(frozen=True)
class GenConfig:
    """Independent knobs of one corpus."""

    turns: int
    entities: int
    mention_p: Tuple[float, ...] = (0.5, 0.38, 0.12)  # P(k mentions in a turn)
    zipf: float = 0.9  # entity popularity exponent; 0 is flat
    hot_domain_share: float = 0.2  # share of entities on DOMAINS[0]
    variant_mix: Tuple[float, ...] = (0.58, 0.10, 0.10, 0.10, 0.06, 0.06)
    exotic_share: float = 0.03  # share of mentions drawn from EXOTICS


def _code(ids: np.ndarray) -> List[str]:
    """Four base-26 letters of the id plus a check letter: two distinct
    ids differ in at least two letters."""
    digits = np.stack([(ids // 26**p) % 26 for p in (3, 2, 1, 0)], axis=1)
    check = digits.sum(axis=1) % 26
    letters = np.concatenate([digits, check[:, None]], axis=1) + ord("a")
    return ["".join(map(chr, row)) for row in letters]


def _case_variant(domain: str, pattern: int) -> str:
    labels = domain.split(".")
    if pattern == 0:
        return domain.upper()
    if pattern == 1:
        return ".".join(label.capitalize() for label in labels)
    return ".".join([labels[0].upper()] + labels[1:])


def make_entities(
    cfg: GenConfig, rng: np.random.Generator, first_id: int = 0, count: int = 0
) -> Dict[str, list]:
    """Person entities ``first_id .. first_id+count`` (``count`` defaults to
    ``cfg.entities``).  Returns ``{"entity_id": [...], "variants": [[6
    surfaces], ...]}``."""
    n = count or cfg.entities
    if first_id + n > 26**4:
        raise ValueError("entity ids must stay below 26**4")
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    first = rng.integers(len(FIRST), size=n)
    last = rng.integers(len(LAST), size=n)
    hot = rng.random(n) < cfg.hot_domain_share
    other = 1 + rng.integers(len(DOMAINS) - 1, size=n)
    dom_idx = np.where(hot, 0, other)
    case_pat = rng.integers(3, size=n)
    typo_pos = 1 + rng.integers(4, size=n)  # inside the 5-letter first name
    typo_digit = rng.integers(10, size=n)
    codes = _code(ids)
    variants = []
    for j in range(n):
        f, l, code = FIRST[first[j]], LAST[last[j]], codes[j]
        local = f"{f}.{l}.{code}"
        dom = DOMAINS[dom_idx[j]]
        p = int(typo_pos[j])
        typo = f"{f[:p]}{typo_digit[j]}{f[p + 1:]}.{l}.{code}"
        variants.append([
            f"{local}@{dom}",
            f"{local}@{_case_variant(dom, int(case_pat[j]))}",
            f"{f}{l}{code}@{dom}",
            f"{typo}@{dom}",
            f" {local}@{dom}",
            f'"{local}"@{dom}',
        ])
    return {"entity_id": ids.tolist(), "variants": variants}


def _exotic_id(label: str) -> int:
    return EXOTIC_ID_BASE + EXOTIC_LABELS.index(label)


def make_corpus(
    cfg: GenConfig,
    rng: np.random.Generator,
    entities: Dict[str, list],
    conv_prefix: str = "c",
    turns: int = 0,
) -> Dict[str, pa.Table]:
    """Turns with planted mentions of ``entities`` (and of :data:`EXOTICS`).

    Returns ``transcripts(conv_id, turn_idx, text)`` and
    ``gold_mentions(conv_id, turn_idx, mention_idx, address, entity_id)``.
    """
    n_turns = turns or cfg.turns
    n_ent = len(entities["entity_id"])
    pop = 1.0 / np.arange(1, n_ent + 1, dtype=np.float64) ** cfg.zipf
    pop_cdf = np.cumsum(pop / pop.sum())
    mix = np.asarray(cfg.variant_mix, dtype=np.float64)
    mix_cdf = np.cumsum(mix / mix.sum())
    kp = np.asarray(cfg.mention_p, dtype=np.float64)

    k = np.searchsorted(np.cumsum(kp / kp.sum()), rng.random(n_turns), side="right")
    k = np.minimum(k, len(kp) - 1)
    n_m = int(k.sum())
    is_exotic = rng.random(n_m) < cfg.exotic_share
    exotic_pick = rng.integers(len(EXOTICS), size=n_m)
    ent_pick = np.minimum(np.searchsorted(pop_cdf, rng.random(n_m), side="right"), n_ent - 1)
    style_pick = np.minimum(np.searchsorted(mix_cdf, rng.random(n_m), side="right"), 5)
    conv_len = 2 + rng.geometric(0.2, size=n_turns)
    lead = rng.integers(len(LEADS), size=n_turns)
    tail = rng.integers(len(TAILS), size=n_turns)
    prose = rng.integers(len(PROSE), size=n_turns)

    conv_ids, turn_idx, texts = [], [], []
    g_conv, g_turn, g_idx, g_addr, g_eid = [], [], [], [], []
    conv, pos, m = 0, 0, 0
    for t in range(n_turns):
        if pos == conv_len[conv]:
            conv, pos = conv + 1, 0
        cid = f"{conv_prefix}{conv:07d}"
        kt = int(k[t])
        if kt == 0:
            text = PROSE[prose[t]]
        else:
            frags = [LEADS[lead[t]]]
            for mi in range(kt):
                if is_exotic[m]:
                    addr, label = EXOTICS[exotic_pick[m]]
                    eid = _exotic_id(label)
                    frags.append(f"<{addr}>")
                else:
                    e = int(ent_pick[m])
                    s = int(style_pick[m])
                    addr = entities["variants"][e][s]
                    eid = entities["entity_id"][e]
                    frags.append(f"<{addr}>" if STYLES[s] in BRACKETED else addr)
                if mi < kt - 1:
                    frags.append("and")
                g_conv.append(cid)
                g_turn.append(pos)
                g_idx.append(mi)
                g_addr.append(addr)
                g_eid.append(eid)
                m += 1
            frags.append(TAILS[tail[t]])
            text = " ".join(frags)
        conv_ids.append(cid)
        turn_idx.append(pos)
        texts.append(text)
        pos += 1
    return {
        "transcripts": pa.table({
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "text": pa.array(texts, pa.string()),
        }),
        "gold_mentions": pa.table({
            "conv_id": pa.array(g_conv, pa.string()),
            "turn_idx": pa.array(g_turn, pa.int32()),
            "mention_idx": pa.array(g_idx, pa.int32()),
            "address": pa.array(g_addr, pa.string()),
            "entity_id": pa.array(g_eid, pa.int64()),
        }),
    }


def gold_surfaces(*gold_mentions: pa.Table) -> Dict[str, int]:
    """surface -> gold entity id over the mentions actually planted."""
    out: Dict[str, int] = {}
    for gm in gold_mentions:
        for a, e in zip(gm["address"].to_pylist(), gm["entity_id"].to_pylist()):
            if out.setdefault(a, e) != e:
                raise ValueError(f"surface {a!r} planted for two entities")
    return out


def write_transcripts(table: pa.Table, out_dir: str) -> str:
    """Shard ``table`` into Parquet files under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for shard, off in enumerate(range(0, max(table.num_rows, 1), ROWS_PER_FILE)):
        pq.write_table(
            table.slice(off, ROWS_PER_FILE),
            os.path.join(out_dir, f"part-{shard:05d}.parquet"),
        )
    return out_dir
