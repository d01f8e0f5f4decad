"""Workload constants and seeded statement lists.

Every constant the benchmark depends on lives here and is the same on
every commit — there are no environment knobs.  A statement list is a
pure function of ``(workload, seed, scale)``; the harness hashes it into
the provenance block so two runs can prove they issued the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from repro.bench.queries import (
    CLASS_EXPR,
    example4_query,
    sp_equality_query,
    two_predicate_query,
)
from repro.workload import CLASS_LABELS, WorkloadConfig
from repro.workload.generator import generate_annotation

#: default ``--seconds``: the replay time box of one run.
RUN_SECONDS = 15
#: share of the statement list replayed first as warm-up.
WARMUP_FRACTION = 0.05
#: set-ups timed per run (``setup_s`` is their median).
SETUPS = 3
#: recoveries timed in the epilogue (``recover_s`` is their minimum):
#: at least this many, and until this many seconds are spent — a 3 ms
#: image load needs far more than five samples for a steady minimum.
RECOVERIES = 5
RECOVERY_SECONDS = 2.0
#: the generated database is the same for every ``--seed`` (see the
#: note above ``SP_EQ``).
DB_SEED = 42
#: annotations per group; the second group of every ``TXN_EVERY`` is
#: wrapped in ``Begin`` … ``Commit``, the others are autocommit.
GROUP = 5
TXN_EVERY = 6


@dataclass(frozen=True)
class Scale:
    """Database size and replay floor; the smoke test shrinks it."""

    num_birds: int = 100
    annotations_per_tuple: int = 20
    #: replays every run makes even when the time box is already spent.
    min_replays: int = 3
    #: statements per replay; None keeps each workload's own count.
    n: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: statements per replay.
    n: int
    #: buffer-pool pages as a share of the ~0.95 pages/bird database.
    pool_share: float
    writes: bool

    def pool_pages(self, scale: Scale) -> int:
        return max(16, int(scale.num_birds * self.pool_share))

    def statement_count(self, scale: Scale) -> int:
        return scale.n or self.n

    def config(self, scale: Scale) -> WorkloadConfig:
        return WorkloadConfig(
            num_birds=scale.num_birds,
            annotations_per_tuple=scale.annotations_per_tuple,
            cell_fraction=0.0,
            seed=DB_SEED,
            indexes="summary_btree",
            buffer_pages=self.pool_pages(scale),
        )


#: pool 27× the database: everything fits.  pool 0.12× the database:
#: a sequential scan evicts its own pages (the larger-than-cache case).
FITS, SPILLS = 27.0, 0.12

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read_indexed",
            "selective summary-predicate reads, joins and zoom-ins on a "
            "pool that holds the data: per-statement fixed cost (wire, "
            "parse, plan, index probe) dominates",
            n=200, pool_share=FITS, writes=False,
        ),
        Workload(
            "read_scan",
            "range, range+keyword and propagation scans on a pool a "
            "quarter of the data: summary decode, operators and pool "
            "misses dominate; the larger-than-cache workload",
            n=100, pool_share=SPILLS, writes=False,
        ),
        Workload(
            "annotate_ingest",
            "autocommit and grouped annotation inserts: classify, summary "
            "and Summary-BTree maintenance, WAL append and fsync; ends "
            "with SIGKILL and recovery",
            n=300, pool_share=FITS, writes=True,
        ),
        Workload(
            "read_write_mix",
            "one annotate then four indexed reads, repeated: a read gain "
            "bought with write or invalidation cost shows here",
            n=150, pool_share=FITS, writes=True,
        ),
    )
}

#: statement classes, for the ``client.<class>.p50_ms`` layer metrics.
CLASSES = (
    "sp_eq", "join", "zoom", "range", "two_pred", "propagate",
    "annotate", "txn_op", "commit", "read_after_write",
)


class Statement(NamedTuple):
    cls: str
    sql: str


# The multiset of read statements is the same for every seed, and so is
# the database: a seed orders the list and draws zoom targets, annotate
# targets and annotation texts.  Latency percentiles are ranks in a
# multi-modal mix (0.5 ms zoom-ins next to 30 ms joins); fixing the mix
# keeps each rank inside one class, so a spread between seeds is
# measurement noise and not a different question being asked.

#: Counts average 4–6 per label at 20 annotations/tuple, so 8..12 is the
#: selective tail the planner answers from the Summary-BTree.
SP_EQ = [(label, c) for label in CLASS_LABELS for c in range(8, 13)]
#: Example 4's threshold: ``Disease > 7`` keeps ~3 % of the birds.
JOIN_THRESHOLD = 7
RANGE_LOWS = (2, 3, 4, 5)
KEYWORDS = ("wing", "beak", "feather", "tail")
PROPAGATE_SHARES = (0.1, 0.2, 0.3, 0.4, 0.5)
#: every eighth annotation is long enough to earn a snippet (12.5 %).
LONG_EVERY = 8


def _cycle(options, count: int) -> list:
    return [options[i % len(options)] for i in range(count)]


def _sp_eq(combo) -> Statement:
    return Statement("sp_eq", sp_equality_query(*combo))


def _zoom(rng: random.Random, scale: Scale) -> Statement:
    return Statement("zoom", (
        f"Zoom In birds {rng.randint(1, scale.num_birds)} ClassBird1 "
        f"'{rng.choice(CLASS_LABELS)}'"
    ))


def _read_indexed(rng, scale, n):
    sp_eq, join = round(n * 0.6), round(n * 0.2)
    out = [_sp_eq(combo) for combo in _cycle(SP_EQ, sp_eq)]
    out += [Statement("join", example4_query(JOIN_THRESHOLD))] * join
    out += [_zoom(rng, scale) for _ in range(n - sp_eq - join)]
    rng.shuffle(out)
    return out


def _read_scan(rng, scale, n):
    ranges, two_pred = round(n * 0.5), round(n * 0.2)
    out = [
        Statement("range", (
            f"Select common_name From birds r Where "
            f"r.{CLASS_EXPR}('Anatomy') in [{lo}, {lo + 2}]"))
        for lo in _cycle(RANGE_LOWS, ranges)
    ]
    out += [
        Statement("two_pred", two_predicate_query(lo, lo + 2, keyword))
        for lo, keyword in zip(_cycle(RANGE_LOWS, two_pred),
                               _cycle(KEYWORDS, two_pred))
    ]
    out += [
        Statement("propagate", (
            f"Select * From birds r Where r.aou_id < "
            f"{10000 + int(scale.num_birds * share)}"))
        for share in _cycle(PROPAGATE_SHARES, n - ranges - two_pred)
    ]
    rng.shuffle(out)
    return out


def _annotate(rng: random.Random, scale: Scale, index: int) -> str:
    long_form = index % LONG_EVERY == 0
    text = generate_annotation(
        rng, rng.choice(CLASS_LABELS), long_form,
        min_chars=260 if long_form else 0,
    )
    return f"Annotate birds {rng.randint(1, scale.num_birds)} '{text}'"


def _annotate_ingest(rng, scale, n):
    out: list[Statement] = []
    group = 0
    while len(out) < n:
        in_txn = group % TXN_EVERY == 1 and len(out) + GROUP + 2 <= n
        if in_txn:
            out.append(Statement("txn_op", "Begin"))
        out += [
            Statement("txn_op" if in_txn else "annotate",
                      _annotate(rng, scale, len(out) + i))
            for i in range(min(GROUP, n - len(out)))
        ]
        if in_txn:
            out.append(Statement("commit", "Commit"))
        group += 1
    return out


def _read_write_mix(rng, scale, n):
    blocks = math.ceil(n / 5)
    combos = _cycle(SP_EQ, 3 * blocks)
    rng.shuffle(combos)
    out: list[Statement] = []
    for block in range(blocks):
        out.append(Statement("annotate", _annotate(rng, scale, block)))
        # The first read after a write pays whatever the write
        # invalidated (no 30 ms joins here, so that cost is p90).
        out.append(Statement("read_after_write", _sp_eq(combos.pop()).sql))
        tail = [_sp_eq(combos.pop()), _sp_eq(combos.pop()), _zoom(rng, scale)]
        rng.shuffle(tail)
        out += tail
    return out[:n]


_GENERATORS = {
    "read_indexed": _read_indexed,
    "read_scan": _read_scan,
    "annotate_ingest": _annotate_ingest,
    "read_write_mix": _read_write_mix,
}


def statements(workload: Workload, seed: int,
               scale: Scale = Scale()) -> list[Statement]:
    """The statement list of one replay."""
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    rng = random.Random(f"{workload.name}:{seed}")
    return _GENERATORS[workload.name](
        rng, scale, workload.statement_count(scale))


def warmup(workload: Workload, stmts: list[Statement]) -> list[Statement]:
    """The ``WARMUP_FRACTION`` of the list every fresh server is sent
    before the timed list.

    A read-only list gives every twentieth statement of its *sorted*
    self: the same mix whatever the seed's shuffle, so what the warm-up
    leaves cached (and with it the timed list's page count) does not
    depend on the seed.  A write list gives its prefix, extended to the
    end of the transaction it would otherwise cut open."""
    k = math.ceil(len(stmts) * WARMUP_FRACTION)
    if not workload.writes:
        return sorted(stmts)[::len(stmts) // k][:k]
    sqls = [stmt.sql for stmt in stmts]
    if sqls[:k].count("Begin") > sqls[:k].count("Commit"):
        k += sqls[k:].index("Commit") + 1
    return stmts[:k]


def statements_sha256(stmts: list[Statement]) -> str:
    digest = hashlib.sha256()
    for stmt in stmts:
        digest.update(stmt.cls.encode() + b"\0" + stmt.sql.encode() + b"\n")
    return digest.hexdigest()
