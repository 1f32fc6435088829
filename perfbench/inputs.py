"""Seeded input generators for the three workloads.

Everything here is plain data derived from ``random.Random(seed)``: the
program under test never sees the seed, only what these functions return.
Nothing here imports the program, so the generators can be tested (and
their determinism checked) without a checkout's ``src/``.

Each workload runs *operations* (a machine run, a sweep batch, a served
request).  :func:`op_sequence` decides, per operation, whether it takes a
new input or repeats an earlier one.  Repeats serve two purposes: they
check determinism (a repeat must give the output its first run gave) and
they are the inputs a result cache could answer -- the ``hit_ms``
metrics time them apart from first runs (``miss_ms``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

#: The seed whose outputs are pinned by ``golden.json``.
DEFAULT_SEED = 0

#: Share of operations that repeat an earlier input.
REPEAT_SHARE = 0.5

#: Of the repeats, the share that picks the most recent new input, so
#: that two serve clients sometimes ask for the same key at once (which
#: the server must coalesce).  The rest pick any earlier input uniformly.
RECENT_SHARE = 0.2


def op_sequence(seed: int, distinct: int, length: int) -> List[int]:
    """Input index per operation: ``length`` picks over ``distinct`` inputs.

    New inputs are taken in index order (0, 1, 2, ...), so the first
    ``k`` distinct inputs a run sees are always inputs ``0..k-1`` -- which
    is what lets a golden digest pin them.  Once every input has been
    used, the remaining operations are repeats.
    """
    rng = random.Random(f"ops/{seed}")
    sequence: List[int] = []
    fresh = 0
    for _ in range(length):
        if fresh == 0 or (fresh < distinct and rng.random() >= REPEAT_SHARE):
            sequence.append(fresh)
            fresh += 1
        elif rng.random() < RECENT_SHARE:
            sequence.append(fresh - 1)
        else:
            sequence.append(rng.randrange(fresh))
    return sequence


# -- gm-stream ---------------------------------------------------------------

#: Prefetch strides: unit, powers of two, and odd values.  With the
#: paper's 32 double-word-interleaved modules, a stride of 32 or 64 puts a
#: whole stream on one module and 16 on two, so some streams pile up.
STRIDES = (1, 1, 1, 2, 4, 8, 16, 32, 64, 3, 5, 7, 9, 31, 33)

#: Per-CE address regions, far enough apart that streams never overlap.
REGION_WORDS = 1_048_579  # prime, so CE regions start on different modules

#: Words each CE reads per operation: streams of 32-64 words.
READS_PER_CE = 2
STORE_WORDS = (16, 48)


def gm_plan(rng: random.Random, num_ces: int) -> Tuple[Tuple[tuple, ...], ...]:
    """One operation's plan: per CE, read / store / read steps.

    A step is ``("read", length, stride, start)`` (an ArmFirePrefetch
    consumed by a vector instruction) or ``("store", length, stride,
    start)`` (a GlobalStores burst).  The store sits between the two reads,
    so writes share the forward network with read requests.
    """
    plan = []
    for ce in range(num_ces):
        base = ce * REGION_WORDS
        steps: List[tuple] = []
        for index in range(READS_PER_CE):
            if index:
                steps.append((
                    "store",
                    rng.randint(*STORE_WORDS),
                    rng.choice(STRIDES),
                    base + 600_000 + rng.randrange(1 << 16),
                ))
            steps.append((
                "read",
                rng.randint(32, 64),
                rng.choice(STRIDES),
                base + rng.randrange(1 << 16),
            ))
        plan.append(tuple(steps))
    return tuple(plan)


def gm_plans(seed: int, count: int, num_ces: int = 32) -> List[tuple]:
    rng = random.Random(f"gm-stream/{seed}")
    return [gm_plan(rng, num_ces) for _ in range(count)]


def planned_words(plan: Sequence[Sequence[tuple]]) -> Tuple[int, int]:
    """(read words, stored words) a plan moves through the networks."""
    reads = sum(s[1] for steps in plan for s in steps if s[0] == "read")
    stores = sum(s[1] for steps in plan for s in steps if s[0] == "store")
    return reads, stores


# -- design-sweep ------------------------------------------------------------

#: (clusters, ces_per_cluster) choices per batch slot.  Each slot holds a
#: fixed CE count -- 4, 8, 12, 16, 24, 32 -- so a batch costs about the
#: same on every seed while its shapes differ.
SLOT_SHAPES = (
    ((1, 4), (2, 2)),
    ((1, 8), (2, 4), (4, 2)),
    ((3, 4),),
    ((2, 8), (4, 4)),
    ((3, 8),),
    ((4, 8),),
)
#: Radix per slot is a shuffle of this multiset, for the same reason.
SLOT_RADIXES = (2, 2, 4, 4, 8, 8)


def sweep_batch(rng: random.Random) -> List[Dict[str, int]]:
    """One batch of ``len(SLOT_SHAPES)`` MachineSpec field dicts."""
    radixes = list(SLOT_RADIXES)
    rng.shuffle(radixes)
    batch = []
    for shapes, radix in zip(SLOT_SHAPES, radixes):
        clusters, ces = rng.choice(shapes)
        batch.append({
            "clusters": clusters,
            "ces_per_cluster": ces,
            "switch_radix": radix,
            "port_queue_words": rng.randint(1, 8),
            "memory_modules": rng.choice((8, 16, 32)),
            "interleave_words": rng.choice((1, 2, 4)),
        })
    return batch


def sweep_batches(seed: int, count: int) -> List[List[Dict[str, int]]]:
    rng = random.Random(f"design-sweep/{seed}")
    return [sweep_batch(rng) for _ in range(count)]


# -- serve-mix ---------------------------------------------------------------

#: The analytic experiments: no cycle simulation, so no crossbar work.
SERVE_EXPERIMENTS = (
    "table3", "table4", "table5", "table6", "figure3", "restructuring",
)


def spec_pool(seed: int, count: int) -> List[Optional[Dict[str, int]]]:
    """``count`` distinct spec overrides; the first is None (the paper's
    machine).  All are valid MachineSpec field dicts."""
    rng = random.Random(f"serve-specs/{seed}")
    pool: List[Optional[Dict[str, int]]] = [None]
    seen = set()
    while len(pool) < count:
        spec = {
            "clusters": rng.randint(1, 4),
            "ces_per_cluster": rng.choice((2, 4, 8)),
            "switch_radix": rng.choice((2, 4, 8)),
            "port_queue_words": rng.randint(1, 8),
            "memory_modules": rng.choice((8, 16, 32)),
            "interleave_words": rng.choice((1, 2, 4)),
        }
        key = tuple(sorted(spec.items()))
        if key not in seen:
            seen.add(key)
            pool.append(spec)
    return pool


def serve_keys(seed: int, specs: int) -> List[Tuple[str, Optional[Dict[str, int]]]]:
    """Every (experiment, spec) request key, in seeded first-use order."""
    keys = [
        (experiment, spec)
        for spec in spec_pool(seed, specs)
        for experiment in SERVE_EXPERIMENTS
    ]
    random.Random(f"serve-order/{seed}").shuffle(keys)
    return keys
