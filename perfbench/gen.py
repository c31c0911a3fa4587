"""Seeded input generators for the four benchmark workloads.

Every generator takes the workload seed (and the run length) and
nothing else, so the same seed always yields the same byte stream
(``doc_bytes``) and the program under test sees only the generated
documents.  Endless streams are cut by the load loops when their time
is up; the magnitude workload is a fixed list sized from the run
length.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, Iterator, List, Tuple

KINDS = ("med", "mred", "wce", "error_distribution")
LPAA = tuple(f"LPAA {i}" for i in range(1, 8))

#: serve_chain_open: fixed light arrival rate and chain widths.
OPEN_RATE_RPS = 50.0
CHAIN_WIDTHS = (8, 16, 32, 64)

#: serve_magnitude_closed: chain widths and zoo configs (16 and 32 bits).
MAGNITUDE_CHAIN_WIDTHS = (8, 12, 16)
ZOO_FAMILIES = ("aca1:{n}:4", "aca2:{n}:4", "eta:{n}:8", "gear:{n}:4:4",
                "loa:{n}:8")
ZOO_WIDTHS = (16, 32)
MAGNITUDE_DEADLINE_S = 1
MAGNITUDE_SLOW_S = 7.0
MAGNITUDE_BLOCK_S = 5.0

#: serve_cached_repeat: pool of shared-prefix specs, the scalar
#: probability pairs they share, the Zipf exponent and the fixed share of
#: one-off per-stage-vector documents (1 in 5).  These are chosen, not
#: measured traffic; perfbench/README.md gives the reason for each.
CACHED_WIDTH = 32
CACHED_POOL = 48
CACHED_P_LEVELS = 4
CACHED_ZIPF_S = 1.1
CACHED_ONE_OFF_EVERY = 5

#: sweep_hybrid: design widths and the p_a x p_b grid side (32 x 32).
SWEEP_WIDTHS = (16, 32, 64)
SWEEP_GRID = 32
SWEEP_K_STEPS = 8


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512: stable across runs and builds.
    return random.Random(f"perfbench:{workload}:{seed}")


def _prob(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.95), 4)


def doc_bytes(doc: Dict[str, object]) -> bytes:
    """The request body exactly as it goes on the wire."""
    return json.dumps(doc, sort_keys=True).encode()


def chain_open_schedule(seed: int, seconds: float
                        ) -> List[Tuple[float, Dict[str, object]]]:
    """``(due_s, doc)`` pairs for the open loop, sorted by due time.

    Poisson arrivals at :data:`OPEN_RATE_RPS`, drawn conditioned on the
    count: ``rate * seconds`` due times uniform over the window.  The
    arrival times are one fixed draw, the same for every seed: their
    bursts decide the latency tail, so a per-seed draw would bury any
    change to the server under the difference between draws.  The seed
    draws the documents.
    """
    arrivals = _rng("serve_chain_open:arrivals", 0)
    count = max(1, int(round(OPEN_RATE_RPS * seconds)))
    dues = sorted(arrivals.uniform(0.0, seconds) for _ in range(count))
    rng = _rng("serve_chain_open", seed)
    out = []
    for due in dues:
        width = rng.choice(CHAIN_WIDTHS)
        if rng.random() < 0.5:
            doc: Dict[str, object] = {"cell": rng.choice(LPAA),
                                      "width": width}
        else:
            low, high = rng.sample(LPAA, 2)
            k = rng.randint(1, width - 1)
            doc = {"spec": f"{low.replace(' ', '')}:{k}, "
                           f"{high.replace(' ', '')}:{width - k}"}
        doc["p_a"] = [_prob(rng) for _ in range(width)]
        doc["p_b"] = [_prob(rng) for _ in range(width)]
        out.append((round(due, 6), doc))
    return out


def magnitude_docs(seed: int, seconds: float) -> List[Dict[str, object]]:
    """Error-magnitude questions: two slow documents, then a fixed suite
    of 65 repeated in blocks.

    A block holds, about half and half:

    * three chain documents per (width, kind) over LPAA 1-7, except
      ``mred`` at w=12;
    * four zoo documents per (width, kind), families dealt in turn from
      aca1/aca2/eta/gear/loa.

    The two slow documents are ``mred`` at w=12: on LPAA 4 (the
    support-limit defect) and on LPAA 1 (exact but slow).  They open the
    first block's two halves, once per run: each holds the server for
    ~3 s, so one per block would leave room for too few blocks to steady
    the figures.

    The block's layout (cells, families, order) is the same for every
    seed, and the two slow documents always ask at p = 0.5: they hold
    the server for seconds, so letting the seed move them would swamp
    every other change.  The seed draws every other document's operand
    probabilities, once per run; every block repeats them.  The slow
    pair takes ~7 s on the default server and a block ~5 s, so the run
    holds ``round((seconds - 7) / 5)`` blocks (at least one).
    """
    layout = _rng("serve_magnitude_closed:layout", 0)
    families = itertools.cycle(ZOO_FAMILIES)
    rest: List[Dict[str, object]] = []
    for width in MAGNITUDE_CHAIN_WIDTHS:
        for kind in KINDS:
            if (width, kind) != (12, "mred"):
                rest.extend({"cell": layout.choice(LPAA), "width": width,
                             "kind": kind} for _ in range(3))
    for n in ZOO_WIDTHS:
        for kind in KINDS:
            rest.extend({"adder": next(families).format(n=n), "kind": kind}
                        for _ in range(4))
    layout.shuffle(rest)
    rng = _rng("serve_magnitude_closed", seed)
    for doc in rest:
        doc.update(p_a=_prob(rng), p_b=_prob(rng))
    half = len(rest) // 2
    slow = [{"cell": cell, "width": 12, "kind": "mred", "p_a": 0.5,
             "p_b": 0.5} for cell in ("LPAA 4", "LPAA 1")]
    first = [slow[0]] + rest[:half] + [slow[1]] + rest[half:]
    blocks = max(1, round((seconds - MAGNITUDE_SLOW_S) / MAGNITUDE_BLOCK_S))
    return [dict(doc, deadline_s=MAGNITUDE_DEADLINE_S)
            for doc in first + rest * (blocks - 1)]


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def cached_stream(seed: int) -> Iterator[Dict[str, object]]:
    """Zipf repeats over a pool of ``LPAAx:k, AccuFA:32-k`` specs.

    Each pool spec asks at one of :data:`CACHED_P_LEVELS` scalar
    ``(p_a, p_b)`` pairs, so specs that share a pair also share stage
    leaves and aligned blocks in the segment tier.  One document in
    every :data:`CACHED_ONE_OFF_EVERY` (at a seeded slot) is a one-off:
    a pool spec with fresh per-stage probability vectors, which no cache
    tier has seen.
    """
    rng = _rng("serve_cached_repeat", seed)
    levels = [(_prob(rng), _prob(rng)) for _ in range(CACHED_P_LEVELS)]
    pool = []
    for _ in range(CACHED_POOL):
        x = rng.randint(1, 7)
        k = rng.randint(1, CACHED_WIDTH - 1)
        p_a, p_b = rng.choice(levels)
        pool.append({"spec": f"LPAA{x}:{k}, AccuFA:{CACHED_WIDTH - k}",
                     "p_a": p_a, "p_b": p_b})
    weights = _zipf_weights(CACHED_POOL, CACHED_ZIPF_S)
    while True:
        one_off = rng.randrange(CACHED_ONE_OFF_EVERY)
        for slot in range(CACHED_ONE_OFF_EVERY):
            if slot == one_off:
                doc = dict(rng.choice(pool))
                doc["p_a"] = [_prob(rng) for _ in range(CACHED_WIDTH)]
                doc["p_b"] = [_prob(rng) for _ in range(CACHED_WIDTH)]
            else:
                doc = dict(rng.choices(pool, weights)[0])
            yield doc


def sweep_grid(seed: int) -> List[float]:
    """The run's operand-probability axis (used for both p_a and p_b)."""
    rng = _rng("sweep_hybrid:grid", seed)
    return sorted(round(rng.uniform(0.02, 0.98), 4)
                  for _ in range(SWEEP_GRID))


def sweep_designs(seed: int) -> Iterator[str]:
    """Design specs: LPAA x on the low k bits, AccuFA above.

    k steps through 0..W in eighths of the width.  The stream is
    stratified so that any stretch of it is balanced: widths come in
    triples holding one of each, and each cycle of 63 triples pairs
    every x (1-7) with every k-step (0/8..8/8) once, in seeded order.
    """
    rng = _rng("sweep_hybrid", seed)
    steps = list(range(SWEEP_K_STEPS + 1))
    xs = list(range(1, 8))
    while True:
        rng.shuffle(steps)
        rng.shuffle(xs)
        for i in range(len(steps) * len(xs)):
            x, step = xs[i % len(xs)], steps[i % len(steps)]
            widths = list(SWEEP_WIDTHS)
            rng.shuffle(widths)
            for width in widths:
                k = width * step // SWEEP_K_STEPS
                if k == 0:
                    yield f"AccuFA:{width}"
                elif k == width:
                    yield f"LPAA{x}:{width}"
                else:
                    yield f"LPAA{x}:{k}, AccuFA:{width - k}"
