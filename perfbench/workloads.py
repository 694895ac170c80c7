"""Seeded request streams for the three benchmark workloads.

Pure standard library: the generators never import ``repro``, so the
inputs are data (scenario-spec dicts) that the program only receives.
The same ``(workload, seed)`` always yields the same stream.

A stream is an endless sequence of :class:`Request`; each request is
one grid of design points.  Every fourth request resends an earlier
grid verbatim (``resend=True``), the rest are new grids.  Grids are
stratified (fixed shares of mappings, indexed points and program
kinds) so that streams of different seeds cost alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("strided-sweep", "program-sweep", "lab-service")

#: The seed the expected results digest is recorded for.
DEFAULT_SEED = 1

#: Requests of the default-seed stream the digest covers (new grids only).
DIGEST_REQUESTS = 6

#: Every this many requests, one resends an earlier grid verbatim.
RESEND_EVERY = 4

#: Requests after which peak RSS is read: a count every run (for the
#: service, every server process of a run) reaches, so the figure does
#: not grow with the host's speed.
RSS_REQUESTS = {"strided-sweep": 400, "program-sweep": 400, "lab-service": 40}

#: Points per grid, as in the repository's example grids:
#: ``examples/scenario_batch_grid.json`` (the batch engine's strided
#: grid) has 16, ``examples/scenario_program_grid.json`` and
#: ``examples/serve_grid.json`` have 6.
STRIDED_POINTS = 16
#: Indexed (gather, bit-reversal, csr-gather) points per strided grid,
#: about a fifth.
STRIDED_INDEXED = 3
PROGRAM_POINTS = 6
LAB_STRIDED_POINTS = 5
GRID_POINTS = {
    "strided-sweep": STRIDED_POINTS,
    "program-sweep": PROGRAM_POINTS,
    "lab-service": LAB_STRIDED_POINTS + 1,
}

#: New grids the seeded re-simulation sample is drawn from: few enough
#: that every run reaches them.
RESIM_GRIDS = 4

#: (mapping section, highest stride exponent inside its conflict-free
#: window).  Strides past the window are the powers of two the paper's
#: schemes cannot serve conflict-free.
MAPPINGS = (
    ({"kind": "matched-xor", "params": {"t": 3, "s": 4}}, 4),
    ({"kind": "section-xor", "params": {"t": 3, "s": 4, "y": 9}}, 9),
    ({"kind": "interleaved", "params": {"m": 3}}, 0),
    ({"kind": "skewed", "params": {"m": 3, "s": 4}}, 4),
    ({"kind": "pseudo-random", "params": {"m": 3}}, 0),
)

PROGRAM_KINDS = (
    "daxpy",
    "saxpy-chain",
    "elementwise-product",
    "vsum",
    "load-store-copy",
    "fft-butterfly",
    "gather",
    "scatter",
)


@dataclass(frozen=True)
class Request:
    """One grid: ``index`` in the stream, ``grid`` the id of its points."""

    index: int
    grid: int
    specs: tuple[dict, ...]
    resend: bool

    @property
    def points(self) -> int:
        return len(self.specs)


def strided_point(rng: random.Random, name: str, mapping: int, indexed: bool) -> dict:
    """One planner-drive single-access point on ``MAPPINGS[mapping]``."""
    section, window = MAPPINGS[mapping]
    section = {"kind": section["kind"], "params": dict(section["params"])}
    if section["kind"] == "pseudo-random":
        section["params"]["seed"] = rng.randrange(4)
    memory = {"t": 3, "q": rng.choice((1, 2, 3)), "ports": rng.choice((1, 2))}
    if indexed:
        kind = rng.choice(("gather", "bit-reversal", "csr-gather"))
        if kind == "gather":
            count = rng.randrange(32, 65)
            params = {
                "indices": [rng.randrange(4096) for _ in range(count)],
                "base": rng.randrange(1024),
            }
        elif kind == "bit-reversal":
            params = {"bits": rng.randrange(5, 8), "base": rng.randrange(1024)}
        else:
            params = {
                "row_length": rng.randrange(16, 65),
                "column_count": rng.choice((1024, 2048, 4096)),
                "seed": rng.randrange(100),
            }
        workload = {"kind": kind, "params": params}
    else:
        if rng.random() < 0.6:
            exponent = rng.randrange(window + 1)
        else:
            exponent = rng.randrange(window + 1, window + 7)
        workload = {
            "kind": "strided",
            "params": {
                "base": rng.randrange(4096),
                "stride": rng.choice((1, 3, 5, 7)) << exponent,
                "length": rng.choice((32, 64, 96, 128)),
            },
        }
    return {
        "name": name,
        "mapping": section,
        "memory": memory,
        "workload": workload,
        "drive": {"kind": "planner", "params": {"mode": "auto"}},
    }


def program_point(rng: random.Random, name: str, kind: str, sizes) -> dict:
    """One decoupled-drive program point."""
    n = rng.choice(sizes)
    if kind == "fft-butterfly":
        n = 1 << max(2, n.bit_length() - 1)
        params = {"n": n, "stage": rng.randrange(n.bit_length() - 1)}
    elif kind == "gather":
        params = {
            "n": n,
            "table_size": n + rng.randrange(0, 3 * n),
            "seed": rng.randrange(100),
        }
    elif kind == "scatter":
        params = {"n": n, "seed": rng.randrange(100)}
    else:
        strides = {
            "daxpy": ("x_stride", "y_stride"),
            "saxpy-chain": ("x_stride", "out_stride"),
            "elementwise-product": ("a_stride", "b_stride", "out_stride"),
            "vsum": ("src_stride",),
            "load-store-copy": ("src_stride", "dst_stride"),
        }[kind]
        params = {"n": n}
        for field in strides:
            params[field] = rng.choice((1, 2, 3, 4, 5, 8, 12, 16))
        if kind in ("daxpy", "saxpy-chain"):
            params["alpha"] = rng.choice((0.5, 2.0, 3.0))
    ports = rng.choice((1, 2))
    drive = {"chaining": rng.random() < 0.5}
    streams = rng.choice((None, 1, 2))
    if streams is not None:
        drive["memory_streams"] = streams
    return {
        "name": name,
        "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
        "memory": {"t": 3, "q": rng.choice((1, 2, 3)), "ports": ports},
        "program": {"kind": kind, "params": params},
        "drive": {"kind": "decoupled", "params": drive},
    }


def new_grid(workload: str, rng: random.Random, grid: int) -> tuple[dict, ...]:
    """The points of one new grid of ``workload``."""
    prefix = f"{workload}-g{grid}"
    if workload == "strided-sweep":
        mappings = [k % len(MAPPINGS) for k in range(STRIDED_POINTS)]
        indexed = [k < STRIDED_INDEXED for k in range(STRIDED_POINTS)]
        rng.shuffle(mappings)
        rng.shuffle(indexed)
        return tuple(
            strided_point(rng, f"{prefix}-p{k}", mappings[k], indexed[k])
            for k in range(STRIDED_POINTS)
        )
    if workload == "program-sweep":
        # Consecutive grids walk through the kinds, so each kind is
        # equally common in every stream.
        return tuple(
            program_point(
                rng, f"{prefix}-p{k}",
                PROGRAM_KINDS[(grid * PROGRAM_POINTS + k) % len(PROGRAM_KINDS)],
                (32, 48, 64, 96, 128),
            )
            for k in range(PROGRAM_POINTS)
        )
    if workload == "lab-service":
        mappings = rng.sample(range(len(MAPPINGS)), LAB_STRIDED_POINTS)
        indexed = rng.randrange(LAB_STRIDED_POINTS)
        points = [
            strided_point(rng, f"{prefix}-p{k}", mappings[k], k == indexed)
            for k in range(LAB_STRIDED_POINTS)
        ]
        kind = PROGRAM_KINDS[grid % len(PROGRAM_KINDS)]
        points.append(
            program_point(rng, f"{prefix}-p{LAB_STRIDED_POINTS}", kind, (32, 48, 64))
        )
        return tuple(points)
    raise ValueError(f"unknown workload {workload!r}")


def stream(workload: str, seed: int):
    """The endless request stream of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    grids: list[tuple[dict, ...]] = []
    index = 0
    while True:
        if index % RESEND_EVERY == RESEND_EVERY - 1:
            grid = rng.randrange(len(grids))
            yield Request(index, grid, grids[grid], True)
        else:
            grids.append(new_grid(workload, rng, len(grids)))
            yield Request(index, len(grids) - 1, grids[-1], False)
        index += 1


def digest_requests(workload: str) -> list[Request]:
    """The new grids the expected digest is recorded over."""
    chosen = []
    for request in stream(workload, DEFAULT_SEED):
        if not request.resend:
            chosen.append(request)
            if len(chosen) == DIGEST_REQUESTS:
                return chosen
    raise AssertionError("unreachable: the stream is endless")
