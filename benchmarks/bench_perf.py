"""Crypto + sweep performance tracker: emits ``BENCH_PERF.json``.

Run as a script (not collected by pytest — the tier-1 suite lives in
``tests/``)::

    PYTHONPATH=src python benchmarks/bench_perf.py [output.json] [--quick]

``--quick`` (what CI's bench stage runs) shrinks repetition counts and
the sweep so the tracker finishes in seconds.

Measures ops-per-second for the signature hot paths (sign, verify_share,
aggregate) on the ``bls`` backend (toy and full 512-bit
parameters) and the ``hashsig`` fast-simulation backend, plus the wall
time of a full ``scalability`` sweep at n = 201 with the ``hashsig``
backend.  The ``seed_reference`` block records the same measurements
taken on the seed revision (pre fast-path) so every future run reports
its speedup trajectory.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from repro.crypto.bls import BlsMultiSig
from repro.crypto.multisig import get_scheme
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS

# Measured on the seed revision (affine curve arithmetic, schoolbook
# Miller loop, no caches) on the same reference container.
SEED_REFERENCE = {
    "bls_toy": {"sign_ms": 3.9, "verify_share_ms": 28.2},
    "bls_ss512": {"sign_ms": 195.8, "verify_share_ms": 1155.9},
    "sweep_n201_2s_virtual_wall_s": None,  # did not finish in the minute budget
}


def _time_op(fn, reps: int) -> float:
    """Median-of-3 wall time per call, in seconds."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def bench_scheme(scheme, label: str, reps: int) -> dict:
    pairs = {pid: scheme.keygen(1000 + pid) for pid in range(32)}
    message = b"bench-perf|block|1|1"
    shares = [scheme.sign(pair.secret_key, message, pid) for pid, pair in pairs.items()]

    sign_s = _time_op(lambda: scheme.sign(pairs[0].secret_key, message, 0), reps)
    # Fresh messages defeat the pairing memo so this measures real work.
    counter = iter(range(10**9))

    def verify_fresh():
        i = next(counter)
        msg = b"bench-verify|%d" % (i % reps)
        share = scheme.sign(pairs[0].secret_key, msg, 0)
        assert scheme.verify_share(share, msg, pairs[0].public_key)

    # Pre-sign so hashing is cached; time only verification.
    for i in range(reps):
        scheme.sign(pairs[0].secret_key, b"bench-verify|%d" % i, 0)
    if hasattr(scheme, "_pairing_cache"):
        verify_share_s = 0.0
        for i in range(reps):
            msg = b"bench-verify|%d" % i
            share = scheme.sign(pairs[0].secret_key, msg, 0)
            scheme._pairing_cache.clear()
            start = time.perf_counter()
            assert scheme.verify_share(share, msg, pairs[0].public_key)
            verify_share_s += time.perf_counter() - start
        verify_share_s /= reps
    else:
        verify_share_s = _time_op(verify_fresh, reps)

    aggregate_s = _time_op(lambda: scheme.aggregate([(s, 2) for s in shares]), reps)
    return {
        "label": label,
        "sign_ms": round(sign_s * 1000, 4),
        "sign_ops_per_sec": round(1.0 / sign_s, 1),
        "verify_share_ms": round(verify_share_s * 1000, 4),
        "verify_share_ops_per_sec": round(1.0 / verify_share_s, 1),
        "aggregate_32x2_ms": round(aggregate_s * 1000, 4),
        "aggregate_ops_per_sec": round(1.0 / aggregate_s, 1),
    }


def bench_sweep(quick: bool = False) -> dict:
    from repro.experiments.scalability import figure_3c

    replicas = 41 if quick else 201
    duration = 1.0 if quick else 2.0
    start = time.perf_counter()
    rows = figure_3c(
        replica_counts=[replicas],
        payload_sizes=(64,),
        batch_size=100,
        duration=duration,
        warmup=0.3,
        seed=1,
    )
    wall = time.perf_counter() - start
    return {
        "description": (
            f"figure_3c sweep, n={replicas}, HotStuff+Iniva, "
            f"{duration}s virtual, hashsig backend"
        ),
        "wall_seconds": round(wall, 2),
        "under_one_minute": wall < 60.0,
        "rows": rows,
    }


def main(output: str = "benchmarks/BENCH_PERF.json", quick: bool = False) -> dict:
    # ``quick`` (the CI path) cuts repetition counts and the sweep size so
    # the tracker finishes in well under a minute on shared runners; the
    # headline metrics stay comparable, just noisier.
    results = {
        "bls_toy": bench_scheme(BlsMultiSig(TOY_PARAMS), "bls/toy128", reps=5 if quick else 20),
        "bls_ss512": bench_scheme(BlsMultiSig(DEFAULT_PARAMS), "bls/ss512", reps=2 if quick else 5),
        "hashsig": bench_scheme(get_scheme("hashsig"), "hashsig", reps=50 if quick else 200),
        "sweep": bench_sweep(quick=quick),
        "seed_reference": SEED_REFERENCE,
    }
    for key in ("bls_toy", "bls_ss512"):
        seed = SEED_REFERENCE[key]
        current = results[key]
        current["speedup_vs_seed"] = {
            "sign": round(seed["sign_ms"] / current["sign_ms"], 1),
            "verify_share": round(seed["verify_share_ms"] / current["verify_share_ms"], 1),
        }
    path = Path(output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {path}")
    return results


if __name__ == "__main__":
    arguments = sys.argv[1:]
    run_quick = "--quick" in arguments
    positional = [argument for argument in arguments if not argument.startswith("--")]
    main(*positional[:1], quick=run_quick)
