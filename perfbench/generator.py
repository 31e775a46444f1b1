"""Open-loop request generator for the ``open-n4`` workload.

Runs as its own process so its sending schedule never competes with the
cluster's event loop.  It reads one JSON command per line on stdin::

    {"port": 40123, "rate": 4000.0, "warmup": 0.5, "measure": 3.0,
     "drain": 0.4, "seed": 7}

dials ``127.0.0.1:port`` over one TCP connection, says ``ClientHello``
and sends every request of a seeded Poisson schedule over ``warmup +
measure`` seconds as ``ClientRequest`` frames through ``WireCodec``, each
at its due time or as soon after as it can.  Every request's *due*
time comes from the seeded schedule, not from when it was sent, so a
stall in the generator or the cluster shows up as latency of the
requests behind it.  It then waits up to ``drain`` seconds for late
replies and prints one JSON summary line on stdout.  Only requests due
inside the measured window (after ``warmup``) are summarised.

An empty line or end of input ends the process.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import sys
from typing import Any, Dict, List, Optional

from repro.clients.messages import ClientHello, ClientReject, ClientReply, ClientRequest
from repro.runtime.codec import FrameBatch, WireCodec

#: Logical client ids the requests are spread over, round robin.
CLIENTS = 32

#: Modelled payload bytes per request.
PAYLOAD_SIZE = 64

#: Most requests packed into one frame when several are due at once.
MAX_FRAME_BATCH = 64

#: Slices of the measured window that get a median latency each.
SLICES = 5


def poisson_schedule(rate: float, horizon: float, seed: int) -> List[float]:
    """Due times of a Poisson process of ``rate`` on ``[0, horizon)``."""
    rng = random.Random(seed)
    due: List[float] = []
    t = rng.expovariate(rate)
    while t < horizon:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


async def run_step(command: Dict[str, Any]) -> Dict[str, Any]:
    rate = float(command["rate"])
    warmup = float(command["warmup"])
    measure = float(command["measure"])
    drain = float(command["drain"])
    horizon = warmup + measure
    due = poisson_schedule(rate, horizon, int(command["seed"]))
    count = len(due)
    sent_at: List[Optional[float]] = [None] * count
    reply_at: List[Optional[float]] = [None] * count
    rejected = [False] * count
    codec = WireCodec()
    stray = 0

    reader, writer = await asyncio.open_connection("127.0.0.1", int(command["port"]))
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    writer.write(codec.frame(ClientHello(client_id=0)))
    loop = asyncio.get_running_loop()
    start = loop.time()
    answered_all = loop.create_future()
    outstanding = count

    async def read_replies() -> None:
        nonlocal stray, outstanding
        while True:
            header = await reader.readexactly(4)
            body = await reader.readexactly(int.from_bytes(header, "big"))
            now = loop.time() - start
            decoded = codec.decode(body)
            members = decoded.messages if isinstance(decoded, FrameBatch) else (decoded,)
            for message in members:
                index = message.request_id - 1
                if not 0 <= index < count or sent_at[index] is None:
                    stray += 1
                    continue
                if isinstance(message, ClientReply):
                    if reply_at[index] is None and not rejected[index]:
                        reply_at[index] = now
                        outstanding -= 1
                elif isinstance(message, ClientReject):
                    if reply_at[index] is None and not rejected[index]:
                        rejected[index] = True
                        outstanding -= 1
            if outstanding == 0 and not answered_all.done():
                answered_all.set_result(None)

    reading = loop.create_task(read_replies())
    index = 0
    try:
        # Every request is due inside the window, so all of them are sent,
        # late if need be; lateness is recorded and gated, not dropped.
        while index < count:
            now = loop.time() - start
            if due[index] > now:
                await asyncio.sleep(due[index] - now)
                continue
            batch = []
            while index < count and due[index] <= now and len(batch) < MAX_FRAME_BATCH:
                batch.append(
                    ClientRequest(
                        request_id=index + 1,
                        client_id=index % CLIENTS,
                        payload_size=PAYLOAD_SIZE,
                    )
                )
                sent_at[index] = now
                index += 1
            writer.write(codec.frame(batch[0] if len(batch) == 1 else FrameBatch(tuple(batch))))
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        if outstanding <= 0 and not answered_all.done():
            answered_all.set_result(None)
        try:
            await asyncio.wait_for(asyncio.shield(answered_all), timeout=drain)
        except asyncio.TimeoutError:
            pass
    finally:
        reading.cancel()
        try:
            await reading
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass

    window = [i for i in range(count) if due[i] >= warmup]
    latencies = sorted(reply_at[i] - due[i] for i in window if reply_at[i] is not None)
    lateness = sorted(sent_at[i] - due[i] for i in window if sent_at[i] is not None)
    thirds = len(window) // 3
    # Five equal slices of the window by due order: the benchmark takes the
    # median of their medians, which one stalled slice cannot move.
    parts = [window[len(window) * k // SLICES: len(window) * (k + 1) // SLICES] for k in range(SLICES)]

    def p50_of(indices: List[int]) -> float:
        return quantile(sorted(reply_at[i] - due[i] for i in indices if reply_at[i] is not None), 0.5)

    return {
        "due": len(window),
        "sent": sum(1 for i in window if sent_at[i] is not None),
        "answered": len(latencies),
        "rejected": sum(1 for i in window if rejected[i]),
        "stray_replies": stray,
        "latency_p99_s": quantile(latencies, 0.99),
        "window_p50_s": [p50_of(part) for part in parts],
        "late_p50_s": quantile(lateness, 0.50),
        "late_p99_s": quantile(lateness, 0.99),
        "first_third_p50_s": p50_of(window[:thirds]),
        "last_third_p50_s": p50_of(window[len(window) - thirds:]),
    }


def main() -> int:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        summary = asyncio.run(run_step(json.loads(line)))
        sys.stdout.write(json.dumps(summary) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
