"""The closed-loop workloads, driven over the real wire path.

Each repetition builds a fresh ``TuningService(durability="delta")``
store, serves it with an in-process ``TuningServer`` and talks to it
through one ``AsyncServiceClient`` connection.  Tenants step in
lockstep ticks, like a fleet controller whose tuning intervals end on
one clock: each tick sends every stepping tenant's suggest at once, runs
the simulated intervals, then sends every observe at once, and waits for
all replies (a closed loop; the offered load is the number of tenants
stepping, listed per workload below).  Sending a tick's calls together
makes each coalesced server round hold exactly those calls, so which
tenants share a stall is a function of the seed, not of scheduling
jitter; free-running streams moved p50 and tails by 30-55% between runs.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from generator import InputCache, Stream, check_config
from repro.service import TenantSpec, TuningService
from repro.service.transport.client import AsyncServiceClient
from repro.service.transport.server import TuningServer

#: fleet-onboard tenants cycle through this workload mix
ONBOARD_MIX = ("tpcc", "ycsb", "twitter", "job")
#: fleet-onboard wave >= 2 warm-starts from this many neighbours
WARM_NEIGHBORS = 2


@dataclass(frozen=True)
class Sizes:
    """Shape of one repetition of a workload."""

    tenants: int            # tenant streams (per wave for fleet-onboard)
    intervals: int          # intervals per stream
    live: int               # max_live_sessions
    turn: int = 0           # tenant-long: intervals a tenant runs per turn
    waves: int = 1          # fleet-onboard: knowledge waves
    ramp_ticks: int = 0     # fleet-onboard: a wave arrives over this many ticks


SIZES: Dict[str, Dict[str, Sizes]] = {
    "full": {
        # four tenants x 150 intervals taking turns of 75 on one live
        # session slot: each tenant's second turn rehydrates it
        "tenant-long": Sizes(tenants=4, intervals=150, live=1, turn=75),
        # 2 waves x 8 tenants x 20 intervals, 2 arrivals per tick over
        # 4 ticks: up to 8 tenants stepping
        "fleet-onboard": Sizes(tenants=8, intervals=20, live=64, waves=2,
                               ramp_ticks=4),
    },
    "tiny": {
        "tenant-long": Sizes(tenants=2, intervals=30, live=1, turn=15),
        "fleet-onboard": Sizes(tenants=3, intervals=7, live=64, waves=2,
                               ramp_ticks=2),
    },
}


@dataclass
class Rep:
    """Everything one repetition measured from the client side."""

    setup_s: float = 0.0
    load_s: float = 0.0
    interval_s: List[float] = field(default_factory=list)
    suggest_s: List[float] = field(default_factory=list)
    create_s: List[float] = field(default_factory=list)
    #: (tenant, op, send, receive) of every tenant call
    calls: List[Tuple[str, str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    streams: List[Stream] = field(default_factory=list)
    server_stats: Dict[str, int] = field(default_factory=dict)
    client_stats: Dict[str, int] = field(default_factory=dict)
    store_bytes: int = 0
    intervals: int = 0


class _Driver:
    """Times every call a workload makes; a phase sends one call per
    tenant at once, so the server serves it as one coalesced round."""

    def __init__(self, client: AsyncServiceClient, rep: Rep) -> None:
        self.client = client
        self.rep = rep

    async def call(self, tenant: str, op: str, coro):
        rep = self.rep
        rep.attempted += 1
        send = time.perf_counter()
        try:
            result = await coro
        except Exception as exc:   # counted and reported, never hidden
            rep.failed += 1
            rep.errors.append(f"{tenant} {op}: {type(exc).__name__}: {exc}")
            raise
        receive = time.perf_counter()
        rep.calls.append((tenant, op, send, receive))
        return result, receive - send

    async def create(self, streams: List[Stream],
                     warm_neighbors: int = 0) -> None:
        """Create the tenants; with ``warm_neighbors`` each one warm-starts
        from the knowledge base, probing it with its first snapshot."""
        async def one(stream: Stream) -> None:
            probe = stream.snapshots[0] if warm_neighbors else None
            _, rtt = await self.call(stream.tenant_id, "create",
                                     self.client.create(
                                         stream.tenant_id,
                                         TenantSpec(seed=stream.seed),
                                         warm_start_neighbors=warm_neighbors,
                                         probe_snapshot=probe))
            self.rep.create_s.append(rtt)
        await _gather([one(s) for s in streams])

    async def interval(self, steps: List[Tuple[Stream, int]]) -> None:
        """Interval ``t`` of each ``(stream, t)``: a suggest round, the
        simulated intervals, then an observe round."""
        pending: Dict[str, tuple] = {}

        async def suggest(stream: Stream, t: int) -> None:
            config, rtt = await self.call(
                stream.tenant_id, "suggest",
                self.client.suggest(stream.tenant_id,
                                    stream.suggest_input(t)))
            check_config(stream.space, config)
            pending[stream.tenant_id] = (rtt, stream.execute(t, config))

        async def observe(stream: Stream) -> None:
            suggest_rtt, feedback = pending[stream.tenant_id]
            _, rtt = await self.call(
                stream.tenant_id, "observe",
                self.client.observe(stream.tenant_id, feedback))
            self.rep.suggest_s.append(suggest_rtt)
            self.rep.interval_s.append(suggest_rtt + rtt)
            self.rep.intervals += 1

        await _gather([suggest(s, t) for s, t in steps])
        await _gather([observe(s) for s, _ in steps])

    async def close(self, streams: List[Stream]) -> None:
        await _gather([self.call(s.tenant_id, "close",
                                 self.client.close(s.tenant_id))
                       for s in streams])


def _plan_tenant_long(cache: InputCache, seed: int, sizes: Sizes):
    return [[cache.stream(f"long-{i}", "oltp_olap_cycle", seed * 1009 + i,
                          sizes.intervals)]
            for i in range(sizes.tenants)]


async def _tenant_long(drv: _Driver, plan, sizes: Sizes) -> None:
    # one tenant steps at a time; with fewer live slots than tenants,
    # every turn after a tenant's first rehydrates it from the store
    for start in range(0, sizes.intervals, sizes.turn):
        for group in plan:
            if start == 0:
                await drv.create(group)
            for t in range(start, min(start + sizes.turn, sizes.intervals)):
                await drv.interval([(group[0], t)])


def _plan_fleet_onboard(cache: InputCache, seed: int, sizes: Sizes):
    return [[cache.stream(f"w{wave}-{i:03d}", ONBOARD_MIX[i % len(ONBOARD_MIX)],
                          seed * 1009 + wave * 101 + i, sizes.intervals)
             for i in range(sizes.tenants)]
            for wave in range(sizes.waves)]


async def _fleet_onboard(drv: _Driver, waves, sizes: Sizes) -> None:
    n = sizes.tenants
    for wave, streams in enumerate(waves):
        # tenant i arrives at tick i * ramp_ticks // n
        arrive = [i * sizes.ramp_ticks // n for i in range(n)]
        # waves after the first warm-start; every earlier wave is closed
        # and indexed by then, so the neighbours, and the run, are
        # deterministic
        warm = WARM_NEIGHBORS if wave else 0
        for tick in range(arrive[-1] + sizes.intervals):
            await drv.create([s for s, a in zip(streams, arrive) if a == tick],
                             warm_neighbors=warm)
            await drv.interval([(s, tick - a) for s, a in zip(streams, arrive)
                                if a <= tick < a + sizes.intervals])
            await drv.close([s for s, a in zip(streams, arrive)
                             if tick == a + sizes.intervals - 1])


async def _gather(coros) -> None:
    """Run tenant streams concurrently; a stream's failure is already
    counted, so wait for the others and then re-raise the first one."""
    results = await asyncio.gather(*coros, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result


#: workload -> (plan: build the streams, untimed, in groups that step
#: together; drive: the timed load)
WORKLOADS = {
    "tenant-long": (_plan_tenant_long, _tenant_long),
    "fleet-onboard": (_plan_fleet_onboard, _fleet_onboard),
}


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


async def run_rep(name: str, sizes: Sizes, seed: int, cache: InputCache,
                  work_dir: Path, tracer=None) -> Rep:
    """One repetition: plan untimed, set up, drive the workload, drain,
    tear down and delete the store."""
    plan_fn, drive = WORKLOADS[name]
    plan = plan_fn(cache, seed, sizes)
    rep = Rep(streams=[s for group in plan for s in group])
    root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir))
    t0 = time.perf_counter()
    service = TuningService(root / "store", max_live_sessions=sizes.live,
                            durability="delta", owner="bench-0")
    server = TuningServer(service)
    await server.start()
    client = AsyncServiceClient([server.address], seed=seed)
    await client.connect()
    rep.setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            await drive(_Driver(client, rep), plan, sizes)
        except Exception as exc:
            if not rep.failed:          # a generator or check failure
                rep.failed += 1
                rep.errors.append(f"{type(exc).__name__}: {exc}")
        rep.load_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        await client.aclose()
        await server.stop()
    rep.server_stats = server.stats()
    rep.client_stats = {"retries": client.retries,
                        "redirects": client.redirects}
    rep.store_bytes = store_bytes(root / "store")
    shutil.rmtree(root, ignore_errors=True)
    return rep
