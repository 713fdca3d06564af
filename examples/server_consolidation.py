#!/usr/bin/env python
"""Server consolidation: how many players fit on one cloud GPU?

The datacenter argument for FPS regulation, run end-to-end: co-locate
1-4 game sessions on a single simulated server (shared GPU, encoder
pool, uplink, and DRAM) and find the highest tenant count at which
every session still meets the 60 FPS target.

Run:  python examples/server_consolidation.py
"""

from repro.multitenant import SharedServer
from repro.regulators import make_regulator
from repro.workloads import PRIVATE_CLOUD, Resolution

SESSIONS = ["ITP", "IM", "RE", "STK"]


def host(spec: str, n: int) -> SharedServer:
    return SharedServer(
        benchmarks=SESSIONS[:n],
        platform=PRIVATE_CLOUD,
        resolution=Resolution.R720P,
        regulator_factory=lambda i: make_regulator(spec),
        seed=1,
        duration_ms=15000.0,
        warmup_ms=2500.0,
    )


def main() -> None:
    print("Consolidation study: sessions per server at the 60 FPS target")
    print("(720p, private cloud; shared GPU + encoder pool + uplink + DRAM)")
    print()
    densities = {}
    for spec in ("NoReg", "ODR60"):
        print(f"--- {spec} ---")
        densities[spec] = 0
        for n in (1, 2, 3, 4):
            server = host(spec, n)
            results = server.run()
            per_session = ", ".join(
                f"{r.system.benchmark.name}:{r.client_fps:.0f}fps" for r in results
            )
            ok = all(r.client_fps >= 59.0 for r in results)
            if ok:
                densities[spec] = n
            print(
                f"  {n} session(s): [{per_session}]  "
                f"GPU {server.gpu_utilization():4.0%}  "
                f"{server.server_power_w():5.1f} W total  "
                f"({server.server_power_w()/n:5.1f} W/session)  "
                f"{'OK' if ok else 'DEGRADED'}"
            )
        print()
    print(
        f"Density at full QoS: NoReg hosts {densities['NoReg']} session(s), "
        f"ODR60 hosts {densities['ODR60']} —"
    )
    print("excessive rendering is the difference between a GPU per player")
    print("and a GPU shared by several, with idle power amortized to match.")


if __name__ == "__main__":
    main()
