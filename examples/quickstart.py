#!/usr/bin/env python3
"""Quickstart: co-run a network HPW, a storage LPW, and cache-sensitive
CPU workloads, first under the hardware Default, then under A4.

Run:  python examples/quickstart.py
"""

from repro.experiments.harness import Server
from repro.workloads.dpdk import DpdkWorkload
from repro.workloads.fio import FioWorkload
from repro.workloads.xmem import xmem
from repro.core.variants import make_manager

MB = 1024 * 1024


def build_server(scheme: str) -> Server:
    server = Server(cores=12)
    # A latency-critical kernel-bypass network app: high priority.
    server.add_workload(
        DpdkWorkload(name="dpdk-t", touch=True, cores=4, packet_bytes=1024,
                     priority="HPW")
    )
    # A throughput storage scanner with 2 MB blocks: low priority.
    server.add_workload(
        FioWorkload(name="fio", block_bytes=2 * MB, cores=4, io_depth=32,
                    priority="LPW")
    )
    # A cache-sensitive in-memory workload: high priority.
    server.add_workload(xmem("xmem-hp", 4.0, cores=2, priority="HPW"))
    server.set_manager(make_manager(scheme))
    return server


def main() -> None:
    for scheme in ("default", "a4"):
        server = build_server(scheme)
        result = server.run(epochs=24, warmup=6)
        print(f"\n=== scheme: {scheme} ===")
        print(result.summary())
        if scheme == "a4":
            print("\nA4 decision log:")
            for d in server.manager.decisions:
                print(f"  - epoch {d.epoch:>3}  {d.action}: {d.reason}")
            print("\nfinal CAT masks:")
            for workload in server.workloads:
                ways = server.cat.mask(server.clos_of(workload.name))
                print(f"  {workload.name:8s} way[{ways[0]}:{ways[-1]}]")


if __name__ == "__main__":
    main()
