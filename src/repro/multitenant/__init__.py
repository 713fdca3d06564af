"""Multi-session server consolidation.

The paper's motivation is datacenter efficiency: interactive 3D is "an
emerging type of data center workload", and cycles wasted on excessive
rendering are cycles another tenant could have used.  This package
makes that argument quantitative by hosting **several cloud-gaming
sessions on one simulated server**: all sessions share the GPU (renders
serialize), a bounded encoder pool, the uplink, and the DRAM-contention
domain, while each keeps its own client, input stream, and regulator.
Each session is a :class:`~repro.pipeline.system.CloudSystem` built over
the server's environment, and each yields a
:class:`~repro.pipeline.system.RunResult`, read as for a single run.

The headline result (``benchmarks/test_extension_multitenant.py``):
under NoReg a single session already saturates the GPU, so co-located
sessions immediately degrade each other; under ODR each session only
consumes what its FPS target needs, and the same server sustains
several sessions at full QoS — consolidation density is the datacenter
payoff of removing excessive rendering.
"""

from repro.multitenant.server import SharedServer

__all__ = ["SharedServer"]
