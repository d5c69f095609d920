"""Two-datacenter topology with a long-haul backbone (paper §4.1).

Backbone router ``b`` connects spine ``b // backbone_per_spine`` of DC 0
and spine ``b % spines`` of DC 1, so every (spine, spine) pair across the
two datacenters is bridged and packet spraying can use all 64 long-haul
paths.  Backbone-router ports carry the deep-buffer queue spec; spine-side
ports toward the backbone keep the fabric switch spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import InterDcConfig
from repro.net.network import Network
from repro.net.node import Host, Switch
from repro.sim.simulator import Simulator
from repro.topology.leafspine import Fabric, build_leafspine


@dataclass
class InterDcNetwork:
    """Handles to the built two-datacenter evaluation topology."""

    net: Network
    cfg: InterDcConfig
    fabrics: list[Fabric] = field(default_factory=list)
    backbone: list[Switch] = field(default_factory=list)

    def hosts(self, dc: int) -> list[Host]:
        """All servers in datacenter ``dc``."""
        return self.fabrics[dc].hosts


def build_interdc(
    sim: Simulator,
    cfg: InterDcConfig,
    routing: str = "spray",
) -> InterDcNetwork:
    """Build the §4.1 topology on ``sim`` and finalize routing."""
    net = Network(sim)
    fabrics = [
        build_leafspine(net, cfg.fabric, dc=dc, name_prefix=f"dc{dc}", trimming=cfg.trimming)
        for dc in (0, 1)
    ]
    backbone_spec = cfg.backbone_queue.with_trimming(cfg.trimming)
    spine_spec = cfg.fabric.switch_queue.with_trimming(cfg.trimming)
    rng_for = lambda name: sim.rng.lazy(f"queue:{name}")  # noqa: E731

    backbone: list[Switch] = []
    spines = cfg.fabric.spines
    for b in range(cfg.backbone_routers):
        router = net.add_switch(f"bb{b}", dc=-1)
        backbone.append(router)
        spine0 = fabrics[0].spines[b // cfg.backbone_per_spine]
        spine1 = fabrics[1].spines[b % spines]
        for spine in (spine0, spine1):
            net.connect(
                spine,
                router,
                cfg.backbone_rate_bps,
                cfg.backbone_delay_ps,
                queue_ab=spine_spec.build(rng_for(f"{spine.name}->{router.name}")),
                queue_ba=backbone_spec.build(rng_for(f"{router.name}->{spine.name}")),
            )
    net.finalize(routing=routing)
    return InterDcNetwork(net=net, cfg=cfg, fabrics=fabrics, backbone=backbone)
