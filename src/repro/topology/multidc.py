"""A chain of datacenters with per-segment long-haul links.

Generalizes the paper's two-DC topology (§4.1) to N datacenters in a
line — e.g. metro DC → regional hub → remote region — with a configurable
latency per segment.  This is the substrate for the *cascaded proxy*
extension: the paper places one proxy in the sending datacenter; with
multiple long-haul segments of increasing latency, a relay proxy at each
intermediate datacenter shortens every segment's feedback loop, not just
the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FabricConfig, QueueSpec
from repro.errors import ConfigError
from repro.net.network import Network
from repro.net.node import Host, Switch
from repro.sim.simulator import Simulator
from repro.topology.leafspine import Fabric, build_leafspine
from repro.units import gbps, megabytes, milliseconds


@dataclass(frozen=True)
class MultiDcConfig:
    """A line of datacenters joined by per-segment backbones."""

    fabric: FabricConfig = field(default_factory=FabricConfig)
    #: long-haul latency of each segment; len+1 datacenters are built.
    segment_delays_ps: tuple[int, ...] = (milliseconds(1), milliseconds(10))
    backbone_per_spine: int = 2
    backbone_rate_bps: float = gbps(100)
    backbone_queue: QueueSpec = field(
        default_factory=lambda: QueueSpec(
            kind="ecn",
            capacity_bytes=megabytes(49.8),
            ecn_low_bytes=megabytes(9.96),
            ecn_high_bytes=megabytes(39.84),
        )
    )
    trimming: bool = False

    def __post_init__(self) -> None:
        if not self.segment_delays_ps:
            raise ConfigError("need at least one inter-DC segment")
        if any(d < 0 for d in self.segment_delays_ps):
            raise ConfigError("segment delays must be non-negative")
        if self.backbone_per_spine < 1:
            raise ConfigError("backbone_per_spine must be at least 1")

    @property
    def datacenters(self) -> int:
        """Number of datacenters in the chain."""
        return len(self.segment_delays_ps) + 1

    def with_trimming(self, enabled: bool) -> "MultiDcConfig":
        """The same chain with trimming toggled everywhere."""
        from dataclasses import replace

        return replace(self, trimming=enabled)


@dataclass
class MultiDcNetwork:
    """Handles to a built datacenter chain."""

    net: Network
    cfg: MultiDcConfig
    fabrics: list[Fabric] = field(default_factory=list)
    backbones: list[list[Switch]] = field(default_factory=list)  # per segment

    def hosts(self, dc: int) -> list[Host]:
        """All servers in datacenter ``dc``."""
        return self.fabrics[dc].hosts


def build_multidc(
    sim: Simulator,
    cfg: MultiDcConfig,
    routing: str = "spray",
) -> MultiDcNetwork:
    """Build the chain and finalize routing.

    Each segment ``k`` bridges DC ``k`` and DC ``k+1`` with
    ``spines x backbone_per_spine`` routers wired exactly like the two-DC
    builder (router ``b`` joins spine ``b // per_spine`` on the left and
    spine ``b % spines`` on the right).
    """
    net = Network(sim)
    fabrics = [
        build_leafspine(net, cfg.fabric, dc=dc, name_prefix=f"dc{dc}",
                        trimming=cfg.trimming)
        for dc in range(cfg.datacenters)
    ]
    backbone_spec = cfg.backbone_queue.with_trimming(cfg.trimming)
    spine_spec = cfg.fabric.switch_queue.with_trimming(cfg.trimming)
    rng_for = lambda name: sim.rng.lazy(f"queue:{name}")  # noqa: E731

    backbones: list[list[Switch]] = []
    spines = cfg.fabric.spines
    routers_per_segment = spines * cfg.backbone_per_spine
    for segment, delay in enumerate(cfg.segment_delays_ps):
        routers: list[Switch] = []
        for b in range(routers_per_segment):
            router = net.add_switch(f"seg{segment}-bb{b}", dc=-1)
            routers.append(router)
            left = fabrics[segment].spines[b // cfg.backbone_per_spine]
            right = fabrics[segment + 1].spines[b % spines]
            for spine in (left, right):
                net.connect(
                    spine,
                    router,
                    cfg.backbone_rate_bps,
                    delay,
                    queue_ab=spine_spec.build(rng_for(f"{spine.name}->{router.name}")),
                    queue_ba=backbone_spec.build(rng_for(f"{router.name}->{spine.name}")),
                )
        backbones.append(routers)
    net.finalize(routing=routing)
    return MultiDcNetwork(net=net, cfg=cfg, fabrics=fabrics, backbones=backbones)
