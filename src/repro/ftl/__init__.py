"""Flash Translation Layer substrate.

A page-mapped FTL (map table, per-LUN block allocation with channel
striping, greedy garbage collection, wear accounting) so the Fig. 12
end-to-end experiment runs against a full SSD stack rather than bare
channel injection.  For scale-out runs, :class:`ShardedFtl` stripes
global LPNs round-robin over one :class:`PageMappedFtl` per channel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "GrownBadBlockTable": "badblocks",
    "RetirementRecord": "badblocks",
    "MapEntry": "mapping",
    "PageMapTable": "mapping",
    "ShardRouter": "mapping",
    "CostBenefitPolicy": "gc",
    "GreedyPolicy": "gc",
    "VictimPolicy": "gc",
    "BlockInfo": "ftl",
    "FtlConfig": "ftl",
    "FtlError": "ftl",
    "MountReport": "spor",
    "PageMappedFtl": "ftl",
    "PersistenceLayer": "persist",
    "ShardedFtl": "ftl",
    "WearTracker": "wear",
    "mount_sharded": "spor",
})
