"""The shared flash channel: arbitration, transmission, and PHY."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "Channel": "channel",
    "ChannelStats": "channel",
    "ChannelPhy": "phy",
})
