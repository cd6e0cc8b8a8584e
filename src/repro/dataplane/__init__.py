"""Hybrid SDN/legacy data-plane simulator (Fig. 2 of the paper)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dataplane.forwarding": ("NetworkDataPlane",),
        "repro.dataplane.packet": ("Packet",),
        "repro.dataplane.switch": ("SwitchDataPlane", "SwitchMode"),
        "repro.dataplane.tables": ("FlowEntry", "FlowTable"),
    },
)
