"""BABOL: A Software-Defined NAND Flash Controller - Python reproduction.

Full-system reproduction of the MICRO 2024 paper: a discrete-event
simulated ONFI/NAND substrate, the BABOL uFSM + software-environment
controller on top, hardware baseline controllers, an FTL/host stack for
end-to-end runs, and analysis tooling that regenerates every table and
figure of the paper's evaluation.

Quickstart::

    from repro import BabolController, ControllerConfig, Simulator
    from repro.flash import HYNIX_V7

    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(vendor=HYNIX_V7, lun_count=8)
    )
    task = controller.read_page(lun=0, block=1, page=0, dram_address=0)
    status, handle = controller.run_to_completion(task)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(globals(), {
    "BabolController": "core.controller",
    "ControllerConfig": "core.controller",
    "Simulator": "sim.kernel",
})
