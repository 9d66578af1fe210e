"""mNPUsim reproduction: a multi-core NPU simulator in Python.

This package reproduces *mNPUsim: Evaluating the Effect of Sharing Resources
in Multi-core NPUs* (IISWC 2023).  It provides:

* a cycle-level, event-driven multi-core NPU simulator with a detailed
  shared memory system (DRAM channels/banks, TLBs, page-table walkers),
* the eight benchmark DNN topologies the paper evaluates,
* the resource-sharing levels (``Ideal``, ``Static``, ``+D``, ``+DW``,
  ``+DWT``) and partitioning schemes studied in the paper, and
* the experiment harness that regenerates every table and figure of the
  paper's evaluation section.

Quickstart::

    from repro import MultiCoreNPUSim, SharingLevel, zoo, presets

    system = presets.cloud_npu(num_cores=2, sharing=SharingLevel.DWT)
    sim = MultiCoreNPUSim(system, [zoo.mini("ncf"), zoo.mini("gpt2")])
    result = sim.run()
    print(result.cycles_per_core)
"""

from repro._lazy import lazy_exports

# Re-exports load on first use, so importing one submodule (a RunSpec
# client, say) does not load the simulator.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.metrics": ("fairness", "geomean", "slowdown", "speedup"),
    "repro.core.sharing": ("SharingLevel",),
    "repro.core.simulator": ("MixResult", "MultiCoreNPUSim", "WorkloadResult"),
    "repro.config.presets": ("presets",),
    "repro.models.zoo": ("zoo",),
})

__version__ = "1.0.0"

__all__ = [
    "MultiCoreNPUSim",
    "MixResult",
    "WorkloadResult",
    "SharingLevel",
    "zoo",
    "presets",
    "speedup",
    "slowdown",
    "geomean",
    "fairness",
    "__version__",
]
