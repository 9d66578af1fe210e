"""Configuration dataclasses mirroring mNPUsim's five config-file kinds.

mNPUsim takes ``arch_config``, ``network_config``, ``npumem_config``,
``dram_config`` and ``misc_config`` files.  Here each is a frozen dataclass;
:mod:`repro.config.loader` parses the equivalent ``key = value`` text files,
and :mod:`repro.config.presets` builds the paper's Table 2 configuration.
"""

from repro._lazy import lazy_exports

# Re-exports load on first use: resolving a spec needs the per-core
# resource table in ``presets``, not the config classes.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.config.arch": ("ArchConfig",),
    "repro.config.dram": ("AddressMapping", "DramConfig", "DramTiming"),
    "repro.config.misc": ("MiscConfig",),
    "repro.config.npumem": ("NpuMemConfig",),
    "repro.config.system": ("SystemConfig",),
    "repro.config.presets": ("presets",),
    "repro.config.loader": (
        "load_arch_config",
        "load_dram_config",
        "load_misc_config",
        "load_npumem_config",
        "parse_kv_text",
    ),
})

__all__ = [
    "ArchConfig",
    "NpuMemConfig",
    "DramConfig",
    "DramTiming",
    "AddressMapping",
    "MiscConfig",
    "SystemConfig",
    "presets",
    "parse_kv_text",
    "load_arch_config",
    "load_npumem_config",
    "load_dram_config",
    "load_misc_config",
]
