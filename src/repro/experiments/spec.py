"""Declarative run descriptors: one :class:`RunSpec` per simulation.

Every simulation behind the paper's figures is either a *solo* run (one
workload alone on an explicit resource slice — Ideal, equal Static and
the ratio partitions of sections 4.3/4.4) or a *mix* run (a genuine
multi-core co-simulation under one of the dynamic sharing levels).  A
:class:`RunSpec` captures everything that distinguishes one such run
from another, and serves three roles at once:

* the **cache key** — :meth:`RunSpec.descriptor` reproduces the exact
  JSON descriptor the on-disk result cache has always been keyed by, so
  caches written before this API existed stay valid;
* the **batch-submission unit** — specs are frozen and hashable, so a
  sweep is a plain list that can be deduplicated with ``dict.fromkeys``
  and sharded across worker processes;
* the **public API surface** — :meth:`RunSpec.system` builds the
  :class:`~repro.config.system.SystemConfig` a worker needs, with no
  reference back to the runner that planned it.

Build specs with the :meth:`RunSpec.solo` / :meth:`RunSpec.mix`
constructors (which resolve per-scale resource defaults), or through a
:class:`PlanContext`, which threads a sweep's shared defaults (scale,
dataflow, serving axes) into every spec a figure plans.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.compute.dataflow import registered_dataflows
from repro.config import presets
from repro.core.sharing import SharingLevel
from repro.digest import sha256
from repro.models import serving_names

if TYPE_CHECKING:
    # Planning, resolving and keying a spec need none of these: only
    # :meth:`RunSpec.system` builds config objects, and only a spec
    # with serving parameters loads the serving builders.
    from repro.config.arch import ArchConfig
    from repro.config.system import SystemConfig
    from repro.models.serving import ServingParams

#: Bump to invalidate cached results when simulator semantics change.
RESULTS_VERSION = 10

#: The paper's dataflow.  Specs at the default omit the ``dataflow``
#: descriptor key entirely, keeping every pre-axis cache shard (and the
#: golden hashes pinned on them) byte-identical.
DEFAULT_DATAFLOW = "os"


@dataclass(frozen=True)
class RunSpec:
    """A complete, immutable description of one solo or mix simulation.

    ``kind`` is ``"solo"`` or ``"mix"``.  Solo runs carry an explicit
    resource slice (``channels`` / ``num_ptw`` / ``tlb_entries``); mix
    runs carry a dynamic ``sharing`` level (the :class:`SharingLevel`
    *name*, kept as a string so specs stay trivially JSON/pickle-stable)
    plus the optional walker-partitioning overrides of figure 13.

    Solo resource fields may be left ``None`` and resolved later against
    the scale's Table 2 per-core defaults with :meth:`resolve` (the
    runner resolves every spec it executes); an unresolved spec refuses
    to produce a cache key.
    """

    kind: str
    workloads: tuple[str, ...]
    scale: str = "mini"
    sharing: str | None = None
    channels: int | None = None
    num_ptw: int | None = None
    tlb_entries: int | None = None
    page_bytes: int = 4096
    translation: bool = True
    ptw_split: tuple[int, ...] | None = None
    num_ptw_per_core: int | None = None
    tlb_entries_per_core: int | None = None
    dataflow: str = DEFAULT_DATAFLOW
    serving: ServingParams | None = None
    version: int = RESULTS_VERSION

    def __post_init__(self) -> None:
        if self.dataflow not in registered_dataflows():
            raise ValueError(
                f"unknown dataflow {self.dataflow!r}; registered engines: "
                + ", ".join(registered_dataflows())
            )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.ptw_split is not None:
            object.__setattr__(self, "ptw_split", tuple(self.ptw_split))
        # A ServingParams at all-defaults describes the same run as no
        # override at all; normalize it to None so spec equality, batch
        # dedup and the cache key all see a single canonical spec.
        if self.serving is not None:
            from repro.models.serving import ServingParams

            if self.serving == ServingParams():
                object.__setattr__(self, "serving", None)
        serving_workload = False
        for name in self.workloads:
            base, wl_phase = serving_names.split_name(name)
            if wl_phase is not None:
                if base not in serving_names.SERVING_BASES:
                    raise ValueError(
                        f"workload {name!r}: {base!r} has no serving "
                        "frontend; serving bases: "
                        + ", ".join(sorted(serving_names.SERVING_BASES))
                    )
                if wl_phase not in serving_names.PHASES:
                    raise ValueError(
                        f"workload {name!r}: unknown phase {wl_phase!r}; "
                        "choose from " + ", ".join(serving_names.PHASES)
                    )
                serving_workload = True
        if self.serving is not None and not serving_workload:
            raise ValueError(
                "serving parameters need a serving workload (a "
                f"phase-qualified name like 'gpt2:prefill'); got {self.workloads!r}"
            )
        if self.kind not in ("solo", "mix"):
            raise ValueError(f"kind must be 'solo' or 'mix', got {self.kind!r}")
        if not self.workloads:
            raise ValueError("a run needs at least one workload")
        if self.kind == "solo":
            if len(self.workloads) != 1:
                raise ValueError("solo runs take exactly one workload")
            if self.sharing is not None:
                raise ValueError(
                    "solo runs are uncontended; drop 'sharing' and describe "
                    "the resource slice instead"
                )
            if self.ptw_split is not None or self.num_ptw_per_core is not None:
                raise ValueError("walker-partitioning fields are mix-only")
        else:
            if self.sharing is None:
                raise ValueError("mix runs need a sharing level")
            if not self.sharing_level.is_contended:
                raise ValueError(
                    f"{self.sharing_level.label} has no dynamic contention; "
                    "use solo runs"
                )
            if self.channels is not None or self.num_ptw is not None:
                raise ValueError(
                    "explicit resource slices are solo-only; mixes size "
                    "their pools from the core count"
                )
            if self.ptw_split is not None and len(self.ptw_split) != len(
                self.workloads
            ):
                raise ValueError("one walker count per core required")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def solo(
        cls,
        workload: str,
        *,
        scale: str = "mini",
        channels: int | None = None,
        num_ptw: int | None = None,
        tlb_entries: int | None = None,
        page_bytes: int = 4096,
        translation: bool = True,
        dataflow: str = DEFAULT_DATAFLOW,
        serving: ServingParams | None = None,
    ) -> "RunSpec":
        """One workload alone on a resource slice (defaults: one per-core
        Table 2 share, i.e. the equal Static split)."""
        return cls(
            kind="solo",
            workloads=(workload,),
            scale=scale,
            channels=channels,
            num_ptw=num_ptw,
            tlb_entries=tlb_entries,
            page_bytes=page_bytes,
            translation=translation,
            dataflow=dataflow,
            serving=serving,
        ).resolve()

    @classmethod
    def ideal(
        cls,
        workload: str,
        num_cores: int,
        *,
        scale: str = "mini",
        page_bytes: int = 4096,
        translation: bool = True,
        dataflow: str = DEFAULT_DATAFLOW,
        serving: ServingParams | None = None,
    ) -> "RunSpec":
        """The Ideal baseline: alone with the whole N-core resource pool."""
        per_core = presets.per_core_resources(scale)
        return cls.solo(
            workload,
            scale=scale,
            channels=per_core["channels"] * num_cores,
            num_ptw=per_core["num_ptw"] * num_cores,
            tlb_entries=per_core["tlb_entries"] * num_cores,
            page_bytes=page_bytes,
            translation=translation,
            dataflow=dataflow,
            serving=serving,
        )

    @classmethod
    def mix(
        cls,
        workloads: Sequence[str],
        sharing: SharingLevel | str,
        *,
        scale: str = "mini",
        page_bytes: int = 4096,
        translation: bool = True,
        ptw_split: Sequence[int] | None = None,
        num_ptw_per_core: int | None = None,
        tlb_entries_per_core: int | None = None,
        dataflow: str = DEFAULT_DATAFLOW,
        serving: ServingParams | None = None,
    ) -> "RunSpec":
        """A co-simulation of ``workloads`` under a dynamic sharing level."""
        if isinstance(sharing, SharingLevel):
            sharing = sharing.name
        return cls(
            kind="mix",
            workloads=tuple(workloads),
            scale=scale,
            sharing=sharing,
            page_bytes=page_bytes,
            translation=translation,
            ptw_split=tuple(ptw_split) if ptw_split is not None else None,
            num_ptw_per_core=num_ptw_per_core,
            tlb_entries_per_core=tlb_entries_per_core,
            dataflow=dataflow,
            serving=serving,
        )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    @property
    def sharing_level(self) -> SharingLevel:
        """The sharing level as an enum (mix runs only)."""
        if self.sharing is None:
            raise ValueError("solo runs have no sharing level")
        return SharingLevel[self.sharing]

    @property
    def is_resolved(self) -> bool:
        """True when every cache-key-relevant field is concrete."""
        if self.kind == "solo":
            return None not in (self.channels, self.num_ptw, self.tlb_entries)
        return True

    @property
    def label(self) -> str:
        """Short human-readable identity, e.g. ``"mix ncf+gpt2 +DWT"``."""
        names = "+".join(self.workloads)
        if self.kind == "solo":
            label = f"solo {names} ch={self.channels} pg={self.page_bytes}"
        else:
            label = f"mix {names} {self.sharing_level.label}"
        if self.dataflow != DEFAULT_DATAFLOW:
            label += f" df={self.dataflow}"
        if self.serving is not None:
            label += f" srv[{self.serving.tag()}]"
        return label

    def resolve(self) -> "RunSpec":
        """Fill unset solo resource fields with the scale's per-core share."""
        if self.is_resolved:
            return self
        per_core = presets.per_core_resources(self.scale)
        return dataclasses.replace(
            self,
            channels=self.channels if self.channels is not None
            else per_core["channels"],
            num_ptw=self.num_ptw if self.num_ptw is not None
            else per_core["num_ptw"],
            tlb_entries=self.tlb_entries if self.tlb_entries is not None
            else per_core["tlb_entries"],
        )

    def descriptor(self) -> dict[str, Any]:
        """The JSON cache descriptor (identical to the pre-RunSpec format)."""
        if not self.is_resolved:
            raise ValueError(
                f"unresolved spec {self!r}: call .resolve() first"
            )
        if self.kind == "solo":
            descriptor: dict[str, Any] = {
                "version": self.version,
                "kind": "solo",
                "scale": self.scale,
                "workload": self.workloads[0],
                "channels": self.channels,
                "num_ptw": self.num_ptw,
                "tlb_entries": self.tlb_entries,
                "page_bytes": self.page_bytes,
                "translation": self.translation,
            }
        else:
            descriptor = {
                "version": self.version,
                "kind": "mix",
                "scale": self.scale,
                "workloads": list(self.workloads),
                "sharing": self.sharing,
                "page_bytes": self.page_bytes,
                "translation": self.translation,
                "ptw_split": list(self.ptw_split) if self.ptw_split else None,
                "num_ptw_per_core": self.num_ptw_per_core,
                "tlb_entries_per_core": self.tlb_entries_per_core,
            }
        if self.dataflow != DEFAULT_DATAFLOW:
            # Omitted at the default so every descriptor (and result
            # shard) written before the dataflow axis existed stays
            # byte-identical — the golden shard hashes pin this.
            descriptor["dataflow"] = self.dataflow
        if self.serving is not None:
            # Serving parameters follow the same omission rule: every
            # descriptor written before the serving frontend existed —
            # and every non-serving descriptor written after — stays
            # byte-identical, so the pre-existing golden cache keys pin
            # this exactly.
            descriptor["serving"] = self.serving.descriptor()
        return descriptor

    def cache_key(self) -> str:
        """Stable content hash of the descriptor (the cache file stem)."""
        payload = json.dumps(self.descriptor(), sort_keys=True)
        return sha256(payload.encode()).hexdigest()[:24]

    def frontends(self) -> tuple[tuple[str, ArchConfig], ...]:
        """The compile units of this run: one (workload, arch) per core.

        This is what the sweep planner deduplicates across a batch — the
        whole SW frontend (tiling, run lists, systolic timing) depends
        only on these pairs, so memory-side sweeps (channels, page sizes,
        PTW/TLB splits, sharing levels) share compiled traces across
        every spec they contain.
        """
        system = self.system()
        return tuple(
            (name, system.arch[core])
            for core, name in enumerate(self.workloads)
        )

    def system(self) -> SystemConfig:
        """Build the :class:`SystemConfig` this spec describes.

        Workers reconstruct the whole simulation from the spec alone, so
        this is the single source of truth for how solo slices and mixes
        are configured (the CLI's ``mix`` path uses it too, keeping CLI
        results bit-identical to the experiment runner's).
        """
        from repro.config.misc import MiscConfig

        if self.kind == "solo":
            spec = self.resolve()
            return presets.solo_slice(
                scale=spec.scale,
                channels=spec.channels,
                num_ptw=spec.num_ptw,
                tlb_entries=spec.tlb_entries,
                page_bytes=spec.page_bytes,
                translation_enabled=spec.translation,
                dataflow=spec.dataflow,
                misc=MiscConfig(iterations=1),
            )
        return presets.mix_system(
            len(self.workloads),
            self.sharing_level,
            scale=self.scale,
            page_bytes=self.page_bytes,
            translation_enabled=self.translation,
            ptw_split=self.ptw_split,
            num_ptw_per_core=self.num_ptw_per_core,
            tlb_entries_per_core=self.tlb_entries_per_core,
            dataflow=self.dataflow,
            misc=MiscConfig(
                iterations=1,
                start_stagger_cycles=presets.MIX_STAGGER_CYCLES,
            ),
        )


@dataclass(frozen=True)
class PlanContext:
    """The defaults every spec of a figure sweep is planned with.

    The CLI's ``--scale``, ``--dataflow``, ``--phase`` and serving flags
    build one context; figure planners and the mapping study call
    :meth:`solo`, :meth:`ideal` and :meth:`mix` on it, passing only the
    fields their figure varies.  Explicit fields win over the
    context's defaults.  ``phase`` qualifies bare serving bases
    (``gpt2`` -> ``gpt2:decode``, see
    :func:`~repro.models.serving_names.qualify`), so a spec planned
    under it is the very spec planned with the qualified name.
    Planning needs no runner and touches no cache.
    """

    scale: str = "mini"
    dataflow: str = DEFAULT_DATAFLOW
    phase: str | None = None
    serving: ServingParams | None = None

    @property
    def per_core(self) -> dict[str, int]:
        """The scale's Table 2 per-core resource share."""
        return presets.per_core_resources(self.scale)

    def solo(self, workload: str, **fields: Any) -> RunSpec:
        """:meth:`RunSpec.solo` under this context's defaults."""
        (workload,) = serving_names.qualify((workload,), self.phase)
        return RunSpec.solo(workload, **self._fields((workload,), fields))

    def ideal(self, workload: str, num_cores: int, **fields: Any) -> RunSpec:
        """:meth:`RunSpec.ideal` under this context's defaults."""
        (workload,) = serving_names.qualify((workload,), self.phase)
        return RunSpec.ideal(
            workload, num_cores, **self._fields((workload,), fields)
        )

    def mix(
        self,
        workloads: Sequence[str],
        sharing: SharingLevel | str,
        **fields: Any,
    ) -> RunSpec:
        """:meth:`RunSpec.mix` under this context's defaults."""
        workloads = serving_names.qualify(workloads, self.phase)
        return RunSpec.mix(workloads, sharing, **self._fields(workloads, fields))

    def _fields(
        self, workloads: Sequence[str], fields: dict[str, Any]
    ) -> dict[str, Any]:
        """``fields`` over the defaults; serving parameters only where they bind.

        Most specs in a sweep run plain zoo workloads; pushing serving
        parameters onto those would be rejected by :class:`RunSpec`
        validation.  So they bind exactly when a workload is
        phase-qualified.
        """
        fields = {"scale": self.scale, "dataflow": self.dataflow, **fields}
        if (
            fields.get("serving") is None
            and self.serving is not None
            and any(
                serving_names.split_name(name)[1] is not None
                for name in workloads
            )
        ):
            fields["serving"] = self.serving
        return fields
