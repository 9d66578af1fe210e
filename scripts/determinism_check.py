#!/usr/bin/env python
"""CI determinism check: the golden corpus twice — compiled, then live.

Pass A (``compiled``) simulates every golden-corpus spec through the
experiment runner with completely fresh caches, replaying compiled
traces, and records a manifest of result-shard sha256 digests.  Pass B
(``live``) re-runs the same corpus on a fresh result cache with the
trace memo's budget at zero, so every core streams a live
``RequestGenerator`` (the oversize fallback, and the golden suite's
reference).  The two manifests must be identical: a compiled trace that
replayed differently from live generation — or any other
nondeterminism between runs — shows up as a digest diff here.

Both passes also run a slice of the corpus with observability armed and
export the Perfetto trace plus counter snapshot; those artifacts must be
byte-identical across passes too, and CI uploads the output directory
when anything diverges.

``--filter`` restricts the corpus (and the observed slice) to entries
whose name contains the given substring; the ``llm-serving-smoke`` CI
lane uses ``--filter gpt2`` to pin just the serving goldens.

Usage (from the repository root)::

    python scripts/determinism_check.py [--out .ci_determinism] [--filter SUB]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.compute import tracecache  # noqa: E402
from repro.core.simulator import MultiCoreNPUSim  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.models import serving  # noqa: E402
from tests.test_golden_equivalence import CORPUS, MAX_TICKS  # noqa: E402

#: Corpus entries additionally run with ``observe=True`` for artifact
#: export (one private-TLB solo, one shared-TLB mix, one serving mix).
OBSERVED = ("solo-ncf-2ch", "mix-ncf-dlrm-DWT", "mix-gpt2-prefill-decode-DWT")


def run_pass(label: str, out: Path, corpus, observed, *, live: bool = False):
    """One corpus pass over ``corpus``; returns its manifest.

    ``live`` sets the trace memo's budget to zero, so every frontend is
    oversize and streams from a live ``RequestGenerator``.
    """
    cache_dir = out / f"cache-{label}"
    trace_cache = tracecache.process_cache()
    trace_cache.clear_memo()
    trace_cache.max_memo_objects = 0 if live else tracecache.MEMO_MAX_OBJECTS
    manifest: dict[str, dict[str, str]] = {}
    for name, spec in corpus:
        runner = ExperimentRunner(cache_dir=cache_dir)
        runner.run(spec)
        shard = (cache_dir / f"{spec.cache_key()}.json").read_bytes()
        manifest[name] = {
            "cache_key": spec.cache_key(),
            "shard_sha256": hashlib.sha256(shard).hexdigest(),
        }
        print(f"[{label}] {name}: {manifest[name]['shard_sha256'][:16]}")
    (out / f"manifest-{label}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    for name in observed:
        spec = dict(corpus)[name]
        networks = serving.networks_for(
            spec.workloads, spec.scale, params=spec.serving
        )
        sim = MultiCoreNPUSim(spec.system(), networks, observe=True)
        result = sim.run(max_ticks=MAX_TICKS)
        assert sim.timeline is not None and result.counters is not None
        sim.timeline.export(out / f"trace-{label}-{name}.json")
        (out / f"counters-{label}-{name}.json").write_text(
            json.dumps(result.counters, indent=2, sort_keys=True) + "\n"
        )
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=".ci_determinism",
        help="output directory for manifests and observability artifacts",
    )
    parser.add_argument(
        "--filter", default=None, metavar="SUBSTRING",
        help="run only corpus entries whose name contains this substring",
    )
    args = parser.parse_args(argv)
    corpus = CORPUS
    observed = OBSERVED
    if args.filter:
        corpus = tuple(
            (name, spec) for name, spec in CORPUS if args.filter in name
        )
        if not corpus:
            parser.error(f"--filter {args.filter!r} matches no corpus entry")
        observed = tuple(name for name in OBSERVED if name in dict(corpus))
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    compiled = run_pass("compiled", out, corpus, observed)
    live = run_pass("live", out, corpus, observed, live=True)

    failures: list[str] = []
    for name in dict(corpus):
        if compiled[name] != live[name]:
            failures.append(
                f"result shard for {name!r} differs: "
                f"compiled {compiled[name]['shard_sha256'][:16]} vs "
                f"live {live[name]['shard_sha256'][:16]}"
            )
    for name in observed:
        for kind in ("trace", "counters"):
            a = (out / f"{kind}-compiled-{name}.json").read_bytes()
            b = (out / f"{kind}-live-{name}.json").read_bytes()
            if a != b:
                failures.append(f"{kind} export for {name!r} differs between passes")

    if failures:
        print("\nDETERMINISM CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(f"  artifacts in {out}/", file=sys.stderr)
        return 1
    print(
        f"\ndeterminism check passed: {len(compiled)} specs byte-identical "
        f"compiled vs live; {len(observed)} observability exports stable"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
