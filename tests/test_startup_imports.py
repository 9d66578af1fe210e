"""The default start-up path stays light.

Every ``mnpusim`` process pays for what it imports, and most of them are
short.  ``import repro.cli`` loads what building the parser needs (the
dataflow registry, the model zoo and serving shapes, ``repro.errors``)
and none of :data:`DEFERRED`: each command imports the other layers it
runs.  A command that simulates nothing (``models``, ``--help``,
``cache``, a fully cached ``figure``) never loads the simulation stack
(:data:`SIM_STACK`).  Whatever simulates (the runner before its first
in-process spec and before it makes a pool, ``run`` and ``mix`` before
they build the simulator) loads that stack and then freezes the heap,
so full collections never re-scan the simulator's modules and forked
workers inherit both.  numpy is loaded only by the mapping study's
predictor (``repro.mapping.predictor``), and the process-pool machinery
only when a pool is actually made (``--jobs N`` with N > 1, and always
under ``mnpusim serve``).  OpenSSL is never
needed: ``repro.digest`` takes sha256 and blake2b from CPython's builtin
hash modules, so no simulating process loads ``_hashlib`` or ``_ssl``
(and with them ``libcrypto``, about 3.6 MB resident).  The serve daemon
speaks HTTP through ``socketserver``, so it loads neither ``http.client``
nor OpenSSL, and a client that builds requests from a ``RunSpec`` never
loads the simulator: package re-exports load on first use.  These tests
run fresh interpreters, because ``sys.modules`` in the pytest process
already holds whatever earlier tests imported.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Modules the default (in-process) path must never load.
HEAVY = (
    "numpy",
    "concurrent.futures.process",
    "multiprocessing",
    "_hashlib",
    "_ssl",
)

#: The simulator and the layers only a simulation needs.
SIM_STACK = (
    "repro.core.simulator",
    "repro.core.engine",
    "repro.core.dma",
    "repro.core.npu_core",
    "repro.dram",
    "repro.dram.*",
    "repro.mmu",
    "repro.mmu.*",
    "repro.obs.timeline",
)

#: What ``import repro.cli`` leaves to the commands that run it.
DEFERRED = (
    *SIM_STACK,
    "repro.compute.tracecache",
    "repro.experiments",
    "repro.experiments.*",
    "repro.storage",
    "repro.storage.*",
    "repro.obs",
    "repro.obs.*",
    "repro.serve",
    "repro.serve.*",
)

#: Without a builtin sha256 (``_sha2`` on 3.12+, ``_sha256`` before),
#: ``repro.digest`` falls back to ``hashlib`` and so loads ``_hashlib``.
needs_builtin_sha256 = pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="interpreter has no builtin sha256 module",
)


def _python(script: str, cwd: Path) -> str:
    """Run ``script`` in a fresh interpreter; return its last stdout line."""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


_LOADED = (
    "import json, sys; "
    f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
)


@needs_builtin_sha256
def test_cli_import_skips_numpy_and_pool(tmp_path):
    assert json.loads(_python("import repro.cli; " + _LOADED, cwd=tmp_path)) == []


def _write_run_configs(tmp_path: Path) -> None:
    """A one-core ``mnpusim run`` config tree for ``ncf`` in ``tmp_path``."""
    arch = tmp_path / "arch.cfg"
    arch.write_text(
        "name = tpu\narray_rows = 16\narray_cols = 16\n"
        "spm_bytes = 65536\ndram_transaction_bytes = 256\n"
    )
    npumem = tmp_path / "npumem.cfg"
    npumem.write_text("tlb_entries = 32\ntlb_assoc = 8\nnum_ptw = 1\n")
    dram = tmp_path / "dram.cfg"
    dram.write_text("channels = 8\nchannel_bytes_per_cycle = 16\n")
    misc = tmp_path / "misc.cfg"
    misc.write_text("iterations = 1\n")
    (tmp_path / "arch_list.txt").write_text(f"{arch}\n")
    (tmp_path / "net_list.txt").write_text("ncf\n")
    (tmp_path / "npumem_list.txt").write_text(f"{npumem}\n")


_RUN = (
    "from repro.cli import main\n"
    "assert main(['run', 'arch_list.txt', 'net_list.txt', 'dram.cfg',\n"
    "             'npumem_list.txt', 'out', 'misc.cfg']) == 0\n"
)


@needs_builtin_sha256
def test_default_run_and_figure_skip_numpy_and_pool(tmp_path):
    _write_run_configs(tmp_path)
    script = (
        _RUN
        + "assert main(['figure', 'fig15', '--mixes', '1', '--jobs', '1',\n"
        "             '--quiet', '--cache-dir', 'cache']) == 0\n"
        + _LOADED
    )
    assert json.loads(_python(script, cwd=tmp_path)) == []
    assert (tmp_path / "out" / "result" / "summary.json").exists()
    assert list((tmp_path / "cache").glob("*.json"))  # simulated, not warm


def test_serve_loads_the_pool_before_the_daemon_is_ready(tmp_path):
    # ``_cmd_serve`` imports the server module before it builds the
    # daemon, so the pool machinery is in place before "serving on".
    loaded = json.loads(_python("import repro.serve.server; " + _LOADED, cwd=tmp_path))
    assert "concurrent.futures.process" in loaded
    assert "numpy" not in loaded


def _loaded(script: str, modules, cwd: Path) -> list[str]:
    """Which of ``modules`` (a trailing ``.*`` matches a package's
    submodules) a fresh interpreter has loaded after ``script``."""
    probe = (
        "import json, sys\n"
        f"patterns = {list(modules)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules for p in patterns\n"
        "    if m == p or p.endswith('.*') and m.startswith(p[:-1]))))"
    )
    return json.loads(_python(script + "\n" + probe, cwd=cwd))


def test_serve_daemon_loads_no_openssl_or_http_client(tmp_path):
    loaded = _loaded(
        "import repro.serve.server",
        ("_ssl", "ssl", "http.client", "http.server", "email.parser",
         "concurrent.futures.process"),
        cwd=tmp_path,
    )
    assert loaded == ["concurrent.futures.process"]


def test_cli_import_loads_no_simulation_stack(tmp_path):
    assert _loaded("import repro.cli", DEFERRED, cwd=tmp_path) == []


#: A cold ``--jobs 1`` figure, then whether its simulator class was frozen.
_COLD_FIGURE = """
import gc, json
from repro.cli import main
assert main(["figure", "fig15", "--mixes", "1", "--jobs", "1", "--quiet",
             "--cache-dir", "cache"]) == 0
from repro.core.simulator import MultiCoreNPUSim
print(json.dumps([gc.get_freeze_count() > 0,
                  any(o is MultiCoreNPUSim for o in gc.get_objects())]))
"""


@pytest.fixture(scope="module")
def cold_fig15(tmp_path_factory):
    """A directory whose ``cache`` holds every fig15 result, and the
    cold run's frozen-heap probe."""
    work = tmp_path_factory.mktemp("fig15")
    probe = json.loads(_python(_COLD_FIGURE, cwd=work))
    return work, probe


def test_cold_figure_freezes_the_imported_simulator(cold_fig15):
    # gc.get_objects() lists only what the collector still scans.
    _, (frozen, simulator_scanned) = cold_fig15
    assert frozen and not simulator_scanned


def test_run_freezes_the_imported_simulator(tmp_path):
    # ``run`` and ``mix`` build the simulator without the runner.
    _write_run_configs(tmp_path)
    script = _RUN + (
        "import gc, json\n"
        "from repro.core.simulator import MultiCoreNPUSim\n"
        "print(json.dumps([gc.get_freeze_count() > 0,\n"
        "                  any(o is MultiCoreNPUSim for o in gc.get_objects())]))"
    )
    assert json.loads(_python(script, cwd=tmp_path)) == [True, False]


def test_commands_that_simulate_nothing_skip_the_simulation_stack(cold_fig15):
    work, _ = cold_fig15
    shards = sorted(path.name for path in (work / "cache").glob("*.json"))
    script = (
        "from repro.cli import main\n"
        "assert main(['models']) == 0\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0\n"
        "assert main(['cache', 'stats', '--cache-dir', 'cache']) == 0\n"
        "assert main(['figure', 'fig15', '--mixes', '1', '--jobs', '1',\n"
        "             '--quiet', '--cache-dir', 'cache']) == 0"
    )
    assert _loaded(script, SIM_STACK, cwd=work) == []
    # Fully cached: the figure wrote no result shard.
    assert sorted(path.name for path in (work / "cache").glob("*.json")) == shards


def test_pool_is_made_after_the_simulator_loads_and_the_heap_freezes(tmp_path):
    script = """
import gc, json, sys
import concurrent.futures.process as process
from repro.experiments import ExperimentRunner, RunSpec
from repro.models.layers import DenseLayer, Network
seen = []
make = process.ProcessPoolExecutor.__init__
def spy(self, *args, **kwargs):
    simulator = sys.modules.get("repro.core.simulator")
    seen.append([simulator is not None and not any(
        o is simulator.MultiCoreNPUSim for o in gc.get_objects())])
    make(self, *args, **kwargs)
process.ProcessPoolExecutor.__init__ = spy
runner = ExperimentRunner(cache_dir="cache", jobs=2)
for name in ("wa", "wb"):
    runner.register_network(Network(name, (DenseLayer("l0", 16, 32, 16),)))
assert "repro.core.simulator" not in sys.modules
assert len(runner.run_many([RunSpec.solo("wa"), RunSpec.solo("wb")])) == 2
print(json.dumps(seen))
"""
    assert json.loads(_python(script, cwd=tmp_path)) == [[True]]


def test_run_spec_clients_skip_the_simulator(tmp_path):
    script = (
        "from repro.experiments.spec import RunSpec\n"
        "import repro.serve.protocol"
    )
    heavy = (
        "repro.core.simulator", "repro.compute.tracecache", "repro.dram.*",
        "repro.mmu.*", "repro.serve.server",
    )
    assert _loaded(script, heavy, cwd=tmp_path) == []


def test_lazy_exports_resolve_to_their_home_objects(tmp_path):
    # Each exported object must be the one its defining module holds:
    # a module is its own sys.modules entry, a class or function is
    # found under its name in ``__module__``, and the exported constants
    # are checked by hand.
    script = """
import importlib, json, types
import repro.core.sharing as sharing
import repro.obs.registry as registry
import repro.obs.timeline as timeline
from repro.serve import protocol
constants = {
    "PROTOCOL": protocol.PROTOCOL,
    "SWEEP_LEVELS": sharing.SWEEP_LEVELS,
    "CONTENDED_LEVELS": sharing.CONTENDED_LEVELS,
    "COUNTERS_SCHEMA": registry.COUNTERS_SCHEMA,
    "TRACE_SCHEMA_NOTE": timeline.TRACE_SCHEMA_NOTE,
}
problems = []
for package_name in ("repro", "repro.compute", "repro.core", "repro.experiments",
                     "repro.obs", "repro.serve"):
    package = importlib.import_module(package_name)
    missing = set(package.__all__) - set(dir(package))
    problems += [f"{package_name}: dir() lacks {name}" for name in sorted(missing)]
    for name in package.__all__:
        value = getattr(package, name)
        if isinstance(value, types.ModuleType):
            home = importlib.import_module(value.__name__)
        elif hasattr(value, "__module__"):
            home = getattr(importlib.import_module(value.__module__), name)
        else:
            home = {**constants, "__version__": value}[name]
        if value is not home:
            problems.append(f"{package_name}.{name} is not its home object")
print(json.dumps(problems))
"""
    assert json.loads(_python(script, cwd=tmp_path)) == []
