"""The default start-up path stays light.

Every ``mnpusim`` process pays for what it imports, and most of them are
short.  ``import repro.cli`` loads what building the parser needs (the
dataflow names, the zoo's names, the serving name tables and
``repro.errors``)
and none of :data:`DEFERRED`: each command imports the other layers it
runs.  Parsing, planning, resolving specs, keying and reading cached
results need names and tables only, so ``--help``, ``cache`` and a fully
cached ``figure`` load neither the simulation stack (:data:`SIM_STACK`)
nor the frontend (:data:`FRONTEND`: the config classes, the layer
classes and serving builders, tiling, the cycle model and request
generation).  What builds
systems, networks and traces loads the frontend: ``RunSpec.system``,
``zoo.get``, ``serving.networks_for``, the trace cache's compile and
decode, and the ``run``, ``mix`` and ``models`` commands.  Whatever
simulates (the runner before its first in-process spec and before it
makes a pool, ``run`` and ``mix`` before they build the simulator) loads
the simulation stack and then freezes the heap, so full collections never
re-scan the simulator's modules and forked workers inherit both.  numpy
is loaded only by the mapping study's predictor
(``repro.mapping.predictor``), which only the Figure 17/18 reducers
import, and the process-pool machinery only when a pool is actually made
(``--jobs N`` with N > 1, and always under ``mnpusim serve``).  OpenSSL
is never needed: ``repro.digest`` takes sha256 from CPython's
builtin hash module, so no simulating process loads
``_hashlib`` or ``_ssl`` (and with them ``libcrypto``, about 3.6 MB
resident).  The serve daemon speaks HTTP through ``socketserver``, so it
loads neither ``http.client`` nor OpenSSL, and a client that builds
requests from a ``RunSpec`` loads neither the simulator nor the
frontend: package re-exports load on first use.  These tests run fresh
interpreters, because ``sys.modules`` in the pytest process already
holds whatever earlier tests imported.
"""

import argparse
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

#: What builds systems, networks and traces: config and layer classes,
#: the serving builders, tiling, the cycle model and request generation.
#: Naming, planning, keying and reading results never needs them.
FRONTEND = (
    "repro.config.arch",
    "repro.config.dram",
    "repro.config.misc",
    "repro.config.npumem",
    "repro.config.system",
    "repro.config.loader",
    "repro.models.layers",
    "repro.models.random_net",
    "repro.models.serving",
    "repro.compute.tiling",
    "repro.compute.systolic",
    "repro.compute.requestgen",
)

#: What ``import repro.cli`` leaves to the commands that run it.
DEFERRED = (
    *SIM_STACK,
    *FRONTEND,
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

#: The mapping study and numpy: only Figures 17 and 18 load them.
MAPPING = ("numpy", "repro.mapping", "repro.mapping.*")

#: Every ``repro`` module ``import repro.cli`` loads: the names and
#: tables building the parser needs, and nothing more.
CLI_MODULES = [
    "repro",
    "repro._lazy",
    "repro.cli",
    "repro.compute",
    "repro.compute.dataflow",
    "repro.errors",
    "repro.models",
    "repro.models.serving_names",
    "repro.models.zoo",
]

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


def test_cli_import_loads_exactly_the_parser_modules(tmp_path):
    assert _loaded("import repro.cli", ("repro", "repro.*"), cwd=tmp_path) == (
        CLI_MODULES
    )


#: A cold ``--jobs 1`` figure, then whether its simulator class was
#: frozen, which of :data:`MAPPING` it loaded and which of
#: :data:`FRONTEND`.
_COLD_FIGURE = f"""
import gc, json, sys
from repro.cli import main
assert main(["figure", "fig4", "--mixes", "1", "--jobs", "1", "--quiet",
             "--cache-dir", "cache"]) == 0
from repro.core.simulator import MultiCoreNPUSim
mapping = [m for m in sys.modules if m == "numpy" or m.startswith("repro.mapping")]
frontend = [m for m in {FRONTEND!r} if m in sys.modules]
print(json.dumps([gc.get_freeze_count() > 0,
                  any(o is MultiCoreNPUSim for o in gc.get_objects()),
                  mapping, frontend]))
"""


@pytest.fixture(scope="module")
def cold_fig4(tmp_path_factory):
    """A directory whose ``cache`` holds every ``fig4 --mixes 1`` result,
    and the cold run's probe."""
    work = tmp_path_factory.mktemp("fig4")
    probe = json.loads(_python(_COLD_FIGURE, cwd=work))
    return work, probe


def test_cold_figure_freezes_the_imported_simulator(cold_fig4):
    # gc.get_objects() lists only what the collector still scans.
    _, (frozen, simulator_scanned, _, _) = cold_fig4
    assert frozen and not simulator_scanned


def test_cold_fig4_loads_no_numpy_or_mapping_study(cold_fig4):
    _, (_, _, mapping, _) = cold_fig4
    assert mapping == []


def test_cold_figure_loads_the_frontend(cold_fig4):
    # Building networks, systems and traces loads the whole frontend,
    # except the config-file parser: only ``run`` reads config files.
    _, (_, _, _, frontend) = cold_fig4
    assert frontend == [m for m in FRONTEND if m != "repro.config.loader"]


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


def test_commands_that_simulate_nothing_skip_the_simulation_stack(cold_fig4):
    work, _ = cold_fig4
    shards = sorted(path.name for path in (work / "cache").glob("*.json"))
    script = (
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0\n"
        "assert main(['cache', 'stats', '--cache-dir', 'cache']) == 0\n"
        "assert main(['figure', 'fig4', '--mixes', '1', '--jobs', '1',\n"
        "             '--quiet', '--cache-dir', 'cache']) == 0"
    )
    # The warm figure plans, keys and reads with names and tables only:
    # it loads neither the simulator, the frontend nor the mapping study.
    assert _loaded(script, (*SIM_STACK, *FRONTEND, *MAPPING), cwd=work) == []
    # Fully cached: the figure wrote no result shard.
    assert sorted(path.name for path in (work / "cache").glob("*.json")) == shards


def test_models_builds_networks_without_the_simulation_stack(tmp_path):
    # ``models`` builds every zoo network, so it loads the layer classes.
    script = "from repro.cli import main\nassert main(['models']) == 0"
    layers = "repro.models.layers"
    loaded = _loaded(script, (*SIM_STACK, *MAPPING, layers), cwd=tmp_path)
    assert loaded == [layers]


#: ``figure fig17`` over a stub ``run_many`` (synthetic cycles, so no
#: simulation): which of :data:`MAPPING` were loaded when the batch ran,
#: and which after the figure printed.
_FIG17 = """
import json, sys, zlib
from repro.errors import SweepOutcome
from repro.experiments.runner import ExperimentRunner
def mapping():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.startswith("repro.mapping"))
during = []
def run_many(self, specs, **kwargs):
    during.extend(mapping())
    specs = list(dict.fromkeys(spec.resolve() for spec in specs))
    self.last_outcome = SweepOutcome(len(specs), 0, len(specs))
    def cycles(name, corunners):
        base = 1000 + zlib.crc32(name.encode()) % 9000
        return base + corunners * (base % 7) * 100
    return {spec: [{"cycles": cycles(name, len(spec.workloads) - 1)}
                   for name in spec.workloads] for spec in specs}
ExperimentRunner.run_many = run_many
from repro.cli import main
assert main(["figure", "fig17", "--mixes", "2", "--quiet"]) == 0
print(json.dumps([during, mapping()]))
"""


def test_fig17_loads_the_mapping_study_only_to_reduce(tmp_path):
    during, after = json.loads(_python(_FIG17, cwd=tmp_path))
    assert during == []
    assert after == [
        "numpy", "repro.mapping", "repro.mapping.mapper", "repro.mapping.predictor"
    ]


def test_pool_is_made_after_the_simulator_loads_and_the_heap_freezes(tmp_path):
    # Forked workers inherit the simulator and the frontend (all but the
    # config-file parser), so no worker imports them on its own.
    script = f"""
import gc, json, sys
import concurrent.futures.process as process
from repro.experiments import ExperimentRunner, RunSpec
from repro.models.layers import DenseLayer, Network
seen = []
make = process.ProcessPoolExecutor.__init__
def spy(self, *args, **kwargs):
    simulator = sys.modules.get("repro.core.simulator")
    seen.append([simulator is not None and not any(
        o is simulator.MultiCoreNPUSim for o in gc.get_objects()),
        [m for m in {FRONTEND!r} if m not in sys.modules]])
    make(self, *args, **kwargs)
process.ProcessPoolExecutor.__init__ = spy
runner = ExperimentRunner(cache_dir="cache", jobs=2)
for name in ("wa", "wb"):
    runner.register_network(Network(name, (DenseLayer("l0", 16, 32, 16),)))
assert "repro.core.simulator" not in sys.modules
assert len(runner.run_many([RunSpec.solo("wa"), RunSpec.solo("wb")])) == 2
print(json.dumps(seen))
"""
    assert json.loads(_python(script, cwd=tmp_path)) == [
        [True, ["repro.config.loader"]]
    ]


def test_run_spec_clients_skip_the_simulator(tmp_path):
    # Building, resolving, keying and wire-encoding a spec needs no
    # config or layer class.
    script = (
        "from repro.experiments.spec import PlanContext\n"
        "from repro.serve import protocol\n"
        "spec = PlanContext().mix(('ncf', 'gpt2'), 'DWT').resolve()\n"
        "raw = protocol.encode_request(protocol.RunRequest(spec))\n"
        "assert protocol.decode_request(raw).spec.cache_key() == spec.cache_key()\n"
        "assert PlanContext().solo('ncf').resolve().cache_key()"
    )
    heavy = (
        "repro.core.simulator", "repro.compute.tracecache", "repro.dram.*",
        "repro.mmu.*", "repro.serve.server", *FRONTEND,
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
for package_name in ("repro", "repro.compute", "repro.config", "repro.core",
                     "repro.experiments", "repro.models", "repro.obs",
                     "repro.serve"):
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


def _subparsers(parser: argparse.ArgumentParser):
    """``parser`` and every sub-command parser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _subparsers(child)


def test_parser_choices_match_the_loaded_engines_and_builders(monkeypatch):
    # The parser reads its choices from light name tables; once the
    # engines and network builders have loaded, each table must equal
    # what they report.
    from repro import cli
    from repro.compute.dataflow import get_engine, registered_dataflows
    from repro.models import serving, zoo

    assert tuple(get_engine(name).name for name in registered_dataflows()) == (
        registered_dataflows()
    )
    assert tuple(zoo.get(name).name for name in zoo.NAMES) == zoo.NAMES
    networks = serving.networks_for(serving.SERVING_NAMES)
    assert [network.name for network in networks] == [
        f"{serving.NAME_PREFIX}{base}-{phase}"
        for base, phase in map(serving.split_name, serving.SERVING_NAMES)
    ]
    expected = {
        "dataflow": registered_dataflows(),
        "workloads": (*zoo.NAMES, *serving.SERVING_NAMES),
        "phase": serving.PHASES,
        "moe_skew": serving.SKEWS,
        "arrival": serving.ARRIVALS,
    }

    class Built(Exception):
        pass

    def capture(parser, *args, **kwargs):
        raise Built(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(Built) as built:
        cli.main([])
    seen: dict[str, set] = {}
    for parser in _subparsers(built.value.args[0]):
        for action in parser._actions:
            if action.dest in expected and action.choices is not None:
                seen.setdefault(action.dest, set()).add(tuple(action.choices))
    assert seen == {dest: {tuple(choices)} for dest, choices in expected.items()}
