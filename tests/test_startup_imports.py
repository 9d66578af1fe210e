"""The default start-up path stays light.

Every ``mnpusim`` process pays for what it imports, and most of them are
short.  numpy is loaded only by the mapping study's predictor
(``repro.mapping.predictor``), and the process-pool machinery only when
a pool is actually made (``--jobs N`` with N > 1, and always under
``mnpusim serve``).  OpenSSL is never
needed: ``repro.digest`` takes sha256 and blake2b from CPython's builtin
hash modules, so no simulating process loads ``_hashlib`` or ``_ssl``
(and with them ``libcrypto``, about 3.6 MB resident).  These tests run
fresh interpreters, because ``sys.modules`` in the pytest process
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


@needs_builtin_sha256
def test_default_run_and_figure_skip_numpy_and_pool(tmp_path):
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
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['run', 'arch_list.txt', 'net_list.txt', 'dram.cfg',\n"
        "             'npumem_list.txt', 'out', 'misc.cfg']) == 0\n"
        "assert main(['figure', 'fig15', '--mixes', '1', '--jobs', '1',\n"
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
