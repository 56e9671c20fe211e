"""The start-up path of a CLI process, each check in a fresh interpreter:
what `import entroscope` and each command load, what `run()` leaves set,
and how the process ends when its stdout closes early."""

import ast
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import entroscope
from test_golden import CASES, GOLDEN

SRC = Path(entroscope.__file__).resolve().parents[1]
ROOT = SRC.parent


def _python(*args, cwd=None, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ENTROSCOPE_SEED", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, timeout=120, **kwargs)


def _python_text(*args, cwd=None):
    return _python(*args, cwd=cwd, capture_output=True, text=True)


def test_import_entroscope_loads_no_numpy():
    res = _python_text("-c", "import sys, entroscope; print('numpy' in sys.modules)")
    assert (res.returncode, res.stdout, res.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("command", ["diagram", "audit"])
def test_state_commands_leave_the_scenario_modules_unloaded(command):
    code = (
        "import sys\n"
        "from entroscope import cli\n"
        f"rc = cli.main([{command!r}, '--state', 'states/pure4.json',\n"
        "               '--partition', 'A=0;B=1;C=2,3', '--format', 'json'])\n"
        "mods = ('entroscope.scenarios', 'entroscope.measurement', 'entroscope.states', 'dataclasses')\n"
        "print(rc, [m for m in mods if m in sys.modules],\n"
        "      'entroscope._statefile' in sys.modules, file=sys.stderr)\n"
    )
    res = _python_text("-c", code, cwd=GOLDEN)
    assert res.stderr == "0 [] True\n"


@pytest.mark.parametrize("argv, stream", [
    (["scenario", "epr_measure", "--theta1", "0.3", "--theta2", "2", "--shots", "1000", "--seed", "3"], True),
    (["chsh", "--scan", "100", "--seed", "3"], True),
    (["scenario", "epr_measure", "--theta1", "0.3", "--theta2", "2"], False),
    (["scenario", "epr_pair"], False),
    (["scenario", "cat", "--observer", "--format", "table"], False),
])
def test_sampled_commands_leave_numpy_random_unloaded(argv, stream):
    # the package draws from its own stream, so no CLI process pays for
    # numpy.random and the hashing and OpenSSL modules it imports; and
    # load_state imports the state-file reader inside the function, so
    # scenario and chsh never compile it
    code = (
        "import sys\n"
        "from entroscope import cli\n"
        f"rc = cli.main({argv!r})\n"
        "mods = ('numpy.random', 'secrets', '_hashlib', 'entroscope._statefile', 'dataclasses')\n"
        "print(rc, 'entroscope._pcg64' in sys.modules, [m for m in mods if m in sys.modules],\n"
        "      file=sys.stderr)\n"
    )
    res = _python_text("-c", code)
    assert res.stderr == f"0 {stream} []\n"


def test_no_library_module_uses_numpy_random():
    # the package draws from _pcg64 alone; seeded test states live in tests/
    uses = []
    for path in sorted((SRC / "entroscope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = [f"{module}.{a.name}" if module else a.name for a in node.names]
            else:
                continue
            uses += [f"{path.name}:{node.lineno}" for n in names if re.match(r"(np|numpy)\.random\b", n)]
    assert uses == []


def test_no_library_module_imports_dataclasses():
    # the value classes are written out on linalg._Frozen: a dataclass
    # builds its methods from generated source at every import
    uses = []
    for path in sorted((SRC / "entroscope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            uses += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert uses == []


def test_no_library_module_calls_a_blas_product():
    # a two-term pointer tap or a 2x2 product in einsum needs no BLAS
    # kernels paged in; LAPACK's eigensolver is the one library call
    uses = []
    for path in sorted((SRC / "entroscope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                name = "@"
            if name == "@" or re.search(r"\b(tensordot|dot|vdot|inner|matmul|kron)$", name):
                uses.append(f"{path.name}:{node.lineno} {name}")
    assert uses == []


def test_only_errors_writes_to_stderr():
    # errors._fail is the one writer of failure lines: it flushes, and
    # drops a line stderr cannot take with the exit code standing
    uses = []
    for path in sorted((SRC / "entroscope").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            uses += [f"{path.name}:{node.lineno}" for n in names if n == "sys.stderr"]
    assert uses == []


def test_the_state_file_reader_loads_without_report():
    # the state-file format lives in _statefile alone: it imports nothing
    # from report, which imports it only inside load_state
    code = (
        "import sys\n"
        "import entroscope._statefile\n"
        "print('entroscope.report' in sys.modules, file=sys.stderr)\n"
    )
    res = _python_text("-c", code)
    assert (res.returncode, res.stderr) == (0, "False\n")


@pytest.mark.parametrize("name", [
    "diagram_pure6.json",
    "audit_density6.table",
    "scenario_epr_measure_shots65537.json",
    "chsh_scan4097.json",
])
def test_python_m_matches_golden(name):
    res = _python_text("-m", "entroscope", *CASES[name], cwd=GOLDEN)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == (GOLDEN / "out" / f"{name}.txt").read_text()


def test_run_leaves_the_collector_enabled():
    code = (
        "import gc, sys\n"
        "from entroscope.__main__ import run\n"
        "sys.argv = ['entroscope', '--version']\n"
        "rc = run()\n"
        "print(rc, gc.isenabled(), file=sys.stderr)\n"
    )
    res = _python_text("-c", code)
    assert (res.stdout, res.stderr) == (f"entroscope {entroscope.__version__}\n", "0 True\n")


@pytest.mark.parametrize("refusal, line", [
    ("ImportError('numpy refused\\nby the test', name=name)", "error: cannot import numpy: numpy refused\n"),
    ("ImportError('\\n\\nIMPORTANT: ...') from ImportError('libfoo.so: failed to map segment from shared object')",
     "error: cannot import a module: libfoo.so: failed to map segment from shared object\n"),
    ("MemoryError", "error: out of memory\n"),
], ids=["ImportError", "chained-ImportError", "MemoryError"])
def test_a_failed_import_ends_in_one_line(refusal, line):
    # a finder at the head of sys.meta_path refuses numpy, as a missing
    # install or an address-space limit does: one line and exit 2, where
    # the import in run() used to print a traceback and exit 1.  numpy's
    # own message opens with blank lines, so the line takes the first
    # non-empty line of the cause it was raised from
    code = (
        "import runpy, sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        f"            raise {refusal}\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "sys.argv = ['entroscope', 'scenario', 'epr_pair']\n"
        "runpy.run_module('entroscope', run_name='__main__')\n"
    )
    res = _python_text("-c", code)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", line)


def test_console_script_runs_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"entroscope": "entroscope.__main__:run"}


def test_closed_stdout_ends_by_sigpipe_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the process prints
    try:
        res = _python("-m", "entroscope", "scenario", "epr_pair", "--format", "json",
                      stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (-signal.SIGPIPE, b"")
