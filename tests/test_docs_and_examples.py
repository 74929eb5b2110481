"""Documentation and example hygiene: the README's Python samples run,
and every example script executes cleanly."""

import pathlib
import re
import subprocess
import sys

import pytest

from repro.simd import nativert

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _paper_opt_level(monkeypatch):
    """README samples and example scripts demonstrate (and some assert)
    the default pipeline's shapes — pin the paper's level (-O1) so an
    external REPRO_OPT_LEVEL (the CI -O0 matrix leg) cannot change
    them. Subprocesses inherit the patched environment."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "1")


class TestReadmeSamples:
    def python_blocks(self):
        text = (ROOT / "README.md").read_text()
        return re.findall(r"```python\n(.*?)```", text, re.S)

    def test_readme_has_python_samples(self):
        assert self.python_blocks()

    def test_samples_execute(self):
        # Blocks share one namespace, reading top to bottom like a reader
        # following along. Without a C toolchain the native sample takes
        # the documented fallback to the NumPy kernels.
        ns: dict = {}
        for block in self.python_blocks():
            code = compile(block, "<README>", "exec")
            if 'backend="native"' in block and \
                    nativert.unavailable_reason() is not None:
                with pytest.warns(RuntimeWarning,
                                  match="running 'kernels' instead"):
                    exec(code, ns)
            else:
                exec(code, ns)

    def test_shell_examples_name_real_files(self):
        text = (ROOT / "README.md").read_text()
        for path in re.findall(r"python (examples/\S+\.py)", text):
            assert (ROOT / path).exists(), path

    def test_docs_exist(self):
        for doc in ("docs/language.md", "docs/internals.md",
                    "DESIGN.md", "EXPERIMENTS.md"):
            assert (ROOT / doc).exists(), doc


class TestModuleDocstrings:
    def test_every_module_documented(self):
        missing = []
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            head = path.read_text().lstrip()
            if not head.startswith(('"""', "'''")):
                missing.append(str(path))
        assert not missing, missing


EXAMPLES = sorted(
    p.name for p in (ROOT / "examples").glob("*.py")
)


class TestExamples:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_runs(self, name):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / name)],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=str(ROOT),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip(), "example printed nothing"
