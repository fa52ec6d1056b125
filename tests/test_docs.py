"""Documentation health checks (the CI docs job runs exactly these).

* Every relative markdown link in README.md / docs/*.md must resolve to
  a file or directory in the repository.
* Every fenced ``python`` code block must be valid syntax
  (``compile()``), and every import statement inside it must actually
  import — a README snippet that names a moved/renamed symbol fails
  here instead of on a reader's machine.
* README's install line (``pip install -e .``) must provide the
  ``repro`` package and the ``bismo`` command README runs.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    p
    for p in [REPO / "README.md", *(REPO / "docs").glob("*.md")]
    if p.exists()
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_IMPORT = re.compile(r"^(?:from\s+[\w.]+\s+import\s+.+|import\s+[\w.]+.*)$")


def _doc_ids():
    return [str(p.relative_to(REPO)) for p in DOC_FILES]


def test_docs_exist():
    assert DOC_FILES, "no markdown documentation found"
    names = _doc_ids()
    assert "README.md" in names
    assert any(n.startswith("docs/") for n in names), (
        "docs/ARCHITECTURE.md (or another docs/*.md) is missing"
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc: Path):
    text = doc.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"broken relative links in {doc.name}: {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_python_snippets_compile(doc: Path):
    blocks = _FENCE.findall(doc.read_text())
    for i, block in enumerate(blocks):
        try:
            compile(block, f"{doc.name}[snippet {i}]", "exec")
        except SyntaxError as exc:  # pragma: no cover - failure path
            pytest.fail(f"{doc.name} snippet {i} does not compile: {exc}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_python_snippet_imports_resolve(doc: Path):
    """Execute only the import lines of each snippet: cheap, and catches
    renamed modules/symbols referenced by the documentation."""
    blocks = _FENCE.findall(doc.read_text())
    for i, block in enumerate(blocks):
        imports = "\n".join(
            line
            for line in block.splitlines()
            if _IMPORT.match(line.strip()) and "<" not in line
        )
        if not imports:
            continue
        try:
            exec(compile(imports, f"{doc.name}[snippet {i} imports]", "exec"), {})
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"{doc.name} snippet {i} imports fail: {exc}\n{imports}"
            )


def test_install_shim_provides_the_bismo_command(tmp_path):
    pytest.importorskip("setuptools")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    info = tmp_path / "repro.egg-info"
    assert (info / "top_level.txt").read_text().split() == ["repro"]
    assert "bismo = repro.harness.cli:main" in (info / "entry_points.txt").read_text()
