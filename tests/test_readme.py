"""README.md names the tests that pin each rule it states, as `tests/<file>.py` or
`tests/<file>.py::<Name>` (a top-level name, or ``Class::method``).  Each cited file
must exist and define each cited name, so a renamed or deleted test fails here.
The check reads the files with ``ast``; it neither collects nor runs them."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"`(tests/\w+\.py)((?:::\w+)*)`")


def _definitions(node) -> dict:
    """The names a module or class body defines, each with the node defining it."""
    names = {}
    for item in getattr(node, "body", []):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[item.name] = item
        elif isinstance(item, ast.Assign):
            names.update((t.id, item) for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names[item.target.id] = item
    return names


def test_every_test_the_readme_cites_exists():
    citations = set(CITATION.findall((ROOT / "README.md").read_text()))
    assert len(citations) >= 10, "README names fewer tests than its rule sections cite"
    missing = []
    for path, names in sorted(citations):
        if not (ROOT / path).is_file():
            missing.append(path)
            continue
        node = ast.parse((ROOT / path).read_text())
        for name in names.split("::")[1:]:
            node = _definitions(node).get(name)
            if node is None:
                missing.append(path + names)
                break
    assert not missing, f"README cites tests that do not exist: {missing}"
