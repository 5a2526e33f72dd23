"""Every backticked `module.NAME[.attr]` of an lpgst module cited in the
README and docs/ names something that exists."""
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import lpgst

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = {m.name for m in pkgutil.iter_modules(lpgst.__path__)}
_REFERENCE = re.compile(r"`([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)`")


def _references(text: str) -> list[tuple[str, list[str]]]:
    return [(m[1], m[2].split(".")[1:]) for m in _REFERENCE.finditer(text)
            if m[1] in _MODULES]


def _resolves(module: str, names: list[str]) -> bool:
    try:
        functools.reduce(getattr, names,
                         importlib.import_module(f"lpgst.{module}"))
    except AttributeError:
        return False
    return True


def test_references_are_found():
    refs = _references("`pair_states.MAX_SWEEP_STEPS`, `lpgst.graphs`, "
                       "`decision.PathClass.has_lpgst`, `json.dumps`")
    assert refs == [("pair_states", ["MAX_SWEEP_STEPS"]),
                    ("decision", ["PathClass", "has_lpgst"])]
    assert all(_resolves(module, names) for module, names in refs)
    assert not _resolves("pair_states", ["MAX_SWEEP_WORK"])


def test_documented_names_resolve():
    docs = [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]
    cited = [(doc.name, module, names) for doc in docs
             for module, names in _references(doc.read_text(encoding="utf-8"))]
    assert len(cited) >= 8      # README and docs/ cite eight
    missing = [f"{doc}: {module}.{'.'.join(names)}"
               for doc, module, names in cited if not _resolves(module, names)]
    assert missing == []
