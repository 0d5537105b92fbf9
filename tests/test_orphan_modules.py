"""Every module under ``src/repro`` has a consumer, or says why it is kept.

A module counts as consumed when another module under ``src/repro`` imports
it.  A subpackage ``__init__`` re-export counts only when some module outside
that subpackage imports one of the re-exported names from it; the top-level
``repro/__init__`` is the library's public surface and counts as a consumer.
A module with no consumer must appear in :data:`KEPT`, which names the paper
artifact it reproduces and what exercises it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module (path under src/repro) -> (paper artifact, what exercises it).
KEPT = {
    "extensions/allgather.py": ("Figure 2 naive 1D baseline; registry extension example",
                                "tests/test_algorithms_registry.py"),
    "machine/tree.py": ("section 7.2's broadcast trees; the broadcast-tree ablation bench",
                        "tests/test_machine_tree.py"),
    "machine/shard.py": ("none: the shard pool no engine uses, timed by the benchmark ledger's "
                         "numeric_sharded workload until its re-baseline",
                         "tests/test_machine_shard.py"),
}


def _modules() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _imports(path: Path) -> list[tuple[str, set[str]]]:
    """``(module, imported names)`` for every import statement in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.module, {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found.extend((alias.name, set()) for alias in node.names)
    return found


def orphan_modules() -> set[str]:
    """Paths (under ``src/repro``) of the modules no other module consumes."""
    modules = _modules()
    imports = {name: _imports(path) for name, path in modules.items()}
    orphans = set()
    for name, path in modules.items():
        if path.stem in ("__init__", "__main__"):
            continue
        package, leaf = name.rsplit(".", 1)
        importers = {other for other, found in imports.items() if other != name
                     and any(mod == name or (mod == package and leaf in names)
                             for mod, names in found)}
        consumed = bool(importers - {package}) or (package == "repro" and bool(importers))
        if not consumed and package in importers:
            reexported = set().union(*(names for mod, names in imports[package] if mod == name))
            consumed = any(mod == package and names & reexported
                           for other, found in imports.items()
                           if other != package and not other.startswith(package + ".")
                           for mod, names in found)
        if not consumed:
            orphans.add(path.relative_to(SRC / "repro").as_posix())
    return orphans


def test_every_module_has_a_consumer_or_a_reason():
    unexplained = orphan_modules() - set(KEPT)
    assert not unexplained, f"modules nothing under src/repro imports: {sorted(unexplained)}"


def test_kept_table_lists_only_orphans_with_an_existing_exerciser():
    assert set(KEPT) <= orphan_modules(), "a KEPT module gained a consumer; drop its entry"
    for module, (_, exerciser) in KEPT.items():
        assert (SRC.parent / exerciser).is_file(), f"{module}: {exerciser} does not exist"
        name = "repro." + module.removesuffix(".py").replace("/", ".")
        package, leaf = name.rsplit(".", 1)
        assert any(mod == name or (mod == package and leaf in names)
                   for mod, names in _imports(SRC.parent / exerciser)), \
            f"{module}: {exerciser} does not import it"
