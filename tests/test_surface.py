"""The package's surface: what `src/negabeta` defines has a reader, and each module stays small.

A definition is a top-level function or class of a module, or a method of a
top-level class.  It has a reader when its name is read by another module of
the package, by its own module outside its own body, or by a `perfbench`
file, whose strings count too because the benchmark names its spans
``module.function``.  A top-level definition is read as a name, an attribute
or an imported name.  A method is read only as an attribute (``x.name``) or
in a benchmark string, so a local variable or parameter of the same name
does not hide it.  The package's `__init__` does not count: an export is not
a reader.  Dunder methods are skipped, since Python calls them by protocol,
not by name.
Definitions that only the tests read belong in the tests' reference modules
(`word_reference`, `map_reference`, `measure_reference`).

Compiling a module without a bytecode cache has a step in its peak memory:
under tracemalloc (Python 3.11.7) the compile peak rose from 2.79 to
3.24 MB between 8,190 and 8,194 `tokenize` tokens, comments and blank lines
not counted.  Each module stays below the step.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "negabeta"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Kept although no module and no benchmark file reads them, each for its reason.
KEPT = {
    "ldp.free_energy": "q(mu) = h(mu) - log beta, which the level-2 rate checks of "
                       "ROADMAP items 5 and 6 read",
    "measures.empirical_measure": "a weak-metric object: ROADMAP item 5 gives it a reader or "
                                  "deletes it",
    "measures.MixtureMeasure": "a weak-metric object: ROADMAP item 5",
    "measures.max_truncation": "a weak-metric object: ROADMAP item 5",
    "measures.weak_metric_truncated": "a weak-metric object: ROADMAP item 5",
}

COMPILE_STEP_TOKENS = 8190


def _reads(tree: ast.AST, skip: ast.AST = None, strings: bool = False) -> tuple[set, set]:
    """The names read in a tree, leaving out the subtree ``skip``: (every name, attribute
    or imported name, and the attribute names alone), with the words of its strings in both."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names | attributes, attributes


def _definitions(tree: ast.Module):
    """(qualified name, name, node, is a method) of each top-level def and class, and of
    their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item, True


def unread_definitions() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    reads = {stem: _reads(tree) for stem, tree in trees.items()}
    benchmark = [_reads(ast.parse(path.read_text(encoding="utf-8")), strings=True)
                 for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = set()
    for stem, tree in trees.items():
        for qualified, name, node, method in _definitions(tree):
            kind = int(method)  # a method counts only attribute reads and strings
            readers = [read[kind] for other, read in reads.items() if other != stem]
            readers += [read[kind] for read in benchmark]
            readers.append(_reads(tree, skip=node)[kind])
            if not any(name in read for read in readers):
                unread.add(f"{stem}.{qualified}")
    return unread


def test_every_definition_has_a_reader():
    unread = unread_definitions()
    orphans = sorted(unread - set(KEPT))
    assert not orphans, f"only the tests read {orphans}: move them to a test reference module"
    # an entry whose definition gained a reader, or left, leaves the list
    stale = sorted(set(KEPT) - unread)
    assert not stale, f"{stale} no longer need an exemption"


def _token_count(path: Path) -> int:
    """Tokens as Python 3.11 counts them: from 3.12 on an f-string is split into
    parts (PEP 701), and here it counts as one token again."""
    count = depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == getattr(tokenize, "FSTRING_START", None):
            count += depth == 0
            depth += 1
        elif tok.type == getattr(tokenize, "FSTRING_END", None):
            depth -= 1
        elif depth == 0 and tok.type not in (tokenize.COMMENT, tokenize.NL):
            count += 1
    return count


def test_each_module_compiles_below_the_peak_step():
    counts = {path.name: _token_count(path) for path in PACKAGE.glob("*.py")}
    assert counts and all(0 < count < COMPILE_STEP_TOKENS for count in counts.values()), counts


def test_an_f_string_counts_as_one_token(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('x = f"a{b!r:>{w}}c"  # note\n\ny = "d"\n', encoding="utf-8")
    # x, =, the f-string, NEWLINE, y, =, "d", NEWLINE, ENDMARKER
    assert _token_count(path) == 9
