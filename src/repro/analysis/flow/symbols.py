"""Project-wide symbol table and call graph for ``src/repro``.

The whole-program pass the flow analyses run on: every module is parsed
(through the shared mtime+size parse cache), its import aliases are
collected, and every function/method becomes a :class:`FunctionInfo`
with its enclosing class, generator-ness and abstractness. Call sites
are then resolved best-effort — local names, project imports,
``self.method`` through the class and its project-resolvable bases, and
(as a last resort) unique-by-name attribute lookups — into a call graph
the DES-contract rules walk.

Resolution is deliberately conservative: an unresolvable callee simply
produces no edge and no finding, so dynamic dispatch never yields false
positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cache import ParseCache


def collect_import_maps(tree: ast.Module) -> tuple[dict[str, str],
                                                   dict[str, str]]:
    """(alias -> module, local name -> dotted origin) for *tree*.

    The same resolution continuum-lint uses: ``import numpy as np``
    maps ``np -> numpy``; ``from random import randint as ri`` maps
    ``ri -> random.randint``. Relative imports are resolved by the
    caller (they need the importing module's package).
    """
    aliases: dict[str, str] = {}
    from_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or
                        alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases, from_imports


def _is_abstract(node: ast.FunctionDef) -> bool:
    """Body is only a docstring plus ``raise``/``pass``/``...``."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) or (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis) for stmt in body)


def _is_generator(node: ast.FunctionDef) -> bool:
    """Contains yield/yield-from in its own scope (nested defs pruned)."""
    return any(isinstance(current, (ast.Yield, ast.YieldFrom))
               for current in function_body_nodes(node))


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    module: str  # dotted module ("repro.chaos.policies")
    name: str  # bare name
    qualname: str  # "repro.chaos.policies:RetryPolicy.call"
    node: ast.FunctionDef
    class_name: str | None = None
    is_generator: bool = False
    is_abstract: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionInfo({self.qualname})"


@dataclass
class ClassInfo:
    """One class: its methods and (textual) base-class names."""

    module: str
    name: str
    qualname: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module with its import maps."""

    name: str  # dotted module name
    rel_path: str
    tree: ast.Module
    lines: list[str]
    import_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _module_name(rel_path: str) -> str:
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Strip a leading source root so "src/repro/x.py" -> "repro.x".
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


class Project:
    """All modules under the analyzed roots, plus resolution indexes."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        #: dotted function qualname ("repro.mod.func") -> FunctionInfo
        self.functions_by_dotted: dict[str, FunctionInfo] = {}
        #: method name -> every concrete FunctionInfo defining it
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: class name -> every ClassInfo with that (bare) name
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: caller qualname -> sorted callee qualnames (resolved edges)
        self.call_graph: dict[str, list[str]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def load(cls, root: Path, paths: list[str],
             cache: ParseCache | None = None) -> "Project":
        """Parse every ``*.py`` under *paths* (relative to *root*)."""
        cache = cache if cache is not None else ParseCache()
        project = cls()
        files: list[Path] = []
        for raw in paths:
            target = Path(raw)
            target = target if target.is_absolute() else root / target
            if target.is_dir():
                files.extend(sorted(target.rglob("*.py")))
            elif target.suffix == ".py":
                files.append(target)
        for file_path in files:
            try:
                rel = str(file_path.relative_to(root))
            except ValueError:
                rel = str(file_path)
            parsed = cache.parse(file_path)
            if parsed.tree is None:
                continue  # syntax errors are continuum-lint's findings
            project.add_module(rel, parsed.tree, parsed.lines)
        project.build_indexes()
        return project

    def add_module(self, rel_path: str, tree: ast.Module,
                   lines: list[str]) -> ModuleInfo:
        name = _module_name(rel_path.replace("\\", "/"))
        aliases, from_imports = collect_import_maps(tree)
        info = ModuleInfo(name=name, rel_path=rel_path, tree=tree,
                          lines=lines, import_aliases=aliases,
                          from_imports=from_imports)
        for node in tree.body:
            self._collect_scope(info, node, class_name=None)
        self.modules[name] = info
        return info

    def _collect_scope(self, info: ModuleInfo, node: ast.AST,
                       class_name: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{info.name}:{class_name}.{node.name}" \
                if class_name else f"{info.name}:{node.name}"
            fn = FunctionInfo(
                module=info.name, name=node.name, qualname=qual,
                node=node, class_name=class_name,
                is_generator=_is_generator(node),
                is_abstract=_is_abstract(node))
            if class_name:
                info.classes[class_name].methods[node.name] = fn
            else:
                info.functions[node.name] = fn
            # Nested defs are resolvable only within their enclosing
            # function; the per-function walks handle them locally.
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            cls_info = ClassInfo(module=info.name, name=node.name,
                                 qualname=f"{info.name}:{node.name}",
                                 bases=bases)
            info.classes[node.name] = cls_info
            for child in node.body:
                self._collect_scope(info, child, class_name=node.name)

    def build_indexes(self) -> None:
        for info in self.modules.values():
            for fn in info.functions.values():
                self.functions_by_dotted[f"{info.name}.{fn.name}"] = fn
            for cls_info in info.classes.values():
                self.classes_by_name.setdefault(
                    cls_info.name, []).append(cls_info)
                for fn in cls_info.methods.values():
                    self.methods_by_name.setdefault(
                        fn.name, []).append(fn)
        self._build_call_graph()

    # -- resolution ---------------------------------------------------------

    def resolve_dotted(self, dotted: str) -> FunctionInfo | None:
        """A project function by fully dotted name, through re-exports.

        ``repro.chaos.policies.RetryPolicy`` style class paths resolve
        to the class's ``__init__`` when present (a constructor call is
        a call of that method for generator-ness purposes — it never
        is one).
        """
        if dotted in self.functions_by_dotted:
            return self.functions_by_dotted[dotted]
        module, _, attr = dotted.rpartition(".")
        info = self.modules.get(module)
        if info is not None:
            if attr in info.functions:
                return info.functions[attr]
            # Package re-export: follow `from x import name` in
            # the package __init__.
            origin = info.from_imports.get(attr)
            if origin is not None and origin != dotted:
                return self.resolve_dotted(origin)
        return None

    def resolve_class(self, module: ModuleInfo,
                      name: str) -> ClassInfo | None:
        """*name* as a class visible from *module* (local or imported)."""
        if name in module.classes:
            return module.classes[name]
        origin = module.from_imports.get(name)
        if origin is not None:
            owner, _, cls_name = origin.rpartition(".")
            seen = set()
            while owner and owner not in seen:
                seen.add(owner)
                info = self.modules.get(owner)
                if info is None:
                    break
                if cls_name in info.classes:
                    return info.classes[cls_name]
                # Re-export chain through a package __init__.
                next_origin = info.from_imports.get(cls_name)
                if next_origin is None:
                    break
                owner, _, cls_name = next_origin.rpartition(".")
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _method_in_mro(self, cls_info: ClassInfo,
                       method: str) -> FunctionInfo | None:
        seen: set[str] = set()
        stack = [cls_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self.resolve_class(module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def resolve_call(self, call: ast.Call, module: ModuleInfo,
                     enclosing_class: str | None) -> FunctionInfo | None:
        """Best-effort resolution of *call*'s target function."""
        func = call.func
        if isinstance(func, ast.Name):
            # Local module function, or a project import.
            if func.id in module.functions:
                return module.functions[func.id]
            origin = module.from_imports.get(func.id)
            if origin is not None:
                return self.resolve_dotted(origin)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # self.method(...) / cls.method(...) within a known class.
        if isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls") \
                and enclosing_class is not None:
            cls_info = module.classes.get(enclosing_class)
            if cls_info is not None:
                found = self._method_in_mro(cls_info, func.attr)
                if found is not None:
                    return found
        # module.attr(...) through an import alias.
        parts: list[str] = [func.attr]
        current = func.value
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            head = current.id
            parts.reverse()
            base = module.import_aliases.get(head)
            if base is None and head in module.from_imports:
                base = module.from_imports[head]
            if base is not None:
                return self.resolve_dotted(".".join([base] + parts))
        # Fallback: a uniquely named method whose concrete definitions
        # all agree on generator-ness (abstract bases excluded).
        concrete = [fn for fn in self.methods_by_name.get(func.attr, [])
                    if not fn.is_abstract]
        if concrete and len({fn.is_generator for fn in concrete}) == 1:
            return concrete[0]
        return None

    # -- call graph ---------------------------------------------------------

    def _build_call_graph(self) -> None:
        for info in self.modules.values():
            for fn in self._all_functions(info):
                callees: set[str] = set()
                for node in function_body_nodes(fn.node):
                    if isinstance(node, ast.Call):
                        target = self.resolve_call(
                            node, info, fn.class_name)
                        if target is not None:
                            callees.add(target.qualname)
                if callees:
                    self.call_graph[fn.qualname] = sorted(callees)

    def _all_functions(self, info: ModuleInfo):
        yield from info.functions.values()
        for cls_info in info.classes.values():
            yield from cls_info.methods.values()

    def all_functions(self):
        """Every module-level function and method, deterministic order."""
        for name in sorted(self.modules):
            yield from self._all_functions(self.modules[name])


def function_body_nodes(func: ast.FunctionDef):
    """Walk a function's own scope, pruning nested defs and lambdas."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
