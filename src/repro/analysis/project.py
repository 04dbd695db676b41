"""Project-wide analysis: the call graph and lock model behind REP7xx.

The per-module pass (:mod:`repro.analysis.runner`) sees one file at a time,
which is enough for determinism lint but blind to the properties that made
PR 4/5's serving stack correct: *this* attribute is only touched under
*that* lock, locks are always taken in *this* order, nothing blocks while
holding one.  Those contracts span modules — ``SphereService`` holds its
generation lock while calling into ``LRUCache`` and ``SingleFlight`` — so
checking them needs every module parsed at once.

:class:`ProjectContext` builds that whole-program view:

* every class's **lock attributes** (``self._lock = make_lock(...)``,
  ``threading.Lock()``, ``threading.Condition()``, a ``ReadersWriterLock``
  constructor) with their kind (mutex / condition / rwlock / semaphore);
* **guarded-by annotations** — a ``# guarded-by: _lock`` comment on an
  attribute assignment declares that every later read/write of the
  attribute must happen with that lock held;
* **requires-lock annotations** — ``# requires-lock: _lock`` on (or just
  above) a ``def`` declares that callers enter with the lock already held,
  so the body is checked as if inside the region and every call site is
  checked to actually hold it;
* **lock regions** inferred from ``with self._lock:`` statements,
  including shared/exclusive ``with self._lock.read()`` / ``.write()``
  regions of a readers-writer lock and function-local locks;
* a **call graph** resolving ``self.method()``, ``self.attr.method()``
  (through constructor-derived attribute types), and imported project
  functions, from which lock-acquisition sets and blocking behaviour
  propagate transitively;
* the registered **fault sites** (``runtime/faults.KNOWN_SITES``) and
  module-level string constants, so injection-point names are validated
  against the catalogue.

Nested functions are *folded* into their enclosing top-level function or
method: a closure's attribute accesses and calls are attributed to the
method that defines it, and it inherits that method's lexical lock regions
and ``requires-lock`` annotations.  This matches how the serving stack uses
closures (they run on the defining thread's lock context or re-acquire
explicitly) and keeps the model simple enough to be auditable.

The model is deliberately conservative where it cannot resolve a call
(first-class callbacks, duck-typed parameters): unresolved calls contribute
no edges and no blocking verdicts.  The runtime lock sanitizer
(:mod:`repro.runtime.locksan`) covers exactly that gap by observing real
acquisition orders under the concurrency hammer.
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Mapping, Sequence

from repro.analysis.checkers.base import Checker
from repro.analysis.context import FunctionNode, ModuleContext
from repro.analysis.diagnostics import Diagnostic, Severity

#: ``# guarded-by: <lock attr>`` on an attribute assignment.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<attr>[A-Za-z_]\w*)")

#: ``# requires-lock: <attr>[, <attr>]`` on or immediately above a ``def``.
_REQUIRES_LOCK = re.compile(
    r"#\s*requires-lock:\s*(?P<attrs>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)"
)

#: Constructor dotted names recognised as lock factories, by kind.
_LOCK_CTORS: dict[str, str] = {
    "threading.Lock": "mutex",
    "threading.RLock": "mutex",
    "repro.runtime.locksan.make_lock": "mutex",
    "make_lock": "mutex",
    "threading.Condition": "condition",
    "repro.runtime.locksan.make_condition": "condition",
    "make_condition": "condition",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
}

#: Lock kinds whose ``with`` regions are exclusive critical sections.
_EXCLUSIVE_KINDS = frozenset({"mutex", "condition"})


def module_name_for_path(path: str) -> str:
    """Dotted module name derived from a file path.

    ``src/repro/serve/cache.py`` -> ``repro.serve.cache``; falls back to
    the stem for paths outside a recognisable package root.
    """
    posix = PurePosixPath(str(path).replace("\\", "/"))
    parts = list(posix.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else str(posix.stem)


def _comment_table(source: str) -> dict[int, str]:
    """Physical line -> comment text (tolerates broken sources)."""
    table: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                table[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return table


def _comment_in_span(
    comments: Mapping[int, str], node: ast.stmt
) -> Iterator[str]:
    end = getattr(node, "end_lineno", None) or node.lineno
    for line in range(node.lineno, end + 1):
        comment = comments.get(line)
        if comment is not None:
            yield comment


def _self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass(frozen=True)
class LockAttr:
    """One lock-typed attribute of a class."""

    attr: str
    kind: str  # mutex | condition | rwlock | semaphore
    key: str  # e.g. "LRUCache._lock" — identity in the lock-order graph


@dataclass(frozen=True)
class LockRegion:
    """One ``with``-statement lock acquisition."""

    node: ast.With
    item_index: int
    key: str
    kind: str
    attr: str
    exclusive: bool


@dataclass(frozen=True)
class HeldLock:
    """A lock held at some program point, with how it is held."""

    key: str
    mode: str  # "exclusive" | "shared" | "unknown" (requires-lock)
    region: LockRegion | None = None


@dataclass
class FunctionInfo:
    """One top-level function or method, with nested defs folded in."""

    qualname: str  # "repro.serve.cache.LRUCache.get"
    name: str
    node: FunctionNode
    module: ModuleContext
    class_info: "ClassInfo | None"
    requires: tuple[str, ...] = ()  # resolved lock keys of this def
    local_locks: dict[str, str] = field(default_factory=dict)
    regions: list[LockRegion] = field(default_factory=list)
    #: id(withitem) -> region, for held-lock computation.
    regions_by_item: dict[int, LockRegion] = field(default_factory=dict)
    #: (call node, resolved project-function qualname or None, raw dotted name).
    calls: list[tuple[ast.Call, str | None, str | None]] = field(
        default_factory=list
    )
    #: Calls to primitives that block (I/O, sleeps, waits), with a label.
    blocking_calls: list[tuple[ast.Call, str]] = field(default_factory=list)
    #: id(def node) -> resolved requires-lock keys, for every def in the fold.
    requires_by_def: dict[int, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: its locks, guarded attributes and attribute types."""

    qualname: str  # "repro.serve.cache.LRUCache"
    name: str
    node: ast.ClassDef
    module: ModuleContext
    locks: dict[str, LockAttr] = field(default_factory=dict)
    guarded: dict[str, str] = field(default_factory=dict)  # attr -> lock attr
    #: attr -> project-class qualname, from ``self.x = SomeProjectClass(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def guard_key(self, attr: str) -> str:
        """Lock-graph key of the lock guarding ``attr``."""
        return f"{self.name}.{self.guarded[attr]}"


#: Calls that block the calling thread (exact canonical names).
BLOCKING_CALLS = frozenset(
    {
        "open",
        "time.sleep",
        "os.replace",
        "os.rename",
        "os.fsync",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "numpy.load",
        "numpy.save",
        "numpy.lib.format.open_memmap",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.move",
        "shutil.rmtree",
    }
)

#: Attribute suffixes that block (``x.wait()``, ``path.read_text()``, ...).
BLOCKING_SUFFIXES = (
    ".wait",
    ".join",
    ".read_text",
    ".write_text",
    ".read_bytes",
    ".write_bytes",
    ".recv",
    ".sendall",
    ".accept",
)

#: Functions whose thread-block verdict is *not* propagated from their
#: bodies: joining a thread you just spawned is the watchdog pattern, and
#: ``str.join`` shares the suffix.  Matched against the *last* segment.
_JOIN_SUFFIX = ".join"


class ProjectContext:
    """All modules of the project, parsed and cross-linked."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        self.comments: dict[str, dict[int, str]] = {
            ctx.path: _comment_table(ctx.source) for ctx in self.modules
        }
        self.module_names: dict[str, str] = {
            ctx.path: module_name_for_path(ctx.path) for ctx in self.modules
        }
        #: class qualname -> ClassInfo (also indexed by bare class name for
        #: same-module resolution, via _local_classes).
        self.classes: dict[str, ClassInfo] = {}
        #: function qualname -> FunctionInfo (methods included).
        self.functions: dict[str, FunctionInfo] = {}
        #: canonical "module.CONST" -> string value of module-level constants.
        self.constants: dict[str, str] = {}
        #: per-module bare constant names ("path" -> {name: value}).
        self._local_constants: dict[str, dict[str, str]] = {}
        self._local_classes: dict[str, dict[str, str]] = {}
        self._local_functions: dict[str, dict[str, str]] = {}
        #: Registered fault sites, or None when runtime/faults.py is absent.
        self.known_sites: frozenset[str] | None = None
        self._locks_memo: dict[str, frozenset[str]] = {}
        self._locks_visiting: set[str] = set()
        self._blocking_memo: dict[str, bool] = {}
        self._blocking_visiting: set[str] = set()
        self._collect_declarations()
        self._collect_bodies()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectContext":
        """Build a project from in-memory ``{path: source}`` (tests)."""
        return cls(
            [
                ModuleContext.from_source(path, source)
                for path, source in sources.items()
            ]
        )

    @classmethod
    def from_paths(cls, paths: Iterable[str | Path]) -> "ProjectContext":
        modules = []
        for path in paths:
            text = Path(path).read_text(encoding="utf-8")
            modules.append(ModuleContext.from_source(str(path), text))
        return cls(modules)

    def _collect_declarations(self) -> None:
        """Pass 1: classes, their locks/guards, functions, constants, sites."""
        for ctx in self.modules:
            mod = self.module_names[ctx.path]
            comments = self.comments[ctx.path]
            self._local_constants[ctx.path] = {}
            self._local_classes[ctx.path] = {}
            self._local_functions[ctx.path] = {}
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    info = ClassInfo(
                        qualname=f"{mod}.{stmt.name}",
                        name=stmt.name,
                        node=stmt,
                        module=ctx,
                    )
                    self._scan_class_attrs(info, comments)
                    self.classes[info.qualname] = info
                    self._local_classes[ctx.path][stmt.name] = info.qualname
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            fn = FunctionInfo(
                                qualname=f"{info.qualname}.{sub.name}",
                                name=sub.name,
                                node=sub,
                                module=ctx,
                                class_info=info,
                            )
                            info.methods[sub.name] = fn
                            self.functions[fn.qualname] = fn
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FunctionInfo(
                        qualname=f"{mod}.{stmt.name}",
                        name=stmt.name,
                        node=stmt,
                        module=ctx,
                        class_info=None,
                    )
                    self.functions[fn.qualname] = fn
                    self._local_functions[ctx.path][stmt.name] = fn.qualname
                elif isinstance(stmt, ast.Assign):
                    self._scan_constant(ctx, mod, stmt)
            if ctx.path_endswith("runtime/faults.py"):
                self._scan_known_sites(ctx)

    def _scan_constant(self, ctx: ModuleContext, mod: str, stmt: ast.Assign) -> None:
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            name = stmt.targets[0].id
            self._local_constants[ctx.path][name] = stmt.value.value
            self.constants[f"{mod}.{name}"] = stmt.value.value

    def _scan_known_sites(self, ctx: ModuleContext) -> None:
        for stmt in ast.walk(ctx.tree):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and target.id == "KNOWN_SITES"
                and isinstance(value, ast.Dict)
            ):
                self.known_sites = frozenset(
                    key.value
                    for key in value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
                return

    def _scan_class_attrs(
        self, info: ClassInfo, comments: Mapping[int, str]
    ) -> None:
        """Find lock attributes and guarded-by annotations in a class body."""
        ctx = info.module
        for stmt in ast.walk(info.node):
            targets: list[ast.expr]
            value: ast.expr | None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            attr_names = [
                attr for t in targets if (attr := _self_attr(t)) is not None
            ]
            if not attr_names:
                continue
            kind = self._lock_kind(ctx, value)
            for attr in attr_names:
                if kind is not None:
                    info.locks[attr] = LockAttr(
                        attr=attr, kind=kind, key=f"{info.name}.{attr}"
                    )
                for comment in _comment_in_span(comments, stmt):
                    match = _GUARDED_BY.search(comment)
                    if match is not None:
                        info.guarded[attr] = match.group("attr")
                        break

    def _lock_kind(self, ctx: ModuleContext, value: ast.expr | None) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        resolved = ctx.resolve_call(value)
        if resolved is None:
            return None
        kind = _LOCK_CTORS.get(resolved)
        if kind is not None:
            return kind
        if resolved.split(".")[-1].endswith("ReadersWriterLock"):
            return "rwlock"
        return None

    def _collect_bodies(self) -> None:
        """Pass 2: attribute types, regions, calls, requires annotations."""
        for info in self.classes.values():
            self._scan_attr_types(info)
        for fn in self.functions.values():
            self._scan_function(fn)

    def _scan_attr_types(self, info: ClassInfo) -> None:
        ctx = info.module
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            target_class = self._resolve_class(ctx, value.func)
            if target_class is None:
                continue
            for t in targets:
                attr = _self_attr(t)
                if attr is not None:
                    info.attr_types[attr] = target_class

    def _resolve_class(self, ctx: ModuleContext, func: ast.expr) -> str | None:
        resolved = ctx.resolve(func)
        if resolved is None:
            return None
        if resolved in self.classes:
            return resolved
        local = self._local_classes.get(ctx.path, {})
        if resolved in local:
            return local[resolved]
        # ``from repro.serve.cache import LRUCache`` resolves to the class's
        # canonical home; a re-exporting package path may differ — match by
        # trailing class name against known classes with the same name.
        tail = resolved.split(".")[-1]
        candidates = [
            qn
            for qn, cls in self.classes.items()
            if cls.name == tail and resolved.endswith(tail)
        ]
        if len(candidates) == 1 and "." in resolved:
            return candidates[0]
        return None

    def _requires_for_def(
        self, fn: FunctionInfo, node: FunctionNode
    ) -> tuple[str, ...]:
        comments = self.comments[fn.module.path]
        for line in (node.lineno, node.lineno - 1):
            comment = comments.get(line)
            if comment is None:
                continue
            match = _REQUIRES_LOCK.search(comment)
            if match is None:
                continue
            attrs = [a.strip() for a in match.group("attrs").split(",")]
            cls = fn.class_info
            prefix = cls.name if cls is not None else fn.name
            return tuple(f"{prefix}.{attr}" for attr in attrs if attr)
        return ()

    def _scan_function(self, fn: FunctionInfo) -> None:
        ctx = fn.module
        # Local locks: ``state_lock = threading.Lock()`` inside the body.
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                kind = self._lock_kind(ctx, stmt.value)
                if isinstance(target, ast.Name) and kind is not None:
                    fn.local_locks[target.id] = kind
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn.requires_by_def[id(node)] = self._requires_for_def(fn, node)
            elif isinstance(node, ast.With):
                for index, item in enumerate(node.items):
                    region = self._classify_with_item(fn, node, index, item)
                    if region is not None:
                        fn.regions.append(region)
                        fn.regions_by_item[id(item)] = region
            elif isinstance(node, ast.Call):
                target = self._resolve_call_target(fn, node)
                dotted = ctx.dotted_name(node.func)
                fn.calls.append((node, target, dotted))
                label = self._blocking_label(ctx, node, dotted)
                if label is not None:
                    fn.blocking_calls.append((node, label))
        fn.requires = fn.requires_by_def.get(id(fn.node), ())

    def _classify_with_item(
        self, fn: FunctionInfo, node: ast.With, index: int, item: ast.withitem
    ) -> LockRegion | None:
        expr = item.context_expr
        cls = fn.class_info
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            lock = cls.locks.get(attr)
            if lock is not None and lock.kind in _EXCLUSIVE_KINDS:
                return LockRegion(
                    node=node,
                    item_index=index,
                    key=lock.key,
                    kind=lock.kind,
                    attr=attr,
                    exclusive=True,
                )
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("read", "write")
        ):
            base_attr = _self_attr(expr.func.value)
            if base_attr is not None and cls is not None:
                lock = cls.locks.get(base_attr)
                if lock is not None and lock.kind == "rwlock":
                    return LockRegion(
                        node=node,
                        item_index=index,
                        key=lock.key,
                        kind="rwlock",
                        attr=base_attr,
                        exclusive=expr.func.attr == "write",
                    )
        if isinstance(expr, ast.Name) and expr.id in fn.local_locks:
            kind = fn.local_locks[expr.id]
            if kind in _EXCLUSIVE_KINDS:
                return LockRegion(
                    node=node,
                    item_index=index,
                    key=f"{fn.name}.{expr.id}",
                    kind=kind,
                    attr=expr.id,
                    exclusive=True,
                )
        return None

    def _resolve_call_target(
        self, fn: FunctionInfo, call: ast.Call
    ) -> str | None:
        """Project-function qualname a call resolves to, or None."""
        ctx = fn.module
        func = call.func
        cls = fn.class_info
        if isinstance(func, ast.Attribute):
            base_attr = _self_attr(func.value)
            if base_attr is not None and cls is not None:
                # self.attr.method() through a constructor-derived type.
                target_cls = self.classes.get(cls.attr_types.get(base_attr, ""))
                if target_cls is not None:
                    method = target_cls.methods.get(func.attr)
                    if method is not None:
                        return method.qualname
                return None
            self_method = _self_attr(func)
            if self_method is not None and cls is not None:
                method = cls.methods.get(self_method)
                if method is not None:
                    return method.qualname
                return None
        resolved = ctx.resolve(func)
        if resolved is None:
            return None
        if resolved in self.functions:
            return resolved
        local_fns = self._local_functions.get(ctx.path, {})
        if resolved in local_fns:
            return local_fns[resolved]
        # A constructor call counts as calling the class's __init__.
        target_class = self._resolve_class(ctx, func)
        if target_class is not None:
            init = self.classes[target_class].methods.get("__init__")
            if init is not None:
                return init.qualname
        # ``Class.method`` style, or a function re-imported under another
        # package path: match by trailing segments.
        if "." in resolved:
            tail = resolved.split(".")[-1]
            candidates = [
                qn
                for qn in self.functions
                if qn.endswith(f".{tail}") and resolved.endswith(tail)
                and qn.endswith(resolved.replace(".", ".", 1).split(".", 1)[-1])
            ]
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _blocking_label(
        self, ctx: ModuleContext, call: ast.Call, dotted: str | None
    ) -> str | None:
        resolved = ctx.resolve(call.func)
        if resolved is not None and resolved in BLOCKING_CALLS:
            return resolved
        if dotted is not None:
            for suffix in BLOCKING_SUFFIXES:
                if dotted.endswith(suffix):
                    return dotted
        return None

    # -- derived facts --------------------------------------------------------

    def held_at(self, fn: FunctionInfo, node: ast.AST) -> list[HeldLock]:
        """Locks held at ``node`` inside (the fold of) ``fn``.

        Lexical ``with`` regions contribute exclusive/shared entries; a
        multi-item ``with`` holds items ``0..k-1`` while item ``k``'s
        context expression evaluates.  ``requires-lock`` annotations on the
        enclosing defs contribute ``unknown``-mode entries (the annotation
        does not say how the caller holds a shared/exclusive lock).
        """
        ctx = fn.module
        held: list[HeldLock] = []
        current: ast.AST = node
        parent = ctx.parents.get(current)
        while parent is not None:
            if isinstance(parent, ast.With):
                if isinstance(current, ast.withitem):
                    active = parent.items[: parent.items.index(current)]
                else:
                    active = parent.items
                for item in active:
                    region = fn.regions_by_item.get(id(item))
                    if region is not None:
                        held.append(
                            HeldLock(
                                key=region.key,
                                mode="exclusive"
                                if region.exclusive
                                else "shared",
                                region=region,
                            )
                        )
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for key in fn.requires_by_def.get(id(parent), ()):
                    held.append(HeldLock(key=key, mode="unknown"))
                if parent is fn.node:
                    break
            current, parent = parent, ctx.parents.get(parent)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for key in fn.requires_by_def.get(id(node), ()):
                held.append(HeldLock(key=key, mode="unknown"))
        return held

    def locks_acquired(self, qualname: str) -> frozenset[str]:
        """Every lock key ``qualname`` may acquire, transitively."""
        memo = self._locks_memo.get(qualname)
        if memo is not None:
            return memo
        if qualname in self._locks_visiting:
            return frozenset()
        fn = self.functions.get(qualname)
        if fn is None:
            return frozenset()
        self._locks_visiting.add(qualname)
        try:
            acquired = {region.key for region in fn.regions}
            for _call, target, _dotted in fn.calls:
                if target is not None:
                    acquired.update(self.locks_acquired(target))
        finally:
            self._locks_visiting.discard(qualname)
        result = frozenset(acquired)
        self._locks_memo[qualname] = result
        return result

    def is_blocking(self, qualname: str) -> bool:
        """True when ``qualname`` may block, directly or transitively."""
        memo = self._blocking_memo.get(qualname)
        if memo is not None:
            return memo
        if qualname in self._blocking_visiting:
            return False
        fn = self.functions.get(qualname)
        if fn is None:
            return False
        self._blocking_visiting.add(qualname)
        try:
            verdict = bool(fn.blocking_calls)
            if not verdict:
                for _call, target, _dotted in fn.calls:
                    if target is not None and self.is_blocking(target):
                        verdict = True
                        break
        finally:
            self._blocking_visiting.discard(qualname)
        self._blocking_memo[qualname] = verdict
        return verdict

    def resolve_site_argument(
        self, fn_module: ModuleContext, arg: ast.expr
    ) -> str | None:
        """Literal value of a fault-site argument, through constants."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        resolved = fn_module.resolve(arg)
        if resolved is None:
            return None
        local = self._local_constants.get(fn_module.path, {})
        if resolved in local:
            return local[resolved]
        return self.constants.get(resolved)

    def diagnostic(
        self,
        module: ModuleContext,
        node: ast.AST,
        checker_id: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        return module.diagnostic(node, checker_id, message, severity=severity)


class ProjectChecker(abc.ABC):
    """Base class for whole-program checkers (REP7xx).

    Shaped like :class:`~repro.analysis.checkers.base.Checker` but receives the
    cross-linked :class:`ProjectContext` instead of one module.
    """

    #: Stable identifier used in reports and suppression comments.
    id: str
    #: Short kebab-case name shown by ``--list-checkers``.
    name: str
    #: One-line description of the invariant being enforced.
    description: str
    #: Default severity for this checker's diagnostics.
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, project: ProjectContext) -> Iterable[Diagnostic]:
        """Yield diagnostics for the whole project."""


AnyChecker = Checker | ProjectChecker
