"""The rule pack: the repo's runtime invariants, encoded statically.

Each rule here is the static twin of a contract that is otherwise enforced
only dynamically (by the test suite, the chaos harness, or a runtime
``ValueError``).  The rules deliberately check only *statically resolvable*
sites — literal metric names, literal seam names, literal ``json.dumps``
keywords — and skip indirect ones; the dynamic enforcement remains the
backstop for those.

Rule catalog (ids are what ``# repro-lint: disable=<id>`` takes):

``rng-discipline``
    No legacy NumPy global-state RNG (``np.random.seed`` /
    ``np.random.rand`` ...), no stdlib ``random.*``, and no wall-clock /
    uuid entropy (``time.time()``, ``datetime.now()``, ``uuid4()``) inside
    the deterministic core (``engine/``, ``core/``, ``adversary/``,
    ``analysis/``, ``network/``).  All randomness must thread a
    ``numpy.random.Generator`` (seeded via ``engine/rng.py``).

``json-nan-discipline``
    Every ``json.dump``/``json.dumps`` call in the package passes
    ``allow_nan=False`` (the strict-JSON convention of
    ``io/serialization.py``, which is the one exempt module).  A NaN that
    reaches an encoder must fail loudly, never emit invalid JSON.

``metrics-catalog``
    Every statically-resolvable metric name passed to
    ``repro.obs.metrics.count`` / ``observe`` exists in
    ``obs/metrics.py::METRICS`` with the matching kind — and every
    cataloged metric has at least one emitter (no dead catalog entries).

``warning-taxonomy``
    ``warnings.warn`` always names a cataloged warning class
    (:data:`WARNING_CATALOG`) — never a bare string or ``UserWarning`` —
    so warnings stay filterable and the structured-telemetry twin
    (``obs.trace.warning_event``) stays enumerable.

``atomic-write-discipline``
    No bare ``open(..., "w")`` / ``Path.write_text`` under ``store/``
    outside functions that complete a temp-then-``os.replace`` dance.
    Append mode is exempt (O_APPEND single-write logs are the designed
    torn-tolerant pattern).

``spawn-context``
    Worker-process construction in coordinator/http-adjacent modules must
    request the ``spawn`` multiprocessing context — forked children
    inherit listening sockets and file descriptors (the PR 9
    zombie-listener bug class).

``fault-seam-coverage``
    Every literal seam name at a ``fault_point``/``maybe_torn`` call site
    (or a ``seam=`` keyword) exists in ``robustness/faults.py::SEAMS``,
    and every cataloged seam has at least one instrumented call site.

``import-hygiene``
    No module-level import of ``scipy`` or ``networkx`` anywhere in the
    package, and none of ``http.server`` or ``urllib.request`` outside
    ``store/coordinator.py``: every CLI invocation and spawned worker pays
    for what the import chain loads.  Import such modules inside the
    function that uses them (``if TYPE_CHECKING:`` blocks are exempt).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.lint.framework import FileContext, Finding, Rule

__all__ = ["ALL_RULES", "default_rules", "WARNING_CATALOG"]

#: Directories (path prefixes under the package root) whose code must be
#: bitwise deterministic given a seed.
DETERMINISTIC_SCOPES = ("engine/", "core/", "adversary/", "analysis/",
                        "network/")

#: Files allowed to touch RNG construction / entropy primitives directly.
RNG_SEAM_FILES = ("engine/rng.py",)

#: ``np.random.<attr>`` names that are part of the *seeded* Generator API
#: (everything else on ``np.random`` is legacy global state).
NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
})

#: The repo's warning taxonomy (see README "Robustness"/"Observability").
WARNING_CATALOG = frozenset({
    "DegradedExecutionWarning",
    "StoreIntegrityWarning",
    "TornLogWarning",
    "MultinomialKernelWarning",
})

#: Modules that must construct worker processes with the spawn context.
SPAWN_SCOPED_FILES = ("store/coordinator.py",)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _str_const(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# --------------------------------------------------------------------- #
# 1. rng-discipline
# --------------------------------------------------------------------- #
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    doc = ("deterministic core must thread numpy.random.Generator objects; "
           "no legacy global RNG, stdlib random, wall clocks, or uuids")

    #: entropy / wall-clock chains that break seeded reproducibility
    BANNED_CHAINS = {
        "time.time": "wall-clock entropy",
        "time.time_ns": "wall-clock entropy",
        "datetime.now": "wall-clock entropy",
        "datetime.utcnow": "wall-clock entropy",
        "datetime.datetime.now": "wall-clock entropy",
        "datetime.datetime.utcnow": "wall-clock entropy",
        "date.today": "wall-clock entropy",
        "uuid.uuid1": "uuid entropy",
        "uuid.uuid4": "uuid entropy",
    }

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.rel.startswith(DETERMINISTIC_SCOPES):
            return
        if ctx.rel in RNG_SEAM_FILES:
            return
        numpy_aliases = ctx.import_aliases("numpy")
        random_aliases = (ctx.import_aliases("random")
                          if ctx.imports_module("random") else set())
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _dotted(node)
            if chain is None:
                continue
            head, _, rest = chain.partition(".")
            # legacy numpy global-state RNG: np.random.<legacy>
            if head in numpy_aliases and rest.startswith("random."):
                attr = rest.split(".", 2)[1]
                if attr not in NP_RANDOM_ALLOWED:
                    yield ctx.finding(
                        node, self.id,
                        f"legacy global-state RNG `{chain}`; thread a "
                        f"seeded numpy.random.Generator instead "
                        f"(see engine/rng.py)")
                continue
            # stdlib random module (module-level Mersenne Twister state)
            if head in random_aliases and "." not in rest and rest:
                yield ctx.finding(
                    node, self.id,
                    f"stdlib `{chain}` uses process-global RNG state; "
                    f"thread a seeded numpy.random.Generator instead")
                continue
            reason = self.BANNED_CHAINS.get(chain)
            if reason is not None:
                yield ctx.finding(
                    node, self.id,
                    f"`{chain}` is {reason}: forbidden in the "
                    f"deterministic core (derive values from the seeded "
                    f"run instead)")


# --------------------------------------------------------------------- #
# 2. json-nan-discipline
# --------------------------------------------------------------------- #
class JsonNanDisciplineRule(Rule):
    id = "json-nan-discipline"
    doc = ("every json.dump(s) call passes allow_nan=False (strict-JSON "
           "convention of io/serialization.py)")

    EXEMPT_FILES = ("io/serialization.py",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel in self.EXEMPT_FILES:
            return
        json_aliases = (ctx.import_aliases("json")
                        if ctx.imports_module("json") else set())
        direct = {local for local, orig in ctx.imported_names("json").items()
                  if orig in ("dump", "dumps")}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_dump = False
            if isinstance(node.func, ast.Attribute):
                chain = _dotted(node.func)
                if chain is not None:
                    head, _, attr = chain.partition(".")
                    is_dump = head in json_aliases and attr in ("dump",
                                                                "dumps")
            elif isinstance(node.func, ast.Name):
                is_dump = node.func.id in direct
            if not is_dump:
                continue
            allow_nan = _keyword(node, "allow_nan")
            if not (isinstance(allow_nan, ast.Constant)
                    and allow_nan.value is False):
                yield ctx.finding(
                    node, self.id,
                    "json.dump(s) without allow_nan=False: a NaN/inf that "
                    "slips through emits invalid JSON; encode via "
                    "io/serialization.to_jsonable and pass allow_nan=False")


# --------------------------------------------------------------------- #
# 3. metrics-catalog
# --------------------------------------------------------------------- #
class MetricsCatalogRule(Rule):
    id = "metrics-catalog"
    doc = ("statically-resolvable metric names must exist in "
           "obs/metrics.py::METRICS with the matching kind, and every "
           "cataloged metric must have an emitter")

    CATALOG_FILE = "obs/metrics.py"
    KIND_BY_CALL = {"count": "counter", "observe": "histogram"}

    def __init__(self) -> None:
        self.catalog: Dict[str, Tuple[str, int]] = {}
        self.catalog_seen = False
        self.emitters: List[Tuple[FileContext, ast.Call, str, str]] = []
        self._contexts: Dict[str, FileContext] = {}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        self._contexts[ctx.rel] = ctx
        if ctx.rel == self.CATALOG_FILE:
            self._parse_catalog(ctx)
            return ()
        metric_aliases = {
            local for local, orig in ctx.imported_names("repro.obs").items()
            if orig == "metrics"}
        metric_aliases |= {
            local
            for local, orig in ctx.imported_names("repro.obs.metrics").items()
            if orig == "metrics"}
        direct = {local: orig
                  for local, orig in ctx.imported_names(
                      "repro.obs.metrics").items()
                  if orig in self.KIND_BY_CALL}
        if not metric_aliases and not direct:
            return ()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            call_kind: Optional[str] = None
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in metric_aliases
                    and node.func.attr in self.KIND_BY_CALL):
                call_kind = self.KIND_BY_CALL[node.func.attr]
            elif (isinstance(node.func, ast.Name)
                    and node.func.id in direct):
                call_kind = self.KIND_BY_CALL[direct[node.func.id]]
            if call_kind is None or not node.args:
                continue
            name = _str_const(node.args[0])
            if name is None:
                continue   # dynamic name: the runtime check is the backstop
            self.emitters.append((ctx, node, name, call_kind))
        return ()

    def _parse_catalog(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "METRICS"
                    and isinstance(value, ast.Dict)):
                continue
            self.catalog_seen = True
            for key_node, val_node in zip(value.keys, value.values):
                name = _str_const(key_node)
                if name is None or not isinstance(val_node, ast.Dict):
                    continue
                kind = "counter"
                for k, v in zip(val_node.keys, val_node.values):
                    if _str_const(k) == "kind":
                        kind = _str_const(v) or "counter"
                self.catalog[name] = (kind, key_node.lineno)

    def finalize(self) -> Iterable[Finding]:
        if not self.catalog_seen:
            return   # fixture tree without a catalog: nothing to check
        emitted: Set[str] = set()
        for ctx, node, name, call_kind in self.emitters:
            emitted.add(name)
            spec = self.catalog.get(name)
            if spec is None:
                yield ctx.finding(
                    node, self.id,
                    f"metric {name!r} is not in obs/metrics.py::METRICS; "
                    f"catalog it (kind={call_kind!r}) before emitting")
            elif spec[0] != call_kind:
                yield ctx.finding(
                    node, self.id,
                    f"metric {name!r} is cataloged as a {spec[0]}, but "
                    f"emitted as a {call_kind}")
        catalog_ctx = self._contexts.get(self.CATALOG_FILE)
        for name, (kind, lineno) in sorted(self.catalog.items()):
            if name not in emitted and catalog_ctx is not None:
                yield Finding(
                    path=self.CATALOG_FILE, line=lineno, col=0, rule=self.id,
                    message=(f"cataloged {kind} {name!r} has no "
                             f"statically-resolvable emitter (dead metric); "
                             f"emit it or drop the catalog entry"),
                    snippet=catalog_ctx.line_text(lineno))


# --------------------------------------------------------------------- #
# 4. warning-taxonomy
# --------------------------------------------------------------------- #
class WarningTaxonomyRule(Rule):
    id = "warning-taxonomy"
    doc = ("warnings.warn must use a cataloged warning class, never a bare "
           "string or UserWarning")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        warn_aliases = (ctx.import_aliases("warnings")
                        if ctx.imports_module("warnings") else set())
        direct = {local
                  for local, orig in ctx.imported_names("warnings").items()
                  if orig == "warn"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_warn = False
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in warn_aliases
                    and node.func.attr == "warn"):
                is_warn = True
            elif isinstance(node.func, ast.Name) and node.func.id in direct:
                is_warn = True
            if not is_warn:
                continue
            category = (node.args[1] if len(node.args) > 1
                        else _keyword(node, "category"))
            if category is None:
                yield ctx.finding(
                    node, self.id,
                    "bare warnings.warn without a category: use one of the "
                    "cataloged classes "
                    f"({', '.join(sorted(WARNING_CATALOG))})")
                continue
            chain = _dotted(category)
            terminal = chain.rsplit(".", 1)[-1] if chain else None
            if terminal not in WARNING_CATALOG:
                shown = chain or ast.dump(category)[:40]
                yield ctx.finding(
                    node, self.id,
                    f"warning class `{shown}` is not in the taxonomy; use "
                    f"one of {', '.join(sorted(WARNING_CATALOG))} (or "
                    f"catalog a new class and add it to the rule)")


# --------------------------------------------------------------------- #
# 5. atomic-write-discipline
# --------------------------------------------------------------------- #
class AtomicWriteRule(Rule):
    id = "atomic-write-discipline"
    doc = ("no bare truncating writes under store/ outside "
           "temp-then-os.replace helpers (append mode is exempt)")

    SCOPE_PREFIX = ("store/",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.rel.startswith(self.SCOPE_PREFIX):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            write_kind: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode_node = (node.args[1] if len(node.args) > 1
                             else _keyword(node, "mode"))
                mode = _str_const(mode_node)
                if mode is not None and "w" in mode:
                    write_kind = f"open(..., {mode!r})"
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write_text", "write_bytes")):
                write_kind = f".{node.func.attr}(...)"
            if write_kind is None:
                continue
            if self._function_replaces(ctx, node):
                continue
            yield ctx.finding(
                node, self.id,
                f"bare {write_kind} in a store path: a crash mid-write "
                f"leaves a torn file behind; write to a temp name and "
                f"os.replace it (or append with mode 'a')")

    @staticmethod
    def _function_replaces(ctx: FileContext, node: ast.Call) -> bool:
        """True iff the enclosing function also calls ``os.replace``."""
        fn = ctx.enclosing_function(node)
        if fn is None:
            return False
        for sub in ast.walk(fn):
            if (isinstance(sub, ast.Call)
                    and _dotted(sub.func) == "os.replace"):
                return True
        return False


# --------------------------------------------------------------------- #
# 6. spawn-context
# --------------------------------------------------------------------- #
class SpawnContextRule(Rule):
    id = "spawn-context"
    doc = ("coordinator/http-adjacent modules must build worker processes "
           "from multiprocessing.get_context('spawn')")

    HTTP_MODULES = ("http.server", "http.client")

    def _in_scope(self, ctx: FileContext) -> bool:
        if ctx.rel in SPAWN_SCOPED_FILES:
            return True
        return any(ctx.imports_module(m) for m in self.HTTP_MODULES)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not self._in_scope(ctx):
            return
        mp_aliases = (ctx.import_aliases("multiprocessing")
                      if ctx.imports_module("multiprocessing") else set())
        get_ctx_direct = {
            local
            for local, orig in ctx.imported_names("multiprocessing").items()
            if orig == "get_context"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            # direct multiprocessing.Process(...): inherits the default
            # start method (fork on Linux) and with it every open fd
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mp_aliases
                    and node.func.attr == "Process"):
                yield ctx.finding(
                    node, self.id,
                    "multiprocessing.Process() here inherits the fork "
                    "start method (and the coordinator's listening "
                    "socket); use get_context('spawn').Process")
                continue
            # get_context("not-spawn")
            is_get_ctx = (
                (isinstance(node.func, ast.Name)
                 and node.func.id in get_ctx_direct)
                or (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mp_aliases
                    and node.func.attr == "get_context"))
            if is_get_ctx:
                method = (_str_const(node.args[0]) if node.args
                          else _str_const(_keyword(node, "method")))
                if method != "spawn":
                    yield ctx.finding(
                        node, self.id,
                        f"get_context({method!r}) in an http-adjacent "
                        f"module: forked children inherit listening "
                        f"sockets; request 'spawn'")
                continue
            # ProcessPoolExecutor without an explicit spawn context
            if chain is not None and chain.endswith("ProcessPoolExecutor"):
                if _keyword(node, "mp_context") is None:
                    yield ctx.finding(
                        node, self.id,
                        "ProcessPoolExecutor without mp_context= in an "
                        "http-adjacent module; pass "
                        "mp_context=get_context('spawn')")


# --------------------------------------------------------------------- #
# 7. fault-seam-coverage
# --------------------------------------------------------------------- #
class FaultSeamRule(Rule):
    id = "fault-seam-coverage"
    doc = ("literal seam names at fault_point/maybe_torn call sites must "
           "exist in robustness/faults.py::SEAMS, and every cataloged seam "
           "must be instrumented somewhere")

    CATALOG_FILE = "robustness/faults.py"
    ENTRY_POINTS = ("fault_point", "maybe_torn")

    def __init__(self) -> None:
        self.catalog: Dict[str, int] = {}
        self.catalog_lineno = 0
        self.catalog_seen = False
        self.sites: List[Tuple[FileContext, ast.AST, str]] = []
        self._contexts: Dict[str, FileContext] = {}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        self._contexts[ctx.rel] = ctx
        if ctx.rel == self.CATALOG_FILE:
            self._parse_catalog(ctx)
            return ()
        entry_names = {
            local
            for module in ("repro.robustness.faults", "repro.robustness")
            for local, orig in ctx.imported_names(module).items()
            if orig in self.ENTRY_POINTS}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            seam: Optional[str] = None
            is_entry = (
                (isinstance(node.func, ast.Name)
                 and node.func.id in entry_names)
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.ENTRY_POINTS))
            if is_entry and node.args:
                seam = _str_const(node.args[0])
            if seam is None:
                seam = _str_const(_keyword(node, "seam"))
            if seam is not None:
                self.sites.append((ctx, node, seam))
        return ()

    def _parse_catalog(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and target.id == "SEAMS"
                    and isinstance(node.value, (ast.Tuple, ast.List))):
                continue
            self.catalog_seen = True
            self.catalog_lineno = node.lineno
            for element in node.value.elts:
                name = _str_const(element)
                if name is not None:
                    self.catalog[name] = element.lineno

    def finalize(self) -> Iterable[Finding]:
        if not self.catalog_seen:
            return
        instrumented: Set[str] = set()
        for ctx, node, seam in self.sites:
            instrumented.add(seam)
            if seam not in self.catalog:
                yield ctx.finding(
                    node, self.id,
                    f"seam {seam!r} is not in robustness/faults.py::SEAMS; "
                    f"catalog it so fault plans can arm it")
        catalog_ctx = self._contexts.get(self.CATALOG_FILE)
        for seam, lineno in sorted(self.catalog.items()):
            if seam not in instrumented and catalog_ctx is not None:
                yield Finding(
                    path=self.CATALOG_FILE, line=lineno, col=0, rule=self.id,
                    message=(f"cataloged seam {seam!r} has no "
                             f"statically-resolvable fault_point/maybe_torn "
                             f"call site (dead seam)"),
                    snippet=catalog_ctx.line_text(lineno))


# --------------------------------------------------------------------- #
# 8. import-hygiene
# --------------------------------------------------------------------- #
class ImportHygieneRule(Rule):
    id = "import-hygiene"
    doc = ("no module-level import of scipy or networkx, nor of http.server "
           "or urllib.request outside store/coordinator.py")

    #: banned at module level everywhere (scipy is a test oracle only;
    #: networkx serves the graph topologies alone)
    HEAVY = ("scipy", "networkx")
    #: banned at module level outside the coordinator that serves them
    SERVER = ("http.server", "urllib.request")
    SERVER_FILES = ("store/coordinator.py",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        banned = self.HEAVY if ctx.rel in self.SERVER_FILES \
            else self.HEAVY + self.SERVER
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if ctx.enclosing_function(node) is not None \
                    or self._type_checking_only(ctx, node):
                continue
            for module in self._modules(node):
                hit = next((b for b in banned
                            if module == b or module.startswith(b + ".")),
                           None)
                if hit is not None:
                    yield ctx.finding(
                        node, self.id,
                        f"module-level import of `{module}` loads {hit} on "
                        f"every import of this module; import it inside "
                        f"the function that uses it")
                    break

    @staticmethod
    def _modules(node: Union[ast.Import, ast.ImportFrom]) -> List[str]:
        """Modules an import statement loads (``from p import m`` may load
        the submodule ``p.m``)."""
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if node.level or node.module is None:
            return []   # relative: inside the package
        return [node.module] + [f"{node.module}.{alias.name}"
                                for alias in node.names]

    @staticmethod
    def _type_checking_only(ctx: FileContext, node: ast.AST) -> bool:
        """True iff ``node`` sits in the body of ``if TYPE_CHECKING:``."""
        child, parent = node, ctx.parents.get(node)
        while parent is not None:
            if (isinstance(parent, ast.If) and child in parent.body
                    and _dotted(parent.test) in ("TYPE_CHECKING",
                                                 "typing.TYPE_CHECKING")):
                return True
            child, parent = parent, ctx.parents.get(parent)
        return False


#: Rule registry: id -> factory.  ``default_rules()`` instantiates fresh
#: rule objects per run (cross-file rules keep accumulator state on self).
ALL_RULES = {
    RngDisciplineRule.id: RngDisciplineRule,
    JsonNanDisciplineRule.id: JsonNanDisciplineRule,
    MetricsCatalogRule.id: MetricsCatalogRule,
    WarningTaxonomyRule.id: WarningTaxonomyRule,
    AtomicWriteRule.id: AtomicWriteRule,
    SpawnContextRule.id: SpawnContextRule,
    FaultSeamRule.id: FaultSeamRule,
    ImportHygieneRule.id: ImportHygieneRule,
}


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in catalog order."""
    return [factory() for factory in ALL_RULES.values()]
