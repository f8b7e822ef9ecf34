"""The rule registry: small AST visitors, one determinism rule each.

Every rule is a :class:`Rule` subclass registered with the
:func:`register` decorator — about 30 lines including its rationale and
a minimal bad/good example pair (which are also the source of the
``tests/lint_fixtures/`` files and of ``repro lint --explain``).  A rule
declares the modules it does *not* apply to via ``allowed_modules``:
that is policy ("wall-clock reads belong in ``repro.clock``"), distinct
from per-site ``# repro: allow[CODE]`` suppressions (exceptions).

Rule families
=============

* **NG1xx — RNG discipline.**  All randomness must flow through seeded
  ``random.Random`` streams threaded to the code that draws; the
  process-global generator, unseeded streams, and OS entropy all break
  replayability.
* **NG2xx — wall-clock & environment leaks.**  Virtual time is the only
  clock inside a simulation; wall-clock reads live in ``repro.clock``
  and environment variables are read only at config entry points.
* **NG3xx — ordering hazards.**  Iterating an unordered container
  while scheduling events, sending messages, or drawing randomness
  makes event order depend on hash layout.
* **NG4xx — protocol-layer boundaries.**  Consensus layers must not
  import the experiment harness above them.

``docs/static-analysis.md`` → "Retired rules" lists the rules that were
removed because a runtime test pins their property: seven that never
fired on any committed tree, and the version-bump rule, whose counters
went with the sanitizer state they tracked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, TypeVar

from .findings import Finding

#: Method names whose invocation inside a loop body makes iteration
#: order observable: event scheduling, message emission, or RNG draws.
EFFECTFUL_CALLS = frozenset(
    {"schedule", "schedule_at", "send", "broadcast", "announce"}
)
RNG_METHODS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "expovariate",
        "gauss",
        "normalvariate",
        "betavariate",
    }
)
WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
    }
)
DATETIME_NOW_FNS = frozenset({"now", "utcnow", "today"})
OS_ENTROPY = frozenset({"urandom", "getrandom"})
UUID_ENTROPY = frozenset({"uuid1", "uuid4"})
#: Layers that may never import the harness above them.
PROTOCOL_LAYERS = ("repro.core", "repro.bitcoin", "repro.ghost")
HARNESS_LAYERS = ("repro.experiments", "repro.cli")
#: The hot simulation layer: NG303's array-layout rule applies only here.
NET_LAYERS = ("repro.net",)


@dataclass
class ImportMap:
    """Local aliases resolved to the modules/names they import."""

    modules: dict[str, str] = field(default_factory=dict)
    names: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports.names[local] = (module, alias.name)
        return imports

    def module_of(self, node: ast.expr) -> str | None:
        """The dotted module a Name/Attribute expression resolves to."""
        if isinstance(node, ast.Name):
            return self.modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.module_of(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


@dataclass
class ModuleContext:
    """Everything a rule sees about the module under analysis."""

    path: str  #: path as scanned, posix separators
    module: str  #: dotted module name (or fixture-directive override)
    lines: list[str]
    imports: ImportMap
    set_attrs: frozenset[str]  #: project-wide set-typed identifiers
    #: project-wide identifiers annotated as ``dict[tuple[...], ...]``
    tuple_dict_attrs: frozenset[str] = frozenset()


class Rule(ast.NodeVisitor):
    """One per-module determinism rule: a code, a rationale, a visitor.

    The registry, the CLI's ``--explain``/``--list-rules``, and the
    fixture tests read the metadata: a code, a name, a rationale, and a
    byte-pinned bad/good example pair.
    """

    code: ClassVar[str]
    name: ClassVar[str]
    rationale: ClassVar[str]
    bad_example: ClassVar[str]
    good_example: ClassVar[str]
    #: Module prefixes where this rule is policy-exempt.
    allowed_modules: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return not any(
            module == allowed or module.startswith(allowed + ".")
            for allowed in cls.allowed_modules
        )

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        snippet = ""
        if 1 <= line <= len(self.context.lines):
            snippet = self.context.lines[line - 1].strip()
        self.findings.append(
            Finding(
                path=self.context.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                snippet=snippet,
            )
        )


RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Declaratively add a rule to the registry, keyed by its code."""
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rules() -> list[type[Rule]]:
    return [RULES[code] for code in sorted(RULES)]


# -- NG1xx: RNG discipline ---------------------------------------------------


@register
class BareRandomCall(Rule):
    code = "NG101"
    name = "bare-random-call"
    rationale = (
        "Module-level `random.*` functions draw from the process-global "
        "Mersenne Twister, whose state is shared by every caller in the "
        "process: any import-order change, library internals, or a "
        "parallel worker warming the generator silently shifts every "
        "subsequent draw. All randomness must come from an explicitly "
        "seeded `random.Random` stream threaded to the code that draws."
    )
    bad_example = (
        "import random\n"
        "\n"
        "def jitter() -> float:\n"
        "    return random.random()\n"
    )
    good_example = (
        "import random\n"
        "\n"
        "def jitter(rng: random.Random) -> float:\n"
        "    return rng.random()\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr != "Random"
            and self.context.imports.module_of(func.value) == "random"
        ):
            self.report(
                node,
                f"call to process-global `random.{func.attr}` — draw from "
                "a seeded `random.Random` stream passed to this code",
            )
        elif isinstance(func, ast.Name):
            origin = self.context.imports.names.get(func.id)
            if origin is not None and origin[0] == "random" and origin[1] != "Random":
                self.report(
                    node,
                    f"call to `{origin[1]}` imported from the global "
                    "`random` module — use a seeded `random.Random` stream",
                )
        self.generic_visit(node)


@register
class UnseededRandom(Rule):
    code = "NG102"
    name = "unseeded-random"
    rationale = (
        "`random.Random()` with no arguments seeds itself from OS "
        "entropy, so two runs of the same experiment draw different "
        "sequences — the exact failure determinism pins exist to catch. "
        "Every stream must be constructed with a seed expression derived "
        "from the experiment seed (salted per stream, as the topology / "
        "latency / fault streams are)."
    )
    bad_example = (
        "import random\n"
        "\n"
        "rng = random.Random()\n"
    )
    good_example = (
        "import random\n"
        "\n"
        "def make_rng(seed: int) -> random.Random:\n"
        "    return random.Random(seed * 7919 + 13)\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_random_cls = (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and self.context.imports.module_of(func.value) == "random"
        ) or (
            isinstance(func, ast.Name)
            and self.context.imports.names.get(func.id) == ("random", "Random")
        )
        if is_random_cls and not node.args and not node.keywords:
            self.report(
                node,
                "`random.Random()` constructed without a seed expression "
                "— self-seeds from OS entropy and breaks replay",
            )
        self.generic_visit(node)


@register
class OsEntropy(Rule):
    code = "NG104"
    name = "os-entropy"
    rationale = (
        "`os.urandom`, `uuid.uuid4`, and friends read kernel entropy: "
        "every call yields a different value, so any identifier or key "
        "derived from them differs between runs. Only `repro.crypto` "
        "may touch OS entropy (real key generation for interactive "
        "use); simulation identities are derived deterministically from "
        "the experiment seed."
    )
    bad_example = (
        "import os\n"
        "\n"
        "def session_token() -> bytes:\n"
        "    return os.urandom(16)\n"
    )
    good_example = (
        "# repro-lint: module=repro.crypto.entropy\n"
        "import os\n"
        "\n"
        "def keygen_entropy() -> bytes:\n"
        "    return os.urandom(32)\n"
    )
    allowed_modules = ("repro.crypto",)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            module = self.context.imports.module_of(func.value)
            if module == "os" and func.attr in OS_ENTROPY:
                self.report(
                    node,
                    f"`os.{func.attr}` reads kernel entropy outside "
                    "repro.crypto — derive from the experiment seed",
                )
            elif module == "uuid" and func.attr in UUID_ENTROPY:
                self.report(
                    node,
                    f"`uuid.{func.attr}` is entropy/time-based outside "
                    "repro.crypto — derive ids from the experiment seed",
                )
            elif module == "secrets":
                self.report(
                    node,
                    "`secrets` module outside repro.crypto — derive from "
                    "the experiment seed",
                )
        elif isinstance(func, ast.Name):
            origin = self.context.imports.names.get(func.id)
            if origin is not None and (
                (origin[0] == "os" and origin[1] in OS_ENTROPY)
                or (origin[0] == "uuid" and origin[1] in UUID_ENTROPY)
                or origin[0] == "secrets"
            ):
                self.report(
                    node,
                    f"`{origin[0]}.{origin[1]}` reads OS entropy outside "
                    "repro.crypto — derive from the experiment seed",
                )
        self.generic_visit(node)


# -- NG2xx: wall-clock & environment leaks -----------------------------------


@register
class WallClockRead(Rule):
    code = "NG201"
    name = "wall-clock-read"
    rationale = (
        "Inside a simulation, virtual time (`sim.now`) is the only "
        "clock; a wall-clock read that feeds state, seeds, or event "
        "times makes results depend on machine speed. Legitimate "
        "wall-clock use is perf accounting only, and all of it goes "
        "through `repro.clock.wall_clock()` so the analyzer can prove "
        "nothing else touches the real clock."
    )
    bad_example = (
        "import time\n"
        "\n"
        "def measure() -> float:\n"
        "    return time.perf_counter()\n"
    )
    good_example = (
        "from repro.clock import wall_clock\n"
        "\n"
        "def measure() -> float:\n"
        "    return wall_clock()\n"
    )
    allowed_modules = ("repro.clock", "repro.cli")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            module = self.context.imports.module_of(func.value)
            if module == "time" and func.attr in WALL_CLOCK_TIME_FNS:
                self.report(
                    node,
                    f"wall-clock read `time.{func.attr}` outside "
                    "repro.clock — use repro.clock.wall_clock()",
                )
            elif func.attr in DATETIME_NOW_FNS and module in (
                "datetime",
                "datetime.datetime",
                "datetime.date",
            ):
                self.report(
                    node,
                    f"wall-clock read `{module}.{func.attr}` outside "
                    "repro.clock — simulations must use virtual time",
                )
            elif func.attr in DATETIME_NOW_FNS and isinstance(
                func.value, ast.Name
            ) and self.context.imports.names.get(func.value.id) == (
                "datetime",
                "datetime",
            ):
                self.report(
                    node,
                    f"wall-clock read `datetime.{func.attr}` outside "
                    "repro.clock — simulations must use virtual time",
                )
        elif isinstance(func, ast.Name):
            origin = self.context.imports.names.get(func.id)
            if origin is not None and origin[0] == "time" and origin[1] in (
                WALL_CLOCK_TIME_FNS
            ):
                self.report(
                    node,
                    f"wall-clock read `time.{origin[1]}` outside "
                    "repro.clock — use repro.clock.wall_clock()",
                )
        self.generic_visit(node)


@register
class EnvRead(Rule):
    code = "NG202"
    name = "env-read"
    rationale = (
        "An environment variable read deep in library code is hidden "
        "configuration: two hosts (or a developer shell and CI) run "
        "different experiments from the same config object. Environment "
        "is read only at config entry points — the CLI and the sweep "
        "executor's worker-count resolution — and flows everywhere else "
        "as explicit config fields."
    )
    bad_example = (
        "import os\n"
        "\n"
        "def block_rate() -> float:\n"
        '    return float(os.environ.get("BLOCK_RATE", "0.1"))\n'
    )
    good_example = (
        "# repro-lint: module=repro.experiments.parallel\n"
        "import os\n"
        "\n"
        "def resolve_jobs() -> int:\n"
        '    return int(os.environ.get("REPRO_JOBS", "0")) or 1\n'
    )
    allowed_modules = ("repro.cli", "repro.experiments.parallel")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        module = self.context.imports.module_of(node.value)
        if module == "os" and node.attr in ("environ", "getenv", "environb"):
            self.report(
                node,
                f"environment read `os.{node.attr}` outside a config "
                "entry point — pass configuration explicitly",
            )
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            origin = self.context.imports.names.get(func.id)
            if origin is not None and origin[0] == "os" and origin[1] == "getenv":
                self.report(
                    node,
                    "environment read `os.getenv` outside a config entry "
                    "point — pass configuration explicitly",
                )
        self.generic_visit(node)


# -- NG3xx: ordering hazards -------------------------------------------------


def _effectful_call_name(body: list[ast.stmt]) -> str | None:
    """The first scheduling/send/RNG call inside ``body``, if any."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                if attr in EFFECTFUL_CALLS or attr in RNG_METHODS:
                    return attr
    return None


@register
class UnorderedEffectfulIteration(Rule):
    code = "NG301"
    name = "unordered-effectful-iteration"
    rationale = (
        "Iterating a `set`/`frozenset` (or a hash-keyed `.keys()` view) "
        "while scheduling events, sending messages, or drawing "
        "randomness makes the event heap's contents depend on hash "
        "layout — insertion order, collisions, or `PYTHONHASHSEED` for "
        "string keys. The classic silent determinism breaker: results "
        "replay on one machine and diverge on another. Iterate a "
        "`sorted()` view or an insertion-ordered list instead."
    )
    bad_example = (
        "def flood(network, peers: set[int], message) -> None:\n"
        "    for peer in peers:\n"
        "        network.send(0, peer, message)\n"
    )
    good_example = (
        "def flood(network, peers: set[int], message) -> None:\n"
        "    for peer in sorted(peers):\n"
        "        network.send(0, peer, message)\n"
    )

    def _unordered_kind(self, node: ast.expr) -> str | None:
        """Why ``node`` is an unordered iterable, or None if it isn't."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a `{func.id}()`"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "keys"
                and not isinstance(func.value, ast.Dict)
            ):
                return "a `.keys()` view"
            return None
        if isinstance(node, ast.Attribute) and node.attr in self.context.set_attrs:
            return f"set-typed attribute `{node.attr}`"
        if isinstance(node, ast.Name) and node.id in self.context.set_attrs:
            return f"set-typed `{node.id}`"
        return None

    def visit_For(self, node: ast.For) -> None:
        kind = self._unordered_kind(node.iter)
        if kind is not None:
            effect = _effectful_call_name(node.body)
            if effect is not None:
                self.report(
                    node,
                    f"iteration over {kind} drives `{effect}()` — event "
                    "order now depends on hash layout; iterate a "
                    "sorted() view",
                )
        self.generic_visit(node)


@register
class HashBasedTieBreak(Rule):
    code = "NG302"
    name = "hash-based-tie-break"
    rationale = (
        "`sorted(..., key=id)` orders by CPython object addresses and "
        "`key=hash` by (possibly randomized) hash values: both produce "
        "machine- and run-dependent orderings that look stable in one "
        "process and diverge in the next. Tie-breaks must use a stable "
        "domain key — a block hash, a node id, a (time, sequence) pair."
    )
    bad_example = (
        "def order_tips(tips: list) -> list:\n"
        "    return sorted(tips, key=id)\n"
    )
    good_example = (
        "def order_tips(tips: list) -> list:\n"
        "    return sorted(tips, key=lambda tip: tip.hash)\n"
    )

    def _is_identity_key(self, value: ast.expr) -> str | None:
        if isinstance(value, ast.Name) and value.id in ("id", "hash"):
            return value.id
        if isinstance(value, ast.Lambda):
            body = value.body
            if (
                isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name)
                and body.func.id in ("id", "hash")
            ):
                return body.func.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_sorter = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if is_sorter:
            for keyword in node.keywords:
                if keyword.arg == "key":
                    bad = self._is_identity_key(keyword.value)
                    if bad is not None:
                        self.report(
                            node,
                            f"ordering by `key={bad}` is machine-dependent "
                            "— use a stable domain key",
                        )
        self.generic_visit(node)


@register
class TupleKeyedDictIteration(Rule):
    code = "NG303"
    name = "tuple-keyed-dict-iteration"
    rationale = (
        "Iterating a dict keyed by `(src, dst)` tuples inside the "
        "network layer walks a hash table and re-materialises a 2-tuple "
        "per edge — the exact per-edge overhead the array-core rework "
        "removed from the hot path. Per-edge state lives in flat arrays "
        "indexed by the CSR edge id (`Topology.csr()`): loop over "
        "`range(indptr[src], indptr[src + 1])` or the flat arrays "
        "themselves. Tuple-keyed dicts stay fine as point lookups "
        "(`self._eid[(src, dst)]`); only iteration is flagged."
    )
    bad_example = (
        "# repro-lint: module=repro.net.flood\n"
        "\n"
        "class Network:\n"
        "    def __init__(self) -> None:\n"
        "        self.links: dict[tuple[int, int], float] = {}\n"
        "\n"
        "    def total_latency(self) -> float:\n"
        "        total = 0.0\n"
        "        for (src, dst), latency in self.links.items():\n"
        "            total += latency\n"
        "        return total\n"
    )
    good_example = (
        "# repro-lint: module=repro.net.flood\n"
        "\n"
        "class Network:\n"
        "    def __init__(self) -> None:\n"
        "        self.edge_latency: list[float] = []\n"
        "\n"
        "    def total_latency(self) -> float:\n"
        "        total = 0.0\n"
        "        for latency in self.edge_latency:\n"
        "            total += latency\n"
        "        return total\n"
    )

    @classmethod
    def applies_to(cls, module: str) -> bool:
        # Inverted policy: a hot-path layout rule, scoped to the network
        # layer — harness, analysis, and CLI code may iterate small
        # tuple-keyed dicts (sweep grids, report tables) legitimately.
        return any(
            module == layer or module.startswith(layer + ".")
            for layer in NET_LAYERS
        )

    def _tuple_keyed_name(self, node: ast.expr) -> str | None:
        """The tuple-keyed dict identifier ``node`` iterates, if any."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "items",
                "keys",
                "values",
            ):
                return self._tuple_keyed_name(func.value)
            return None
        if (
            isinstance(node, ast.Attribute)
            and node.attr in self.context.tuple_dict_attrs
        ):
            return node.attr
        if (
            isinstance(node, ast.Name)
            and node.id in self.context.tuple_dict_attrs
        ):
            return node.id
        return None

    def visit_For(self, node: ast.For) -> None:
        name = self._tuple_keyed_name(node.iter)
        if name is not None:
            self.report(
                node,
                f"iterating tuple-keyed dict `{name}` in a repro.net "
                "hot path — keep per-edge state in flat CSR edge-id "
                "arrays and loop over those",
            )
        self.generic_visit(node)


# -- NG4xx: protocol-layer boundaries ----------------------------------------


def resolve_import_from(module: str, node: ast.ImportFrom) -> str:
    """The absolute dotted module an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # Level 1 strips the module's own name, each extra level one more.
    base = parts[: len(parts) - node.level]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@register
class LayerBoundaryImport(Rule):
    code = "NG401"
    name = "layer-boundary-import"
    rationale = (
        "The consensus layers (`repro.core`, `repro.bitcoin`, "
        "`repro.ghost`) are the subjects of experiments; importing the "
        "experiment harness (`repro.experiments`, `repro.cli`) from "
        "them inverts the dependency, creates import cycles, and lets "
        "harness configuration leak into protocol logic. Dependencies "
        "point strictly downward: harness → protocol → substrate."
    )
    bad_example = (
        "# repro-lint: module=repro.core.node_ext\n"
        "from repro.experiments.config import ExperimentConfig\n"
        "\n"
        "def default_config() -> ExperimentConfig:\n"
        "    return ExperimentConfig()\n"
    )
    good_example = (
        "# repro-lint: module=repro.experiments.custom\n"
        "from repro.core.params import NGParams\n"
        "\n"
        "def params() -> NGParams:\n"
        "    return NGParams()\n"
    )

    def _in_protocol_layer(self) -> bool:
        module = self.context.module
        return any(
            module == layer or module.startswith(layer + ".")
            for layer in PROTOCOL_LAYERS
        )

    def _check_target(self, node: ast.AST, target: str) -> None:
        for harness in HARNESS_LAYERS:
            if target == harness or target.startswith(harness + "."):
                self.report(
                    node,
                    f"protocol layer `{self.context.module}` imports the "
                    f"harness layer `{target}` — dependencies must point "
                    "downward",
                )
                return

    def visit_Import(self, node: ast.Import) -> None:
        if self._in_protocol_layer():
            for alias in node.names:
                self._check_target(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._in_protocol_layer():
            self._check_target(
                node, resolve_import_from(self.context.module, node)
            )
