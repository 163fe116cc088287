"""Static AST lint enforcing the engine's repository invariants.

Several of the engine's correctness promises live in comments: "every
``faults.fire(...)`` call site must be registered in ``KNOWN_POINTS``",
"only the WAL-logging DML layer mutates the heap", "engine code never
reads wall-clock time".  Comments do not fail CI; these rules do.  Each
rule has a stable code (``RPR001``…) so suppressions and fixtures stay
meaningful as messages get reworded, and each is fixture-tested against
a seeded bad snippet in ``tests/lint_fixtures/``.

Run it as ``python -m repro lint`` (the CI ``analysis`` job does), or
programmatically through :func:`run` / :func:`lint_paths`.

The rules:

``RPR001`` fault-point registry consistency — every ``fire("...")``
    string literal in the engine must be a member of
    :data:`repro.testing.faults.KNOWN_POINTS`, and (repo-level) every
    registered point must have at least one call site: a registry entry
    with no crossing is dead configuration, a crossing with no entry is
    invisible to the crash-sweep harnesses.
``RPR002`` lock-table encapsulation — ``LockManager``'s ``_table`` /
    ``_held`` / ``_cond`` / ``_mu`` and the heap's ``_rows`` may be
    touched only by their owning modules; everyone else goes through the
    public API so the strict-2PL and WAL invariants stay in one place.
``RPR003`` determinism — no ``time.time()`` and no ``random`` module in
    engine code outside ``bench``/``testing``/``workloads``: wall-clock
    and unseeded randomness make enforcement runs unreproducible
    (``time.monotonic()`` for intervals is fine).
``RPR004`` error hygiene — no bare ``except:`` anywhere, and no
    ``except ReproError: pass`` (an enforcement error silently swallowed
    is a corrupted database later).
``RPR005`` WAL-before-mutation — the physical mutators
    (``insert_row`` / ``delete_rid`` / ``update_rid`` / ``restore_row``)
    may be called only from the modules that pair them with undo/WAL
    logging (``query.dml``, ``query.transaction``), from the storage and
    index layers themselves, or from the bulk loaders in ``workloads``
    (which run before a WAL is attached, by design).
``RPR006`` retired with the lock-manager mode switch it guarded; the
    code is not reused.
``RPR007`` guarded wire I/O — every raw socket ``send``/``sendall``/
    ``recv``/``accept`` in ``repro.server`` and ``repro.sharding`` must
    sit in a function that also crosses a fault point (``fire(...)``) or
    sets an explicit ``settimeout``: unguarded wire I/O is invisible to
    the fault injection harness and can stall a connection thread forever.
``RPR008`` lock-free snapshot reads — snapshot-read code paths (any
    function whose name contains ``snapshot``, and everything in
    ``repro.storage.versions``) must not acquire S or IS locks through
    the lock manager: MVCC readers promise to never wait on writers,
    and a single read lock reintroduces the reader-writer convoy the
    version store exists to remove.  The runtime twin of this rule is
    :func:`repro.analysis.lockdep.snapshot_read_scope`.
``RPR009`` decision-before-ack — in ``repro.sharding`` any function that
    acknowledges a cross-shard commit to the client (``ack_committed``)
    or pushes a commit decision to a participant (``send_commit_decide``)
    must also write or consult the durable decision log
    (``record_decision`` / ``logged_decision``) in the same function:
    under presumed abort, a commit acked without a fsynced decision
    record is silently rolled back by recovery after a coordinator
    crash — an acked-commit loss the chaos judge exists to catch.
``RPR010`` retired with the event loop it guarded (no coroutine is
    left to block); the code is not reused.
``RPR011`` settle-before-reply — in ``repro.server.core`` a function
    that writes replies to a connection (``send_frame`` / ``send_frames``)
    must call the role's ``settle`` earlier in the same function: a
    commit made on a connection leaves its record in the log buffer, so
    a reply of any kind — a write ack, a read that saw the commit, a
    ledger replay — sent without the flush behind it acknowledges what
    a crash can still lose.  RPR009's idea, for every commit ack.
"""

from __future__ import annotations

import ast
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Repository-relative module prefixes, e.g. "repro.query.dml".
ModuleName = str


@dataclass(frozen=True)
class LintViolation:
    """One finding: a rule code anchored to a file and line."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A table entry: stable code, summary, and the per-module checker.

    ``check(module_name, tree, source_lines)`` yields violations with
    paths left blank; the driver fills them in.
    """

    code: str
    summary: str
    check: Callable[[ModuleName, ast.Module], Iterator[tuple[int, str]]]


def _module_name(root: Path, path: Path) -> ModuleName:
    rel = path.relative_to(root.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _in(module: ModuleName, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


# ----------------------------------------------------------------------
# RPR001 — fault-point registry consistency


def _known_points() -> tuple[str, ...]:
    from ..testing.faults import KNOWN_POINTS

    return KNOWN_POINTS


def _fire_literals(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Every string literal passed to a call of ``fire`` / ``faults.fire``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _callee_name(node) != "fire" or not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield node.lineno, arg.value


def _check_fire_registered(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    known = set(_known_points())
    for line, literal in _fire_literals(tree):
        if literal not in known:
            yield (
                line,
                f"fault point {literal!r} is fired here but not registered "
                "in repro.testing.faults.KNOWN_POINTS",
            )


# ----------------------------------------------------------------------
# RPR002 — lock-table / heap encapsulation

#: attribute name -> module prefixes allowed to touch it.
_PRIVATE_ATTRS: dict[str, tuple[str, ...]] = {
    "_table": ("repro.concurrency.locks",),
    "_held": ("repro.concurrency.locks",),
    "_cond": ("repro.concurrency.locks",),
    "_rows": ("repro.storage.heap",),
}


def _check_private_attrs(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owners = _PRIVATE_ATTRS.get(node.attr)
        if owners is None or _in(module, owners):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue  # a different class's own private state
        yield (
            node.lineno,
            f"direct access to internal attribute {node.attr!r}; only "
            f"{', '.join(owners)} may touch it — use the public API",
        )


# ----------------------------------------------------------------------
# RPR003 — determinism in engine modules

_NONDETERMINISM_EXEMPT = (
    "repro.bench",
    "repro.testing",
    "repro.workloads",
)


def _check_determinism(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    if _in(module, _NONDETERMINISM_EXEMPT):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield (
                        node.lineno,
                        "engine modules must not use `random` (unseeded "
                        "randomness breaks run reproducibility); only "
                        "bench/testing/workloads may",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield (
                    node.lineno,
                    "engine modules must not use `random`; only "
                    "bench/testing/workloads may",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield (
                    node.lineno,
                    "engine modules must not read wall-clock time.time(); "
                    "use time.monotonic() for intervals",
                )


# ----------------------------------------------------------------------
# RPR004 — error hygiene


def _check_error_hygiene(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield (
                node.lineno,
                "bare `except:` also catches SimulatedCrash and "
                "KeyboardInterrupt; name the exception types",
            )
            continue
        if _handler_names_repro_error(node.type) and _body_is_silent(node.body):
            yield (
                node.lineno,
                "a ReproError is silently swallowed here; handle it, "
                "re-raise, or record why discarding is safe",
            )


_REPRO_ERROR_NAMES = {
    "ReproError",
    "IntegrityError",
    "ReferentialIntegrityViolation",
    "KeyViolation",
    "RestrictViolation",
    "ConcurrencyError",
}


def _handler_names_repro_error(expr: ast.expr) -> bool:
    names: list[ast.expr] = list(expr.elts) if isinstance(expr, ast.Tuple) else [expr]
    for item in names:
        if isinstance(item, ast.Attribute) and item.attr in _REPRO_ERROR_NAMES:
            return True
        if isinstance(item, ast.Name) and item.id in _REPRO_ERROR_NAMES:
            return True
    return False


def _body_is_silent(body: Sequence[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


# ----------------------------------------------------------------------
# RPR005 — WAL-before-mutation allowlist

_MUTATORS = {"insert_row", "delete_rid", "update_rid", "restore_row"}

#: Modules that may call the physical mutators directly: the undo/WAL
#: logging layers (``query.dml`` and the vectorized ``core.batch``, which
#: pairs every mutation with ``dml._log_undo``), the storage/index layers
#: themselves, and the bulk loaders (which run before a WAL is attached,
#: by design).
_MUTATION_ALLOWED = (
    "repro.query.dml",
    "repro.query.transaction",
    "repro.core.batch",
    "repro.storage",
    "repro.indexes",
    "repro.workloads",
)


def _check_wal_before_mutation(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    if _in(module, _MUTATION_ALLOWED):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            continue
        base = func.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls", "dml"):
            # self/cls: a layer's own method; dml: the sanctioned
            # WAL-logging entry points (dml.update_rid etc.).
            continue
        yield (
            node.lineno,
            f"physical mutator .{func.attr}() called outside the WAL "
            "allowlist; route the write through repro.query.dml so the "
            "undo/WAL record is paired with the mutation",
        )


# ----------------------------------------------------------------------
# RPR007 — guarded wire I/O in the serving layer

_SOCKET_CALLS = {"recv", "send", "sendall", "accept"}

_SOCKET_GUARDED = ("repro.server", "repro.sharding")


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of *func* excluding nested function/lambda bodies, so each
    socket call is judged against its innermost enclosing function."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _callee_name(call: ast.Call) -> str | None:
    """``f`` of ``f(...)`` or ``x.f(...)``."""
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute):
        return callee.attr
    return None


def _check_socket_guards(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    if not _in(module, _SOCKET_GUARDED):
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        guarded = False
        socket_calls: list[tuple[int, str]] = []
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name == "fire" or name == "settimeout":
                guarded = True
            elif name in _SOCKET_CALLS:
                socket_calls.append((node.lineno, name))
        if not guarded:
            for line, name in sorted(socket_calls):
                yield (
                    line,
                    f"raw socket .{name}() with no fault point and no "
                    "explicit timeout in this function; add a "
                    "fire('wire.*') crossing or a settimeout() so fault "
                    "injection sees it and a stalled peer cannot pin "
                    "the thread",
                )


# ----------------------------------------------------------------------
# RPR009 — durable decision record dominates the cross-shard commit ack

#: Calls that externalise a cross-shard commit (to the client or to a
#: participant).  Once one of these runs, presumed abort makes the
#: decision log the only thing standing between a crash and a lost ack.
_DECISION_ACKS = {"ack_committed", "send_commit_decide"}

#: Calls that write or consult the durable decision log.
_DECISION_GUARDS = {"record_decision", "logged_decision"}

_DECISION_SCOPED = ("repro.sharding",)


def _check_decision_before_ack(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    if not _in(module, _DECISION_SCOPED):
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name in _DECISION_ACKS:
            continue  # the primitives themselves, not their callers
        guarded = False
        acks: list[tuple[int, str]] = []
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name in _DECISION_GUARDS:
                guarded = True
            elif name in _DECISION_ACKS:
                acks.append((node.lineno, name))
        if not guarded:
            for line, name in sorted(acks):
                yield (
                    line,
                    f"{name}() without record_decision()/logged_decision() "
                    "in the same function; under presumed abort an acked "
                    "commit with no durable decision record is rolled back "
                    "by recovery after a coordinator crash",
                )


# ----------------------------------------------------------------------
# RPR011 — the role's settle() dominates every reply the core writes

_REPLY_SENDS = {"send_frame", "send_frames"}

_SETTLE_SCOPED = ("repro.server.core",)


def _check_settle_before_reply(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    if not _in(module, _SETTLE_SCOPED):
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = sorted(
            (
                (node.lineno, _callee_name(node))
                for node in _own_nodes(func) if isinstance(node, ast.Call)
            ),
            key=lambda call: call[0],
        )
        settled_at = min(
            (line for line, name in calls if name == "settle"), default=None
        )
        for line, name in calls:
            if name in _REPLY_SENDS and (settled_at is None or settled_at > line):
                yield (
                    line,
                    f"{name}() with no settle() before it in this "
                    "function; a reply must not leave while the log "
                    "buffer holds a record older than it — call the "
                    "role's settle(state) first",
                )


# ----------------------------------------------------------------------
# RPR008 — snapshot-read paths stay lock-free

#: Modules that are snapshot-read machinery in their entirety.
_SNAPSHOT_MODULES = ("repro.storage.versions",)

#: Read lock modes a snapshot path must never request.
_READ_MODES = {"S", "IS"}


def _is_read_lock_mode(arg: ast.expr) -> bool:
    return (
        isinstance(arg, ast.Attribute)
        and arg.attr in _READ_MODES
        and isinstance(arg.value, ast.Name)
        and arg.value.id == "LockMode"
    )


def _check_snapshot_lock_free(
    module: ModuleName, tree: ast.Module
) -> Iterator[tuple[int, str]]:
    whole_module = _in(module, _SNAPSHOT_MODULES)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not (whole_module or "snapshot" in func.name):
            continue
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and any(_is_read_lock_mode(a) for a in node.args)
            ):
                mode = next(
                    a.attr for a in node.args  # type: ignore[union-attr]
                    if _is_read_lock_mode(a)
                )
                yield (
                    node.lineno,
                    f"snapshot-read path {func.name!r} acquires a "
                    f"LockMode.{mode} lock; MVCC snapshot reads must be "
                    "lock-free — read through a ReadView at the snapshot "
                    "LSN instead (runtime twin: lockdep.snapshot_read_scope)",
                )


# ----------------------------------------------------------------------
# The rule table and the driver

RULES: tuple[Rule, ...] = (
    Rule("RPR001", "fire() literals must be registered fault points",
         _check_fire_registered),
    Rule("RPR002", "lock-table/heap internals are private to their module",
         _check_private_attrs),
    Rule("RPR003", "no wall-clock time or random in engine modules",
         _check_determinism),
    Rule("RPR004", "no bare except / silently swallowed ReproError",
         _check_error_hygiene),
    Rule("RPR005", "physical mutators only via the WAL-logging layer",
         _check_wal_before_mutation),
    Rule("RPR007", "server socket I/O guarded by fault point or timeout",
         _check_socket_guards),
    Rule("RPR008", "snapshot-read paths never take S/IS locks",
         _check_snapshot_lock_free),
    Rule("RPR009", "cross-shard commit acks dominated by decision record",
         _check_decision_before_ack),
    Rule("RPR011", "serving-core replies written only after settle()",
         _check_settle_before_reply),
)


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def lint_source(
    source: str,
    module: ModuleName,
    path: str = "<string>",
    rules: Sequence[Rule] = RULES,
) -> list[LintViolation]:
    """Lint one module's source text (the unit the fixtures exercise)."""
    tree = ast.parse(source, filename=path)
    out: list[LintViolation] = []
    for rule in rules:
        for line, message in rule.check(module, tree):
            out.append(LintViolation(rule.code, path, line, message))
    return out


def iter_modules(root: Path) -> Iterator[tuple[ModuleName, Path]]:
    for path in sorted(root.rglob("*.py")):
        yield _module_name(root, path), path


def lint_paths(
    root: Path | None = None, rules: Sequence[Rule] = RULES
) -> list[LintViolation]:
    """Lint every module under *root* (default: the installed package),
    then apply the repo-level RPR001 completeness check."""
    root = root or default_root()
    out: list[LintViolation] = []
    fired: set[str] = set()
    for module, path in iter_modules(root):
        source = path.read_text()
        out.extend(lint_source(source, module, str(path), rules))
        fired.update(literal for __, literal in _fire_literals(ast.parse(source)))
    # Registry completeness is a property of the real engine tree, not of
    # arbitrary lint targets (fixture snippets fire nothing).
    if (root / "testing" / "faults.py").exists() and any(
        rule.code == "RPR001" for rule in rules
    ):
        for point in _known_points():
            if point not in fired:
                out.append(
                    LintViolation(
                        "RPR001",
                        str(root / "testing" / "faults.py"),
                        1,
                        f"fault point {point!r} is registered in "
                        "KNOWN_POINTS but fired nowhere in the engine",
                    )
                )
    return sorted(out, key=lambda v: (v.path, v.line, v.code))


def fired_points(root: Path | None = None) -> set[str]:
    """Every ``fire("...")`` literal under *root* (test cross-check API)."""
    root = root or default_root()
    fired: set[str] = set()
    for __, path in iter_modules(root):
        fired.update(
            literal for __, literal in _fire_literals(ast.parse(path.read_text()))
        )
    return fired


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro lint [--list] [PATH ...]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list" in argv:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    roots = [Path(arg) for arg in argv if not arg.startswith("-")]
    violations: list[LintViolation] = []
    for root in roots or [default_root()]:
        violations.extend(lint_paths(root))
    for violation in violations:
        print(violation.render())
    checked = ", ".join(str(r) for r in (roots or [default_root()]))
    print(f"repro lint: {len(RULES)} rules over {checked}: "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0
