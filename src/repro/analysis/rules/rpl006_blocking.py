"""RPL006 — no blocking calls inside ``async def`` service code.

The mapping service promises that loop-side work is bounded:
canonicalization, plus solves of at most 16 threads while every pool
slot is busy; every larger solve goes through the batcher to a process
pool, and every await point yields promptly.  One ``time.sleep`` or
synchronous ``subprocess.run`` inside a coroutine freezes *every*
connection the loop is multiplexing — the failure mode is global, not
local, which is why it gets a rule instead of a review note.

Flagged inside ``async def`` bodies (nested synchronous ``def``s are
skipped — they run wherever they are called, typically an executor):

* ``time.sleep`` — use ``await asyncio.sleep``.
* Synchronous subprocess launches (``subprocess.run/call/check_call/
  check_output/Popen``, ``os.system``, ``os.popen``) — use
  ``asyncio.create_subprocess_exec``.
* Synchronous network IO (``requests.*``, ``urllib.request.urlopen``,
  ``socket.create_connection``) — use asyncio streams.
* Bare ``open(...)`` / ``input(...)`` — file IO belongs in an executor
  (``loop.run_in_executor``), prompts have no place in a server.

Scoped by the ``paths`` option (default: the service package) because
the rest of the repo is deliberately synchronous.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    path_matches,
    register_rule,
)

#: (module, attribute) call suffixes that block the event loop, with the
#: async replacement named in the finding.  "*" matches any attribute.
_BLOCKING_SUFFIXES: Tuple[Tuple[str, str, str], ...] = (
    ("time", "sleep", "await asyncio.sleep(...)"),
    ("subprocess", "run", "asyncio.create_subprocess_exec"),
    ("subprocess", "call", "asyncio.create_subprocess_exec"),
    ("subprocess", "check_call", "asyncio.create_subprocess_exec"),
    ("subprocess", "check_output", "asyncio.create_subprocess_exec"),
    ("subprocess", "Popen", "asyncio.create_subprocess_exec"),
    ("os", "system", "asyncio.create_subprocess_shell"),
    ("os", "popen", "asyncio.create_subprocess_shell"),
    ("requests", "*", "an executor or asyncio streams"),
    ("request", "urlopen", "an executor or asyncio streams"),
    ("socket", "create_connection", "asyncio.open_connection"),
)

#: Bare-name calls that block (no attribute chain involved).
_BLOCKING_NAMES: Tuple[Tuple[str, str], ...] = (
    ("open", "loop.run_in_executor for file IO"),
    ("input", "nothing — servers do not prompt"),
    ("urlopen", "an executor or asyncio streams"),
)


def _async_body_calls(fn: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Call nodes in ``fn``'s body, not descending into nested defs.

    Nested synchronous functions execute wherever they are *called*
    (usually handed to an executor), and nested ``async def``s are
    visited by the caller as coroutines in their own right — both would
    double-report or false-positive if walked from here.
    """
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class BlockingAsyncRule(Rule):
    """Flag event-loop-blocking calls in ``async def`` service code."""
    id = "RPL006"
    title = "no blocking calls inside async service code"
    default_options = {"paths": ["*repro/service/*"], "allow": []}

    def check(self, project: Project) -> Iterator[Finding]:
        paths = list(self.opt("paths"))
        allow = list(self.opt("allow"))
        for module in project.modules:
            if not any(path_matches(module.rel, pat) for pat in paths):
                continue
            if any(path_matches(module.rel, pat) for pat in allow):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_def(module, node)

    def _check_async_def(
        self, module: Module, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for call in _async_body_calls(fn):
            name = dotted_name(call.func)
            if name is None:
                continue
            parts = name.split(".")
            hit = None
            if len(parts) >= 2:
                mod, attr = parts[-2], parts[-1]
                for ban_mod, ban_attr, instead in _BLOCKING_SUFFIXES:
                    if mod == ban_mod and (ban_attr == "*" or attr == ban_attr):
                        hit = instead
                        break
            else:
                for ban_name, instead in _BLOCKING_NAMES:
                    if parts[0] == ban_name:
                        hit = instead
                        break
            if hit is not None:
                yield module.finding(
                    self.id,
                    call,
                    f"{name}(...) blocks the event loop inside async "
                    f"'{fn.name}' — every connection stalls; use {hit}",
                )
