"""shm-lifecycle: confine the shared-memory lifetime protocol to its codec.

The process backend's create->registry->unlink protocol only stays
auditable if every segment is born in one place. Enforced:

* ``SharedMemory(create=True)`` construction is confined to the codec
  module (``repro.vmpi.process_backend``), and inside it to the single
  ``_create_shm`` helper (the one spot that knows about the 3.13
  ``track=False`` split).
* ``.unlink()`` calls are confined to the codec module — everyone else
  must go through ``release_segment``, the registry sweep
  (``_unlink_registered``) or the receive path, so a stray unlink can
  never race the lifetime protocol.
* every ``_create_shm`` call site (``pack`` is the one that ships
  payloads) must hand the new segment's ``.name`` to a registry in the
  same function — ``registry.put(shm.name)`` into the registry pipe, or
  an ``.append``/``.add`` into a collection — otherwise a crash
  mid-copy strands the segment in ``/dev/shm`` forever.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    dotted_name,
    enclosing_functions,
    iter_calls,
    register_checker,
)

#: the one module allowed to construct and unlink shared-memory blocks
CODEC_MODULE = "repro.vmpi.process_backend"
#: the one function allowed to call SharedMemory(create=True)
CREATE_HELPER = "_create_shm"


def _is_shm_constructor(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name is not None and name.split(".")[-1] == "SharedMemory"


def _creates(call: ast.Call) -> bool:
    return any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


def _is_unlink(call: ast.Call) -> bool:
    """A zero-argument ``x.unlink()`` method call (not ``os.unlink(path)``)."""
    if not isinstance(call.func, ast.Attribute) or call.func.attr != "unlink":
        return False
    if call.args or call.keywords:
        return False  # os.unlink(p) / Path.unlink(missing_ok=...) shapes
    receiver = dotted_name(call.func.value)
    return receiver != "os"


def _registers_name(fn: ast.AST) -> bool:
    """Does this function hand a ``.name`` to a registry (put/append/add)?"""
    for call in iter_calls(fn):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("put", "append", "add")
            and any(
                isinstance(arg, ast.Attribute) and arg.attr == "name"
                for arg in call.args
            )
        ):
            return True
    return False


@register_checker
class ShmLifecycleChecker(Checker):
    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True)/unlink() confined to the vmpi codec; "
        "every created segment is registered for the sweep"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for mod in project.modules:
            in_codec = mod.module == CODEC_MODULE
            owners = enclosing_functions(mod.tree) if in_codec else {}
            for call in iter_calls(mod.tree):
                if _is_shm_constructor(call) and _creates(call):
                    if not in_codec:
                        findings.append(mod.finding(
                            call, self.name,
                            "raw SharedMemory(create=True) outside the codec "
                            f"({CODEC_MODULE}); route allocations through "
                            "its encode path so the registry sweep sees them",
                            "raw-create",
                        ))
                    else:
                        owner = owners.get(call)
                        fn_name = getattr(owner, "name", "<module>")
                        if fn_name != CREATE_HELPER:
                            findings.append(mod.finding(
                                call, self.name,
                                f"SharedMemory(create=True) outside "
                                f"{CREATE_HELPER}(); the track=False split "
                                "must stay in one place",
                                "create-outside-helper",
                            ))
                elif _is_unlink(call) and not in_codec:
                    findings.append(mod.finding(
                        call, self.name,
                        "raw .unlink() outside the codec "
                        f"({CODEC_MODULE}); blocks are reclaimed by their "
                        "receiver or the registry sweep, never ad hoc",
                        "raw-unlink",
                    ))
            if in_codec:
                for call in iter_calls(mod.tree):
                    name = dotted_name(call.func)
                    if name == CREATE_HELPER:
                        owner = owners.get(call)
                        fn_name = getattr(owner, "name", "<module>")
                        if fn_name == CREATE_HELPER or owner is None:
                            continue
                        if not _registers_name(owner):
                            findings.append(mod.finding(
                                call, self.name,
                                f"{CREATE_HELPER}() call in {fn_name}() does "
                                "not register the segment name (no "
                                ".put/.append/.add of its .name into a "
                                "registry) — a crash here strands the "
                                "segment in /dev/shm",
                                f"unregistered-create:{fn_name}",
                            ))
        return findings
