"""R4 ``private-poke`` — no external writes to private state.

The fast engine's packed kernel builds per-bank oracle storage on row
views of packed 2-D arrays (``DenseRowDisturbanceModel(storage=...)``):
several objects deliberately alias one buffer. In that world an external write
to somebody else's ``_private`` attribute — the old
``model._disturbance[row] = 0`` idiom that
``RowDisturbanceModel.clear_row`` replaced — is silently wrong: it can
desynchronise the packed twin, skip flip bookkeeping, or write through
a stale view, and nothing fails until a bit-identity pin trips miles
away.

This rule flags any assignment (``=``, augmented, annotated),
``del``, or ``object.__setattr__`` whose target is a ``_``-prefixed
(non-dunder) attribute of anything other than ``self``/``cls``. An
object's private state is written by its own methods only; if external
code needs the mutation, the owner grows a public method (exactly how
``clear_row``/``disturbed_rows`` replaced the ``_disturbance`` pokes).

The few deliberate cross-object syncs (the packed kernel restoring
engine-side counters it owns by construction) carry
``# repro-lint: allow[private-poke] <justification>`` suppressions.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from .base import Rule, register_rule


def _attribute_targets(node: ast.AST) -> list[ast.Attribute]:
    """The attribute nodes an assignment/delete statement writes to or
    through: plain attribute targets, targets nested in tuple/list
    unpacking, and subscript targets (``model._disturbance[row] = x``
    writes *through* the private attribute — the exact idiom
    ``RowDisturbanceModel.clear_row`` was added to replace)."""
    if isinstance(node, ast.Attribute):
        return [node]
    if isinstance(node, (ast.Tuple, ast.List)):
        found = []
        for element in node.elts:
            found.extend(_attribute_targets(element))
        return found
    if isinstance(node, ast.Starred):
        return _attribute_targets(node.value)
    if isinstance(node, ast.Subscript):
        return _attribute_targets(node.value)
    return []


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (
        attr.startswith("__") and attr.endswith("__")
    )


def _is_self_or_cls(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


@register_rule
class PrivatePokeRule(Rule):
    """R4: private attributes are written by their owner only."""

    id = "private-poke"
    summary = (
        "no writes to another object's _private attributes; extend the "
        "owner's public API instead (aliasing makes such pokes silent)"
    )

    def check(
        self, tree: ast.Module, source: str, path: str
    ) -> list[Finding]:
        findings = []
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                findings.extend(self._check_setattr(node, path))
                continue
            for target in targets:
                for attribute in _attribute_targets(target):
                    if not _is_private(attribute.attr):
                        continue
                    if _is_self_or_cls(attribute.value):
                        continue
                    owner = ast.unparse(attribute.value)
                    findings.append(self.finding(
                        path, attribute,
                        f"write to private attribute "
                        f"'{owner}.{attribute.attr}' from outside the "
                        "owning class; private state must be mutated "
                        "through the owner's public API",
                    ))
        return findings

    def _check_setattr(self, node: ast.Call, path: str) -> list[Finding]:
        """``object.__setattr__(other, "_attr", value)`` counts too."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and len(node.args) >= 2
        ):
            return []
        target, name = node.args[0], node.args[1]
        if _is_self_or_cls(target):
            return []
        if not (
            isinstance(name, ast.Constant)
            and isinstance(name.value, str)
            and _is_private(name.value)
        ):
            return []
        return [self.finding(
            path, node,
            f"__setattr__ write to private attribute "
            f"'{ast.unparse(target)}.{name.value}' from outside the "
            "owning class; private state must be mutated through the "
            "owner's public API",
        )]
