"""R2 ``identity-manifest`` — every spec field decides its fingerprint
status explicitly.

:meth:`repro.scenario.Scenario.fingerprint` keys caches, result
stores, and every derived RNG stream. A new field on ``Scenario`` (or
on the spec/config dataclasses that feed it) must make a deliberate
choice: either it is *identity* — hashed, so changing it re-keys every
stream — or it is *excluded* — an implementation knob like
``vectorized`` whose values are pinned bit-identical.
Forgetting the choice corrupts silently in both directions: a field
that silently joins the payload re-keys fingerprints old stores rely
on; a field that silently skips it lets two semantically different
scenarios share cached results.

So the choice is a declaration: modules defining one of the
:data:`TARGET_CLASSES` carry a module-level ``IDENTITY_MANIFEST``
literal dict mapping class name → ``{"identity": [...], "excluded":
[...]}``, and this rule errors when a dataclass field is missing from
its manifest entry, listed twice, or listed but gone (the runtime
consumes the same manifest — ``Scenario.identity_payload`` drops
exactly the ``excluded`` names — so manifest and behaviour cannot
drift apart).

Suppression: ``# repro-lint: allow[identity-manifest] <justification>``
(on the class or manifest line the finding anchors to).
"""

from __future__ import annotations

import ast

from ..astutil import dataclass_field_names, is_dataclass_def
from ..findings import Finding
from .base import Rule, register_rule

#: Dataclasses that feed scenario identity and must be classified.
TARGET_CLASSES = frozenset({
    "Scenario", "TrackerSpec", "AttackSpec", "PointConfig",
})

#: The module-level declaration the rule (and the runtime) read.
MANIFEST_NAME = "IDENTITY_MANIFEST"

_ENTRY_KEYS = {"identity", "excluded"}


def _manifest_assignment(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == MANIFEST_NAME
            for target in node.targets
        ):
            return node
    return None


@register_rule
class IdentityManifestRule(Rule):
    """R2: spec dataclass fields match their identity manifest."""

    id = "identity-manifest"
    summary = (
        "every Scenario/TrackerSpec/AttackSpec/PointConfig field must "
        "be classified identity-or-excluded in its module's "
        "IDENTITY_MANIFEST"
    )

    def check(
        self, tree: ast.Module, source: str, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        assignment = _manifest_assignment(tree)
        manifest: dict[str, dict[str, list[str]]] = {}
        if assignment is not None:
            try:
                raw = ast.literal_eval(assignment.value)
            except ValueError:
                return [self.finding(
                    path, assignment,
                    f"{MANIFEST_NAME} must be a literal dict so it can "
                    "be read statically",
                )]
            manifest, findings = self._validated(raw, assignment, path)

        classes = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        }
        for name, entry in manifest.items():
            if name not in classes:
                findings.append(self.finding(
                    path, assignment,
                    f"{MANIFEST_NAME} names {name!r}, which is not a "
                    "class in this module",
                ))
        for name, node in classes.items():
            if not is_dataclass_def(node):
                continue
            if name in manifest:
                findings.extend(
                    self._compare(node, manifest[name], assignment, path)
                )
            elif name in TARGET_CLASSES:
                findings.append(self.finding(
                    path, node,
                    f"dataclass {name} feeds scenario identity but has "
                    f"no {MANIFEST_NAME} entry in this module; classify "
                    "each field as identity or excluded",
                ))
        return findings

    def _validated(
        self, raw: object, assignment: ast.Assign, path: str
    ) -> tuple[dict[str, dict[str, list[str]]], list[Finding]]:
        """Shape-check the literal manifest; malformed entries are
        findings and dropped from the comparison."""
        findings = []
        manifest: dict[str, dict[str, list[str]]] = {}
        if not isinstance(raw, dict):
            return {}, [self.finding(
                path, assignment,
                f"{MANIFEST_NAME} must map class names to "
                "{'identity': [...], 'excluded': [...]} entries",
            )]
        for key, entry in raw.items():
            well_formed = (
                isinstance(key, str)
                and isinstance(entry, dict)
                and set(entry) <= _ENTRY_KEYS
                and all(
                    isinstance(bucket, (list, tuple))
                    and all(isinstance(item, str) for item in bucket)
                    for bucket in entry.values()
                )
            )
            if not well_formed:
                findings.append(self.finding(
                    path, assignment,
                    f"{MANIFEST_NAME} entry for {key!r} is malformed; "
                    "expected {'identity': [names...], 'excluded': "
                    "[names...]}",
                ))
                continue
            manifest[key] = {
                bucket: list(entry.get(bucket, []))
                for bucket in _ENTRY_KEYS
            }
        return manifest, findings

    def _compare(
        self,
        node: ast.ClassDef,
        entry: dict[str, list[str]],
        assignment: ast.Assign | None,
        path: str,
    ) -> list[Finding]:
        findings = []
        fields = dataclass_field_names(node)
        identity = set(entry["identity"])
        excluded = set(entry["excluded"])
        overlap = identity & excluded
        if overlap:
            findings.append(self.finding(
                path, assignment or node,
                f"{node.name}: field(s) {sorted(overlap)} listed as "
                "both identity and excluded",
            ))
        missing = [f for f in fields if f not in identity | excluded]
        if missing:
            findings.append(self.finding(
                path, node,
                f"{node.name}: field(s) {missing} not classified in "
                f"{MANIFEST_NAME}; decide whether each joins the "
                "fingerprint (identity) or is a pinned-bit-identical "
                "implementation knob (excluded)",
            ))
        stale = sorted((identity | excluded) - set(fields))
        if stale:
            findings.append(self.finding(
                path, assignment or node,
                f"{node.name}: {MANIFEST_NAME} lists {stale}, which "
                "is/are not dataclass fields (stale entry?)",
            ))
        return findings
