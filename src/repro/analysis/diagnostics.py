"""Typed diagnostics shared by every static check in :mod:`repro.analysis`.

Every finding the verifiers and lints produce is a :class:`Diagnostic`: a
stable error code (``RPA101`` ...), a severity, a human-readable message and
a location (source file/line for lints, layer/tile/instruction coordinates
for program and plan findings).  :class:`VerificationReport` collects the
diagnostics of one verification subject and converts them into an
:class:`~repro.errors.AnalysisError` when a caller asked to fail hard
(the ``verify=True`` hooks, ``repro check --strict``).

The code table is the public contract - tests assert codes, CI greps them,
and the README documents them - so codes are append-only: never renumber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AnalysisError

#: Severity levels, in escalation order.
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

#: The stable error-code table (append-only; documented in the README).
CODES: Dict[str, str] = {
    # Program verifier (RPA1xx): one APProgram against the CAM geometry.
    "RPA101": "column index outside the CAM column range",
    "RPA102": "operand domains exceed the nanowire domain capacity",
    "RPA103": "instruction violates its opcode's operand contract",
    "RPA104": "carry column collides with an operand column",
    "RPA105": "LUT is not total: an input combination is uncovered or wrong",
    "RPA106": "LUT entries overlap: duplicate search pattern",
    "RPA107": "cost-model accounting inconsistent with the LUT pass structure",
    # Plan verifier (RPA2xx): one ExecutionPlan against an accelerator.
    "RPA201": "AP address outside the accelerator hierarchy",
    "RPA202": "resident layers' AP groups overlap",
    "RPA203": "per-AP task graph contains a cycle",
    "RPA204": "work item unreachable from the dependency sources",
    "RPA205": "resident AP usage inconsistent with resident_aps_required",
    "RPA206": "tile row count exceeds the CAM row capacity",
    "RPA207": "plan needs more CAM columns than the architecture provides",
    "RPA208": "duplicate or inconsistent tile coordinates within a plan",
    "RPA209": "tile programs of differing row geometry share a resident AP",
    # Concurrency lint (RPA3xx): source-level discipline of the runtime.
    "RPA301": "ledger state mutated outside the ledger lock",
    "RPA302": "submitted work without a drain/close on a cleanup path",
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding with a stable code and a location.

    Attributes:
        code: stable identifier from :data:`CODES` (e.g. ``"RPA101"``).
        message: human-readable description of this specific finding.
        severity: :data:`SEVERITY_ERROR` (default) or :data:`SEVERITY_WARNING`.
        file: source file of lint findings.
        line: 1-based source line of lint findings.
        layer: layer name for plan/program findings.
        tile: ``(layer_index, row_tile, channel_group)`` coordinates.
        instruction: 0-based instruction index inside the offending program.
    """

    code: str
    message: str
    severity: str = SEVERITY_ERROR
    file: Optional[str] = None
    line: Optional[int] = None
    layer: Optional[str] = None
    tile: Optional[Tuple[int, int, int]] = None
    instruction: Optional[int] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        """Human-readable location prefix (empty when nothing is known)."""
        parts: List[str] = []
        if self.file is not None:
            parts.append(self.file if self.line is None else f"{self.file}:{self.line}")
        if self.layer is not None:
            parts.append(f"layer {self.layer!r}")
        if self.tile is not None:
            parts.append(f"tile {self.tile}")
        if self.instruction is not None:
            parts.append(f"instruction {self.instruction}")
        return ", ".join(parts)

    def __str__(self) -> str:
        location = self.location
        prefix = f"{self.code} [{self.severity}]"
        if location:
            return f"{prefix} {location}: {self.message}"
        return f"{prefix}: {self.message}"


@dataclass
class VerificationReport:
    """Every diagnostic one verification subject produced.

    Attributes:
        subject: what was verified (plan name, program name, lint root).
        diagnostics: findings in discovery order.
    """

    subject: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: str = SEVERITY_ERROR,
        file: Optional[str] = None,
        line: Optional[int] = None,
        layer: Optional[str] = None,
        tile: Optional[Tuple[int, int, int]] = None,
        instruction: Optional[int] = None,
    ) -> Diagnostic:
        """Record one finding and return it."""
        diagnostic = Diagnostic(
            code=code,
            message=message,
            severity=severity,
            file=file,
            line=line,
            layer=layer,
            tile=tile,
            instruction=instruction,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append findings from another check."""
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings."""
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, sorted (test/CI convenience)."""
        return sorted({d.code for d in self.diagnostics})

    def describe(self) -> str:
        """One line per finding, or a clean-bill line."""
        if not self.diagnostics:
            return f"{self.subject}: verified clean"
        lines = [
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(str(d) for d in self.diagnostics)
        return "\n".join(lines)

    def raise_for_errors(self, strict: bool = False) -> None:
        """Raise :class:`~repro.errors.AnalysisError` on any error finding.

        With ``strict=True`` warnings escalate too, so a strict pass means
        the subject produced no diagnostics at all.
        """
        offending = list(self.diagnostics) if strict else self.errors
        if offending:
            raise AnalysisError(self.describe(), diagnostics=offending)
