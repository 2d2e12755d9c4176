"""Driver of the shape analysis pass (``repro lint --shapes``).

Builds a :class:`~repro.lint.dataflow.ProjectIndex` over the package
source (or an explicit file set), runs the symbolic shape/dtype rules
(``SHP001``–``SHP006``, :mod:`repro.lint.shape_rules`), applies waiver
pragmas and the committed baseline, and reports stale waivers (``LNT000``) and stale
baseline entries (``LNT001``).

The baseline machinery is shared bit-for-bit with the deep analyzer
(:mod:`repro.lint.deep`): the committed
:data:`DEFAULT_SHAPES_BASELINE` may only shrink, and it ships empty —
the shipped kernels carry no accepted shape findings, so any new one
fails ``--fail-on warning`` immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dataflow import ProjectIndex
from .deep import (_apply_baseline, _common_parent, _Emitter,
                   package_source_files, write_baseline)
from .report import LintReport
from .shape_rules import SHP_CHECKS, SHP_RULES

__all__ = ["DEFAULT_SHAPES_BASELINE", "SHAPE_RULES", "ShapeConfig",
           "lint_shapes", "write_baseline"]

#: Every shapes-analyzer rule: id -> (default severity, one-line doc).
SHAPE_RULES = SHP_RULES

#: Baseline shipped next to this module, applied by default when the
#: analysis root is the repro package itself. Committed empty.
DEFAULT_SHAPES_BASELINE = (Path(__file__).resolve().parent
                           / "shapes_baseline.json")

#: Prefix of rule IDs the shapes analyzer owns (stale-waiver scope).
_SHAPE_PREFIX = "SHP"


@dataclass(frozen=True)
class ShapeConfig:
    """Project-shape knobs of the shapes analyzer.

    The defaults encode this repository's layout; tests override them
    to point the rules at synthetic trees.
    """

    #: Module globs the symbolic shape interpreter analyzes (matched
    #: against relpath and basename; the bare entries cover single-file
    #: CLI invocations where the report root is the file's directory).
    shape_globs: tuple[str, ...] = ("gpu/*.py", "solvers/*.py",
                                    "batch_*.py")
    #: Module globs whose function parameters are seeded from the
    #: batched-kernel naming conventions (``states`` -> (B, S), ...).
    #: Everything else starts unknown — conservative by construction.
    seed_globs: tuple[str, ...] = ("gpu/*.py", "batch_*.py")


DEFAULT_CONFIG = ShapeConfig()


def lint_shapes(paths: list[str | Path] | None = None, *,
                root: Path | None = None,
                baseline_path: str | Path | None = None,
                config: ShapeConfig = DEFAULT_CONFIG) -> LintReport:
    """Run the shape analysis and return a
    :class:`~repro.lint.report.LintReport`.

    Parameters
    ----------
    paths:
        Files to analyze. Default: every module of the installed
        ``repro`` package.
    root:
        Directory findings are reported relative to. Default: the
        package directory (or the common parent of ``paths``).
    baseline_path:
        Baseline JSON to subtract. Defaults to the committed
        :data:`DEFAULT_SHAPES_BASELINE` when analyzing the package
        itself; pass an explicit path (or a missing one) to disable.
    config:
        Project-shape configuration for the rules.
    """
    analyzing_package = paths is None
    if analyzing_package:
        package_root = Path(__file__).resolve().parent.parent
        files = package_source_files(package_root)
        root = package_root if root is None else Path(root)
    else:
        files = [Path(p) for p in paths]
        if root is None:
            root = (files[0].parent if len(files) == 1
                    else Path(_common_parent(files)))
    index = ProjectIndex(files, root=root)
    report = LintReport(
        subject=f"shape analysis: {len(files)} file(s)",
        metadata={"files": [module.relpath for module in index.modules]})
    emit = _Emitter(report, severities=dict(SHAPE_RULES))
    for check in SHP_CHECKS.values():
        check(index, config, emit)
    # Stale SHP waivers surface as LNT000, after every rule has had
    # its chance to consume them.
    for module in index.modules:
        for lineno, rule in module.waivers.stale(
                lambda r: r.startswith(_SHAPE_PREFIX)):
            report.add("LNT000", "warning",
                       f"stale waiver: the {rule} pragma on line "
                       f"{lineno} suppresses nothing",
                       f"{module.relpath}:{lineno}",
                       "remove the pragma")
    report.metadata["waived"] = emit.waived
    if baseline_path is None and analyzing_package:
        baseline_path = DEFAULT_SHAPES_BASELINE
    if baseline_path is not None and Path(baseline_path).exists():
        _apply_baseline(report, Path(baseline_path))
    report.findings.sort(key=lambda f: (f.location, f.rule_id))
    return report
