"""Consolidated experiment report: every artefact in one text document.

Used by the CLI (``python -m repro report``) and handy for regression
diffing — the output is deterministic given a training database.
"""

from __future__ import annotations

from ..core.database import TrainingDatabase
from ..core.evaluation import check_lopo
from ..machines.configs import machine_by_name
from .figure1 import render_figure1, run_figure1
from .model_accuracy import compare_models, render_model_comparison
from .size_sensitivity import analyze_size_sensitivity, render_size_sensitivity
from .suite_table import render_suite_table

__all__ = ["check_database", "full_report"]


def check_database(db: TrainingDatabase) -> None:
    """Raise a ``ValueError`` naming the first problem :func:`full_report`
    would hit: a machine :func:`machine_by_name` does not know, or one
    whose records :func:`~repro.core.evaluation.check_lopo` rejects."""
    for name in db.machines():
        try:
            platform = machine_by_name(name)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        check_lopo(platform, db.for_machine(name))


def full_report(
    db: TrainingDatabase,
    model_kind: str = "mlp",
    model_comparison_kinds: tuple[str, ...] = ("mlp", "knn", "majority"),
) -> str:
    """Render E1–E5 for every machine present in the database."""
    sections: list[str] = [
        "REPRODUCTION REPORT",
        "===================",
        "",
        render_suite_table(),
    ]
    figure1_results = []
    for machine_name in db.machines():
        platform = machine_by_name(machine_name)
        figure1_results.append(
            run_figure1(
                platform, db=db.for_machine(machine_name), model_kind=model_kind
            )
        )
    sections.append(render_figure1(figure1_results))
    sections.append(render_size_sensitivity(analyze_size_sensitivity(db)))
    scores = []
    for machine_name in db.machines():
        platform = machine_by_name(machine_name)
        scores.extend(
            compare_models(
                platform, db.for_machine(machine_name), kinds=model_comparison_kinds
            )
        )
    sections.append(
        render_model_comparison(scores, "Model comparison (leave-one-program-out)")
    )
    return "\n\n".join(sections)
