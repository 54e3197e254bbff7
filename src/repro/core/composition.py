"""Property propagation under composition.

The paper's warning: "It may not be sufficient to combine two sound
components or two explainable components to ensure the result of their
integration is still sound and explainable."  The calculus here makes
that checkable:

* a property holds **after stage i** iff the stage *provides* it, or the
  property held after stage i-1 and the stage *propagates* it;
* a stage whose *requires* set is not satisfied by the properties holding
  at its input invalidates the composition outright.

So two explainable components do *not* compose to an explainable pipeline
unless every stage in between propagates explainability — exactly the
failure mode of putting a free-text summariser after a provenance-
tracking engine, which experiment E10 demonstrates both formally (here)
and empirically (by observing the lost lineage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import Component, Property
from repro.errors import CompositionError


@dataclass
class CompositionVerdict:
    """The derived property set of a pipeline, with the audit trail."""

    properties: frozenset[Property]
    #: property -> stage name where it was lost (absent = never held/lost).
    lost_at: dict[Property, str] = field(default_factory=dict)
    #: property -> stage name where it was established.
    established_at: dict[Property, str] = field(default_factory=dict)

    def holds(self, prop: Property) -> bool:
        """Whether the pipeline as a whole has ``prop``."""
        return prop in self.properties

    def explain(self, prop: Property) -> str:
        """Why the pipeline does or does not have ``prop``."""
        if prop in self.properties:
            origin = self.established_at.get(prop, "the input")
            return f"{prop.value} holds (established by {origin})"
        if prop in self.lost_at:
            return f"{prop.value} was lost at stage {self.lost_at[prop]!r}"
        return f"{prop.value} was never established by any stage"


def compose_properties(
    pipeline: list[Component],
    input_properties: frozenset[Property] | None = None,
) -> CompositionVerdict:
    """Derive the property set of ``pipeline`` from its certificates.

    Raises :class:`~repro.errors.CompositionError` when a stage's
    ``requires`` set is not met at its input — the composition is not
    merely weak, it is *invalid* (the stage cannot do its job).
    """
    if not pipeline:
        raise CompositionError("cannot compose an empty pipeline")
    current: set[Property] = set(input_properties or frozenset())
    lost_at: dict[Property, str] = {}
    established_at: dict[Property, str] = {}
    for stage in pipeline:
        missing = stage.requires - current
        if missing:
            raise CompositionError(
                f"stage {stage.name!r} requires "
                f"{sorted(p.value for p in missing)} which the pipeline "
                "does not carry at that point",
                missing_properties=sorted(p.value for p in missing),
            )
        next_properties: set[Property] = set()
        for prop in Property:
            if prop in stage.provides:
                next_properties.add(prop)
                established_at.setdefault(prop, stage.name)
            elif prop in current and prop in stage.propagates:
                next_properties.add(prop)
            elif prop in current:
                lost_at.setdefault(prop, stage.name)
        current = next_properties
    return CompositionVerdict(
        properties=frozenset(current),
        lost_at=lost_at,
        established_at=established_at,
    )
