"""Generalization hierarchies over classes *and* associations.

The paper's key move for vague data (section "Vague data") is extending
generalization — well known for object classes since Smith & Smith —
to associations as well. Generalized categories give vague information
a well-defined home (``Thing``, ``Access``); as knowledge becomes more
precise, items are *moved down* the hierarchy to a specialization
(``Data``, then ``OutputData``; ``Access``, then ``Write``).

This module provides the linking primitives (kept out of the element
classes so that linking rules live in one place), hierarchy
validation, and the legality rules for re-classification used by
:mod:`repro.core.classify`.

A generalization may be *covering*: every instance of the general
element must eventually be specialized. Covering is completeness
information — it never blocks an update, it only shows up in
completeness reports.
"""

from __future__ import annotations

from repro.core.errors import ClassificationError, SchemaError
from repro.core.schema.association import Association
from repro.core.schema.element import SchemaElement, schema_changed
from repro.core.schema.entity_class import EntityClass

__all__ = [
    "specialize",
    "set_covering",
    "check_reclassification",
    "validate_hierarchy",
]


def specialize(general: SchemaElement, special: SchemaElement) -> None:
    """Link *special* as a specialization of *general*.

    Rules enforced here:

    * both elements must be of the same kind (class↔class or
      association↔association);
    * an element has at most one general (hierarchies are trees, as in
      all of the paper's figures);
    * no cycles;
    * classes: only independent classes participate (dependent classes
      belong structurally to their parent object class);
    * associations: roles must correspond positionally — each special
      role's target class must be within the family of the general
      role's target class. Role *names* and *cardinalities* may differ
      (figure 3: ``Access by`` is ``1..*`` while ``Read by`` is
      ``0..*``).
    """
    if type(general) is not type(special):
        raise SchemaError(
            f"cannot specialize {general.kind} {general.name!r} "
            f"by {special.kind} {special.name!r}: kinds differ"
        )
    if special.general is not None:
        raise SchemaError(
            f"{special.kind} {special.name!r} already specializes "
            f"{special.general.name!r}"
        )
    if general is special or general.is_kind_of(special):
        raise SchemaError(
            f"specializing {general.name!r} by {special.name!r} "
            "would create a generalization cycle"
        )
    if isinstance(general, EntityClass):
        _check_class_specialization(general, special)  # type: ignore[arg-type]
    elif isinstance(general, Association):
        _check_association_specialization(general, special)  # type: ignore[arg-type]
    special.general = general
    general.specials.append(special)
    schema_changed()


def _check_class_specialization(general: EntityClass, special: EntityClass) -> None:
    if general.is_dependent or special.is_dependent:
        raise SchemaError(
            "generalization is defined between independent classes; "
            f"got {general.full_name!r} / {special.full_name!r}"
        )
    if general.has_value or special.has_value:
        # Value-typed leaves (STRING etc.) are terminal categories; the
        # paper never generalizes them and allowing it would make value
        # sorts ambiguous along the chain.
        raise SchemaError(
            "value-typed classes cannot participate in generalization "
            f"({general.name!r} / {special.name!r})"
        )


def _check_association_specialization(general: Association, special: Association) -> None:
    for position in (0, 1):
        general_role = general.role_at(position)
        special_role = special.role_at(position)
        if not special_role.target.is_kind_of(general_role.target):
            raise SchemaError(
                f"association {special.name!r} role {special_role.name!r} "
                f"targets {special_role.target.name!r}, which is not a "
                f"specialization of {general.name!r}'s role "
                f"{general_role.name!r} target ({general_role.target.name!r})"
            )


def set_covering(general: SchemaElement) -> None:
    """Declare the generalization rooted at *general* as covering.

    Covering means every instance of *general* must finally be
    specialized into one of its specializations (completeness
    information, paper section "Incomplete data").
    """
    if not general.specials:
        raise SchemaError(
            f"{general.kind} {general.name!r} has no specializations; "
            "a covering condition would be unsatisfiable"
        )
    general.covering = True
    schema_changed()


def check_reclassification(
    current: SchemaElement, new: SchemaElement, *, allow_generalize: bool = False
) -> None:
    """Validate moving an item from *current* to *new* in the hierarchy.

    The paper's refinement story moves items **down** ("they are moved
    down in the generalization hierarchy to one of the specializations"),
    so by default only specializing moves are legal. With
    ``allow_generalize=True`` upward moves (retracting precision, e.g.
    to undo a premature classification) and sideways moves within the
    family are accepted as well.

    Raises :class:`ClassificationError` on illegal moves.
    """
    if current is new:
        raise ClassificationError(
            f"item is already classified as {current.kind} {current.name!r}"
        )
    if type(current) is not type(new):
        raise ClassificationError(
            f"cannot reclassify a {current.kind} item as a {new.kind}"
        )
    if new.is_kind_of(current):
        return  # downward: always legal
    if not allow_generalize:
        raise ClassificationError(
            f"re-classification must specialize: {new.name!r} is not a "
            f"specialization of {current.name!r} "
            "(pass allow_generalize=True for upward/sideways moves)"
        )
    if current.family_root() is not new.family_root():
        raise ClassificationError(
            f"{new.name!r} is outside the generalization family of "
            f"{current.name!r}; re-classification cannot leave the family"
        )


def validate_hierarchy(elements: list[SchemaElement]) -> list[str]:
    """Check link symmetry and acyclicity over *elements*.

    Returns a list of problem descriptions (empty when sound). Used by
    :meth:`repro.core.schema.schema.Schema.validate`.
    """
    problems: list[str] = []
    element_ids = {id(el) for el in elements}
    for element in elements:
        if element.general is not None:
            if id(element.general) not in element_ids:
                problems.append(
                    f"{element.kind} {element.name!r} specializes "
                    f"{element.general.name!r}, which is not in the schema"
                )
            elif not any(el is element for el in element.general.specials):
                problems.append(
                    f"asymmetric link: {element.name!r} -> "
                    f"{element.general.name!r} lacks the back link"
                )
        for special in element.specials:
            if special.general is not element:
                problems.append(
                    f"asymmetric link: {element.name!r} lists special "
                    f"{special.name!r} whose general is different"
                )
        if element.covering and not element.specials:
            problems.append(
                f"{element.kind} {element.name!r} is covering but has "
                "no specializations"
            )
        try:
            list(element.kind_chain())
        except SchemaError as exc:
            problems.append(str(exc))
    return problems
