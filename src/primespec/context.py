"""The variable layout (T | Y) that every polynomial lives over.

A context holds two ordered name tuples: the specialization parameters
T (``param_names``) and the ambient variables Y (``var_names``).
Monomials are exponent tuples indexed by the flattened list T then Y, so
the layout is fixed at creation and every polynomial over a context
stores exponent tuples of the same length.  Contexts are immutable;
dropping the parameters or restricting to a subset of variables
produces a new context, and polynomials are re-embedded by exponent
padding/projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatchError


@dataclass(frozen=True)
class VariableContext:
    param_names: tuple[str, ...]
    var_names: tuple[str, ...]

    def __post_init__(self):
        names = self.param_names + self.var_names
        if not names:
            raise ContextMismatchError("a context needs at least one variable")
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate variable name {duplicate!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "index", {n: i for i, n in enumerate(names)})
        # None -> ``without_params()``, stem -> ``apart(stem)`` and a tuple of
        # names -> ``without(names)``, each built once
        object.__setattr__(self, "_derived", {})

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.index

    @property
    def r(self) -> int:
        return len(self.param_names)

    @property
    def s(self) -> int:
        return len(self.var_names)

    def indices_of(self, names) -> tuple[int, ...]:
        return tuple(self.index[n] for n in names)

    def keep(self, names) -> VariableContext:
        """New context restricted to ``names``; each keeps its role and position."""
        keep = set(names)
        missing = keep - set(self.names)
        if missing:
            raise ContextMismatchError(f"variables not in context: {sorted(missing)}")
        return VariableContext(tuple(n for n in self.param_names if n in keep),
                               tuple(n for n in self.var_names if n in keep))

    def without_params(self) -> VariableContext:
        """The ambient context (Y) that specializing the parameters lands in.

        Built once and kept on this context: the scalar fibers of one ideal
        share it, and with it the contexts kept on it (``apart``).
        """
        if None not in self._derived:
            self._derived[None] = VariableContext((), self.var_names)
        return self._derived[None]

    def apart(self, stem: str) -> VariableContext:
        """The context of one variable, ``stem`` plus underscores until it is none of these names.

        Built once per stem and kept on this context.
        """
        if stem not in self._derived:
            name = stem
            while name in self.index:
                name += "_"
            self._derived[stem] = VariableContext((), (name,))
        return self._derived[stem]

    def without(self, names: tuple[str, ...]) -> VariableContext:
        """The context of the other names, in their order, all of them variables.

        Built once per tuple ``names`` and kept on this context: the fibers
        of one root in positive dimension share it as the context V of the
        variables that a point u does not fix.
        """
        if names not in self._derived:
            self._derived[names] = VariableContext((), tuple(n for n in self.names
                                                            if n not in names))
        return self._derived[names]


def context(variables, params=()) -> VariableContext:
    """The context (params | variables), from any two sequences of names."""
    return VariableContext(tuple(params), tuple(variables))
