"""The base of the package's validated records.

`Partition`, `StandardTableau` and the CLI's `RunConfig` are named
tuples that validate in `__new__`.  A named tuple's `_make` builds
through `tuple.__new__`, which would skip that validation, so these records
take `_make` from `Validated`, which builds through the constructor.  The
named tuple's own `_replace` calls `self._make`, so it validates too.
"""


class Validated:
    """Mixin, listed before the named-tuple base: `_make` builds through
    `__new__`, so it and `_replace` raise what the constructor raises."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
