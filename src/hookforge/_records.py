"""The base of the package's validated records.

`Partition`, `StandardTableau`, `Involution` and the CLI's `RunConfig` are
named tuples that validate in `__new__`.  A named tuple's `_make` and
`_replace` build through `tuple.__new__`, which would skip that validation,
so these records take both from `Validated`, which builds through the
constructor.
"""


class Validated:
    """Mixin, listed before the named-tuple base: `_make` and `_replace`
    build through `__new__`, so they raise what the constructor raises."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})
