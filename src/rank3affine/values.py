"""Immutable value records: the package's labels, cases and results.

A subclass names its fields in ``_fields`` and ``__slots__`` and is built
from them positionally or by name.  Values are equal only if they have the
same type and fields, hash as their fields' tuple, print as
``Name(field=value, ...)``, read as a dict by ``_asdict`` and refuse
assignment."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):]
                          if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__qualname__} takes fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        return (self._values() == other._values() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _frozen
