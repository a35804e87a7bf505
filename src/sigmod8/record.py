"""Record, the base of the immutable value classes: what a frozen dataclass
gives, with no code generated at import.  A subclass names its fields once,
as annotations in order ("_" names are derived data, not fields), and a
value in the class body is a default.  Instances keep a __dict__.
"""
from operator import attrgetter

_setattr = object.__setattr__


class Record:
    _fields = ()

    def __init_subclass__(cls):
        # from Python 3.10 a class's __annotations__ holds its own names only
        names = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        if names:
            cls._fields, cls._key = names, attrgetter(*names)
            cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bind keywords and defaults
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes each of {', '.join(fields)} once")
            args = [values[name] for name in fields]
        i = 0  # object.__setattr__ keeps values inline; __dict__.update would not
        for name in fields:
            _setattr(self, name, args[i])
            i += 1
        self._validate()

    @classmethod
    def _trusted(cls, *args):
        """An instance of fields the caller built valid, without `_validate`."""
        obj = object.__new__(cls)
        i = 0
        for name in cls._fields:
            _setattr(obj, name, args[i])
            i += 1
        return obj

    def _validate(self):
        """Check the fields; may store normalised ones with object.__setattr__."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
