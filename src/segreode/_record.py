"""Immutable records: the package's value classes, built as named tuples."""

from collections import namedtuple


def record(cls):
    """``cls`` as a named tuple of its annotated fields, keeping its methods.

    Class-level values of the fields are their defaults, ``__post_init__``
    runs on every new record, and a record equals only a record of its
    own type with equal fields.
    """
    fields = list(cls.__dict__.get("__annotations__", ()))
    base = namedtuple(cls.__name__, fields,
                      defaults=[cls.__dict__[f] for f in fields if f in cls.__dict__])
    body = {k: v for k, v in cls.__dict__.items()
            if k not in fields and k not in ("__dict__", "__weakref__")}
    body.update(__eq__=lambda a, b: type(a) is type(b) and tuple.__eq__(a, b),
                __ne__=lambda a, b: not a == b, __hash__=tuple.__hash__)
    if "__post_init__" in body:
        def __new__(klass, *args, **kwargs):
            self = base.__new__(klass, *args, **kwargs)
            self.__post_init__()
            return self
        body["__new__"] = __new__
    return type(cls.__name__, (base,), body)
