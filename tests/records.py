"""Every way to build a checked named-tuple record (GammaParams, SdSummary,
GridSpec), for tests that each way runs the record's checks."""

import pickle

# Each builds a cls holding values. _replace starts from template (a valid
# record; cls() by default); unpickle loads a record made without its checks,
# as bytes from elsewhere could hold.
_BUILDERS = {
    "call": lambda cls, values, template: cls(*values),
    "keywords": lambda cls, values, template: cls(**dict(zip(cls._fields, values))),
    "_make": lambda cls, values, template: cls._make(values),
    "_replace": lambda cls, values, template: (cls() if template is None else template)._replace(
        **dict(zip(cls._fields, values))),
    "unpickle": lambda cls, values, template: pickle.loads(pickle.dumps(tuple.__new__(cls, values))),
}
PATHS = tuple(_BUILDERS)


def build(cls, values, path, template=None):
    return _BUILDERS[path](cls, tuple(values), template)
