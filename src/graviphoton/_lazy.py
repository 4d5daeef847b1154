"""Stand-in for numpy in the ``np`` global of a module, until its first use.

Importing numpy costs more than the rest of a Gaussian CLI run, whose
results are closed forms in ``math``.  A module that needs numpy binds
``np = NumpyOnFirstUse(globals())``; the first attribute read imports numpy
and rebinds that ``np`` to it, so every later lookup reaches numpy itself.
"""


class NumpyOnFirstUse:
    __slots__ = ("_namespace",)

    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
