"""Imports cdconf before anything loads NumPy, as the ``cdconf`` command
does, so OpenBLAS runs one thread a call in every test and the worker
threads that tests ask for run (``cdconf.pool._workers``)."""

import cdconf  # noqa: F401
