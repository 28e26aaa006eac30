"""Staged pushout path spaces over finite span diagrams.

The library builds the based path family of a span's realized graph three
independent ways and checks them against each other: as reduced alternating
crossing words, as union-find quotients of staged pushouts, and as plain
non-backtracking graph walks. On top of the word model it runs the
identity-system elimination as a checked fold.

The API is the submodules (``spanpaths.words``, ``spanpaths.stages``, ...);
the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
