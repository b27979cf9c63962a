"""One compiled scipy extension at a time, without its package's init.

`from scipy.linalg import _flapack` first runs the whole scipy.linalg
package init (about 25 MB and a third of a second), and likewise for
scipy.special and scipy.optimize, though carnotlab calls only a handful of
compiled routines from each.  `load_extension` loads the one extension
file by itself and registers it under its full dotted name, so a later
import of the package finds and reuses it; when the package is already
imported, its loaded copy is reused.  Either way it is the same file
making the same calls.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location


def load_extension(name: str):
    """The scipy extension module `name` (e.g. "scipy.linalg._flapack"), loaded once per process."""
    module = sys.modules.get(name)
    if module is None:
        import scipy

        package, _, leaf = name.rpartition(".")
        directory = os.path.join(scipy.__path__[0], *package.split(".")[1:])
        found = PathFinder.find_spec(leaf, [directory])
        if found is None:
            raise ImportError(f"{name} is missing from scipy {scipy.__version__}")
        spec = spec_from_file_location(name, found.origin)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
