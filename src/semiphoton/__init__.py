"""Symbolic-numeric verification of the rolled-wave electron model.

The library carries the 4x4 anticommuting matrix algebra, the dictionary
between 4-component amplitudes and electromagnetic field vectors, the
toroidal ring-wave model with its quadratures, plane-wave solutions of the
amplitude system, and the Lagrangian and force evaluators, each checked
against independent numeric routes.

Import the submodules (``from semiphoton import torus``); the package
namespace holds only ``__version__``, so importing it loads no submodule.
"""
__version__ = "0.1.0"
