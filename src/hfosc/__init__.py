"""Periodic solutions of linear systems with rapidly oscillating
coefficients whose averaged stationary matrix has a multiple zero
eigenvalue: asymptotic expansion, growth bounds, series-based stability
classification, and an independent period-map reference solver.

Each name is imported from its module (``from hfosc.expansion import
expand``); importing the package itself loads none of them."""

__version__ = "0.1.0"
