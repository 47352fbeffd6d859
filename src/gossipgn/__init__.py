"""Gossip-based Gauss-Newton for distributed nonlinear least squares.

Simulates a network of agents that solve a shared NLLS problem by
gossiping local normal-equation payloads, applies the method to power
system state estimation on MATPOWER-style cases, and checks the
convergence certificates empirically. Import from the submodules
(``gossipgn.core``, ``gossipgn.ggn``, ``gossipgn.experiments``, ...).
"""

__version__ = "0.1.0"
