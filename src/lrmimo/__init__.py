"""Lattice-reduction-aided MIMO detection toolkit.

Modules: matcore (matrix kernels), reduction (LLL variants), mimo
(constellation/channel/noise), detect (ZF, LR-aided ZF, sphere-decoding
ML), flops (cost model), simharness (Monte Carlo driver), cli (command
line).  Import each name from its module.
"""

__version__ = "0.1.0"
