"""Numerical tolerances used across the package (single source of truth).

========================  =======  ====================================================
constant                  value    used for
========================  =======  ====================================================
EIGENVALUE_TOL            1e-10    eigensolver facts: lambda_0 = 0, range [0, 2],
                                   bipartite <=> largest eigenvalue = 2
TRANSFER_IDENTITY_TOL     1e-9     sorted spectrum of the walk graph vs 1 - (1-l)^t,
                                   the audit's pass mark (not settable from the CLI)
EIGENVALUE_EXCLUSION_TOL  1e-9     detecting eigenvalues with (1-l)^t = 1, which the
                                   per-component sandwich claim does not cover
RAYLEIGH_TOL              1e-8     rayleigh_ratio(g, u) vs 2 - l, u a l-eigenfunction
BOUND_SLACK               1e-8     float slack when checking bounds against eigenvalues
========================  =======  ====================================================
"""

EIGENVALUE_TOL = 1e-10
TRANSFER_IDENTITY_TOL = 1e-9
EIGENVALUE_EXCLUSION_TOL = 1e-9
RAYLEIGH_TOL = 1e-8
BOUND_SLACK = 1e-8
