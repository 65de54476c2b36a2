"""Published threshold columns the benchmark checks its outputs against.

Source: the comparison tables of the source paper (lifted sectional, strong
and nonnegative strong bounds, and the direct sectional bound), to the 4-5
significant digits printed there.  The same columns are the expected values
of the repository's acceptance suite; they are copied here so the benchmark
does not import test code.  Keys are the table aspect ratios alpha = m/n.
"""

TOL_BETA = 5e-4        # published values carry 4-5 significant digits
BISECT_SLACK = 2e-5    # two bisection widths at the default tol_beta
PARITY_TOL = 1e-6      # closed form vs quadrature oracle, relative

SECTIONAL_DIRECT = {
    0.01: 0.00069, 0.05: 0.00471, 0.1: 0.0112, 0.2: 0.0276, 0.3: 0.0481,
    0.4: 0.0728, 0.5: 0.1022, 0.6: 0.1373, 0.7: 0.1800, 0.8: 0.2337,
    0.9: 0.3079, 0.95: 0.3626, 0.99: 0.4378, 0.999: 0.4802, 0.9999: 0.4937,
}

LIFTED = {
    "sectional": {
        0.01: 0.00070, 0.05: 0.00483, 0.1: 0.0115, 0.2: 0.0283, 0.3: 0.0491,
        0.4: 0.0744, 0.5: 0.1045, 0.6: 0.1401, 0.7: 0.1832, 0.8: 0.2373,
        0.9: 0.3113, 0.95: 0.3654, 0.99: 0.4394, 0.999: 0.4807, 0.9999: 0.4937,
    },
    "strong": {
        0.01: 0.00030, 0.05: 0.00206, 0.1: 0.00492, 0.2: 0.01225, 0.3: 0.02154,
        0.4: 0.03285, 0.5: 0.04645, 0.6: 0.06287, 0.7: 0.08298, 0.8: 0.1085,
        0.9: 0.1443, 0.95: 0.1710, 0.99: 0.2080, 0.999: 0.2291, 0.9999: 0.2359,
    },
    "strong_nonneg": {
        0.01: 0.00033, 0.05: 0.0024, 0.1: 0.0060, 0.2: 0.0158, 0.3: 0.0291,
        0.4: 0.0461, 0.5: 0.0680, 0.6: 0.0959, 0.7: 0.1323, 0.8: 0.1820,
        0.9: 0.2577, 0.95: 0.3188, 0.99: 0.4113, 0.999: 0.4694, 0.9999: 0.4895,
    },
}
