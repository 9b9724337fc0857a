"""Randomness amplification from weak sources via a four-party Bell test.

Library layout: `boxes` (inequality and no-signaling geometry), `quantum`
(the algebraically violating realization), `sv` (adversarial weak sources),
`lp`/`simplex` (predictability certification), `definetti` (product-closeness
of exchangeable mixtures, summed over type classes), `devices` (i.i.d. and
mixture devices; any custom `TimeOrderedDevice` runs on the general engine),
`protocol` (the protocol itself, its bounds and the output-bias audit), `cli`
(command-line front end).  Only what the CLI and the demos use lives here;
test fixtures and reference oracles live in the test suite.  The package
re-exports nothing: import each name from its module.
"""

__version__ = "0.1.0"
