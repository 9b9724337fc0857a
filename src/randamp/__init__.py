"""Randomness amplification from weak sources via a four-party Bell test.

Library layout: `boxes` (inequality and no-signaling geometry), `quantum`
(the algebraically violating realization), `sv` (adversarial weak sources),
`lp`/`simplex` (predictability certification), `definetti` (product-closeness
of exchangeable mixtures, summed over type classes), `devices` (i.i.d.
devices and mixtures of them under one hidden label), `protocol` (the
protocol's engines, its bounds and the output-bias audit), `cli`
(command-line front end).  Only what the CLI and the demos use lives here;
test fixtures and reference oracles, the per-trial protocol run among them,
live in the test suite.  The package
re-exports nothing: import each name from its module.
"""

__version__ = "0.1.0"
