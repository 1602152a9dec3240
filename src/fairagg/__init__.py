"""Fairness-aware federated aggregation.

The server treats its per-round choice of client mixing coefficients as an
online convex optimization over the probability simplex: client losses become
bounded responses, responses define a negative-log-growth decision loss, and
two adaptive optimizers (a quadratic-surrogate method for the few-client
regime and a closed-form multiplicative method for the sampled-population
regime) drive the mixing weights.  A deterministic simulator, five classical
baselines, fairness metrics, and regret diagnostics round out the package.

Import each name from the module that defines it; README's "Library layout"
table lists the modules, and the package itself re-exports nothing.
"""

__version__ = "0.1.0"
