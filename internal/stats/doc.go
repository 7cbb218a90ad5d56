// Package stats provides the statistical substrate for the gridstrat
// library: the empirical cumulative distribution function with exact
// step-function integrals (and the quantile sketch the serving layer
// demotes it to), parametric probability distributions (lognormal,
// Weibull, Pareto, gamma, exponential, uniform, shifted and truncated
// laws), maximum-likelihood fitting, the Kolmogorov–Smirnov
// goodness-of-fit test, sample summary statistics, the Mann–Kendall
// trend test, adaptive quadrature and the special functions they
// require.
//
// The package exists because the paper reproduced by this repository
// ("Modeling User Submission Strategies on Production Grids", HPDC'09)
// is built entirely on functionals of the cumulative latency histogram
// F̃R(t) = (1-ρ)·FR(t). Everything here is implemented from scratch on
// top of the Go standard library, closing the "sparse statistics
// libraries; manual distribution fitting" reproduction gap.
//
// Conventions: all distributions are over non-negative reals (latencies
// in seconds) unless documented otherwise; random sampling always takes
// an explicit *rand.Rand so that callers control determinism.
package stats
