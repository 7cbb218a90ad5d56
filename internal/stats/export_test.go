package stats

// The paper-dataset kernel test lives in the external test package,
// which can build the datasets (internal/trace imports this package);
// these hand it the oracle checks.
var (
	CheckKernelsAgainstOracle   = checkKernels
	CheckRatioGridAgainstOracle = checkRatioGridOracle
)
