package sim

// DefaultMaxSteps is the step budget when a caller passes zero.
const DefaultMaxSteps = 200000

// Failure signatures produced by the runtime itself.
const (
	// SigDeadlock marks runs where every live thread is blocked.
	SigDeadlock = "deadlock"
	// SigHang marks runs that exhausted the step budget.
	SigHang = "hang"
)

// UncaughtSig builds the failure signature of an uncaught exception,
// the stack-trace-like metadata the paper's failure trackers use to
// group failures by root cause.
func UncaughtSig(kind string) string { return "unhandled:" + kind }
