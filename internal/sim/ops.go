// Package sim is a deterministic concurrency simulator: it runs small
// concurrent programs under a seeded scheduler and records execution
// traces (package trace).
//
// The paper evaluates AID on real applications (Npgsql, Kafka, Cosmos DB,
// and proprietary Microsoft services) whose nondeterministic thread
// scheduling causes intermittent failures. We cannot run those binaries,
// so sim provides the closest synthetic equivalent that exercises the
// same code paths: programs with threads, shared variables, arrays,
// locks, sleeps, exceptions, and random choices, scheduled one operation
// at a time by a seeded random scheduler. The same program run with
// different seeds interleaves differently and fails intermittently —
// exactly the behaviour AID debugs.
//
// Fault injection (the paper's intervention mechanism, Fig. 2) is a
// first-class runtime feature: a Plan alters method behaviour — global
// locks, delays, premature or altered returns, exception absorption,
// order enforcement — without touching the program, mirroring the
// LFI-style dynamic injector the paper uses.
package sim

import "fmt"

// Expr is a value source: an integer literal or a thread-local variable.
type Expr struct {
	IsVar bool
	Name  string
	Value int64
}

// Lit returns a literal expression.
func Lit(v int64) Expr { return Expr{Value: v} }

// V returns a local-variable expression.
func V(name string) Expr { return Expr{IsVar: true, Name: name} }

// String renders the expression for diagnostics.
func (e Expr) String() string {
	if e.IsVar {
		return e.Name
	}
	return fmt.Sprintf("%d", e.Value)
}

// CmpOp is a comparison operator for conditions.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// Cond is a binary comparison between two expressions.
type Cond struct {
	A  Expr
	Op CmpOp
	B  Expr
}

// ArithOp is an arithmetic operator for local computation.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// Op is one program operation. The interpreter executes one Op per
// scheduler step, so every Op boundary is a potential preemption point —
// the source of the simulated nondeterminism.
type Op interface {
	opName() string
}

// Assign sets a local variable from an expression.
type Assign struct {
	Dst string
	Src Expr
}

// Arith computes Dst = A (op) B over locals/literals.
type Arith struct {
	Dst string
	A   Expr
	Op  ArithOp
	B   Expr
}

// ReadGlobal loads a shared variable into a local (a traced read access).
type ReadGlobal struct {
	Var string
	Dst string
}

// WriteGlobal stores into a shared variable (a traced write access).
type WriteGlobal struct {
	Var string
	Src Expr
}

// ArrayRead loads Arr[Index] into Dst. Out-of-range indices throw
// ExcIndexOutOfRange. The access is traced against the array object.
type ArrayRead struct {
	Arr   string
	Index Expr
	Dst   string
}

// ArrayWrite stores Src into Arr[Index]; out of range throws.
type ArrayWrite struct {
	Arr   string
	Index Expr
	Src   Expr
}

// ArrayLen loads the current length of Arr into Dst (a traced read).
type ArrayLen struct {
	Arr string
	Dst string
}

// ArrayResize grows or shrinks Arr to the given length, preserving a
// prefix (a traced write).
type ArrayResize struct {
	Arr string
	Len Expr
}

// Lock acquires a named mutex, blocking until available. Acquiring a
// mutex already held by the same thread blocks forever (non-reentrant),
// surfacing as a deadlock.
type Lock struct{ Mu string }

// Unlock releases a named mutex; releasing a mutex not held by the
// thread throws ExcSync.
type Unlock struct{ Mu string }

// Sleep blocks the thread for Ticks scheduler ticks.
type Sleep struct{ Ticks Expr }

// WaitUntil blocks until the shared variable equals the value. It models
// condition-variable waits and event handles without spinning.
type WaitUntil struct {
	Var string
	Val Expr
}

// Call invokes a function; its return value lands in Dst ("" discards).
type Call struct {
	Fn  string
	Dst string
}

// Return completes the enclosing function with a value.
type Return struct{ Val Expr }

// ReturnVoid completes the enclosing function with no value.
type ReturnVoid struct{}

// Throw raises an exception of the given kind; it unwinds until a Try
// with a matching kind, or crashes the program if uncaught.
type Throw struct{ Kind string }

// Try runs Body; if an exception of kind CatchKind (or any kind when
// CatchKind is "*") reaches it, Handler runs instead of propagating.
type Try struct {
	Body      []Op
	CatchKind string
	Handler   []Op
}

// If branches on a condition over locals.
type If struct {
	Cond Cond
	Then []Op
	Else []Op
}

// While loops over Body while the condition over locals holds.
type While struct {
	Cond Cond
	Body []Op
}

// Spawn starts a new thread running Fn and stores its thread id in Dst
// ("" discards).
type Spawn struct {
	Fn  string
	Dst string
}

// Join blocks until the thread whose id is in the local Thread finishes.
type Join struct{ Thread Expr }

// Random stores a uniform value in [0, N) into Dst, drawn from the
// run's seeded source — the model of environmental nondeterminism
// (transient faults, random identifiers).
type Random struct {
	Dst string
	N   Expr
}

// ReadClock stores the current scheduler tick into Dst — the model of
// reading a wall clock (cache expiry checks, timeouts).
type ReadClock struct{ Dst string }

// Fail marks the execution as failed with the given signature and stops
// the run (an assertion/corruption failure rather than a crash).
type Fail struct{ Sig string }

// Nop consumes a scheduler step without effect (a preemption point).
type Nop struct{}

func (Assign) opName() string      { return "assign" }
func (Arith) opName() string       { return "arith" }
func (ReadGlobal) opName() string  { return "readGlobal" }
func (WriteGlobal) opName() string { return "writeGlobal" }
func (ArrayRead) opName() string   { return "arrayRead" }
func (ArrayWrite) opName() string  { return "arrayWrite" }
func (ArrayLen) opName() string    { return "arrayLen" }
func (ArrayResize) opName() string { return "arrayResize" }
func (Lock) opName() string        { return "lock" }
func (Unlock) opName() string      { return "unlock" }
func (Sleep) opName() string       { return "sleep" }
func (WaitUntil) opName() string   { return "waitUntil" }
func (Call) opName() string        { return "call" }
func (Return) opName() string      { return "return" }
func (ReturnVoid) opName() string  { return "returnVoid" }
func (Throw) opName() string       { return "throw" }
func (Try) opName() string         { return "try" }
func (If) opName() string          { return "if" }
func (While) opName() string       { return "while" }
func (Spawn) opName() string       { return "spawn" }
func (Join) opName() string        { return "join" }
func (Random) opName() string      { return "random" }
func (ReadClock) opName() string   { return "readClock" }
func (Fail) opName() string        { return "fail" }
func (Nop) opName() string         { return "nop" }

// Exception kinds thrown by the runtime itself.
const (
	// ExcIndexOutOfRange is thrown by array accesses beyond the bounds.
	ExcIndexOutOfRange = "IndexOutOfRange"
	// ExcSync is thrown by invalid synchronization (unlock without lock).
	ExcSync = "SyncError"
	// ExcObjectDisposed is thrown by workloads modeling use-after-free;
	// the runtime reserves the name so extractors can refer to it.
	ExcObjectDisposed = "ObjectDisposed"
)
