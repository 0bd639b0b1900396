package sim

import (
	"fmt"
	"slices"
	"sort"

	"aid/internal/trace"
)

// This file is the compilation half of the replay engine: it flattens a
// Program's op trees into a contiguous instruction array with
// pre-resolved integer slots for locals, globals, arrays, mutexes and
// exception kinds, and lowers structured control flow (If/While/Try,
// calls) to jump targets. Compilation happens once per Program (cached
// on the Program) and once per injection plan (Prepare); the thousands
// of replays that follow run on the slot-indexed machine (machine.go)
// without any string hashing or per-step tree walking.
//
// The compiled form is step-exact with the tree-walking interpreter
// (runtime.go): every interpreter scheduler step — including the
// "invisible" ones like block-frame pops, the two-step while-loop exit,
// and one-frame-per-step unwinding — maps to exactly one instruction
// execution. Step-exactness is what makes the traces byte-identical:
// timestamps are step counters and the scheduler's RNG draw sequence
// depends on the per-step runnable set.

type opcode uint8

const (
	// opNop consumes one step: Nop, and the interpreter's extra
	// while-exit step (re-checking the loop condition in the outer
	// frame after the loop frame popped).
	opNop opcode = iota
	opAssign
	opArith
	opReadGlobal
	opWriteGlobal
	opArrayRead
	opArrayWrite
	opArrayLen
	opArrayResize
	opLock
	opUnlock
	opSleep
	opWaitUntil
	opCall
	opReturn
	// opReturnVoid doubles as the implicit return emitted at the end of
	// every function body (the interpreter's frameEnd on a call frame is
	// one step that enters return mode with a void value — identical).
	opReturnVoid
	opThrow
	// opTryEnter pushes a try record (catch kind + handler target).
	opTryEnter
	// opIf evaluates the condition: true pushes a block record and falls
	// through to the then-branch; false jumps to the else-branch (b,
	// pushing a block record) or straight to the continuation (c) when
	// there is no else.
	opIf
	// opEndBlock pops the innermost control record and jumps to the
	// continuation — the interpreter's one-step block/try frame pop.
	opEndBlock
	// opWhileEnter evaluates the condition: true pushes a while record
	// and falls through to the body; false jumps past the loop.
	opWhileEnter
	// opWhileCheck re-evaluates at body end: true jumps back to the body
	// start, false pops the while record (one step) and falls through to
	// the opNop exit pad (the second step of the interpreter's exit).
	opWhileCheck
	opSpawn
	opJoin
	opRandom
	opReadClock
	opFail
	// opPanic preserves the interpreter's behaviour on unknown op types:
	// the panic fires only if the instruction is actually executed.
	opPanic
)

// cexpr is a compiled Expr: a local slot when slot >= 0, else a literal.
type cexpr struct {
	slot int32
	lit  int64
}

func litExpr(v int64) cexpr { return cexpr{slot: -1, lit: v} }

// instr is one machine instruction. Field use varies by opcode:
// a is a destination local slot (-1 none), b is a symbol slot, jump
// target, function index or string index, c is a secondary jump target
// or catch-kind index, aux packs the Arith/Cmp operator. The three ops
// an injection prologue is made of (opWaitUntil, opLock, opSleep) keep
// the pc they continue at in c: the next instruction in compiled code,
// the next prologue step or the method's body in a plan's stubs.
type instr struct {
	op   opcode
	aux  uint8
	a    int32
	b    int32
	c    int32
	x, y cexpr
}

// catchAny is the catch-kind index of a "*" handler.
const catchAny int32 = -2

// cfunc is one compiled function: its name and the pc of its body's
// first instruction in the program's instruction array.
type cfunc struct {
	name  string
	entry int32
}

// compiled is the per-Program compilation artifact, built once and
// shared read-only by every subsequent run.
type compiled struct {
	name    string
	code    []instr
	funcs   []cfunc
	fnIdx   map[string]int32
	entryFn int32

	nLocals     int
	localIdx    map[string]int32
	globalNames []string
	globalIdx   map[string]int32
	globalInit  []int64
	arrayNames  []string
	arrayIdx    map[string]int32
	arrayInit   [][]int64
	mutexNames  []string
	mutexIdx    map[string]int32
	strs        []string
	strIdx      map[string]int32
	// mutexRank is mutexRanks(mutexNames), shared by every Prepared
	// whose plan injects no new mutex; uncaughtSig[i] is
	// UncaughtSig(strs[i]) — both precomputed so the replay hot path
	// (one Prepare per plan, one signature per failing run) allocates
	// neither.
	mutexRank   []int32
	uncaughtSig []string

	// Fixed indices of the runtime-thrown exception kinds.
	kindDiv0, kindOOB, kindSync int32

	// objects names the machine's access-log object ids: the globals'
	// slots, then each array's slot offset by len(globalNames).
	objects []trace.ObjectID

	// base is the nil-plan Prepared, built eagerly so uninstrumented
	// runs (trace collection) have zero per-run preparation cost.
	base *Prepared
}

// ensureCompiled returns the cached compilation, validating and
// compiling on first use. Programs must not be mutated after their
// first run; the compiled form would go stale silently.
func (p *Program) ensureCompiled() (*compiled, error) {
	if c := p.compiled.Load(); c != nil {
		return c, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := compileProgram(p)
	// A concurrent first run may race here; both artifacts are
	// identical, so the last store winning is harmless.
	p.compiled.Store(c)
	return c, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func compileProgram(p *Program) *compiled {
	c := &compiled{
		name:      p.Name,
		fnIdx:     make(map[string]int32, len(p.Funcs)),
		localIdx:  make(map[string]int32),
		globalIdx: make(map[string]int32),
		arrayIdx:  make(map[string]int32),
		mutexIdx:  make(map[string]int32),
		strIdx:    make(map[string]int32),
	}
	// Declared shared state first, in sorted order, so slot assignment
	// is deterministic; op-referenced names intern on first encounter.
	for _, k := range sortedKeys(p.Globals) {
		c.global(k)
		c.globalInit[c.globalIdx[k]] = p.Globals[k]
	}
	for _, k := range sortedKeys(p.Arrays) {
		c.array(k)
		c.arrayInit[c.arrayIdx[k]] = p.Arrays[k]
	}
	c.kindDiv0 = c.str("DivideByZero")
	c.kindOOB = c.str(ExcIndexOutOfRange)
	c.kindSync = c.str(ExcSync)

	names := p.FuncNames()
	for i, n := range names {
		c.fnIdx[n] = int32(i)
	}
	c.funcs = make([]cfunc, len(names))
	for i, n := range names {
		entry := int32(len(c.code))
		c.emitOps(p.Funcs[n].Body)
		c.emit(instr{op: opReturnVoid})
		c.funcs[i] = cfunc{name: n, entry: entry}
	}
	c.entryFn = c.fnIdx[p.Entry]
	c.mutexRank = mutexRanks(c.mutexNames)
	c.objects = make([]trace.ObjectID, 0, len(c.globalNames)+len(c.arrayNames))
	for _, n := range c.globalNames {
		c.objects = append(c.objects, trace.ObjectID(n))
	}
	for _, n := range c.arrayNames {
		c.objects = append(c.objects, trace.ObjectID(n))
	}
	c.uncaughtSig = make([]string, len(c.strs))
	for i, s := range c.strs {
		c.uncaughtSig[i] = UncaughtSig(s)
	}
	c.base = newBasePrepared(p, c)
	return c
}

func (c *compiled) local(name string) int32 {
	if i, ok := c.localIdx[name]; ok {
		return i
	}
	i := int32(c.nLocals)
	c.localIdx[name] = i
	c.nLocals++
	return i
}

// localOpt interns a destination local, with "" meaning "discard".
func (c *compiled) localOpt(name string) int32 {
	if name == "" {
		return -1
	}
	return c.local(name)
}

func (c *compiled) global(name string) int32 {
	if i, ok := c.globalIdx[name]; ok {
		return i
	}
	i := int32(len(c.globalNames))
	c.globalIdx[name] = i
	c.globalNames = append(c.globalNames, name)
	c.globalInit = append(c.globalInit, 0)
	return i
}

func (c *compiled) array(name string) int32 {
	if i, ok := c.arrayIdx[name]; ok {
		return i
	}
	i := int32(len(c.arrayNames))
	c.arrayIdx[name] = i
	c.arrayNames = append(c.arrayNames, name)
	c.arrayInit = append(c.arrayInit, nil)
	return i
}

func (c *compiled) mutex(name string) int32 {
	if i, ok := c.mutexIdx[name]; ok {
		return i
	}
	i := int32(len(c.mutexNames))
	c.mutexIdx[name] = i
	c.mutexNames = append(c.mutexNames, name)
	return i
}

func (c *compiled) str(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.strs))
	c.strIdx[s] = i
	c.strs = append(c.strs, s)
	return i
}

func (c *compiled) catchKind(kind string) int32 {
	if kind == "*" {
		return catchAny
	}
	return c.str(kind)
}

func (c *compiled) expr(e Expr) cexpr {
	if e.IsVar {
		return cexpr{slot: c.local(e.Name)}
	}
	return litExpr(e.Value)
}

// next is the pc after the instruction about to be emitted.
func (c *compiled) next() int32 { return int32(len(c.code)) + 1 }

func (c *compiled) emit(in instr) int32 {
	c.code = append(c.code, in)
	return int32(len(c.code) - 1)
}

func (c *compiled) emitOps(ops []Op) {
	for _, op := range ops {
		c.emitOp(op)
	}
}

func (c *compiled) emitOp(op Op) {
	switch o := op.(type) {
	case Assign:
		c.emit(instr{op: opAssign, a: c.local(o.Dst), x: c.expr(o.Src)})
	case Arith:
		c.emit(instr{op: opArith, aux: uint8(o.Op), a: c.local(o.Dst), x: c.expr(o.A), y: c.expr(o.B)})
	case ReadGlobal:
		c.emit(instr{op: opReadGlobal, a: c.local(o.Dst), b: c.global(o.Var)})
	case WriteGlobal:
		c.emit(instr{op: opWriteGlobal, b: c.global(o.Var), x: c.expr(o.Src)})
	case ArrayRead:
		c.emit(instr{op: opArrayRead, a: c.local(o.Dst), b: c.array(o.Arr), x: c.expr(o.Index)})
	case ArrayWrite:
		c.emit(instr{op: opArrayWrite, b: c.array(o.Arr), x: c.expr(o.Index), y: c.expr(o.Src)})
	case ArrayLen:
		c.emit(instr{op: opArrayLen, a: c.local(o.Dst), b: c.array(o.Arr)})
	case ArrayResize:
		c.emit(instr{op: opArrayResize, b: c.array(o.Arr), x: c.expr(o.Len)})
	case Lock:
		c.emit(instr{op: opLock, b: c.mutex(o.Mu), c: c.next()})
	case Unlock:
		c.emit(instr{op: opUnlock, b: c.mutex(o.Mu)})
	case Sleep:
		c.emit(instr{op: opSleep, c: c.next(), x: c.expr(o.Ticks)})
	case WaitUntil:
		c.emit(instr{op: opWaitUntil, b: c.global(o.Var), c: c.next(), x: c.expr(o.Val)})
	case Call:
		c.emit(instr{op: opCall, a: c.localOpt(o.Dst), b: c.fnIdx[o.Fn]})
	case Return:
		c.emit(instr{op: opReturn, x: c.expr(o.Val)})
	case ReturnVoid:
		c.emit(instr{op: opReturnVoid})
	case Throw:
		c.emit(instr{op: opThrow, b: c.str(o.Kind)})
	case Try:
		tp := c.emit(instr{op: opTryEnter, c: c.catchKind(o.CatchKind)})
		c.emitOps(o.Body)
		be := c.emit(instr{op: opEndBlock})
		handler := int32(len(c.code))
		c.emitOps(o.Handler)
		he := c.emit(instr{op: opEndBlock})
		cont := int32(len(c.code))
		c.code[tp].b = handler
		c.code[be].b = cont
		c.code[he].b = cont
	case If:
		ip := c.emit(instr{op: opIf, aux: uint8(o.Cond.Op), x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emitOps(o.Then)
		te := c.emit(instr{op: opEndBlock})
		elsePC, ee := int32(-1), int32(-1)
		if len(o.Else) > 0 {
			elsePC = int32(len(c.code))
			c.emitOps(o.Else)
			ee = c.emit(instr{op: opEndBlock})
		}
		cont := int32(len(c.code))
		c.code[ip].b = elsePC
		c.code[ip].c = cont
		c.code[te].b = cont
		if ee >= 0 {
			c.code[ee].b = cont
		}
	case While:
		wp := c.emit(instr{op: opWhileEnter, aux: uint8(o.Cond.Op), x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emitOps(o.Body)
		c.emit(instr{op: opWhileCheck, aux: uint8(o.Cond.Op), b: wp + 1, x: c.expr(o.Cond.A), y: c.expr(o.Cond.B)})
		c.emit(instr{op: opNop}) // the interpreter's loop-exit re-check step
		c.code[wp].b = int32(len(c.code))
	case Spawn:
		c.emit(instr{op: opSpawn, a: c.localOpt(o.Dst), b: c.fnIdx[o.Fn]})
	case Join:
		c.emit(instr{op: opJoin, x: c.expr(o.Thread)})
	case Random:
		c.emit(instr{op: opRandom, a: c.local(o.Dst), x: c.expr(o.N)})
	case ReadClock:
		c.emit(instr{op: opReadClock, a: c.local(o.Dst)})
	case Fail:
		c.emit(instr{op: opFail, b: c.str(o.Sig)})
	case Nop:
		c.emit(instr{op: opNop})
	default:
		// Defer the interpreter's "unknown op" panic to execution time,
		// so an unknown op on an untaken branch stays harmless.
		c.emit(instr{op: opPanic, b: c.str(fmt.Sprintf("sim: unknown op %T", op))})
	}
}

// slotVal is a pre-resolved injector signal: globals[slot] = val.
type slotVal struct {
	slot int32
	val  int64
}

// injMeta is the compiled end-of-call half of one method's injection.
type injMeta struct {
	override   *int64
	catchAll   bool
	catchValue int64
	endDelay   trace.Time
	signals    []slotVal
	release    []int32 // injector mutex slots, in sorted-name order
}

// fnPlan is how a Prepared enters one function: the entry pc (the body
// in the shared code, or the plan's stub) and the index of its
// injection metadata, -1 when the plan leaves it alone.
type fnPlan struct {
	entry int32
	inj   int32
}

// Prepared is a program compiled together with a fault-injection plan:
// the precompute-once handle for replay sweeps. Injection plans are
// applied as overlays: the compiled program's instructions are shared,
// and each injected method with an entry part gets a stub in a small
// per-plan segment addressed past the end of the shared code (waits,
// sorted lock acquisitions and a start delay, each continuing at the
// next, then a forced return or the method's own body), so individual
// replays pay nothing for instrumentation and preparing one allocates
// in proportion to the plan.
//
// A Prepared is immutable and safe for concurrent use; Run draws its
// mutable machine state from a pool.
type Prepared struct {
	prog *Program
	c    *compiled

	code  []instr  // the compiled program's, shared
	stubs []instr  // this plan's entry stubs, at pc len(code) onwards
	fns   []fnPlan // per function
	inj   []injMeta

	// nGlobals counts the program's globals and the plan's order flags;
	// the flags start at 0, past the program's initial values.
	nGlobals   int
	nMutexes   int
	mutexNames []string
	// mutexRank[slot] is the slot's rank in name-sorted order; held-lock
	// sets are kept rank-sorted so access locksets come out name-sorted
	// without per-access sorting.
	mutexRank []int32
}

// instrAt returns the instruction at pc, in the shared code or the
// stubs.
func (pp *Prepared) instrAt(pc int32) *instr {
	if int(pc) < len(pp.code) {
		return &pp.code[pc]
	}
	return &pp.stubs[int(pc)-len(pp.code)]
}

type slotsByName struct {
	idx   []int32
	names []string
}

func (s *slotsByName) Len() int           { return len(s.idx) }
func (s *slotsByName) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *slotsByName) Less(i, j int) bool { return s.names[s.idx[i]] < s.names[s.idx[j]] }

func mutexRanks(names []string) []int32 {
	idx := make([]int32, len(names))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Sort(&slotsByName{idx: idx, names: names})
	rank := make([]int32, len(names))
	for r, slot := range idx {
		rank[slot] = int32(r)
	}
	return rank
}

func newBasePrepared(p *Program, c *compiled) *Prepared {
	pp := &Prepared{
		prog:       p,
		c:          c,
		code:       c.code,
		fns:        make([]fnPlan, len(c.funcs)),
		nGlobals:   len(c.globalNames),
		nMutexes:   len(c.mutexNames),
		mutexNames: c.mutexNames,
		mutexRank:  c.mutexRank,
	}
	for i := range c.funcs {
		pp.fns[i] = fnPlan{entry: c.funcs[i].entry, inj: -1}
	}
	return pp
}

// planned is one injected method of a plan being prepared.
type planned struct {
	fi  int32
	inj MethodInjection
}

// stubLen is the number of stub instructions inj's entry part needs:
// one per wait, lock and start delay, plus a forced return.
func stubLen(inj *MethodInjection) int {
	n := len(inj.WaitBefore) + len(inj.GlobalLocks)
	if inj.DelayStart > 0 {
		n++
	}
	if inj.ForceReturn != nil || inj.ForceReturnVoid {
		n++
	}
	return n
}

// extSymbols holds the names a plan references that the compiled
// program does not define (order flags, injector locks), sorted and
// deduplicated: the i-th gets slot len(base)+i.
type extSymbols struct {
	base  map[string]int32
	n0    int32
	names []string
}

func (x *extSymbols) add(name string) {
	if _, ok := x.base[name]; !ok {
		x.names = append(x.names, name)
	}
}

func (x *extSymbols) seal() {
	slices.Sort(x.names)
	x.names = slices.Compact(x.names)
}

func (x *extSymbols) slot(name string) int32 {
	if i, ok := x.base[name]; ok {
		return i
	}
	i, _ := slices.BinarySearch(x.names, name)
	return x.n0 + int32(i)
}

// Prepare compiles the program (cached) and splices the plan's
// injections into a Prepared replay handle. An empty or nil plan
// returns the shared base compilation. Methods the program does not
// define are ignored, like the interpreter ignores plan entries that
// are never called.
func Prepare(p *Program, plan Plan) (*Prepared, error) {
	c, err := p.ensureCompiled()
	if err != nil {
		return nil, err
	}
	if len(plan) == 0 {
		return c.base, nil
	}
	// Copy the injections of the methods the program defines out of the
	// map once, and size the overlay.
	todo := make([]planned, 0, len(plan))
	var nStubs, nLocks, nSignals, nWaits int
	for fn, inj := range plan {
		fi, ok := c.fnIdx[fn]
		if !ok || inj.Empty() {
			continue
		}
		todo = append(todo, planned{fi: fi, inj: inj})
		nStubs += stubLen(&inj)
		nLocks += len(inj.GlobalLocks)
		nSignals += len(inj.SignalAfter)
		nWaits += len(inj.WaitBefore)
	}
	if len(todo) == 0 {
		return c.base, nil
	}
	// The names the program lacks get slots past its own, in name order.
	extG := extSymbols{base: c.globalIdx, n0: int32(len(c.globalNames))}
	extM := extSymbols{base: c.mutexIdx, n0: int32(len(c.mutexNames))}
	if nWaits+nSignals > 0 {
		extG.names = make([]string, 0, nWaits+nSignals)
	}
	if nLocks > 0 {
		extM.names = make([]string, 0, nLocks)
	}
	for i := range todo {
		inj := &todo[i].inj
		for _, s := range inj.WaitBefore {
			extG.add(s.Var)
		}
		for _, s := range inj.SignalAfter {
			extG.add(s.Var)
		}
		for _, mu := range inj.GlobalLocks {
			extM.add(mu)
		}
	}
	extG.seal()
	extM.seal()

	pp := &Prepared{
		prog:       p,
		c:          c,
		code:       c.code,
		fns:        make([]fnPlan, len(c.funcs)),
		inj:        make([]injMeta, 0, len(todo)),
		nGlobals:   len(c.globalNames) + len(extG.names),
		mutexNames: c.mutexNames,
		mutexRank:  c.mutexRank,
	}
	copy(pp.fns, c.base.fns)
	for k := range todo {
		pp.fns[todo[k].fi].inj = int32(k) // until the walk below
	}
	if nStubs > 0 {
		pp.stubs = make([]instr, 0, nStubs)
	}
	if len(extM.names) > 0 {
		pp.mutexNames = slices.Concat(c.mutexNames, extM.names)
		pp.mutexRank = mutexRanks(pp.mutexNames)
	}
	pp.nMutexes = len(pp.mutexNames)
	var release []int32
	if nLocks > 0 {
		release = make([]int32, 0, nLocks)
	}
	var signals []slotVal
	if nSignals > 0 {
		signals = make([]slotVal, 0, nSignals)
	}

	// Walk the injected methods in function-index order: emit each
	// entry part as a chain in the stubs, every step continuing at the
	// next and the last at the method's body, and lay the end-of-call
	// halves out together.
	base := int32(len(c.code))
	for fi := range pp.fns {
		if pp.fns[fi].inj < 0 {
			continue
		}
		inj := &todo[pp.fns[fi].inj].inj
		meta := injMeta{
			override:   inj.OverrideReturn,
			catchAll:   inj.CatchExceptions,
			catchValue: inj.CatchValue,
			endDelay:   inj.DelayReturn,
		}
		entry := base + int32(len(pp.stubs))
		for _, wb := range inj.WaitBefore {
			pp.stubs = append(pp.stubs, instr{op: opWaitUntil, b: extG.slot(wb.Var), x: litExpr(wb.Val)})
		}
		// Sorted acquisition order keeps simultaneous multi-lock
		// injections deadlock-free (see pushCall): the locks are sorted
		// by rank, i.e. by name, in place in the stubs.
		first := len(pp.stubs)
		r0 := len(release)
		for _, mu := range inj.GlobalLocks {
			ms := extM.slot(mu)
			k := len(pp.stubs)
			pp.stubs = append(pp.stubs, instr{op: opLock, b: ms})
			for k > first && pp.mutexRank[pp.stubs[k-1].b] > pp.mutexRank[ms] {
				pp.stubs[k] = pp.stubs[k-1]
				k--
			}
			pp.stubs[k] = instr{op: opLock, b: ms}
		}
		for _, in := range pp.stubs[first:] {
			release = append(release, in.b)
		}
		meta.release = release[r0:len(release):len(release)]
		if inj.DelayStart > 0 {
			pp.stubs = append(pp.stubs, instr{op: opSleep, x: litExpr(int64(inj.DelayStart))})
		}
		// Link the prologue: each step continues at the next, and the
		// last at the forced return or the method's own body.
		n := int32(len(pp.stubs)) - (entry - base)
		for k := int32(0); k < n; k++ {
			pp.stubs[entry-base+k].c = entry + k + 1
		}
		switch {
		case inj.ForceReturn != nil:
			pp.stubs = append(pp.stubs, instr{op: opReturn, x: litExpr(*inj.ForceReturn)})
		case inj.ForceReturnVoid:
			pp.stubs = append(pp.stubs, instr{op: opReturnVoid})
		case n > 0:
			pp.stubs[entry-base+n-1].c = c.funcs[fi].entry
		default:
			entry = c.funcs[fi].entry // no entry part: enter the body directly
		}
		s0 := len(signals)
		for _, sg := range inj.SignalAfter {
			signals = append(signals, slotVal{slot: extG.slot(sg.Var), val: sg.Val})
		}
		meta.signals = signals[s0:len(signals):len(signals)]
		pp.fns[fi] = fnPlan{entry: entry, inj: int32(len(pp.inj))}
		pp.inj = append(pp.inj, meta)
	}
	return pp, nil
}
