package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Func is a named function of a simulated program. Every dynamic
// invocation is traced as a method span.
type Func struct {
	Name string
	Body []Op
	// SideEffectFree marks functions whose return value can be altered
	// or whose exceptions can be absorbed without corrupting program
	// state. The paper restricts return-value and exception-handling
	// interventions to such methods (§3.3, "Validity of intervention");
	// the flag stands in for the developer annotation.
	SideEffectFree bool
}

// Program is a complete simulated application: shared state plus
// functions, with Entry as the main thread's body.
//
// A Program must be fully constructed before its first run: the first
// Prepare compiles it to bytecode and caches the compilation, so
// later mutations (AddFunc, Globals edits) would not be picked up.
type Program struct {
	Name  string
	Entry string
	Funcs map[string]*Func
	// Globals are initial shared variable values.
	Globals map[string]int64
	// Arrays are initial shared array contents.
	Arrays map[string][]int64

	// compiled caches the bytecode compilation (see compile.go).
	compiled atomic.Pointer[compiled]
}

// NewProgram returns an empty program with the given entry function name.
func NewProgram(name, entry string) *Program {
	return &Program{
		Name:    name,
		Entry:   entry,
		Funcs:   make(map[string]*Func),
		Globals: make(map[string]int64),
		Arrays:  make(map[string][]int64),
	}
}

// AddFunc registers a function and returns it for further configuration.
func (p *Program) AddFunc(name string, body ...Op) *Func {
	f := &Func{Name: name, Body: body}
	p.Funcs[name] = f
	return f
}

// FuncNames returns the registered function names, sorted.
func (p *Program) FuncNames() []string {
	out := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks static well-formedness: the entry exists, every Call
// and Spawn target exists, and no function body is nil.
func (p *Program) Validate() error {
	if p.Entry == "" {
		return fmt.Errorf("sim: program %q has no entry", p.Name)
	}
	if _, ok := p.Funcs[p.Entry]; !ok {
		return fmt.Errorf("sim: program %q entry %q not defined", p.Name, p.Entry)
	}
	for name, f := range p.Funcs {
		if f == nil {
			return fmt.Errorf("sim: program %q: nil function %q", p.Name, name)
		}
		if err := p.validateOps(name, f.Body); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateOps(fn string, ops []Op) error {
	for _, op := range ops {
		switch o := op.(type) {
		case Call:
			if _, ok := p.Funcs[o.Fn]; !ok {
				return fmt.Errorf("sim: %s calls undefined %q", fn, o.Fn)
			}
		case Spawn:
			if _, ok := p.Funcs[o.Fn]; !ok {
				return fmt.Errorf("sim: %s spawns undefined %q", fn, o.Fn)
			}
		case Try:
			if err := p.validateOps(fn, o.Body); err != nil {
				return err
			}
			if err := p.validateOps(fn, o.Handler); err != nil {
				return err
			}
		case If:
			if err := p.validateOps(fn, o.Then); err != nil {
				return err
			}
			if err := p.validateOps(fn, o.Else); err != nil {
				return err
			}
		case While:
			if err := p.validateOps(fn, o.Body); err != nil {
				return err
			}
		}
	}
	return nil
}
