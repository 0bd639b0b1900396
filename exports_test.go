package aid_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// interfaceMethods lists the exported methods under internal/ that no
// code calls by name because they satisfy an interface, each with the
// interface. Keys are "package.Type.Method", the package by its last
// import path element.
var interfaceMethods = map[string]string{
	"core.InterventionPanicError.Error": "error",
	"core.PredSet.MarshalJSON":          "json.Marshaler",
	"core.PredSet.String":               "fmt.Stringer",
	"core.PredSet.UnmarshalJSON":        "json.Unmarshaler",
	"core.RobustIntervener.LastInfo":    "core.TrialIntervener",
	"effects.Contradiction.String":      "fmt.Stringer",
	"effects.Effect.String":             "fmt.Stringer",
	"effects.Level.String":              "fmt.Stringer",
	"par.PanicError.Error":              "error",
	"predicate.Kind.String":             "fmt.Stringer",
	"rngfast.Source.Uint64":             "rand.Source64",
	"service.DrainingError.Error":       "error",
	"service.FileStore.Delete":          "service.CorpusStore",
	"service.FileStore.List":            "service.CorpusStore",
	"service.FileStore.Put":             "service.CorpusStore",
	"service.MemStore.Delete":           "service.CorpusStore",
	"service.MemStore.Get":              "service.CorpusStore",
	"service.MemStore.List":             "service.CorpusStore",
	"service.MemStore.Put":              "service.CorpusStore",
	"service.NotFoundError.Error":       "error",
	"service.SaturatedError.Error":      "error",
	"service.SessionPanicError.Error":   "error",
	"service.UnknownStudyError.Error":   "error",
	"service.ValidationError.Error":     "error",
	"service.ValidationError.Unwrap":    "interface{ Unwrap() error }",
	"sim.BudgetError.Error":             "error",
	"sim.Expr.String":                   "fmt.Stringer",
	"sim.ReplayPanicError.Error":        "error",
	"synthetic.FlakyWorld.Intervene":    "core.Intervener",
	"trace.AccessKind.String":           "fmt.Stringer",
	"trace.Outcome.String":              "fmt.Stringer",
	"trace.Value.String":                "fmt.Stringer",
}

// testHooks lists the exported methods under internal/ that only
// another package's tests call, each with the reason. At most two may
// stay; anything else a test needs goes through the product's path or
// lives under internal/oracle.
var testHooks = map[string]string{
	"core.PredSet.Table":      "aid's TestImportMemoSharesOneTable checks that a restored memo's observations share one predicate table",
	"sim.Prepared.FinalState": "effects' TestPuritySoundness and sim's engine tests compare a run's final shared state",
}

// TestProductionExportsHaveCallers fails on every exported function
// and every exported method of an exported type, declared in a
// non-test file under internal/, that no non-test file of the module
// or of perfbench/ refers to outside its own declaration. Code that
// only tests call belongs in a _test.go file or under internal/oracle.
// internal/oracle/... and internal/chaos (test-side fault injection)
// are exempt; methods that satisfy an interface are listed in
// interfaceMethods, and the test hooks other packages' tests need in
// testHooks.
func TestProductionExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	if len(testHooks) > 2 {
		t.Errorf("%d test hooks listed, at most 2 allowed", len(testHooks))
	}
	// perfbench/ is a module of its own that requires this one: listed
	// from there, the non-test files of both come dependencies first.
	cmd := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles "\t"}}{{end}}`, "./...", "aid/...")
	cmd.Dir = "perfbench"
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	imp := moduleImporter{importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), map[string]*types.Package{}}
	type decl struct {
		key        string
		start, end token.Pos
	}
	decls := map[types.Object]decl{}
	used := map[types.Object]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) < 3 {
			continue
		}
		path, dir := fields[0], fields[1]
		var files []*ast.File
		for _, name := range fields[2:] {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		imp.mod[path] = pkg
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || !checked(path) {
					continue
				}
				key := pkg.Name() + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverName(fd.Recv.List[0].Type)
					if !token.IsExported(recv) {
						continue
					}
					key = pkg.Name() + "." + recv + "." + fd.Name.Name
				}
				decls[info.Defs[fd.Name]] = decl{key, fd.Pos(), fd.End()}
			}
		}
		// Dependencies come first, so every declaration a use can name
		// is known by now.
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if d, ok := decls[fn.Origin()]; ok && (id.Pos() < d.start || id.Pos() >= d.end) {
					used[fn.Origin()] = true
				}
			}
		}
	}

	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var offenders []string
	for obj, d := range decls {
		declared[d.key] = true
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		_, iface := interfaceMethods[d.key]
		_, hook := testHooks[d.key]
		switch {
		case (iface || hook) && used[obj]:
			offenders = append(offenders, fmt.Sprintf("%s: %s is allowlisted but has callers; drop it from the list", pos, d.key))
		case !iface && !hook && !used[obj]:
			offenders = append(offenders, fmt.Sprintf("%s: %s has no caller outside _test.go files", pos, d.key))
		}
	}
	for _, list := range []map[string]string{interfaceMethods, testHooks} {
		for key := range list {
			if !declared[key] {
				offenders = append(offenders, fmt.Sprintf("the allowlist names %s, which no non-test file under internal/ declares", key))
			}
		}
	}
	slices.Sort(offenders)
	for _, o := range offenders {
		t.Error(o)
	}
	t.Logf("%d exported functions and methods checked", len(decls))
}

// checked reports whether the gate covers declarations in the package.
func checked(path string) bool {
	rest, ok := strings.CutPrefix(path, "aid/internal/")
	return ok && rest != "chaos" && rest != "oracle" && !strings.HasPrefix(rest, "oracle/")
}

// receiverName is the name of a method's receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// moduleImporter hands out the module's packages as the gate checked
// them, so that a use in one package and the declaration in another
// resolve to one object; standard packages come from source.
type moduleImporter struct {
	std types.ImporterFrom
	mod map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}
