package main

import (
	"bytes"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
)

// TestSeededViolations lints a throwaway module seeded with one
// violation per analyzer class vbslint can reach without this
// repository's types, plus a malformed suppression directive, and
// checks each one is reported.
func TestSeededViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.24\n")
	write("seeded.go", `package seeded

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

type state struct {
	mu   sync.Mutex
	hits atomic.Uint64
}

func wrap(err error) error {
	return fmt.Errorf("load: %v", err)
}

func fetch(s *state) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := http.Get("http://example.invalid/")
	return err
}

func snapshot(s *state) atomic.Uint64 {
	//vbslint:ignore
	return s.hits
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-vet=false", "-C", dir, "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, needle := range []string{"(errwrap)", "(lockio)", "(atomicfaults)", "malformed //vbslint:ignore"} {
		if !strings.Contains(out, needle) {
			t.Errorf("output does not mention %q:\n%s", needle, out)
		}
	}
}

// TestSuppressedViolation checks a well-formed directive silences the
// finding and flips the exit status to 0.
func TestSuppressedViolation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module seeded\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package seeded

import "fmt"

func wrap(err error) error {
	//vbslint:ignore errwrap flattening is deliberate: logged, never matched
	return fmt.Errorf("load: %v", err)
}
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet=false", "-C", dir, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestCleanTree lints this repository, tests included, and demands
// zero findings: the tree must stay clean against its own invariants.
// (go vet is exercised by the CI lint job via make lint; skipping it
// here keeps the test hermetic to the analyzer suite.)
func TestCleanTree(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/vbslint -> module root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet=false", "-C", root, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("vbslint on the tree: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// testSupport names the exported internal/ API that is deliberately
// reached only from tests. A key is a package path (the whole package)
// or a symbol key as testOnlyAPI prints it; a type's key covers its
// methods.
var testSupport = map[string]string{
	"repro/internal/fabricsim":                  "functional oracle: simulates decoded bitstreams against the netlist",
	"repro/internal/midset":                     "the bench's mid containers, compiled for decoder tests",
	"repro/internal/analysis/analysistest":      "fixture runner for the analyzer tests",
	"repro/internal/arch.Default":               "the paper's evaluated architecture (W=20), a fixture across package tests",
	"repro/internal/arch.PaperExample":          "the Section II-B worked example (W=5), a fixture across package tests",
	"repro/internal/arch.Params.Adjacency":      "the switch graph the masked CondUsed, the seam scans and the router are checked against",
	"repro/internal/arch.Params.CondForCode":    "oracle for the I/O code table the decoder resolves through",
	"repro/internal/arch.Params.CodeForCond":    "oracle for the I/O code table the decoder resolves through",
	"repro/internal/bitstream.Decode":           "reads back the raw .rbs files vbsdecode writes",
	"repro/internal/bitstream.Raw.Clone":        "plane snapshots for the fabric and bitstream tests",
	"repro/internal/bitstream.Raw.Equal":        "bit-identity oracle for every decode test",
	"repro/internal/compress.DecompressLZSS":    "proves the LZSS baseline is a real codec",
	"repro/internal/devirt.Router.Configs":      "the pooled router's ownership contract, exercised by the poolescape fixture",
	"repro/internal/netlist.NewSimulator":       "netlist simulator, fabricsim's and synth's behavioural oracle",
	"repro/internal/netlist.Simulator":          "netlist simulator, fabricsim's and synth's behavioural oracle",
	"repro/internal/netlist.NewDesignSimulator": "packed-design simulator, fabricsim's behavioural oracle",
	"repro/internal/netlist.DesignSimulator":    "packed-design simulator, fabricsim's behavioural oracle",
	"repro/internal/netlist.WriteBLIF":          "the writer half of the ParseBLIF round-trip tests",
}

// TestNoTestOnlyAPI holds internal/ to no exported func or method that
// only tests reach: such API is either dead or belongs in a _test.go.
func TestNoTestOnlyAPI(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	got, err := testOnlyAPI(filepath.Dir(filepath.Dir(wd)), testSupport)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range got {
		t.Errorf("%s is exported but only tests reference it: delete it, move it into a _test.go, or keep-list it with a reason", key)
	}
}

// TestNoTestOnlyAPIFixture checks the guard on a seeded module: a func
// only a test calls is flagged; a method that satisfies an interface
// and a keep-listed func are not.
func TestNoTestOnlyAPIFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seeded\n\ngo 1.24\n")
	write("internal/x/x.go", `package x

type T struct{}

func (T) String() string { return "t" }

func New() T { return T{} }

func OnlyTest() int { return 1 }

func Kept() int { return 2 }
`)
	write("internal/x/x_test.go", `package x

import "testing"

func TestX(t *testing.T) {
	if OnlyTest()+Kept() != 3 {
		t.Fatal("sum")
	}
}
`)
	write("main.go", `package main

import (
	"fmt"

	"seeded/internal/x"
)

func main() { fmt.Println(x.New()) }
`)
	got, err := testOnlyAPI(dir, map[string]string{"seeded/internal/x.Kept": "fixture keep-list entry"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"seeded/internal/x.OnlyTest"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("testOnlyAPI = %q, want %q", got, want)
	}
}

// testOnlyAPI loads the module at dir without its tests and returns the
// sorted keys (package path, then receiver and name, dot-joined) of
// every exported func or method declared under internal/ that no
// non-test code references, apart from its own body. Methods that satisfy some
// interface in the loaded universe are exempt (they are reached
// dynamically), as is every key or package in keep.
func testOnlyAPI(dir string, keep map[string]string) ([]string, error) {
	pkgs, err := driver.Load(dir, false, "./...")
	if err != nil {
		return nil, err
	}
	// Imports resolve through export data, so a caller and the
	// declaring package hold distinct *types.Func: match on keys.
	used := make(map[string]bool)
	declared := make(map[string]*types.Func)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self string
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						self = symbolKey(fn)
						if fd.Name.IsExported() && strings.Contains(pkg.Path+"/", "/internal/") {
							declared[self] = fn
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
							if key := symbolKey(fn.Origin()); key != self {
								used[key] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	ifaces := interfaces(pkgs)
	var out []string
	kept := func(key string) bool {
		for k := key; ; {
			if keep[k] != "" {
				return true
			}
			i := strings.LastIndexByte(k, '.')
			if i <= strings.LastIndexByte(k, '/') {
				return false
			}
			k = k[:i]
		}
	}
	for key, fn := range declared {
		if !used[key] && !kept(key) && !satisfiesInterface(fn, ifaces) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// symbolKey names fn as path.Name or path.Recv.Name.
func symbolKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + ".?." + fn.Name()
}

// interfaces collects every interface type the loaded packages can
// see: the universe's error, each named interface in the loaded
// packages and everything they import, and interface literals.
func interfaces(pkgs []*driver.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver
// type (or pointer to it) implements an interface that has a method
// of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// TestListFlag checks -list names every analyzer in the suite.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"errwrap", "poolescape", "lockio", "atomicfaults", "metricreg"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
