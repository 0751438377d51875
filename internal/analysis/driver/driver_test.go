package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestDirectives(t *testing.T) {
	src := `package p

//vbslint:ignore errwrap deliberate: logged, never matched
var a = 1

var b = 2 //vbslint:ignore errwrap,lockio two analyzers, one reason

//vbslint:ignore errwrap
var c = 3

//vbslint:ignore all everything on the next line is sanctioned
var d = 4
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
	sup, bad := directives(pkg)

	if len(bad) != 1 {
		t.Fatalf("malformed directives: got %d findings, want 1: %v", len(bad), bad)
	}
	if bad[0].Pos.Line != 8 {
		t.Errorf("malformed directive reported at line %d, want 8", bad[0].Pos.Line)
	}

	at := func(line int) token.Position { return token.Position{Filename: "p.go", Line: line} }
	checks := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"errwrap", 4, true},  // standalone directive covers next line
		{"errwrap", 3, true},  // and its own line
		{"errwrap", 5, false}, // but not two lines down
		{"lockio", 4, false},  // only named analyzers
		{"errwrap", 6, true},  // trailing directive covers its line
		{"lockio", 6, true},   // comma-separated list
		{"poolescape", 6, false},
		{"metricreg", 12, true}, // "all" suppresses every analyzer
	}
	for _, c := range checks {
		if got := sup.matches(c.analyzer, at(c.line)); got != c.want {
			t.Errorf("matches(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
}
